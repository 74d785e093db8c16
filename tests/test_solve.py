"""Differential tests of the spectral front door `solve` against independent references.

Every route `solve` can take is compared with a reference that does not go
through it.  The routes are the Hatano-Nelson gauge ("similarity[", single-band
chain, OBC, omega = 0), the SSH reduction ("reduced[", two-sublattice chain,
OBC, every omega = 0), the Bloch blocks ("bloch[", uniform rings of either
model), the half-size x/p solve ("xp[", any other point whose quadratic form
has a zero x-p cross block, i.e. every other two-sublattice point) and the
dense solve ("eig[", everything else, and x/p points with an eigenvalue below
the small-eigenvalue guard).  The references are:

* uniform couplings: the dense eigenvalues of the commutator-transcribed
  `build_*_excitation_direct` matrix (for rings the independent oracle of the
  Bloch route, which is built on `bloch_matrix`), under PBC also the union of
  the Bloch blocks, and for single-band rings the analytic dispersion;
* site-resolved fields: the dense eigenvalues of
  ``excitation_matrix(build_modbkc_quadratic(f, bc))``;
* eigenvectors of the x/p route: the skin census and mean profile of the
  dense route on a disorder realization of fig9;
* the x/p route's mirror split (a centrosymmetric Qx and Qp solved as two
  half-size blocks): on mirror-symmetric, non-uniform fields, the dense
  eigenvalues, the residual of all 4N columns on the dense M and their
  Sigma-flips; the same fields one ulp off the mirror, which take the
  unsplit solve; and, at N = 100 on the benchmark's Delta1 sweep and the
  fig3b point, the unsplit ``eigvals(Qp Qx)``; its test of centrosymmetry,
  read off Q's diagonals (`_mirrored`): the dense definition
  ``T == T[::-1, ::-1]`` of each strided block, on built and random forms;
* the Hatano-Nelson route's closed form, in every sign quadrant of
  (J0, Delta0): the per-channel `eigvalsh` of the gauge image
  ``conftest.conjugate(hatano_nelson_A(p), M)``, the dense eigenvalues of
  the direct M at N <= 10, and the eigenpair residual on the direct M; its
  per-channel lift: the lift of the whole 2N x 2N standing-wave array,
  bit for bit up to the sign of zero; at Delta0 = +-J0, where the gauge is
  singular, the nilpotency of the direct M (exact zeros, no vectors), but
  at J0 = Delta0 = 0, where M = 0, exact zeros and the standing waves;
* the reduced route's real gauge: the complex eigenvalues of
  `effective_ssh_matrix` and the eigenpair residual on the 4N matrix;
* the reduced route's eigenvectors, which come from the twisted
  factorization of H_r (`_twisted`, as log-moduli and phases, in real
  arithmetic on all-real chains) on every chain off the guarded
  fallback: the same, the eigenvalue-only solve, and the skin census of the
  full-size `eig` of H_r; at an exactly zero pivot, the eigen-equation of
  the uniform chain; for its stacked P and Q recurrences, written in place,
  the two-loop factorization, complex or real, bit for bit; its lift of one
  column per root, with their Gamma-, Sigma- and Sigma-Gamma-flips (on the
  guarded fallback, 2N columns and their Sigma-flips):
  ``SimilarityMatrix.lift_polar`` of the full product basis, equal in
  value, and the lift against the polar formula with `np.linalg.norm`'s
  column norms, bit for bit (their forward accuracy is in
  ``test_forward_accuracy.py``);
* all-real reduced chains (generic, near a transition, or cut): the
  eigenvalues of `scipy.linalg.eigh_tridiagonal` of H_r, and for the
  zero-mode count the LDL^T (Sturm) inertia count of H_r -+ tol;
* the reduced route's SSH bonds (`ssh_bonds`): the superdiagonal of
  `effective_ssh_matrix`, bit for bit, which no reduced solve builds;
* eigenvalue-only solves (``vectors=False``): the same route with vectors,
  which on the reduced route off its guarded fallback gives the same
  eigenvalues bit for bit and the same ``source``, and for the reduced
  solve of a sign-mixed chain the complex eigenvalues of
  `effective_ssh_matrix`;
* the reduced route's kernel for uniform sign-mixed chains (real and
  imaginary bonds), `_quantised_mu` (the eigenvalues mu of D F from the
  open-boundary quantisation condition), in both phases and for both sign
  patterns: 40-digit `mpmath.eig` of D F at N <= 12, and at N = 100 the
  roots of det(D F - mu) refined to 40 digits from the dense eigenvalues;
  the dense `eigvals(D F)` on every sign-mixed fig2 OBC, fig4, fig5 and
  fig7 chain and across 1 < |kappa| < 1.2; `_square_eig`, counted, at
  |kappa| = 1, on a zero bond and on fields one ulp off uniform; and starts
  patched to reach one root twice or the spurious root theta = 0, which its
  checks reject.  On same-sign bonds it returns None, and the same
  references match -s^2 over the singular values s of T = H_ssh / i;
* all-imaginary chains, which the route solves as the real T = H_ssh / i
  on the all-real path: 40-digit `mpmath.eigsy` of T, the smallest |E|
  relative to itself, at N in {2, 3, 5, 12} in both phases, on fig2
  Delta1 = 1.25 and near |kappa| = 1 (N = 40) and on the guarded fallback;
  `eigh_tridiagonal` of T across 1 < |kappa| < 1.2 at N = 100; and no call
  of `_quantised_mu`, `_square_eig` or `np.linalg.eig` on any of them;
* the reduced route's closed-form edge pair: its |E| against inverse
  iteration on D F in 200-digit arithmetic, and its residual on the 4N
  matrix;
* the residual check, which works from the diagonals of the real K
  (M = i K) mapped from Q's and, on the reduced and x/p routes, skips each
  -E column: the diagonals of -Sigma Q, the dense K scattered from them
  and its residuals, bit for bit, and the Sigma-flipped partner of every
  column, with a residual on M equal bit for bit (on the reduced route off
  its fallback also the Gamma-flipped partner, which it never checks);
* the x/p blocks taken from Q's diagonals: the strided blocks of the dense
  Q (``conftest.dense_q``), bit for bit; and a recording `model._symmetric`,
  which no route may call at the chain's full dimension.

Couplings are drawn with |Delta -+ J| bounded away from zero, so the gauge
ratios r = (Delta+J)/(Delta-J) stay within 1/4 <= |r| <= 4 (6.5 for the
site-jittered fields) and the dense reference of an open omega = 0 chain
stays accurate enough to compare against at N <= 12.
"""

import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import linear_sum_assignment

from bkchain.model import (
    AxisSpec,
    BKCParams,
    BoundaryCondition,
    ModBKCParams,
    QuadraticForm,
    SiteFields,
    bloch_matrix,
    build_bkc_excitation_direct,
    build_bkc_quadratic,
    build_modbkc_excitation_direct,
    build_modbkc_quadratic,
    excitation_bands,
    excitation_matrix,
)
from bkchain import model, spectral, topology, transform
from bkchain.disorder import DisorderSpec, sample_site_fields
from bkchain.skin import nhse_fraction, profile_matrix, spatial_profile
from bkchain.spectral import (
    REDUCED_MIN_EIGENVALUE,
    XP_MIN_EIGENVALUE,
    SolverError,
    Spectrum,
    _bands,
    _check_residual,
    _order,
    _residuals,
    _twisted,
    bkc_pbc_dispersion,
    eigendecompose,
    modbkc_spectrum_zero_omega,
    solve,
    zero_gap,
)
from bkchain.topology import edge_mode_count, phase_scan, zero_modes_per_copy
from bkchain.transform import (
    SimilarityMatrix,
    effective_ssh_matrix,
    hatano_nelson_A,
    hatano_nelson_coupling,
    ssh_bonds,
)

from conftest import conjugate, dense_q

OBC = BoundaryCondition.OBC
PBC = BoundaryCondition.PBC

# Bounds on the matched eigenvalue distance, relative to max(1, max|E|).
# Gauge routes (Hatano-Nelson, SSH reduction; open chains at omega = 0)
# against the dense reference: the routes are exact, and the reference loses
# accuracy to the non-normality of the open chain (measured <= 4e-11 over
# 1200 random draws).
GAUGE_BOUND = 1e-9
# Dense route against the dense references: the matrices agree up to the
# signs of zero entries, but at exceptional points the spectrum is defective
# (2x2 Jordan blocks) and any dense solve is accurate only to ~sqrt(eps) =
# 1.5e-8.  Random draws hit them: omega = 2 Delta0 cos(k) on the open-chain k
# grid, or J2 = Delta1 = 0 with |J1| = |Delta2| on the ring (measured <= 4e-11
# elsewhere).
DENSE_BOUND = 1e-6
# Reduced route against the complex eigenvalues of the same SSH matrix: both
# solve a 2N problem, unitarily similar through S, so they differ by rounding
# only (measured <= 2e-13 over 1500 random sign-mixed draws).
SSH_BOUND = 1e-10
# shared settings: derandomized, so a run of the suite is reproducible
PROPERTY = settings(deadline=None, derandomize=True)


def _coupling(draw):
    """(Delta, J) with |J/Delta| or |Delta/J| <= 0.6, so 1/4 <= |r| <= 4."""
    a = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    t = draw(st.floats(-0.6, 0.6))
    return (a, a * t) if draw(st.booleans()) else (a * t, a)


omegas = st.one_of(st.just(0.0), st.just(1e-3),
                   st.floats(0.2, 2.0).flatmap(lambda w: st.sampled_from([w, -w])))
sizes = st.integers(min_value=2, max_value=12)
bcs = st.sampled_from([OBC, PBC])


@st.composite
def modbkc_params(draw):
    (D1, J1), (D2, J2) = _coupling(draw), _coupling(draw)
    return ModBKCParams(J1=J1, J2=J2, Delta1=D1, Delta2=D2, omega=draw(omegas), N=draw(sizes))


@st.composite
def bkc_params(draw):
    D0, J0 = _coupling(draw)
    return BKCParams(J0=J0, Delta0=D0, omega=draw(omegas), N=draw(sizes))


@st.composite
def zero_omega_site_fields(draw):
    """Uniform couplings jittered by up to 10% per site, every onsite omega = 0."""
    p = draw(modbkc_params())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    jitter = lambda v: v * rng.uniform(0.9, 1.1, p.N)  # noqa: E731
    zero = np.zeros(p.N)
    return SiteFields(J1=jitter(p.J1), J2=jitter(p.J2), Delta1=jitter(p.Delta1),
                      Delta2=jitter(p.Delta2), omega_A=zero, omega_B=zero)


@st.composite
def disordered_omega_site_fields(draw):
    """Jittered couplings with per-site omega in [-0.05, 0.15], the fig9 draw (0.05 +- 200%)."""
    f = draw(zero_omega_site_fields())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return SiteFields(J1=f.J1, J2=f.J2, Delta1=f.Delta1, Delta2=f.Delta2,
                      omega_A=rng.uniform(-0.05, 0.15, f.N), omega_B=rng.uniform(-0.05, 0.15, f.N))


@st.composite
def sign_mixed_site_fields(draw):
    """omega = 0 fields whose bonds mix both signs of Delta^2 - J^2 from cell to cell.

    Each intracell and intercell bond is Delta-dominant (a real SSH bond) or
    J-dominant (an imaginary one), with the magnitudes and signs of
    `_coupling`; up to three bonds of the open chain (every pair but the last
    intercell one, which has no bond) are then set to Delta = J or
    Delta = -J exactly, which cuts the SSH chain and leaves the gauge singular.
    """
    n = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    big = rng.uniform(0.5, 2.0, (2, n)) * rng.choice([-1.0, 1.0], (2, n))
    small = big * rng.uniform(-0.6, 0.6, (2, n))
    hop_dominant = np.array(draw(st.lists(st.booleans(), min_size=2 * n, max_size=2 * n))).reshape(2, n)
    delta, hop = np.where(hop_dominant, small, big), np.where(hop_dominant, big, small)
    for k in draw(st.lists(st.integers(0, 2 * n - 2), max_size=3)):
        hop.flat[k] = delta.flat[k] * draw(st.sampled_from([1.0, -1.0]))
    zero = np.zeros(n)
    return SiteFields(J1=hop[0], J2=hop[1], Delta1=delta[0], Delta2=delta[1], omega_A=zero, omega_B=zero)


def _distance(a, b):
    """Largest gap of the optimal one-to-one matching (multiplicities count)."""
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].max())


def _cut(f):
    """Whether some bond of the open chain has Delta = +-J (a singular gauge)."""
    return bool(np.any(np.abs(f.Delta1) == np.abs(f.J1)) or np.any(np.abs(f.Delta2[:-1]) == np.abs(f.J2[:-1])))


def _bloch_union(p):
    return np.concatenate([np.linalg.eigvals(bloch_matrix(p, 2 * np.pi * m / p.N))
                           for m in range(p.N)])


def _assert_xp_route(s, ref, M):
    """The x/p route, or the dense one where the guard saw an eigenvalue near 0.

    M = -i Sigma Q has the entries of Q up to sign, so max|M| = max|Q|.  Random
    rings do reach exact zero modes (J1 = J2, Delta1 = Delta2 = 0 at N = 2).
    """
    if "x/p guard" not in s.source:
        assert s.source.startswith("xp[")
        return
    assert s.source.startswith("eig[")
    assert np.abs(ref).min() <= 2 * XP_MIN_EIGENVALUE * np.abs(M).max()


def _check_against_oracles(p, bc, direct, gauge_route):
    s = solve(p, bc)
    M = direct(p, bc).M
    ref = np.linalg.eigvals(M)
    scale = max(1.0, float(np.abs(ref).max()))
    gauge = bc is OBC and p.omega == 0
    if gauge:
        assert s.source.startswith(gauge_route)
    elif bc is PBC:
        assert s.source.startswith("bloch[")
    elif isinstance(p, BKCParams):
        assert s.source.startswith("eig[")  # the single-band x-p cross block is nonzero
    else:
        _assert_xp_route(s, ref, M)
    bound = (GAUGE_BOUND if gauge else DENSE_BOUND) * scale
    assert _distance(s.eigenvalues, ref) <= bound
    if bc is PBC:
        assert _distance(s.eigenvalues, _bloch_union(p)) <= bound


def _quadratic_matrix(f, bc):
    return excitation_matrix(build_modbkc_quadratic(f, bc)).M


def _excitation_k(f, bc):
    """The dense real K of M = i K, whose diagonals `_check_residual` reads."""
    return excitation_matrix(build_modbkc_quadratic(f, bc)).K


def _dense_quadratic(f, bc):
    return np.linalg.eigvals(_quadratic_matrix(f, bc))


class TestSolveRoutes:
    @given(p=modbkc_params(), bc=bcs)
    @settings(PROPERTY, max_examples=80)
    def test_modbkc_matches_direct_oracle(self, p, bc):
        _check_against_oracles(p, bc, build_modbkc_excitation_direct, "reduced[")

    @given(p=bkc_params(), bc=bcs)
    @settings(PROPERTY, max_examples=80)
    def test_bkc_matches_direct_oracle(self, p, bc):
        _check_against_oracles(p, bc, build_bkc_excitation_direct, "similarity[")

    @given(f=zero_omega_site_fields())
    @settings(PROPERTY, max_examples=60)
    def test_site_fields_reduced_route_matches_dense(self, f):
        s = solve(f, OBC)
        ref = _dense_quadratic(f, OBC)
        assert s.source.startswith("reduced[")
        assert _distance(s.eigenvalues, ref) <= GAUGE_BOUND * max(1.0, float(np.abs(ref).max()))

    @given(f=sign_mixed_site_fields())
    @settings(PROPERTY, max_examples=100)
    def test_reduced_route_with_mixed_bond_signs(self, f):
        s = solve(f, OBC)
        assert s.source.startswith("reduced[")
        E = np.linalg.eigvals(effective_ssh_matrix(f))
        M = _quadratic_matrix(f, OBC)
        dense = np.linalg.eigvals(M)
        scale = max(1.0, float(np.abs(dense).max()))
        assert _distance(s.eigenvalues, np.concatenate([1j * E, -1j * E])) <= SSH_BOUND * scale
        # A cut at Delta = +-J couples the two pieces of M one way only, so
        # exact zero modes of both pieces form Jordan blocks of size up to
        # their count z, which any dense solve resolves to ~eps^(1/z).
        z = 2 * int((np.abs(E) < 1e-9 * scale).sum())
        bound = max(GAUGE_BOUND, 10 * np.finfo(float).eps ** (1 / z)) if z else GAUGE_BOUND
        assert _distance(s.eigenvalues, dense) <= bound * scale
        assert (s.eigenvectors is None) == _cut(f)
        if not _cut(f):
            V = s.eigenvectors
            residual = np.linalg.norm(M @ V - V * s.eigenvalues, axis=0).max()
            assert residual <= 1e-10 * np.abs(M).max()

    @given(f=zero_omega_site_fields())
    @settings(PROPERTY, max_examples=30)
    def test_site_fields_ring_skips_reduction(self, f):
        # the gauge does not close around a ring: no reduction under PBC
        s = solve(f, PBC)
        ref = _dense_quadratic(f, PBC)
        _assert_xp_route(s, ref, _quadratic_matrix(f, PBC))
        assert _distance(s.eigenvalues, ref) <= DENSE_BOUND * max(1.0, float(np.abs(ref).max()))

    @given(f=disordered_omega_site_fields(), bc=bcs)
    @settings(PROPERTY, max_examples=60)
    def test_site_fields_disordered_omega_xp_route_matches_dense(self, f, bc):
        s = solve(f, bc)
        ref = _dense_quadratic(f, bc)
        _assert_xp_route(s, ref, _quadratic_matrix(f, bc))
        assert _distance(s.eigenvalues, ref) <= DENSE_BOUND * max(1.0, float(np.abs(ref).max()))

    def test_small_eigenvalue_guard_takes_dense_route(self):
        # min|E| ~ 1e-8 on this ring, far below 1e-4 max|Q|: squaring would
        # leave it with ~sqrt(eps) accuracy, so the dense solver is used.  The
        # uniform ring itself takes the Bloch route; its site fields do not.
        p = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.5, Delta2=1.0, omega=0.3, N=100)
        s = solve(SiteFields.uniform(p), PBC)
        assert s.source.startswith("eig[") and "x/p guard" in s.source
        ref = _bloch_union(p)
        assert _distance(s.eigenvalues, ref) <= DENSE_BOUND * max(1.0, float(np.abs(ref).max()))

    def test_xp_eigenvectors_match_dense_on_fig9_realization(self):
        base = ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.05, N=100)
        f = sample_site_fields(base, DisorderSpec({"omega": 2.0}, seed=20240601, realizations=20), 0)
        s = solve(f, OBC)
        dense = eigendecompose(excitation_matrix(build_modbkc_quadratic(f, OBC)))
        assert s.source.startswith("xp[")
        assert nhse_fraction(s, 0.1, 0.5, f.N) == nhse_fraction(dense, 0.1, 0.5, f.N)
        mean_xp, mean_dense = profile_matrix(s, f.N).mean(0), profile_matrix(dense, f.N).mean(0)
        assert np.abs(mean_xp - mean_dense).max() <= 1e-12

    def test_bkc_singular_point_is_exactly_zero(self):
        # Delta0 = J0: no gauge exists; the hopping is one-way, so M is
        # nilpotent, one Jordan block of size N per channel (M^N = 0, rank
        # 2N - 2), with exact spectrum {0}: the closed form's c = 0 gives it
        # as it is, where a dense solve scatters it to ~eps^(1/N) * max|M|
        p = BKCParams(J0=0.8, Delta0=0.8, omega=0.0, N=4)
        M = build_bkc_excitation_direct(p, OBC).M
        assert not np.linalg.matrix_power(M, p.N).any() and np.linalg.matrix_rank(M) == 2 * p.N - 2
        for s in (solve(p, OBC), solve(p, OBC, vectors=False)):
            assert _route(s) == "similarity[" and s.base is None and s.eigenvectors is None
            assert s.eigenvalues.tobytes() == np.zeros(2 * p.N, dtype=complex).tobytes()  # 0+0j, no -0

    @pytest.mark.parametrize("Delta0", [0.8, -0.8])
    def test_bkc_singular_point_names_the_missing_gauge(self, Delta0):
        # Delta0 = +-J0: the gauge is built for vectors only, and its error says why there are none
        p = BKCParams(J0=0.8, Delta0=Delta0, omega=0.0, N=4)
        note = f" (no vectors: hatano_nelson_A: Delta = {Delta0!r}, J = 0.8 gives Delta = +-J; transform is singular)"
        assert solve(p, OBC).source == "similarity[symplectic,obc,n=4]" + note
        assert solve(p, OBC, vectors=False).source == "similarity[symplectic,obc,n=4]"

    @pytest.mark.parametrize("Delta0,N", [(0.5001, 200), (0.51, 400),
                                          (np.nextafter(0.5, 1), 100), (np.nextafter(0.5, 0), 100)])
    def test_bkc_gauge_beyond_exp_overflow(self, Delta0, N):
        # (N - 1)/2 log r > 709: the gauge diagonal itself overflows a double,
        # but the gauge built in log space exists and the route stays exact,
        # down to Delta0 one ulp from J0
        p = BKCParams(J0=0.5, Delta0=Delta0, omega=0.0, N=N)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = solve(p, OBC)
        band = 2 * np.sqrt(complex((p.J0 - p.Delta0) * (p.J0 + p.Delta0))) \
            * np.cos(np.pi * np.arange(1, N + 1) / (N + 1))
        ref = np.concatenate([band, band])
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert s.source.startswith("similarity[")
        assert np.abs(s.eigenvalues - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_failed_gauge_vectors_are_dropped(self, monkeypatch):
        # fig4 at J1 = 1.2, with the guard raised so that the full-size
        # eig(H_r) runs: its near-zero edge pair comes back as a mixture that
        # the gauge lift maps to no eigenvector of M; the exact eigenvalues
        # stay, the vectors go, and the scan still counts
        monkeypatch.setattr(spectral, "REDUCED_MIN_EIGENVALUE", np.inf)
        p = ModBKCParams(J1=1.2, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        s = solve(p, OBC)
        assert "(half-size guard: min|E| " in s.source
        assert s.source.startswith("reduced[") and "no vectors: eigenpair residual" in s.source
        assert s.eigenvectors is None
        assert np.array_equal(s.eigenvalues, modbkc_spectrum_zero_omega(p, OBC).eigenvalues)
        pt = phase_scan(replace(p, J1=0.0), [AxisSpec("J1", 1.2, 1.2, 0.02)])[0]
        assert (pt.nhse_fraction, pt.zero_modes, pt.error) == (None, 2, None)


def _route(s):
    """The route prefix of ``Spectrum.source``, up to and including its "["."""
    return s.source[:s.source.index("[") + 1]


def _assert_same_without_vectors(p, bc, bound=1e-12):
    """solve(p, bc, vectors=False) takes the route of solve(p, bc) and finds its eigenvalues.

    ``bound`` is relative to max|E|; the eigenvalue-only solve skips the
    vectors and the residual check only.
    """
    full, bare = solve(p, bc), solve(p, bc, vectors=False)
    assert bare.eigenvectors is None
    assert _route(bare) == _route(full)
    assert _distance(bare.eigenvalues, full.eigenvalues) <= bound * np.abs(full.eigenvalues).max()
    return full, bare


def _assert_reduced_parity(full, bare):
    """A reduced solve with vectors and without: off the guarded fallback, the same values mu and roots."""
    assert full.eigenvectors is not None and full.source == bare.source
    if "half-size guard" not in full.source:
        assert np.array_equal(full.eigenvalues, bare.eigenvalues)


class TestEigenvaluesOnly:
    """Every route of `solve` with and without eigenvectors."""

    @given(p=st.one_of(modbkc_params(), bkc_params()))
    @settings(PROPERTY, max_examples=60)
    def test_bloch(self, p):
        full, _ = _assert_same_without_vectors(p, PBC, DENSE_BOUND)
        assert _route(full) == "bloch["

    @given(p=modbkc_params().filter(lambda p: p.omega != 0))
    @settings(PROPERTY, max_examples=60)
    def test_xp_open_chain(self, p):
        full, _ = _assert_same_without_vectors(p, OBC, DENSE_BOUND)
        assert _route(full) in ("xp[", "eig[")

    @given(f=disordered_omega_site_fields(), bc=bcs)
    @settings(PROPERTY, max_examples=40)
    def test_xp_site_fields(self, f, bc):
        full, _ = _assert_same_without_vectors(f, bc, DENSE_BOUND)
        assert _route(full) in ("xp[", "eig[")

    def test_xp_guard_point(self):
        f = SiteFields.uniform(ModBKCParams(J1=1.4, J2=1.2, Delta1=1.5, Delta2=1.0, omega=0.3, N=100))
        _, bare = _assert_same_without_vectors(f, PBC, DENSE_BOUND)
        assert bare.source.startswith("eig[") and "x/p guard" in bare.source

    @given(p=modbkc_params().map(lambda p: replace(p, omega=0.0)))
    @settings(PROPERTY, max_examples=60)
    def test_reduced_uniform(self, p):
        full, bare = _assert_same_without_vectors(p, OBC, GAUGE_BOUND)
        assert _route(full) == "reduced["
        _assert_reduced_parity(full, bare)

    @given(f=zero_omega_site_fields())
    @settings(PROPERTY, max_examples=40)
    def test_reduced_site_fields(self, f):
        _assert_reduced_parity(*_assert_same_without_vectors(f, OBC, GAUGE_BOUND))

    @pytest.mark.parametrize("p", [
        ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.0, N=100),  # fig3
        ModBKCParams(J1=0.0, J2=0.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=100),  # fig6
        ModBKCParams(J1=0.9, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100),  # fig4, deflated
    ], ids=["fig3", "fig6", "fig4_deflated"])
    def test_reduced_all_real_figure_points(self, p):
        _assert_reduced_parity(solve(p, OBC), solve(p, OBC, vectors=False))

    @given(f=sign_mixed_site_fields())
    @settings(PROPERTY, max_examples=60)
    def test_reduced_sign_mixed_and_cut(self, f):
        # cut chains (Delta = +-J on a bond) have eigenvalues only on both paths
        full, bare = _assert_same_without_vectors(f, OBC, GAUGE_BOUND)
        assert _route(full) == "reduced["
        if not _cut(f):
            _assert_reduced_parity(full, bare)

    @pytest.mark.parametrize("J1,Delta1", [(0.8, 0.8), (0.8, -0.8)])
    def test_singular_reduced_gauge(self, J1, Delta1):
        p = ModBKCParams(J1=J1, J2=1.4, Delta1=Delta1, Delta2=2.1, omega=0.0, N=30)
        full, _ = _assert_same_without_vectors(p, OBC)
        assert _route(full) == "reduced[" and "no vectors" in full.source

    @given(p=bkc_params().map(lambda p: replace(p, omega=0.0)))
    @settings(PROPERTY, max_examples=60)
    def test_single_band_gauge(self, p):
        full, _ = _assert_same_without_vectors(p, OBC)
        assert _route(full) == "similarity["

    @pytest.mark.parametrize("Delta0", [0.8, -0.8])
    def test_single_band_singular_point(self, Delta0):
        # Delta0 = +-J0: M is nilpotent (see the singular-point test above);
        # both paths give the closed form's exact zeros and no vectors
        p = BKCParams(J0=0.8, Delta0=Delta0, omega=0.0, N=4)
        full, bare = solve(p, OBC), solve(p, OBC, vectors=False)
        assert full.eigenvectors is None and bare.eigenvectors is None
        assert _route(bare) == _route(full) == "similarity["
        assert full.eigenvalues.tobytes() == bare.eigenvalues.tobytes() == np.zeros(8, dtype=complex).tobytes()

    def test_edge_mode_count_solves_no_vectors(self, monkeypatch):
        calls = []

        def recording_solve(p, bc, vectors=True):
            calls.append(vectors)
            return solve(p, bc, vectors)

        monkeypatch.setattr(topology, "solve", recording_solve)
        p = ModBKCParams(J1=1.0, J2=1.4, Delta1=1.5, Delta2=2.1, omega=0.0, N=100)
        assert edge_mode_count(p) == 2 and calls == [False]


# (J0, Delta0) over every sign quadrant, on both sides of |J0| = |Delta0|
_HN_VALUES = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
HN_POINTS = [(J0, Delta0) for J0 in _HN_VALUES for Delta0 in _HN_VALUES if abs(J0) != abs(Delta0)]


def _image_channel_eigenvalues(p):
    """Per-channel eigenvalues of the gauge image ``conjugate(hatano_nelson_A(p), M)``, by `eigvalsh`.

    Each channel is Hermitian (|J0| > |Delta0|) or anti-Hermitian; an
    anti-Hermitian K is -i times the Hermitian i K.
    """
    K = conjugate(hatano_nelson_A(p), build_bkc_excitation_direct(p, OBC).M)
    out = []
    for c in (0, 1):
        H = K[c::2, c::2]
        factor = 1 if np.abs(H - H.conj().T).max() <= 1e-12 * np.abs(K).max() else -1j
        H = H / factor
        assert np.abs(H - H.conj().T).max() <= 1e-12 * np.abs(K).max()
        out.append(factor * np.linalg.eigvalsh((H + H.conj().T) / 2))
    return np.concatenate(out)


def _hatano_nelson_full_lift(p):
    """The route's eigenvectors formed whole: the 2N x 2N standing-wave array lifted, then gathered sorted."""
    n = p.N
    m = np.arange(1, n + 1)
    U = np.sqrt(2 / (n + 1)) * np.sin(np.pi * (np.outer(m, m) % (2 * n + 2)) / (n + 1))
    vecs = np.zeros((2 * n, 2 * n), dtype=complex)
    vecs[0::2, :n] = vecs[1::2, n:] = U
    E = 2 * hatano_nelson_coupling(p) * np.sin(np.pi * (n + 1 - 2 * m) / (2 * n + 2))
    vals = np.concatenate([E, -E]) + 0.0
    return hatano_nelson_A(p).lift(vecs)[:, np.lexsort((vals.imag, vals.real))]


class TestHatanoNelsonRoute:
    """The closed-form route of the open single-band chain at omega = 0."""

    @pytest.mark.parametrize("J0,Delta0", HN_POINTS)
    def test_every_sign_quadrant(self, J0, Delta0):
        for N in (2, 3, 10, 101):
            p = BKCParams(J0=J0, Delta0=Delta0, omega=0.0, N=N)
            s, bare = solve(p, OBC), solve(p, OBC, vectors=False)
            assert s.source == bare.source == f"similarity[symplectic,obc,n={N}]"
            M = build_bkc_excitation_direct(p, OBC).M
            V, E = s.eigenvectors, s.eigenvalues
            assert np.linalg.norm(M @ V - V * E, axis=0).max() <= 1e-13 * np.abs(M).max()
            assert np.abs(np.linalg.norm(V, axis=0) - 1).max() <= 1e-14
            values, counts = np.unique(E, return_counts=True)
            assert np.all(counts == 2) and len(values) == N
            negated = -E[::-1]
            assert np.array_equal(negated[np.lexsort((negated.imag, negated.real))], E)
            assert bare.eigenvalues.tobytes() == E.tobytes()

    @pytest.mark.parametrize("J0,Delta0", HN_POINTS)
    def test_channel_lift_matches_full_lift(self, J0, Delta0):
        # the route lifts each channel's N x N block into its sorted columns;
        # equal bit for bit up to the sign of zero: the whole lift multiplied
        # the other channel's zero rows by the gauge phases, which leaves -0.0
        for N in (2, 3, 10, 101):
            p = BKCParams(J0=J0, Delta0=Delta0, omega=0.0, N=N)
            V, ref = solve(p, OBC).eigenvectors, _hatano_nelson_full_lift(p)
            assert V.flags.f_contiguous == ref.flags.f_contiguous
            assert (V + 0.0).tobytes() == (ref + 0.0).tobytes()

    @pytest.mark.parametrize("J0,Delta0", HN_POINTS)
    def test_matches_image_and_dense_references(self, J0, Delta0):
        # the image solve is the route the closed form replaced; the dense
        # solve loses accuracy to the chain's non-normality, little at N <= 10
        for N in (2, 3, 10, 40):
            p = BKCParams(J0=J0, Delta0=Delta0, omega=0.0, N=N)
            E = solve(p, OBC).eigenvalues
            image = _image_channel_eigenvalues(p)
            assert _distance(E, image) <= 1e-14 * np.abs(image).max()
            if N <= 10:
                dense = np.linalg.eigvals(build_bkc_excitation_direct(p, OBC).M)
                assert _distance(E, dense) <= 1e-12 * max(1.0, float(np.abs(dense).max()))

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("J0,Delta0", [(0.5, 1.0), (-2.0, 1.0), (-0.5, -1.0), (2.0, 0.0),
                                           (0.8, 0.8), (0.8, -0.8), (0.0, 0.0)])
    def test_never_forms_M(self, J0, Delta0, vectors, monkeypatch):
        # nor solves anything: the eigenvalues are the closed form's, at a singular gauge (|J0| = |Delta0|) too
        def refuse(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        for module, name in ((spectral, "excitation_matrix"), (spectral, "eigendecompose"),
                             *((np.linalg, name) for name in ("eig", "eigvals", "eigh", "eigvalsh", "svd"))):
            monkeypatch.setattr(module, name, refuse(name))
        p = BKCParams(J0=J0, Delta0=Delta0, omega=0.0, N=20)
        s = solve(p, OBC, vectors=vectors)
        singular = abs(J0) == abs(Delta0) != 0  # J0 = Delta0 = 0 has the identity gauge
        assert _route(s) == "similarity[" and (s.eigenvectors is not None) == (vectors and not singular)
        if abs(J0) == abs(Delta0):
            assert s.eigenvalues.tobytes() == np.zeros(2 * p.N, dtype=complex).tobytes()

    def test_failed_check_keeps_the_eigenvalues(self, monkeypatch):
        # a gauge one entry off lifts no eigenvector: the check fails, and the exact eigenvalues come alone
        def skewed(p):
            A = hatano_nelson_A(p)
            return replace(A, log_scale=A.log_scale + np.eye(1, A.dim, 2)[0])

        p = BKCParams(J0=0.5, Delta0=1.0, omega=0.0, N=20)
        exact = solve(p, OBC)
        monkeypatch.setattr(transform, "hatano_nelson_A", skewed)
        s = solve(p, OBC)
        assert s.source.startswith("similarity[symplectic,obc,n=20] (no vectors: eigenpair residual ")
        assert s.base is None and s.eigenvectors is None
        assert s.eigenvalues.tobytes() == exact.eigenvalues.tobytes()


class TestReducedHalfSize:
    """The eigenvalue-only solve of a sign-mixed reduced chain, +-sqrt(eig(D F))."""

    @given(f=sign_mixed_site_fields())
    @settings(PROPERTY, max_examples=100)
    def test_matches_complex_ssh_eigenvalues(self, f):
        s = solve(f, OBC, vectors=False)
        E = np.linalg.eigvals(effective_ssh_matrix(f))
        ref = np.concatenate([1j * E, -1j * E])
        assert s.source.startswith("reduced[") and s.eigenvectors is None
        assert _distance(s.eigenvalues, ref) <= SSH_BOUND * max(1.0, float(np.abs(ref).max()))
        if "half-size guard" in s.source:
            H = effective_ssh_matrix(f)
            assert np.abs(E).min() <= 2 * REDUCED_MIN_EIGENVALUE * np.abs(H).max()

    @pytest.mark.parametrize("J2", [1.6, 2.0, 2.2])
    def test_uniform_sign_mixed_chain_takes_half_size(self, J2):
        # fig8's intercell-dominant side: J2 > Delta2 makes the intercell bonds imaginary
        p = ModBKCParams(J1=1.0, J2=J2, Delta1=1.5, Delta2=2.1, omega=0.0, N=100)
        s = solve(p, OBC, vectors=False)
        # J2 = 1.6 is topological: its edge pair (~2e-9) is deflated
        assert s.source.startswith("reduced[modbkc,obc,n=100]") and "guard" not in s.source
        E = np.linalg.eigvals(effective_ssh_matrix(p))
        ref = np.concatenate([1j * E, -1j * E])
        assert _distance(s.eigenvalues, ref) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("cut", [False, True])
    def test_guard_keeps_zero_mode_count(self, cut):
        # fig5 at J2 = 2.2: a topological sign-mixed chain whose edge pair is
        # ~1e-21 from zero, deflated in closed form; cut at the middle
        # intercell bond (Delta2 = J2 there), each half keeps an edge pair of
        # ~1e-11, two values lie below the guard and the full-size solve runs
        f = _fig5_split(0.0 if cut else None)
        bare, full = solve(f, OBC, vectors=False), solve(f, OBC)
        note = " (half-size guard: min|E| " if cut else " (deflated edge pair, closed form: backward error "
        for s in (bare, full):
            assert note in s.source and (", 2 values)" in s.source) == cut
        count = zero_modes_per_copy(bare, f, OBC, 1e-6)
        assert count == zero_modes_per_copy(full, f, OBC, 1e-6) == (4 if cut else 2)
        E = np.linalg.eigvals(effective_ssh_matrix(f))
        assert _distance(bare.eigenvalues, np.concatenate([1j * E, -1j * E])) <= SSH_BOUND * np.abs(E).max()

    def test_nearly_cut_chain_names_the_guard(self):
        # the same chain with J2 = (1 - 1e-6) Delta2 at the middle bond: the
        # gauge exists, the two inner edge states split off to ~1e-3, and with
        # two values below the guard the vector path runs eig(H_r) and says so
        f = _fig5_split(1e-6)
        bare, full = solve(f, OBC, vectors=False), solve(f, OBC)
        for s in (bare, full):
            assert s.source.startswith("reduced[modbkc,obc,n=100] (half-size guard: min|E| ")
            assert s.source.endswith(" <= 0.01 max|H_r|, 2 values)")
        _check_residual(_bands(_excitation_k(f, OBC)), full.eigenvectors, full.eigenvalues)
        assert zero_modes_per_copy(bare, f, OBC, 1e-6) == zero_modes_per_copy(full, f, OBC, 1e-6) == 2
        assert _distance(full.eigenvalues, bare.eigenvalues) <= 1e-12 * np.abs(full.eigenvalues).max()

    @pytest.mark.parametrize("J1,J2,vectors,kernel", [
        (1.4, 0.0, True, "eig"), (1.4, 0.0, False, "eigvals"), (0.0, 0.5, True, "eigh")],
        ids=["mixed", "mixed-values", "all-real"])
    def test_full_size_failure_raises_solver_error(self, monkeypatch, J1, J2, vectors, kernel):
        # the guard raised so that every chain takes the full-size solve of H_r, whose LAPACK call fails:
        # the failure comes out as a SolverError that names the matrix, as on every other route
        monkeypatch.setattr(spectral, "REDUCED_MIN_EIGENVALUE", np.inf)

        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, kernel, failing)
        p = ModBKCParams(J1=J1, J2=J2, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        with pytest.raises(SolverError, match=r"^full-size eigensolver failed, dim=200: did not converge$"):
            solve(p, OBC, vectors)

    def test_singular_value_failure_raises_solver_error(self, monkeypatch):
        # an all-real chain takes its E_m from the SVD of F; a LAPACK failure there is a SolverError too,
        # so a phase-scan point records it as such
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        p = ModBKCParams(J1=0.0, J2=0.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        message = "half-size singular value solve failed, dim=100: did not converge"
        with pytest.raises(SolverError, match=f"^{message}$"):
            solve(p, OBC, vectors=False)
        assert [pt.error for pt in phase_scan(p, [AxisSpec("J1", 0.0, 0.0, 0.1)])] == [f"SolverError: {message}"]

    @pytest.mark.parametrize("J1,note,count", [
        (1.4, " (deflated edge pair, closed form: backward error ", 2),
        (1.7, " (deflated edge pair, solved vectors: closed-form backward error ", 0),
        (2.0, None, 0)], ids=["closed_form", "solved_vectors", "plain"])
    def test_vector_path_names_the_route(self, J1, note, count):
        # scan-grid points: J1 = 1.4 is topological, its edge pair ~7e-19
        # from zero, deflated with closed-form vectors; J1 = 1.7 lies near
        # the transition at sqrt(3.25), where the pair (~5e-4) is too far
        # from zero for the closed-form vectors and `_twisted` solves them;
        # J1 = 2.0 is trivial and takes the plain half-size solve
        p = ModBKCParams(J1=J1, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        full, bare = solve(p, OBC), solve(p, OBC, vectors=False)
        for s in (full, bare):
            assert s.source.startswith("reduced[modbkc,obc,n=100]")
            assert (note in s.source) if note else s.source == "reduced[modbkc,obc,n=100]"
        _assert_reduced_parity(full, bare)
        _check_residual(_bands(_excitation_k(p, OBC)), full.eigenvectors, full.eigenvalues)
        assert zero_modes_per_copy(full, p, OBC, 1e-6) == zero_modes_per_copy(bare, p, OBC, 1e-6) == count


def _fig5_split(cut):
    """fig5's chain at J2 = 2.2 as site fields; with ``cut``, J2 = (1 - cut) Delta2 at the middle intercell bond."""
    f = SiteFields.uniform(ModBKCParams(J1=0.0, J2=2.2, Delta1=1.0, Delta2=1.5, omega=0.0, N=100))
    if cut is None:
        return f
    J2 = f.J2.copy()
    J2[49] = f.Delta2[49] * (1 - cut)
    return replace(f, J2=J2)


def _all_mixed_chain(n=100):
    """omega = 0 fields with each bond J- or Delta-dominant at random, in the trivial phase."""
    rng = np.random.default_rng(11)
    delta1, delta2 = rng.uniform(1.0, 2.0, n), rng.uniform(0.2, 0.5, n)
    J1 = np.where(rng.random(n) < 0.5, delta1 * rng.uniform(0.2, 0.5, n), delta1 * rng.uniform(1.5, 2.0, n))
    J2 = np.where(rng.random(n) < 0.5, delta2 * rng.uniform(0.2, 0.5, n), delta2 * rng.uniform(1.5, 2.0, n))
    zero = np.zeros(n)
    return SiteFields(J1=J1, J2=J2, Delta1=delta1, Delta2=delta2, omega_A=zero, omega_B=zero)


def _assert_half_size_vectors(f):
    """The reduced route's eigenpairs of a sign-mixed chain: residual, and eigenvalues of two references."""
    s, bare = solve(f, OBC), solve(f, OBC, vectors=False)
    assert s.source.startswith("reduced[") and s.eigenvectors is not None
    M = _quadratic_matrix(f, OBC)
    assert _residuals(_bands(M), s.eigenvectors, s.eigenvalues).max() <= 1e-10 * np.abs(M).max()
    E = np.linalg.eigvals(effective_ssh_matrix(f))
    ref = np.concatenate([1j * E, -1j * E])
    assert _distance(s.eigenvalues, ref) <= SSH_BOUND * max(1.0, float(np.abs(ref).max()))
    assert _distance(s.eigenvalues, bare.eigenvalues) <= 1e-12 * np.abs(s.eigenvalues).max()
    return s


class TestReducedHalfSizeVectors:
    """Eigenvectors of a sign-mixed reduced chain from the half-size solve, (a, +-F a / E)."""

    @given(f=sign_mixed_site_fields().filter(lambda f: not _cut(f) and effective_ssh_matrix(f).imag.any()))
    @settings(PROPERTY, max_examples=100)
    def test_sign_mixed_chains(self, f):
        _assert_half_size_vectors(f)

    def test_all_mixed_chain(self):
        f = _all_mixed_chain()
        b = np.diagonal(effective_ssh_matrix(f), 1)
        assert b.real.any() and b.imag.any()
        assert _assert_half_size_vectors(f).source == "reduced[modbkc,obc,n=100]"

    def test_census_matches_full_size_solve_on_fig4(self, monkeypatch):
        # fig4's grid: 75 sign-mixed points (J1 > Delta1 = 1), 39 of them unguarded
        base = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        grid = [replace(base, J1=float(J1)) for J1 in AxisSpec("J1", 0.0, 2.5, 0.02).values() if J1 > 1.0]
        sources = [solve(p, OBC, vectors=False).source for p in grid]
        points = [p for p, source in zip(grid, sources) if source == "reduced[modbkc,obc,n=100]"]
        assert (len(grid), len(points)) == (75, 39)
        # the other 36 hold an edge pair, deflated with closed-form vectors or,
        # near the transition, solved ones; none takes the full-size solve
        closed = sum("(deflated edge pair, closed form: " in source for source in sources)
        solved = sum("(deflated edge pair, solved vectors: " in source for source in sources)
        assert (closed, solved) == (27, 9)
        half = [nhse_fraction(solve(p, OBC), 0.1, 0.9, p.N) for p in points]
        monkeypatch.setattr(spectral, "REDUCED_MIN_EIGENVALUE", np.inf)  # every chain takes eig(H_r)
        full = [solve(p, OBC) for p in points]
        assert all("half-size guard" in s.source for s in full)
        assert half == [nhse_fraction(s, 0.1, 0.9, p.N) for s, p in zip(full, points)]


def _uniform_bonds(n, a, c, signs):
    """mag and lower of a uniform H_r: intracell bonds a, intercell bonds c, lower's signs (sigma_1, sigma_2)."""
    mag = np.empty(2 * n - 1)
    mag[0::2], mag[1::2] = a, c
    lower = mag.copy()
    lower[0::2] *= signs[0]
    lower[1::2] *= signs[1]
    return mag, lower


def _reduced_bonds(p):
    """mag and lower of H_r for the chain ``p``, as `modbkc_spectrum_zero_omega` reads them off `ssh_bonds`."""
    b = ssh_bonds(p)
    mag = np.abs(b)
    return mag, np.where(b.imag != 0, -mag, mag)


def _dense_df(mag, lower):
    """D F of H_r = [[0, D], [F, 0]], as the dense fallback forms it."""
    return (np.diag(mag[0::2]) + np.diag(lower[1::2], -1)) @ (np.diag(lower[0::2]) + np.diag(mag[1::2], 1))


def _mp_df(mag, lower):
    """D F in mpmath, from the doubles that make up H_r, at the working precision."""
    n = (len(mag) + 1) // 2
    D, F = mpmath.zeros(n), mpmath.zeros(n)
    for j in range(n):
        D[j, j], F[j, j] = mpmath.mpf(float(mag[2 * j])), mpmath.mpf(float(lower[2 * j]))
    for j in range(n - 1):
        D[j + 1, j], F[j, j + 1] = mpmath.mpf(float(lower[2 * j + 1])), mpmath.mpf(float(mag[2 * j + 1]))
    return D * F


def _mp_refined_mu(mag, lower, starts):
    """Each start refined to an eigenvalue of D F by Newton's method on det(D F - mu), at 40 digits.

    The determinant and its derivative run through the three-term recurrence
    of the tridiagonal D F, in O(N) per step, on its entries formed from
    those of D and F: diagonal mag[2k] lower[2k] + lower[2k-1] mag[2k-1],
    and mag[2k] mag[2k+1] lower[2k+1] lower[2k] for the product of the
    off-diagonal pair.  The refined values must be pairwise distinct: the N
    starts reached N different eigenvalues.
    """
    with mpmath.workdps(40):
        m, low = [mpmath.mpf(float(x)) for x in mag], [mpmath.mpf(float(x)) for x in lower]
        n = (len(mag) + 1) // 2
        diag = [m[2 * k] * low[2 * k] + (low[2 * k - 1] * m[2 * k - 1] if k else 0) for k in range(n)]
        couple = [m[2 * k] * m[2 * k + 1] * low[2 * k + 1] * low[2 * k] for k in range(n - 1)]
        out = []
        for start in starts:
            mu = mpmath.mpc(complex(start))
            for _ in range(50):
                p0, p1, q0, q1 = mpmath.mpf(1), diag[0] - mu, mpmath.mpf(0), mpmath.mpf(-1)
                for k in range(1, n):
                    p0, p1, q0, q1 = (p1, (diag[k] - mu) * p1 - couple[k - 1] * p0,
                                      q1, -p1 + (diag[k] - mu) * q1 - couple[k - 1] * q0)
                step = p1 / q1
                mu -= step
                if abs(step) <= mpmath.mpf(10) ** -35 * max(abs(mu), 1):
                    break
            else:
                raise AssertionError("Newton refinement did not converge")
            out.append(complex(mu))
    out = np.array(out)
    gap = np.abs(out[:, None] - out)
    np.fill_diagonal(gap, np.inf)
    assert gap.min() > 1e-10 * np.abs(out).max()
    return out


def _square_eig_calls(monkeypatch):
    """Record the dimension of every `_square_eig` call, the dense solve of D F."""
    calls, inner = [], spectral._square_eig

    def recording(P, vectors):
        calls.append(len(P))
        return inner(P, vectors)

    monkeypatch.setattr(spectral, "_square_eig", recording)
    return calls


def _sign_mixed_figure_chains():
    """(label, chain) over every fig2 OBC, fig4, fig5 and fig7 chain at N = 100 with both real and imaginary bonds."""
    scan = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
    fig2 = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.0, N=100)
    grids = [("fig2", fig2, AxisSpec("Delta1", 0.0, 3.0, 0.05)), ("fig4", scan, AxisSpec("J1", 0.0, 2.5, 0.02)),
             ("fig5", scan, AxisSpec("J2", 0.0, 2.5, 0.02))]
    chains = [(f"{name} {ax.name}={v:.2f}", replace(base, **{ax.name: float(v)}))
              for name, base, ax in grids for v in ax.values()]
    chains.append(("fig7", ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.0, N=100)))
    return [(label, p) for label, p in chains if ssh_bonds(p).imag.any() and ssh_bonds(p).real.any()]


def _same_sign_case(mag, lower, ref):
    """Both bonds imaginary: `_quantised_mu` takes no such chain, whose mu are -s^2 over the singular values s of T.

    The route solves T = H_ssh / i, with the bonds mag, on the all-real path: F = D^T of T is upper bidiagonal.
    """
    assert spectral._quantised_mu(mag, lower) is None
    s = np.linalg.svd(np.diag(mag[0::2]) + np.diag(mag[1::2], 1), compute_uv=False)
    assert _distance(-s * s, ref) <= QUANTISED_MP_BOUND * np.abs(ref).max()


# The uniform chain's kernel `_quantised_mu` and the dense eigvals(D F) it
# replaces, against 40-digit eigenvalues of D F, relative to max|mu|: measured
# at most 2.5e-16 and 1.6e-15 (N <= 12), 5.5e-16 and 8.9e-15 (N = 100).  On
# same-sign bonds, -s^2 over the singular values of T: at most 8.3e-16.
QUANTISED_MP_BOUND = 2e-15
DENSE_MU_MP_BOUND = 2e-14
# The kernel against eigvals(D F) on the figure chains, relative to max|mu|:
# measured at most 1.0e-14, where the dense solve carries most of the error.
QUANTISED_DENSE_BOUND = 5e-14
# (sigma_1, sigma_2): "--" has both bonds imaginary, which `_quantised_mu` returns None on
SIGN_PATTERNS = [(-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)]


class TestQuantisedEigenvalues:
    """The eigenvalues mu of D F of a uniform sign-mixed chain, from the open-boundary quantisation condition."""

    @pytest.mark.parametrize("signs", SIGN_PATTERNS, ids=["-+", "+-", "--"])
    @pytest.mark.parametrize("kappa", [0.5, 3.0], ids=["trivial", "topological"])
    @pytest.mark.parametrize("n", [2, 3, 5, 12])
    def test_small_chains_match_mpmath_eig(self, n, kappa, signs):
        mag, lower = _uniform_bonds(n, 1.3, 1.3 * kappa, signs)
        with mpmath.workdps(40):
            ref = np.array([complex(e) for e in mpmath.eig(_mp_df(mag, lower), left=False, right=False)])
        if signs[0] == signs[1]:
            _same_sign_case(mag, lower, ref)
            return
        mu = spectral._quantised_mu(mag, lower)
        scale = np.abs(ref).max()
        assert mu is not None and len(mu) == n
        assert _distance(mu, ref) <= QUANTISED_MP_BOUND * scale
        assert _distance(np.linalg.eigvals(_dense_df(mag, lower)), ref) <= DENSE_MU_MP_BOUND * scale

    @pytest.mark.parametrize("signs", SIGN_PATTERNS, ids=["-+", "+-", "--"])
    @pytest.mark.parametrize("kappa", [0.8, 1.25], ids=["trivial", "topological"])
    def test_n100_matches_refined_determinant_roots(self, kappa, signs):
        # the reference starts from the dense eigenvalues, so it does not rest on the kernel's roots
        mag, lower = _uniform_bonds(100, 1.3, 1.3 * kappa, signs)
        dense = np.linalg.eigvals(_dense_df(mag, lower))
        ref = _mp_refined_mu(mag, lower, dense)
        if signs[0] == signs[1]:
            _same_sign_case(mag, lower, ref)
            return
        mu = spectral._quantised_mu(mag, lower)
        scale = np.abs(ref).max()
        assert mu is not None
        assert _distance(mu, ref) <= QUANTISED_MP_BOUND * scale
        assert _distance(dense, ref) <= DENSE_MU_MP_BOUND * scale

    def test_figure_chains_match_dense_eigenvalues(self):
        # every figure chain with both bond phases (fig2's Delta1 = 1.4 + 1e-16
        # has |kappa| ~ 1e8); near the transition, 1 < |kappa| < 1.06, four take
        # the dense solve (fig4 J1 = 1.76 to 1.8, fig5 J2 = 1.82).  The 28
        # all-imaginary fig2 chains (Delta1 < 1.4) take the all-real kernels
        chains, fallbacks = _sign_mixed_figure_chains(), []
        for label, p in chains:
            mag, lower = _reduced_bonds(p)
            mu = spectral._quantised_mu(mag, lower)
            if mu is None:
                fallbacks.append(label)
                assert 1 < mag[1] / mag[0] < 1.06, label
                continue
            dense = np.linalg.eigvals(_dense_df(mag, lower))
            assert _distance(mu, dense) <= QUANTISED_DENSE_BOUND * np.abs(dense).max(), label
        assert len(chains) == 159 and len(fallbacks) <= 4, fallbacks

    @pytest.mark.parametrize("signs,runs_from", [((-1.0, 1.0), 1.04), ((1.0, -1.0), 1.04), ((-1.0, -1.0), np.inf)],
                             ids=["-+", "+-", "--"])
    def test_near_transition_band(self, signs, runs_from):
        # 1 < |kappa| < 1.2 at N = 100: where the kernel's roots pass its
        # checks they match the dense solve.  kappa is imaginary, the roots
        # leave the real axis and the kernel runs from |kappa| = 1.04 on.  It
        # never runs with both bonds imaginary (see `TestAllImaginaryChains`)
        for kappa in 1 + 0.005 * np.arange(1, 40):
            mag, lower = _uniform_bonds(100, 1.3, 1.3 * kappa, signs)
            mu = spectral._quantised_mu(mag, lower)
            assert (mu is not None) == (kappa >= runs_from), kappa
            if mu is not None:
                dense = np.linalg.eigvals(_dense_df(mag, lower))
                assert _distance(mu, dense) <= QUANTISED_DENSE_BOUND * np.abs(dense).max()

    @pytest.mark.parametrize("p", [
        ModBKCParams(J1=1.4, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100),  # fig4, closed-form edge pair
        ModBKCParams(J1=1.7, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100),  # fig4, solved edge vectors
        ModBKCParams(J1=2.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100),  # fig4, trivial
        ModBKCParams(J1=0.0, J2=2.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100),  # fig5, topological
        ModBKCParams(J1=1.4, J2=1.2, Delta1=0.5, Delta2=1.0, omega=0.0, N=100),  # fig2, all imaginary, trivial
        ModBKCParams(J1=1.4, J2=1.2, Delta1=1.3, Delta2=1.0, omega=0.0, N=100),  # all imaginary, topological
        ModBKCParams(J1=1.4, J2=1.2, Delta1=2.0, Delta2=1.0, omega=0.0, N=100),  # fig2, (+, -)
        ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.0, N=100),  # fig7
    ], ids=["fig4-1.4", "fig4-1.7", "fig4-2.0", "fig5-2.0", "fig2-0.5", "mm-topological", "fig2-2.0", "fig7"])
    def test_vector_and_eigenvalue_solves_agree_bit_for_bit(self, p, monkeypatch):
        calls = _square_eig_calls(monkeypatch)
        full, bare = solve(p, OBC), solve(p, OBC, vectors=False)
        assert calls == []  # both took the kernel, or the singular values where every bond is imaginary
        _assert_reduced_parity(full, bare)
        _check_residual(_bands(_excitation_k(p, OBC)), full.eigenvectors, full.eigenvalues)
        # constant site fields are uniform too: the same kernel and the same values
        assert np.array_equal(solve(SiteFields.uniform(p), OBC, vectors=False).eigenvalues, bare.eigenvalues)
        assert calls == []

    def test_kappa_one_takes_the_dense_solve(self, monkeypatch):
        # |Delta1^2 - J1^2| = |Delta2^2 - J2^2| = 3: |kappa| = 1 exactly, the transition
        p = ModBKCParams(J1=2.0, J2=1.0, Delta1=1.0, Delta2=2.0, omega=0.0, N=100)
        mag, lower = _reduced_bonds(p)
        assert mag[0] == mag[1] and lower[0] == -lower[1]
        calls = _square_eig_calls(monkeypatch)
        s = solve(p, OBC, vectors=False)
        assert calls == [100] and spectral._quantised_mu(mag, lower) is None
        E = np.linalg.eigvals(effective_ssh_matrix(p))
        assert _distance(s.eigenvalues, np.concatenate([1j * E, -1j * E])) <= SSH_BOUND * np.abs(E).max()

    def test_zero_bond_takes_the_dense_solve(self, monkeypatch):
        # imaginary intracell and real intercell bonds, one of them zero (J2 = Delta2 at
        # cell 37): the chain is not uniform and falls apart into two pieces
        f = SiteFields.uniform(ModBKCParams(J1=2.0, J2=1.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100))
        J2 = f.J2.copy()
        J2[37] = f.Delta2[37]
        cut = replace(f, J2=J2)
        b = ssh_bonds(cut)
        assert b[75] == 0 and b.real.any() and b.imag.any()
        calls = _square_eig_calls(monkeypatch)
        s = solve(cut, OBC, vectors=False)
        assert calls == [100] and spectral._quantised_mu(*_reduced_bonds(cut)) is None
        E = np.linalg.eigvals(effective_ssh_matrix(cut))
        assert _distance(s.eigenvalues, np.concatenate([1j * E, -1j * E])) <= SSH_BOUND * np.abs(E).max()

    def test_one_ulp_off_uniform_takes_the_dense_solve(self, monkeypatch):
        f = SiteFields.uniform(ModBKCParams(J1=1.4, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100))
        J1 = f.J1.copy()
        J1[37] = np.nextafter(J1[37], np.inf)
        nudged = replace(f, J1=J1)
        mag, uniform = _reduced_bonds(nudged)[0], _reduced_bonds(f)[0]
        assert np.flatnonzero(mag != uniform).tolist() == [74]
        assert abs(mag[74] / uniform[74] - 1) <= 4 * np.finfo(float).eps
        calls = _square_eig_calls(monkeypatch)
        s, ref = solve(nudged, OBC, vectors=False), solve(f, OBC, vectors=False)
        assert calls == [100]
        assert s.source == ref.source
        assert _distance(s.eigenvalues, ref.eigenvalues) <= 1e-13 * np.abs(ref.eigenvalues).max()

    def test_two_starts_on_one_root_are_rejected(self, monkeypatch):
        # kappa = 1e-6 i: the spectrum is +- symmetric to rounding, so two
        # starts sent to the 2nd and (N-1)th roots in place of the 1st and Nth
        # keep the trace; only the separation of the roots shows the duplicates
        mag, lower = _uniform_bonds(100, 1.3, 1.3e-6, (-1.0, 1.0))
        assert spectral._quantised_mu(mag, lower) is not None
        starts = spectral._quantised_starts

        def duplicated(n, edge):
            theta = starts(n, edge)
            theta[0], theta[-1] = theta[1], theta[-2]
            return theta

        monkeypatch.setattr(spectral, "_quantised_starts", duplicated)
        assert spectral._quantised_mu(mag, lower) is None

    def test_spurious_root_is_rejected(self, monkeypatch):
        # a start near theta = 0 converges to that root of the quantisation
        # condition, which is no eigenvalue; the roots stay distinct, and only
        # the trace shows the missing one
        mag, lower = _uniform_bonds(100, 1.3, 0.65, (-1.0, 1.0))
        starts = spectral._quantised_starts

        def near_zero(n, edge):
            theta = starts(n, edge)
            theta[0] = 1e-3
            return theta

        monkeypatch.setattr(spectral, "_quantised_starts", near_zero)
        assert spectral._quantised_mu(mag, lower) is None


def _all_imaginary_chain(n, a, c):
    """The uniform chain at Delta1 = Delta2 = 1 whose bonds are i a (intracell) and i c (intercell), to rounding."""
    return ModBKCParams(J1=float(np.hypot(1.0, a)), J2=float(np.hypot(1.0, c)), Delta1=1.0, Delta2=1.0,
                        omega=0.0, N=n)


def _mp_eigsy_of_t(p):
    """Eigenvalues of T = H_ssh / i of an all-imaginary chain, by 40-digit `mpmath.eigsy` of its doubles."""
    t = ssh_bonds(p)
    assert not t.real.any()
    with mpmath.workdps(40):
        T = mpmath.zeros(len(t) + 1)
        for k, x in enumerate(t.imag):
            T[k, k + 1] = T[k + 1, k] = mpmath.mpf(float(x))
        return np.array([float(e) for e in mpmath.eigsy(T, eigvals_only=True)])


def _route_calls(monkeypatch):
    """Record by name every call of `_quantised_mu`, `_square_eig` and `np.linalg.eig`, the sign-mixed kernels."""
    calls = []

    def recording(name, inner):
        def call(*args, **kwargs):
            calls.append(name)
            return inner(*args, **kwargs)
        return call

    for module, name in ((spectral, "_quantised_mu"), (spectral, "_square_eig"), (np.linalg, "eig")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    return calls


# The all-imaginary route against 40-digit eigenvalues of T: the spectrum
# relative to max|E| and the edge value relative to itself, measured at most
# 1.8e-15 (fig2 Delta1 = 1.25, N = 40, the smallest |E|).
ALL_IMAGINARY_MP_BOUND = 5e-15
def _all_imaginary_guarded_chain():
    """Two topological all-imaginary pieces of six cells joined by an intercell bond of ~1.4e-3 i: the guard."""
    f = SiteFields.uniform(_all_imaginary_chain(12, 0.13, 1.3))
    J2 = f.J2.copy()
    J2[5] = f.Delta2[5] * (1 + 1e-6)
    return replace(f, J2=J2)


ALL_IMAGINARY_CHAINS = [(f"{n}-{phase}", _all_imaginary_chain(n, 1.3, 1.3 * kappa))
                        for n in (2, 3, 5, 12) for phase, kappa in (("trivial", 0.5), ("topological", 3.0))] + [
    ("fig2-1.25", ModBKCParams(J1=1.4, J2=1.2, Delta1=1.25, Delta2=1.0, omega=0.0, N=40)),
    ("near-kappa-1", ModBKCParams(J1=3.0, J2=2.9, Delta1=1.0, Delta2=1.0, omega=0.0, N=40)),
    ("guarded", _all_imaginary_guarded_chain()),
]


class TestAllImaginaryChains:
    """Open chains whose every bond is imaginary: H_ssh = i T, with T real, solved on the all-real path.

    The spectrum of M is that of T, each value twice.  None of these chains
    reaches a sign-mixed kernel: `_quantised_mu`, `_square_eig` (the dense
    D F) or the complex `eig` of H_r.
    """

    @pytest.mark.parametrize("p", [p for _, p in ALL_IMAGINARY_CHAINS], ids=[i for i, _ in ALL_IMAGINARY_CHAINS])
    def test_chains_match_mpmath_eigsy(self, p, monkeypatch):
        calls = _route_calls(monkeypatch)
        full, bare = solve(p, OBC), solve(p, OBC, vectors=False)
        assert calls == []
        _assert_reduced_parity(full, bare)
        assert "no vectors" not in full.source
        _check_residual(_bands(_excitation_k(p, OBC)), full.eigenvectors, full.eigenvalues)
        lam = _mp_eigsy_of_t(p)
        E = bare.eigenvalues
        assert not E.imag.any() and not np.signbit(E.imag).any()  # real, and no -0 for a CSV
        assert _distance(E, np.concatenate([lam, -lam])) <= ALL_IMAGINARY_MP_BOUND * np.abs(lam).max()
        edge = np.abs(lam).min()
        assert abs(np.abs(E).min() - edge) <= ALL_IMAGINARY_MP_BOUND * edge

    def test_near_transition_band_takes_no_dense_solve(self, monkeypatch):
        # 1 < |kappa| < 1.2 at N = 100, where `_quantised_mu` fell back to the
        # dense D F on kappa real: the singular values of T throughout
        calls = _route_calls(monkeypatch)
        for kappa in 1 + 0.005 * np.arange(1, 40):
            p = _all_imaginary_chain(100, 1.3, 1.3 * kappa)
            E = solve(p, OBC, vectors=False).eigenvalues
            t = ssh_bonds(p).imag
            lam = eigh_tridiagonal(np.zeros(len(t) + 1), t, eigvals_only=True)
            assert _distance(E, np.concatenate([lam, -lam])) <= 1e-14 * np.abs(lam).max(), kappa
        assert calls == []

    def test_zero_bond_takes_the_singular_values(self, monkeypatch):
        # J2 = Delta2: every intercell bond is zero, and the chain falls apart into dimers of |E| = sqrt(3)
        p = ModBKCParams(J1=2.0, J2=1.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        calls = _route_calls(monkeypatch)
        s = solve(p, OBC, vectors=False)
        assert calls == []
        assert np.all(np.abs(s.eigenvalues) == np.sqrt(3))


def _mp_edge_energy(f):
    """|E| of the smallest eigenvalue mu of D F, for H_r of ``f``, to 40 digits.

    Inverse iteration in 200-digit arithmetic on the doubles that make up
    H_r (see `modbkc_spectrum_zero_omega`): D is lower and F upper
    bidiagonal, so each step is two O(N) substitutions, and a lone small
    mu converges in a few steps.
    """
    b = np.diagonal(effective_ssh_matrix(f), 1)
    with mpmath.workdps(200):
        upper = [mpmath.mpf(float(x)) for x in np.abs(b)]
        lower = [-u if z.imag else u for u, z in zip(upper, b)]
        n = (len(b) + 1) // 2
        x, mu = [mpmath.mpf(1)] * n, mpmath.mpf(0)
        for _ in range(200):
            y = []  # D y = x, D[j, j] = upper[2j], D[j, j-1] = lower[2j-1]
            for j in range(n):
                y.append((x[j] - (lower[2 * j - 1] * y[j - 1] if j else 0)) / upper[2 * j])
            z = [mpmath.mpf(0)] * (n + 1)  # F z = y, F[j, j] = lower[2j], F[j, j+1] = upper[2j+1]
            for j in reversed(range(n)):
                z[j] = (y[j] - (upper[2 * j + 1] * z[j + 1] if j < n - 1 else 0)) / lower[2 * j]
            k = max(range(n), key=lambda j: abs(z[j]))
            new, x = x[k] / z[k], [t / z[k] for t in z[:n]]
            if abs(new - mu) <= mpmath.mpf(10) ** -45 * abs(new):
                return mpmath.sqrt(abs(new))
            mu = new
    raise AssertionError("inverse iteration did not converge")


@st.composite
def topological_fields(draw, mixed):
    """omega = 0 fields, N in [8, 12], deep in the topological phase.

    Every intracell bond is weak: |J1| = |Delta1| (1 -+ t), t in
    [1e-5, 5e-4] and |Delta1| in [0.5, 1], a bond below 0.032.  Every
    intercell bond is strong, above 0.8, as `_coupling` draws it with
    |Delta2| or |J2| in [1, 2].  So the edge pair lies below 1e-11 max|H_r|,
    and Delta1^2 - J1^2 cancels to no worse than 1e-11 relative.  All bonds
    are real unless ``mixed``; then each is real or imaginary at random, the
    first intracell bond imaginary.
    """
    n = draw(st.integers(8, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    delta1 = rng.uniform(0.5, 1.0, n) * rng.choice([-1.0, 1.0], n)
    outside = (rng.random(n) < 0.5) & mixed
    outside[0] = mixed
    t = 10 ** rng.uniform(-5, np.log10(5e-4), n)
    J1 = delta1 * np.where(outside, 1 + t, 1 - t) * rng.choice([-1.0, 1.0], n)
    big = rng.uniform(1.0, 2.0, n) * rng.choice([-1.0, 1.0], n)
    small = big * rng.uniform(-0.6, 0.6, n)
    hop = (rng.random(n) < 0.5) & mixed
    zero = np.zeros(n)
    return SiteFields(J1=J1, J2=np.where(hop, big, small), Delta1=delta1, Delta2=np.where(hop, small, big),
                      omega_A=zero, omega_B=zero)


class TestEdgePair:
    """The reduced route's closed-form edge pair against a high-precision reference."""

    @staticmethod
    def _assert_edge_pair(f, bound=1e-10):
        # the unchecked solve: in chains this dimerized the gauge's condition
        # reaches 1e26, and `solve` may drop the vectors for a bulk column
        s, bare = modbkc_spectrum_zero_omega(f, OBC), solve(f, OBC, vectors=False)
        assert "(deflated edge pair, closed form: backward error " in s.source and s.source == bare.source
        assert _distance(s.eigenvalues, bare.eigenvalues) <= 1e-12 * np.abs(s.eigenvalues).max()
        edge = np.argsort(np.abs(s.eigenvalues))[:4]  # +-i E in both copies
        ref = _mp_edge_energy(f)
        for spec in (s, bare):
            assert float(abs(mpmath.mpf(zero_gap(spec)) / ref - 1)) <= bound
            assert np.ptp(np.abs(spec.eigenvalues[np.argsort(np.abs(spec.eigenvalues))[:4]])) == 0
        M = _quadratic_matrix(f, OBC)
        assert _residuals(_bands(M), s.eigenvectors[:, edge], s.eigenvalues[edge]).max() <= 1e-10 * np.abs(M).max()
        return s

    @given(f=topological_fields(mixed=False))
    @settings(PROPERTY, max_examples=30)
    def test_all_real_chains(self, f):
        self._assert_edge_pair(f)

    @given(f=topological_fields(mixed=True))
    @settings(PROPERTY, max_examples=30)
    def test_sign_mixed_chains(self, f):
        self._assert_edge_pair(f)

    @pytest.mark.parametrize("J1,J2,numpy_value", [
        (0.0, 0.0, 9.7e-16), (0.9, 0.0, 6.6e-18), (1.4, 0.0, 2.6e-16), (0.0, 2.3, 6.2e-16)])
    def test_fig4_and_fig5_points(self, J1, J2, numpy_value):
        # fig4 J1 = 0 and 0.9 (all bonds real), fig4 J1 = 1.4 and fig5 J2 = 2.3
        # (sign-mixed); numpy_value is the abs_E_min the dense solves wrote,
        # 1e2 to 1e36 times the true |E| (2.05e-18, 2.93e-54, 6.84e-19, 1.66e-24)
        p = ModBKCParams(J1=J1, J2=J2, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        s = self._assert_edge_pair(p, bound=1e-12)
        assert zero_gap(s) < 1e-2 * numpy_value

    def test_pair_below_the_smallest_double(self):
        # J1 = Delta1 (1 - 1e-8): E ~ 1e-360 flushes to zero, and the tails
        # of the zero modes underflow, yet the lifted pair is exact
        p = ModBKCParams(J1=1 - 1e-8, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        s = solve(p, OBC)
        assert s.source == "reduced[modbkc,obc,n=100] (deflated edge pair, closed form: backward error 0.0e+00)"
        edge = np.argsort(np.abs(s.eigenvalues))[:4]
        assert np.all(s.eigenvalues[edge] == 0)
        M = _quadratic_matrix(p, OBC)
        assert _residuals(_bands(M), s.eigenvectors[:, edge], s.eigenvalues[edge]).max() <= 1e-15 * np.abs(M).max()


@st.composite
def all_real_fields(draw):
    """omega = 0 fields, N in [2, 64], every bond real: |J| < |Delta| on each, its bond from ~1e-6 |Delta| up.

    Deep in the topological phase the edge pair lies far below every bond,
    and chains with several weak bonds take the half-size guard.
    """
    n = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    delta = rng.uniform(0.5, 2.0, (2, n)) * rng.choice([-1.0, 1.0], (2, n))
    J = delta * (1 - 10 ** rng.uniform(-12, 0, (2, n))) * rng.choice([-1.0, 1.0], (2, n))
    zero = np.zeros(n)
    return SiteFields(J1=J[0], J2=J[1], Delta1=delta[0], Delta2=delta[1], omega_A=zero, omega_B=zero)


def _upper_bidiagonal(f):
    """F = D^T of H_r for an all-real chain: |bonds| of the A -> B hops on the diagonal, B -> A above it."""
    mag = np.abs(ssh_bonds(f))
    return np.diag(mag[0::2]) + np.diag(mag[1::2], 1)


class TestAllRealSingularValues:
    """All-real reduced chains take E from the singular values of the upper-bidiagonal F = D^T of H_r."""

    @pytest.mark.parametrize("J1,N,digits", [
        (0.0, 100, "2.0497e-18"), (0.5, 100, "1.3930e-24"), (0.9, 100, "2.9264e-54"),
        (0.0, 200, "5.0416e-36"), (0.9, 200, "6.2357e-108")])
    def test_fig4_edge_values(self, J1, N, digits):
        # LAPACK computes the singular values of a bidiagonal matrix to high relative accuracy
        # (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11, 873 (1990)) once it has one: NumPy's
        # OpenBLAS 0.3.31 keeps the upper-bidiagonal F exact, but its bidiagonal reduction of the
        # lower-bidiagonal D = F^T returned 1.7e-16, 1.6e-16 and 0 for the three N = 100 values.
        # This test guards the orientation of the input; the N = 200 cases reach the blocked
        # reduction (dgebrd with dlabrd, taken from N = 128 on in reference LAPACK).
        p = ModBKCParams(J1=J1, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=N)
        s = np.linalg.svd(_upper_bidiagonal(p), compute_uv=False)
        exact = _mp_edge_energy(p)
        assert f"{float(exact):.4e}" == digits
        assert float(abs(mpmath.mpf(float(s.min())) / exact - 1)) <= 1e-12
        for vectors in (False, True):
            assert zero_gap(solve(p, OBC, vectors=vectors)) == s.min()

    @given(f=all_real_fields())
    @settings(PROPERTY, max_examples=80)
    def test_values_match_eigh_tridiagonal(self, f):
        bare, full = solve(f, OBC, vectors=False), solve(f, OBC)
        assert _route(bare) == "reduced["
        if full.base is None:  # a chain with several weak bonds takes the guard, whose eigh(H_r) vectors can fail
            assert full.source.startswith(f"{bare.source} (no vectors: eigenpair residual ")
        else:
            assert full.source == bare.source
        assert bare.eigenvalues.tobytes() == full.eigenvalues.tobytes()  # guarded or not
        ref = eigh_tridiagonal(np.zeros(2 * f.N), np.abs(ssh_bonds(f)), eigvals_only=True)
        assert np.all(bare.eigenvalues.real == 0)
        E = np.sort(bare.eigenvalues.imag)
        assert np.abs(E - np.sort(np.concatenate([ref, ref]))).max() <= 1e-13 * np.abs(ref).max()


@st.composite
def all_real_chains(draw):
    """omega = 0 fields, N in [2, 40], with Delta^2 - J^2 >= 0 on every bond: generic, near-transition or cut.

    Bond magnitudes m are drawn first and each pair is J in [-3 m, 3 m] with
    Delta = +-sqrt(m^2 + J^2), so every bond of the open chain is real.
    Generic chains draw m in [0.5, 2]; near-transition chains have intracell
    bonds a and intercell bonds a (1 + t), |t| <= 0.05, up to a 1e-3 jitter
    per bond, so the edge pair lies anywhere from deep below to inside the
    bulk; cut chains are generic with up to three bonds at Delta = +-J exactly.
    """
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["generic", "near-transition", "cut"]))
    if kind == "near-transition":
        a, t = draw(st.floats(0.5, 2.0)), draw(st.floats(-0.05, 0.05))
        m = a * np.array([[1.0], [1 + t]]) * rng.uniform(1 - 1e-3, 1 + 1e-3, (2, n))
    else:
        m = rng.uniform(0.5, 2.0, (2, n))
    J = m * rng.uniform(-3, 3, (2, n))
    delta = np.sqrt(m * m + J * J) * rng.choice([-1.0, 1.0], (2, n))
    if kind == "cut":
        for k in draw(st.lists(st.integers(0, 2 * n - 2), min_size=1, max_size=3)):
            J[k % 2, k // 2] = delta[k % 2, k // 2] * draw(st.sampled_from([1.0, -1.0]))
    zero = np.zeros(n)
    return SiteFields(J1=J[0], J2=J[1], Delta1=delta[0], Delta2=delta[1], omega_A=zero, omega_B=zero)


def _sturm_count(mag, x):
    """Eigenvalues of H_r below x, from the inertia of H_r - x I (Demmel, Applied Numerical Linear Algebra, 5.3.4).

    H_r is the symmetric tridiagonal chain with a zero diagonal and the bond
    magnitudes ``mag``: the LDL^T pivots are d_1 = -x and
    d_{i+1} = -x - mag_i^2 / d_i, and the count is that of negative pivots
    (Sylvester).  A pivot below ``pivmin`` in magnitude is taken as -pivmin,
    as LAPACK's bisection does.
    """
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(mag, initial=0.0)) ** 2)
    d, count = -x, 0
    for e in [0.0, *mag]:
        d = -x - (e * e / d if e else 0.0)
        if abs(d) < pivmin:
            d = -pivmin
        count += d < 0
    return count


class TestAllRealReferences:
    """All-real reduced chains against references that share no code with the route: LAPACK's tridiagonal
    eigensolver of H_r and a Sturm count of its inertia."""

    @given(f=all_real_chains())
    @settings(PROPERTY, max_examples=150)
    def test_values_match_eigh_tridiagonal(self, f):
        mag = np.abs(ssh_bonds(f))
        ref = eigh_tridiagonal(np.zeros(2 * f.N), mag, eigvals_only=True)
        for vectors in (False, True):
            s = solve(f, OBC, vectors=vectors)
            assert _route(s) == "reduced["
            assert np.all(s.eigenvalues.real == 0)
            E = np.sort(s.eigenvalues.imag)
            assert np.abs(E - np.sort(np.concatenate([ref, ref]))).max() <= 1e-13 * np.abs(ref).max()

    @given(f=all_real_chains(), exponent=st.floats(-14, 0))
    @settings(PROPERTY, max_examples=150)
    def test_zero_modes_match_the_sturm_count(self, f, exponent):
        tol = 10.0 ** exponent
        mag = np.abs(ssh_bonds(f))
        # no eigenvalue of H_r within 1e-9 relative of +-tol, where rounding may put it on either side
        for x in (tol, -tol):
            assume(_sturm_count(mag, x * (1 - 1e-9)) == _sturm_count(mag, x * (1 + 1e-9)))
        inside = _sturm_count(mag, tol) - _sturm_count(mag, -tol)  # eigenvalues in (-tol, tol)
        for vectors in (False, True):
            assert zero_modes_per_copy(solve(f, OBC, vectors=vectors), f, OBC, tol) == inside
        assert edge_mode_count(f, tol) == inside

    def test_sturm_count_of_the_uniform_chain(self):
        # the 2N = 6 site chain with unit bonds has E = 2 cos(pi k / 7), k = 1..6
        E = np.sort(2 * np.cos(np.pi * np.arange(1, 7) / 7))
        for x in (-2.0, -1.0, -0.1, 0.1, 0.5, 1.5, 2.0):
            assert _sturm_count(np.ones(5), x) == np.sum(E < x)


def _twisted_two_loops(mag, lower, E):
    """`_twisted` with its P and Q pivots in two arrays, each advanced on its own: the reference.

    Returns (log|z|, z / |z|), in real arithmetic where E is real, as `_twisted` does.
    """
    n = len(mag) + 1
    bond = (mag * lower)[:, None]
    P = np.empty((n, len(E)), dtype=E.dtype)
    Q = np.empty((n, len(E)), dtype=E.dtype)
    pivmin = np.finfo(float).eps * mag.max()
    P[0] = Q[-1] = -E
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for fix in (False, True):
            for i in range(1, n):
                if fix:
                    P[i - 1, P[i - 1] == 0] = Q[-i, Q[-i] == 0] = pivmin
                P[i] = -E - bond[i - 1] / P[i - 1]
                Q[-1 - i] = -E - bond[-i] / Q[-i]
            if P.all() and Q.all():
                break
        twist = np.argmin(np.abs(P + Q + E), axis=0)
        ratio = np.where(np.arange(n - 1)[:, None] < twist, -P[:-1] / mag[:, None], -lower[:, None] / Q[1:])
        size = np.abs(ratio)
        log_z = np.zeros((n, len(E)))
        np.cumsum(np.log(size), axis=0, out=log_z[1:])
        ratio /= size
    phase = np.ones((n, len(E)), dtype=E.dtype)
    np.cumprod(ratio, axis=0, out=phase[1:])
    return log_z, phase


def _columns(log_z, phase):
    """The vectors phase exp(log|z|) that `_twisted` returns in polar form, each scaled to max|z| = 1."""
    return phase * np.exp(log_z - log_z.max(axis=0))


class TestTwisted:
    """`_twisted` where a pivot of the factorization is exactly zero, and against its two-loop reference."""

    def test_exact_eigenvalue_of_a_leading_block(self):
        # the uniform 14-site chain has E = 2 cos(5 pi / 15) = 1, also an
        # eigenvalue of its leading 2 x 2 block, so the pivot P_1 = -1 - 1 / (-1) is 0
        mag = np.ones(13)
        H = np.diag(mag, 1) + np.diag(mag, -1)
        for E in (np.array([1 + 0j]), np.array([1.0])):  # complex, and real as on an all-real chain
            log_z, phase = _twisted(mag, mag, E)
            assert phase.dtype == E.dtype
            z = _columns(log_z, phase)
            assert np.all(np.isfinite(z))
            assert np.linalg.norm(H @ z - z) <= 1e-15 * np.linalg.norm(z)

    def test_uniform_chain_through_solve(self):
        # the same chain as an omega = 0 excitation matrix: Delta = -1, J = 0, N = 7
        p = ModBKCParams(J1=0.0, J2=0.0, Delta1=-1.0, Delta2=-1.0, omega=0.0, N=7)
        s = solve(p, OBC)
        assert s.source == "reduced[modbkc,obc,n=7]" and s.eigenvectors is not None
        _check_residual(_bands(_excitation_k(p, OBC)), s.eigenvectors, s.eigenvalues)

    @pytest.mark.parametrize("chain", ["uniform-zero-pivot", "fig4", "fig5", "sign-mixed", "random",
                                       "uniform-zero-pivot-real", "fig6-real", "random-real"])
    def test_stacked_recurrences_match_two_loops(self, chain):
        # `_twisted` runs the P and Q recurrences as one loop over stacked rows, written in place;
        # same arithmetic, same bytes, complex or, on all-real chains, real
        if chain.startswith("uniform-zero-pivot"):
            mag = lower = np.ones(13)
            E = np.array([1 + 0j, 0.3 + 0j])
        elif chain.startswith("random"):
            rng = np.random.default_rng(3)
            mag = rng.uniform(0.1, 2.0, 39)
            lower = mag if chain.endswith("real") else mag * rng.choice([-1.0, 1.0], 39)
            E = rng.normal(size=20) + 1j * rng.normal(size=20)
        else:
            p = {"fig4": ModBKCParams(J1=1.2, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=40),
                 "fig5": ModBKCParams(J1=0.0, J2=2.2, Delta1=1.0, Delta2=1.5, omega=0.0, N=40),
                 "fig6-real": ModBKCParams(J1=0.0, J2=0.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=40),
                 "sign-mixed": _all_mixed_chain(40)}[chain]
            b = ssh_bonds(p)
            mag = np.abs(b)
            lower = np.where(b.imag != 0, -mag, mag)
            Hr = np.diag(mag, 1) + np.diag(lower, -1)
            E = np.sqrt(np.linalg.eigvals(Hr[0::2, 1::2] @ Hr[1::2, 0::2]).astype(complex))
        if chain.endswith("real"):  # every bond real: the route passes real roots
            assert np.array_equal(lower, mag)
            E = E.real.copy()
        for got, ref in zip(_twisted(mag, lower, E), _twisted_two_loops(mag, lower, E)):
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


# the lift itself: `TestProductLift.test_profiles_unchanged` replaces ``SimilarityMatrix.lift_polar``
_LIFT, _LIFT_POLAR = SimilarityMatrix.lift, SimilarityMatrix.lift_polar


def _lift_reference(A, U, order):
    """The full product basis (sigma_pm (x) U), lifted by ``SimilarityMatrix.lift`` and gathered in sorted order."""
    two_n = U.shape[1]
    basis = np.empty((2 * two_n, 2 * two_n), dtype=complex)
    basis[0::2] = np.hstack([U, U])
    basis[1::2] = np.hstack([U, -U])
    return _LIFT(A, basis)[:, order]


def _polar_reference(A, log_u, phase, order):
    """`_lift_reference` of U = phase exp(log_u), in polar form: ``SimilarityMatrix.lift_polar`` of the full basis."""
    two_n = log_u.shape[1]
    phases = np.empty((2 * len(phase), 2 * two_n), dtype=complex)
    phases[0::2] = np.hstack([phase, phase])
    phases[1::2] = np.hstack([phase, -phase])
    return _LIFT_POLAR(A, np.repeat(np.hstack([log_u, log_u]), 2, axis=0), phases)[:, order]


def _gamma_partners(U, columns, sign=-1):
    """The first ``columns`` of the SSH eigenvectors [U, Gamma U], laid out [Gamma][column]; Gamma negates the B rows.

    ``sign`` = 1 arranges log-moduli, which Gamma leaves as they are.
    """
    flipped = U.copy()
    flipped[1::2] *= sign
    return np.hstack([U, flipped])[:, :columns]


def _random_lift(seed, rows, columns):
    """Random SSH vectors with zero, tiny and subnormal parts, and a gauge spanning e^1400 from seed 2 on."""
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(rows, columns)) + 1j * rng.normal(size=(rows, columns))
    U *= 10.0 ** rng.uniform(-300, 300, (rows, columns)) if seed % 2 else 1.0
    U.real[rng.random(U.shape) < 0.2] = 0.0
    U.imag[rng.random(U.shape) < 0.2] = 0.0
    U[rng.random(U.shape) < 0.1] = 0.0
    U[rng.random(U.shape) < 0.1] *= 1e-310  # subnormal parts
    U[:, 0] = 0.0
    U[0, 0] = 1.0  # a column with a single nonzero entry
    log_scale = rng.permutation(np.linspace(-700.0, 700.0, 2 * rows)) if seed >= 2 \
        else rng.uniform(-5.0, 5.0, 2 * rows)
    A = SimilarityMatrix(log_scale=log_scale, phase=np.exp(1j * rng.choice([0, 0.5, 1, 1.5], 2 * rows) * np.pi))
    assert (A.log10_condition > 300) == (seed >= 2)
    E = rng.normal(size=columns) + 1j * rng.normal(size=columns) * (seed % 3 != 0)
    E[: columns // 2] = E[0]  # degenerate values keep lexsort's tie order
    return U, A, E


class TestProductLift:
    """The reduced route's lift of its base columns, and their chiral flips, against the full product basis.

    The route lifts its base columns with U at both quadratures of each site
    and ``Spectrum.eigenvectors`` adds their flips: Sigma negates the p rows,
    Gamma the rows of the B sites.  Off the guarded fallback the base columns
    are one per root of mu and all three flips are gathered; on it they are
    the 2N columns of the full-size solve, with Sigma-flips only.  Negating
    after the gauge and phase multiply can flip the sign of a zero part, so
    the result equals the lifted full basis in value, not in bytes.
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("two_n", [2, 7, 24, 200])
    def test_bit_identical_on_random_vectors(self, seed, two_n):  # equal in value: see the class docstring
        # the guarded fallback: 2N columns, each with its Sigma-flip
        U, A, E = _random_lift(seed, two_n, two_n)
        vals, order = _order(np.concatenate([1j * E, -1j * E]))
        ref = _lift_reference(A, U, order)
        out = Spectrum(vals, A.lift(np.repeat(U, 2, axis=0)), order=order).eigenvectors
        assert np.array_equal(out, ref)
        assert np.all(np.isfinite(out))
        assert out.flags.f_contiguous == ref.flags.f_contiguous

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("two_n", [2, 7, 24, 200])
    def test_lift_norm_is_linalg_norm(self, seed, two_n):
        # the lift normalises the real moduli exp(s + log|v| - t) by `np.linalg.norm` of a C-ordered array,
        # without its copies, and multiplies the product of the phases in last, with the same bytes
        U, A, _ = _random_lift(seed, two_n, two_n)
        for V in (np.repeat(U, 2, axis=0), np.repeat(U, 2, axis=0)[:, : two_n // 2 + 1], np.asfortranarray(
                np.vstack([U, -U]))):
            size = np.abs(V)
            phase = np.zeros_like(V)
            nonzero = size > 0
            phase.real[nonzero], phase.imag[nonzero] = V.real[nonzero] / size[nonzero], V.imag[nonzero] / size[nonzero]
            with np.errstate(divide="ignore"):
                log_size = np.log(size) + A.log_scale[:, None]
            modulus = np.ascontiguousarray(np.exp(log_size - log_size.max(axis=0)))
            ref = phase * A.phase[:, None] * (modulus / np.linalg.norm(modulus, axis=0))
            out = A.lift(V)
            assert out.flags.f_contiguous and out.tobytes(order="A") == np.asfortranarray(ref).tobytes(order="A")
        # one row per site, shared by its x and p rows: the same bytes as the repeated rows
        assert A.lift(U).tobytes() == A.lift(np.repeat(U, 2, axis=0)).tobytes()

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [1, 4, 12, 100])
    def test_chiral_flips_on_random_vectors(self, seed, n):  # equal in value: see the class docstring
        # the half-size path: N columns for +root, their Gamma-flips for -root, sorted as the reduced route sorts them
        U, A, root = _random_lift(seed, 2 * n, n)
        e = 1j * root
        vals, order = _order(np.concatenate([e, -e, -e, e]))  # [Sigma][Gamma][column]
        ref = _lift_reference(A, _gamma_partners(U, 2 * n), order)
        out = Spectrum(vals, A.lift(np.repeat(U, 2, axis=0)), order=order).eigenvectors
        assert np.array_equal(out, ref)
        assert np.all(np.isfinite(out))
        assert out.flags.f_contiguous == ref.flags.f_contiguous

    @pytest.mark.parametrize("p,columns", [
        (ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.0, N=100), 100),  # fig3
        (ModBKCParams(J1=0.0, J2=0.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=100), 100),  # fig6
        (ModBKCParams(J1=2.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100), 100),  # half-size
        (ModBKCParams(J1=1.4, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100), 100),  # deflated
        (ModBKCParams(J1=1.7, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100), 100),  # deflated, solved vectors
        (_fig5_split(1e-6), 200),                                                      # guarded
    ], ids=["p0", "p1", "p2", "p3", "p4", "guarded"])
    def test_profiles_unchanged(self, p, columns, monkeypatch):
        seen = {}

        def lift_recording(A, log_u, phase):
            # the route lifts its base columns in polar form, one row per site for its x and p rows
            assert 2 * len(log_u) == A.dim
            seen.update(A=A, log_u=log_u.copy(), phase=phase.copy())
            return _LIFT_POLAR(A, log_u, phase)

        def order_recording(vals):
            out = _order(vals)
            seen.update(order=out[1])
            return out

        monkeypatch.setattr(SimilarityMatrix, "lift_polar", lift_recording)
        monkeypatch.setattr(spectral, "_order", order_recording)
        s = solve(p, OBC)
        assert s.base.shape[1] == columns and s.order.tobytes() == seen["order"].tobytes()
        # the full product basis of the SSH eigenvectors, laid out as the route sorted their values, lifted at once
        half = len(seen["order"]) // 2
        assert half == len(seen["log_u"])
        ref = _polar_reference(seen["A"], _gamma_partners(seen["log_u"], half, sign=1),
                               _gamma_partners(seen["phase"], half), seen["order"])
        assert np.array_equal(s.eigenvectors, ref)
        assert s.eigenvectors.flags.f_contiguous and ref.flags.f_contiguous
        # the profiles, read off the base columns, are those of the full basis
        assert profile_matrix(s, p.N).tobytes() == spatial_profile(ref, p.N).prob.T.tobytes()


# site fields for `ssh_bonds`: uniform couplings, sign-mixed bonds, and
# sign-mixed bonds with at least one Delta = +-J exactly
SSH_BOND_FIELDS = {
    "uniform": modbkc_params().map(SiteFields.uniform),
    "sign_mixed": sign_mixed_site_fields().filter(lambda f: not _cut(f)),
    "cut": sign_mixed_site_fields().filter(_cut),
}


class TestSSHBonds:
    """The reduced route reads its bonds from `ssh_bonds`, the bonds `effective_ssh_matrix` holds."""

    @pytest.mark.parametrize("kind", sorted(SSH_BOND_FIELDS))
    @given(data=st.data())
    @settings(PROPERTY, max_examples=40)
    def test_bonds_are_the_superdiagonal(self, kind, data):
        f = data.draw(SSH_BOND_FIELDS[kind])
        b = ssh_bonds(f)
        assert b.tobytes() == np.diagonal(effective_ssh_matrix(f), 1).tobytes()
        # b^2 = Delta^2 - J^2 on the 2N - 1 bonds of the open chain, in chain order
        delta, J = np.empty(len(b)), np.empty(len(b))
        delta[0::2], delta[1::2] = f.Delta1, f.Delta2[:-1]
        J[0::2], J[1::2] = f.J1, f.J2[:-1]
        assert np.all(np.abs(b ** 2 - (delta ** 2 - J ** 2)) <= 4 * np.finfo(float).eps * (delta ** 2 + J ** 2))

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("p", [
        ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.0, N=20),  # all bonds real
        ModBKCParams(J1=2.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=20),  # half-size
        ModBKCParams(J1=1.4, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=20),  # deflated
        _fig5_split(1e-6),                                                     # guarded
        ModBKCParams(J1=1.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=20),  # Delta1 = J1: no gauge
    ], ids=["all-real", "half-size", "deflated", "guarded", "singular"])
    def test_reduced_solves_never_build_the_ssh_matrix(self, p, vectors, monkeypatch):
        calls = []

        def recording(f):
            calls.append(f)
            return effective_ssh_matrix(f)

        for module in (transform, spectral):
            monkeypatch.setattr(module, "effective_ssh_matrix", recording, raising=False)
        s = solve(p, OBC, vectors=vectors)
        assert _route(s) == "reduced["
        assert (s.eigenvectors is not None) == (vectors and "no vectors" not in s.source)
        assert calls == []


class TestBlochRoute:
    @given(p=st.one_of(modbkc_params(), bkc_params()))
    @settings(PROPERTY, max_examples=80)
    def test_uniform_ring_matches_direct_oracle(self, p):
        s = solve(p, PBC)
        direct = build_bkc_excitation_direct if isinstance(p, BKCParams) else build_modbkc_excitation_direct
        M = direct(p, PBC).M
        ref = np.linalg.eigvals(M)
        assert s.source.startswith("bloch[")
        assert _distance(s.eigenvalues, ref) <= DENSE_BOUND * max(1.0, float(np.abs(ref).max()))
        V = s.eigenvectors
        assert np.linalg.norm(M @ V - V * s.eigenvalues, axis=0).max() <= 1e-10 * np.abs(M).max()
        assert np.abs(np.linalg.norm(V, axis=0) - 1).max() <= 1e-14

    @pytest.mark.parametrize("J0,Delta0,omega", [(0.5, 1.0, 0.0), (0.5, 1.0, 0.5), (1.3, -0.4, 2.0)])
    def test_bkc_ring_matches_dispersion(self, J0, Delta0, omega):
        p = BKCParams(J0=J0, Delta0=Delta0, omega=omega, N=100)
        s = solve(p, PBC)
        ref = np.concatenate([bkc_pbc_dispersion(p, 2 * np.pi * m / p.N) for m in range(p.N)])
        assert s.source.startswith("bloch[")
        assert _distance(s.eigenvalues, ref) <= 1e-12 * max(1.0, float(np.abs(ref).max()))


@st.composite
def guarded_fields(draw):
    """`topological_fields` nearly cut at the middle intercell bond: two edge pairs, so the half-size guard fires."""
    f = draw(st.booleans().flatmap(topological_fields))
    J2 = f.J2.copy()
    J2[f.N // 2 - 1] = f.Delta2[f.N // 2 - 1] * (1 - 1e-6)
    return replace(f, J2=J2)


XP_SWEEP = [ModBKCParams(J1=1.4, J2=1.2, Delta1=d, Delta2=1.0, omega=0.3, N=100) for d in (0.0, 0.75, 1.5, 2.25, 3.0)]


def _fig9_realization(r):
    base = ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.05, N=100)
    return sample_site_fields(base, DisorderSpec({"omega": 2.0}, seed=20240601, realizations=20), r)


def _mirror_note(n):
    return f" (mirror halves: 2 x {n})"


def _centrosymmetric(T):
    """The dense definition of a mirror-symmetric block: even size and T equal to T[::-1, ::-1]."""
    return len(T) % 2 == 0 and np.array_equal(T, T[::-1, ::-1])


def _joined(even, odd):
    """`spectral._mirror_join` of the two halves, written to a new array."""
    out = np.empty((2 * len(even), 2 * len(even)), np.result_type(even, odd))
    spectral._mirror_join(even, odd, out=out)
    return out


def _xp_paired_reference(q, vectors):
    """(source, eigenvalues, eigenvectors or None) of the x/p route, its vectors paired and gathered whole.

    The columns (x, y), y = i Qx x / E, are normalised as a pair; each sorted
    column takes the x and y rows of its root, and the y rows of every -E
    column are negated by a multiply with -1.
    """
    Q = dense_q(q)
    Qx, Qp = Q[0::2, 0::2], Q[1::2, 1::2]
    source = f"xp[symplectic,{q.bc.value},n={q.n_cells}]"
    split = _centrosymmetric(Qx) and _centrosymmetric(Qp)
    blocks = list(zip(spectral._mirror_halves(Qx), spectral._mirror_halves(Qp))) if split else [(Qx, Qp)]
    source += _mirror_note(len(Qx) // 2) if split else ""
    solved = [spectral._square_eig(P @ T, vectors) for T, P in blocks]
    root = np.sqrt(np.concatenate([mu for mu, _ in solved]).astype(complex))
    vals = np.concatenate([root, -root]) + 0.0  # no -0.0 part, which a CSV writes as "-0"
    order = np.lexsort((vals.imag, vals.real))
    if not vectors:
        return source, vals[order], None
    if split:
        X = _joined(*(Y for _, Y in solved))
        Y = _joined(*(T @ Y for (T, _), (_, Y) in zip(blocks, solved)))
    else:
        X = solved[0][1]
        Y = Qx @ X
    Y = Y * (1j / root)
    norm = np.sqrt((np.abs(X) ** 2).sum(axis=0) + (np.abs(Y) ** 2).sum(axis=0))
    X, Y = X / norm, Y / norm
    half = len(root)
    vecs = np.empty((q.dim, q.dim), dtype=complex)
    vecs[0::2] = X[:, order % half]
    vecs[1::2] = Y[:, order % half]
    vecs[1::2] *= np.where(order < half, 1.0, -1.0)
    return source, vals[order], vecs


# Points whose M couples x only to p, so that M anticommutes with
# Sigma = diag(+1, -1) over (x, p), with the ``source`` note each must carry.
SIGMA_POINTS = {
    "reduced_all_real": (zero_omega_site_fields().filter(lambda f: not effective_ssh_matrix(f).imag.any()), OBC, ""),
    "reduced_sign_mixed": (sign_mixed_site_fields().filter(
        lambda f: not _cut(f) and effective_ssh_matrix(f).imag.any()), OBC, ""),
    "reduced_deflated": (st.booleans().flatmap(topological_fields), OBC, "(deflated edge pair"),
    "reduced_guarded": (guarded_fields(), OBC, "(half-size guard"),
    "xp_open_chain": (modbkc_params().filter(lambda p: p.omega != 0), OBC, ""),
    "xp_site_fields": (disordered_omega_site_fields(), PBC, ""),
    "xp_site_fields_open": (disordered_omega_site_fields(), OBC, ""),
}


def _assert_flip_pairs(s, M, flip="Sigma"):
    """Each column of ``s`` has a partner at -E that is its ``flip``, and the two residuals on M are equal bit for bit.

    Sigma negates the p rows (every odd row); Gamma negates the x and p rows
    of the B sites of the SSH reduction (rows 4j + 2 and 4j + 3).
    """
    V, E = s.eigenvectors, s.eigenvalues
    res = _residuals(_bands(M), V, E)
    flipped = V.copy()
    flipped[np.arange(len(V)) % 2 == 1 if flip == "Sigma" else np.arange(len(V)) % 4 >= 2] *= -1
    columns = {}
    for j, e in enumerate(E):
        columns.setdefault(complex(e), []).append(j)
    for j, e in enumerate(E):
        partner = [k for k in columns.get(complex(-e), []) if np.array_equal(V[:, k], flipped[:, j])]
        assert partner, f"column {j} (E = {e}) has no {flip}-flipped partner"
        assert res[partner[0]].tobytes() == res[j].tobytes()


def _small_forms():
    """(id, form) at N = 2..6 under both boundaries: seeded site fields, and single-band chains on a grid.

    The grid holds Delta0 = +-J0, where one coupling vanishes, and Delta0 = 0,
    where the two-cell ring's wrap bond cancels its inner bond.  Each fields
    ring also comes with a wrap bond J2 = Delta2 = 0 and one with J2 = -Delta2,
    which cancels one of its two corner entries.
    """
    rng = np.random.default_rng(11)
    forms = []
    for N in range(2, 7):
        for bc in (OBC, PBC):
            f = SiteFields(*rng.uniform(-3, 3, (6, N)))
            forms.append((f"fields-{bc.value}-n{N}", build_modbkc_quadratic(f, bc)))
            if bc is PBC:
                for name, J2, Delta2 in (("open-wrap", 0.0, 0.0), ("half-wrap", f.J2[-1], -f.J2[-1])):
                    g = replace(f, J2=np.append(f.J2[:-1], J2), Delta2=np.append(f.Delta2[:-1], Delta2))
                    forms.append((f"fields-{bc.value}-n{N}-{name}", build_modbkc_quadratic(g, bc)))
            for J0, Delta0, omega in ((0.5, 1.0, 0.3), (0.8, 0.8, 0.0), (0.8, -0.8, 0.5), (-1.0, 0.0, 0.0)):
                forms.append((f"bkc-{bc.value}-n{N}-{J0:g}-{Delta0:g}",
                              build_bkc_quadratic(BKCParams(J0=J0, Delta0=Delta0, omega=omega, N=N), bc)))
    return forms


SMALL_FORMS = _small_forms()


class TestResidualCheck:
    @pytest.mark.parametrize("kind", sorted(SIGMA_POINTS))
    @given(data=st.data())
    @settings(PROPERTY, max_examples=25)
    def test_sigma_partners_have_equal_residuals(self, kind, data):
        # the reduced and x/p routes check only one column of each +-E pair
        strategy, bc, note = SIGMA_POINTS[kind]
        f = data.draw(strategy)
        s = solve(f, bc)
        assume(not s.source.startswith("eig["))  # the x/p guard's dense solve
        # the full-size eig(H_r) of a guarded chain can mix its two edge pairs
        # (1 of 60 such draws); the check then drops the vectors
        assume(kind != "reduced_guarded" or s.eigenvectors is not None)
        assert s.source.startswith(kind.split("_")[0] + "[") and note in s.source and s.eigenvectors is not None
        _assert_flip_pairs(s, excitation_matrix(build_modbkc_quadratic(f, bc)).M)

    @pytest.mark.parametrize("p", [
        ModBKCParams(J1=1.2, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100),  # fig4, deflated
        _fig5_split(1e-6),                                                      # guarded
        ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.3, N=100),  # x/p
    ])
    def test_sigma_partners_at_n100(self, p):
        _assert_flip_pairs(solve(p, OBC), _quadratic_matrix(p, OBC))

    @pytest.mark.parametrize("kind", ["reduced_all_real", "reduced_deflated", "reduced_sign_mixed"])
    @given(data=st.data())
    @settings(PROPERTY, max_examples=25)
    def test_gamma_partners_have_equal_residuals(self, kind, data):
        # off the guarded fallback the reduced route lifts and checks one column per root of mu
        strategy, bc, note = SIGMA_POINTS[kind]
        f = data.draw(strategy)
        s = solve(f, bc)
        assume("(half-size guard" not in s.source)  # a full-size solve's -E vectors are no Gamma-flips
        assert s.source.startswith("reduced[") and note in s.source and s.eigenvectors is not None
        _assert_flip_pairs(s, excitation_matrix(build_modbkc_quadratic(f, bc)).M, flip="Gamma")

    @pytest.mark.parametrize("p", [
        ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.0, N=100),  # fig3, all real
        ModBKCParams(J1=1.2, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100),  # fig4, deflated
    ])
    def test_gamma_partners_at_n100(self, p):
        _assert_flip_pairs(solve(p, OBC), _quadratic_matrix(p, OBC), flip="Gamma")

    @pytest.mark.parametrize("p,note,columns,lifts", [
        (ModBKCParams(J1=0.0, J2=0.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=40), "", 40, True),     # all real
        (ModBKCParams(J1=2.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=40), "", 40, True),     # half-size
        (ModBKCParams(J1=1.4, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=40), "(deflated edge pair", 40, True),
        (_fig5_split(1e-6), "(half-size guard", 200, True),
        (XP_SWEEP[1], _mirror_note(100), 200, False),
        (_fig9_realization(0), "xp[", 200, False),
    ], ids=["all-real", "half-size", "deflated", "guarded", "xp-mirror-halves", "xp-fig9"])
    def test_lift_and_check_take_one_column_per_root(self, p, note, columns, lifts, monkeypatch):
        # N columns where each root's -root eigenvector is a Gamma-flip, 2N on the guarded fallback;
        # the x/p route lifts nothing and checks its 2N +E columns, each -E column being a Sigma-flip
        lifted, checked = [], []

        def lift(A, log_modulus, phase):
            lifted.append((A.dim, log_modulus.shape[1]))
            return _LIFT_POLAR(A, log_modulus, phase)

        def check(bands, vectors, eigenvalues):
            checked.append((vectors.shape, eigenvalues.shape))
            return _check_residual(bands, vectors, eigenvalues)

        monkeypatch.setattr(SimilarityMatrix, "lift_polar", lift)
        monkeypatch.setattr(spectral, "_check_residual", check)
        s = solve(p, OBC)
        assert note in s.source and s.eigenvectors is not None and s.eigenvectors.shape == (4 * p.N, 4 * p.N)
        assert lifted == ([(4 * p.N, columns)] if lifts else [])
        assert checked == [((4 * p.N, columns), (columns,))]

    @pytest.mark.parametrize("p", [*XP_SWEEP, *(_fig9_realization(r) for r in range(3))],
                             ids=[f"sweep-{p.Delta1:g}" for p in XP_SWEEP] + [f"fig9-{r}" for r in range(3)])
    def test_xp_columns_match_the_paired_assembly(self, p):
        # `Spectrum.eigenvectors` gathers what the x/p route's own pairing wrote: equal bit for bit up to the sign of zero
        q = build_modbkc_quadratic(p, OBC)
        for vectors in (False, True):
            s, (source, vals, vecs) = solve(p, OBC, vectors), _xp_paired_reference(q, vectors)
            assert s.source == source and s.eigenvalues.tobytes() == vals.tobytes()
        assert (s.eigenvectors + 0.0).tobytes() == (vecs + 0.0).tobytes()

    @pytest.mark.parametrize("q", [
        build_modbkc_quadratic(ModBKCParams(J1=1.4, J2=1.2, Delta1=0.7, Delta2=1.0, omega=0.3, N=20), OBC),
        build_modbkc_quadratic(ModBKCParams(J1=1.4, J2=1.2, Delta1=0.7, Delta2=1.0, omega=0.0, N=20), OBC),
        build_modbkc_quadratic(ModBKCParams(J1=1.4, J2=1.2, Delta1=0.7, Delta2=1.0, omega=0.3, N=20), PBC),
        build_modbkc_quadratic(ModBKCParams(J1=1.4, J2=1.2, Delta1=0.7, Delta2=1.0, omega=0.3, N=2), PBC),
        build_modbkc_quadratic(ModBKCParams(J1=1.4, J2=1.2, Delta1=0.7, Delta2=1.0, omega=0.3, N=3), PBC),
        build_modbkc_quadratic(sample_site_fields(ModBKCParams(J1=1.4, J2=1.2, Delta1=0.7, Delta2=1.0, omega=0.3, N=9),
                                                  DisorderSpec({"J2": 1.0, "omega": 1.0}, seed=3), 0), PBC),
        build_bkc_quadratic(BKCParams(J0=0.5, Delta0=1.0, omega=0.3, N=20), OBC),
        build_bkc_quadratic(BKCParams(J0=0.5, Delta0=1.0, omega=0.3, N=20), PBC),
        build_bkc_quadratic(BKCParams(J0=0.5, Delta0=1.0, omega=0.3, N=2), PBC),
        build_bkc_quadratic(BKCParams(J0=0.5, Delta0=1.0, omega=0.0, N=3), PBC),
        build_bkc_quadratic(BKCParams(J0=-1.0, Delta0=-0.0, omega=0.0, N=2), PBC),  # the wrap bond cancels: M = 0
        *(q for _, q in SMALL_FORMS),
    ], ids=["modbkc-obc", "modbkc-obc-omega0", "modbkc-pbc", "modbkc-pbc-n2", "modbkc-pbc-n3", "fields-pbc",
            "bkc-obc", "bkc-pbc", "bkc-pbc-n2", "bkc-pbc-n3-omega0", "zero", *(name for name, _ in SMALL_FORMS)])
    def test_bands_match_dense_matrix(self, q):
        # the bands, the dense K and the x/p blocks come from Q's diagonals; the references from the dense Q
        bands = excitation_bands(q)
        blocks = q.block(0), q.block(1)
        K = excitation_matrix(q).K
        Q = dense_q(q)
        for s, block in enumerate(blocks):
            assert block.tobytes() == np.ascontiguousarray(Q[s::2, s::2]).tobytes()
        ref = np.empty_like(Q)  # K = -Sigma Q: row 2i is -Q[2i + 1], row 2i + 1 is Q[2i]
        ref[0::2], ref[1::2] = -Q[1::2], Q[0::2]
        assert [d for d, _ in bands] == [d for d, _ in _bands(ref)]
        for d, values in bands:
            assert np.array_equal(values, np.diagonal(ref, d))
        assert K.tobytes() == ref.tobytes()  # -0.0 included: LAPACK reads the sign of a zero
        M = excitation_matrix(q).M
        assert M.imag.tobytes() == K.tobytes() and not np.signbit(M.real).any() and not M.real.any()
        rng = np.random.default_rng(5)
        V = rng.normal(size=K.shape) + 1j * rng.normal(size=K.shape)
        E = rng.normal(size=len(K)) + 1j * rng.normal(size=len(K))
        assert _residuals(bands, V, E).tobytes() == _residuals(_bands(K), V, E).tobytes()

    def test_zero_matrix_passes_at_bound_zero(self):
        p = BKCParams(J0=-1.0, Delta0=-0.0, omega=0.0, N=2)
        assert excitation_bands(build_bkc_quadratic(p, PBC)) == []
        s = solve(p, PBC)
        assert s.source.startswith("bloch[") and np.array_equal(s.eigenvalues, np.zeros(4))
        _check_residual([], s.eigenvectors, s.eigenvalues)
        with pytest.raises(SolverError, match="exceeds bound 0.000e"):
            _check_residual([], s.eigenvectors, s.eigenvalues + 1e-3)

    @pytest.mark.parametrize("p,bc,route", [
        (ModBKCParams(J1=1.4, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=20), OBC, "reduced["),
        (_fig5_split(1e-6), OBC, "reduced["),
        (ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.3, N=20), OBC, "xp["),
        (ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.3, N=20), PBC, "bloch["),
        (BKCParams(J0=0.5, Delta0=1.0, omega=0.3, N=20), PBC, "bloch["),
    ])
    def test_vector_solves_never_form_m(self, p, bc, route, monkeypatch):
        # only `bloch_matrix` calls it, for the M of a three-cell ring whose
        # blocks it reads; no route forms the M of the chain it solves
        cells = []

        def recording(q):
            cells.append(q.n_cells)
            return excitation_matrix(q)

        monkeypatch.setattr(spectral, "excitation_matrix", recording)
        monkeypatch.setattr(model, "excitation_matrix", recording)
        s = solve(p, bc)
        assert _route(s) == route and s.eigenvectors is not None
        assert cells == ([3] if route == "bloch[" else [])

    @pytest.mark.parametrize("vectors", [True, False])
    @pytest.mark.parametrize("p,bc,note", [
        (ModBKCParams(J1=0.0, J2=0.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=20), OBC, "reduced["),  # all real
        (ModBKCParams(J1=2.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=20), OBC, "reduced["),  # sign-mixed
        (_fig5_split(1e-6), OBC, "(half-size guard"),
        (ModBKCParams(J1=0.8, J2=1.4, Delta1=0.8, Delta2=2.1, omega=0.0, N=20), OBC, "reduced["),  # no gauge
        (BKCParams(J0=0.5, Delta0=1.0, omega=0.0, N=20), OBC, "similarity["),
        (ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.3, N=20), PBC, "bloch["),
        (BKCParams(J0=0.5, Delta0=1.0, omega=0.3, N=20), PBC, "bloch["),
        (ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.3, N=20), OBC, _mirror_note(20)),
        (_fig9_realization(0), OBC, "xp["),
        (BKCParams(J0=0.5, Delta0=1.0, omega=0.5, N=20), OBC, "eig["),
        (BKCParams(J0=0.8, Delta0=0.8, omega=0.0, N=20), OBC, "similarity["),  # no gauge: eigenvalues only
        (SiteFields.uniform(ModBKCParams(J1=1.4, J2=1.2, Delta1=1.5, Delta2=1.0, omega=0.3, N=100)), PBC,
         "(x/p guard"),
    ], ids=["reduced-all-real", "reduced-sign-mixed", "reduced-guarded", "reduced-singular", "similarity",
            "bloch", "bloch-bkc", "xp-mirror-halves", "xp-fig9", "dense", "similarity-singular", "xp-guard"])
    def test_only_dense_solves_form_dense_q(self, p, bc, note, vectors, monkeypatch):
        # no solve forms the dense Q, the dense ones no more than the rest: every route reads Q's diagonals,
        # and the dense K, of the chain or of `bloch_matrix`'s three-cell ring, is scattered from K's bands;
        # `model._symmetric` is the package's one writer of a dense symmetric matrix from Q's diagonals,
        # called by `QuadraticForm.block` at half the chain's dimension
        sizes = []

        def recording(dim, diagonals):
            sizes.append(dim)
            return symmetric(dim, diagonals)

        symmetric = model._symmetric
        monkeypatch.setattr(model, "_symmetric", recording)
        s = solve(p, bc, vectors)
        assert note in s.source
        assert (s.eigenvectors is not None) == (vectors and "(no vectors" not in s.source)
        assert all(size <= len(s) // 2 for size in sizes)

    @pytest.mark.parametrize("name", ["dense", "obc", "pbc", "bkc-pbc-n2"])
    def test_blocked_residual_matches_dense_product(self, name):
        rng = np.random.default_rng(7)
        p = ModBKCParams(J1=1.4, J2=1.2, Delta1=0.7, Delta2=1.0, omega=0.3, N=100)
        M = {"dense": lambda: rng.normal(size=(70, 70)) + 1j * rng.normal(size=(70, 70)),
             "obc": lambda: excitation_matrix(build_modbkc_quadratic(p, OBC)).M,
             "pbc": lambda: excitation_matrix(build_modbkc_quadratic(p, PBC)).M,
             "bkc-pbc-n2": lambda: excitation_matrix(build_bkc_quadratic(
                 BKCParams(J0=0.5, Delta0=1.0, omega=0.3, N=2), PBC)).M}[name]()
        n = M.shape[0]
        V = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        E = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = np.linalg.norm(M @ V - V * E, axis=0)
        assert np.abs(_residuals(_bands(M), V, E) - ref).max() <= 1e-12 * ref.max()

    @pytest.mark.parametrize("column", [0, 399])
    @pytest.mark.parametrize("kick", [1e-3, np.nan])
    def test_perturbed_eigenvector_raises(self, column, kick):
        p = ModBKCParams(J1=1.4, J2=1.2, Delta1=0.7, Delta2=1.0, omega=0.3, N=100)
        bands = excitation_bands(build_modbkc_quadratic(p, PBC))
        s = solve(p, PBC)
        _check_residual(bands, s.eigenvectors, s.eigenvalues)
        V = s.eigenvectors.copy()
        V[column // 2, column] += kick
        with pytest.raises(SolverError, match="residual"):
            _check_residual(bands, V, s.eigenvalues)


class TestReductionIsOpenOnly:
    p = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.0, N=10)

    def test_reduced_spectrum_rejects_pbc(self):
        with pytest.raises(ValueError, match="open boundaries"):
            modbkc_spectrum_zero_omega(self.p, PBC)

    @pytest.mark.parametrize("p", [
        BKCParams(J0=0.5, Delta0=1.0, omega=0.0, N=10),
        replace(p, omega=0.3),
        replace(SiteFields.uniform(p), omega_B=np.eye(1, 10, 9)[0]),
    ], ids=["single-band", "omega", "site-omega"])
    def test_reduced_spectrum_rejects_other_chains(self, p):
        # the test of `reduced_route`: a single-band chain raises ValueError, not AttributeError
        assert not spectral.reduced_route(p, OBC)
        with pytest.raises(ValueError, match="two-sublattice chain with open boundaries and every onsite omega = 0"):
            modbkc_spectrum_zero_omega(p, OBC)


def _mirrored_fields(f):
    """``f`` made symmetric under the chain mirror A_j <-> B_{N-1-j}, so that Qx and Qp are centrosymmetric.

    The mirror maps the intracell bond of cell j to that of cell N-1-j, the
    intercell bond after cell j to the one after cell N-2-j, and omega_A[j]
    to omega_B[N-1-j]; the wrap bond of a ring maps to itself.  Each second
    half is copied from the first, so the fields are palindromic exactly.
    """
    def palindrome(a):
        return np.where(np.arange(len(a)) < len(a) / 2, a, a[::-1])

    return SiteFields(J1=palindrome(f.J1), J2=np.append(palindrome(f.J2[:-1]), f.J2[-1]),
                      Delta1=palindrome(f.Delta1), Delta2=np.append(palindrome(f.Delta2[:-1]), f.Delta2[-1]),
                      omega_A=f.omega_A, omega_B=f.omega_A[::-1])


@st.composite
def mirrored_fields(draw):
    """`disordered_omega_site_fields` made mirror-symmetric (`_mirrored_fields`): non-uniform, omega != 0."""
    return _mirrored_fields(draw(disordered_omega_site_fields()))


@st.composite
def nudged_fields(draw):
    """`mirrored_fields` with one entry of one field moved by one ulp, or not moved."""
    f = draw(mirrored_fields())
    if not draw(st.booleans()):
        return f
    name = draw(st.sampled_from(["J1", "J2", "Delta1", "Delta2", "omega_A", "omega_B"]))
    moved = getattr(f, name).copy()
    j = draw(st.integers(0, f.N - 1))
    moved[j] = np.nextafter(moved[j], draw(st.sampled_from([-np.inf, np.inf])))
    return replace(f, **{name: moved})


@st.composite
def built_forms(draw):
    """Forms of uniform chains of both models, of mirror-symmetric fields (one ulp off or not) and of
    disordered ones, under either boundary condition."""
    p = draw(st.one_of(modbkc_params(), bkc_params(), nudged_fields(), disordered_omega_site_fields(),
                       zero_omega_site_fields()))
    return (build_bkc_quadratic if isinstance(p, BKCParams) else build_modbkc_quadratic)(p, draw(bcs))


@st.composite
def diagonal_forms(draw):
    """Forms of 2 to 7 single-band cells whose diagonals hold small integers, with each parity of each diagonal
    made palindromic or not, odd offsets included: no builder writes such forms."""
    n = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    diagonals = {}
    for d in draw(st.lists(st.integers(0, 2 * n - 1), unique=True, max_size=4)):
        v = rng.integers(-1, 2, 2 * n - d).astype(float)
        for s in (0, 1):
            if draw(st.booleans()):
                w = v[s::2]
                v[s::2] = np.where(np.arange(len(w)) < len(w) / 2, w, w[::-1])
        diagonals[d] = v
    return QuadraticForm(diagonals=diagonals, n_cells=n, n_sublattices=1, bc=draw(bcs))


class TestMirrorSplit:
    """The x/p route's solve of a centrosymmetric Qp Qx as its even and odd mirror halves."""

    @given(q=st.one_of(built_forms(), diagonal_forms()))
    @settings(PROPERTY, max_examples=400)
    def test_mirror_test_matches_the_dense_definition(self, q):
        for s in (0, 1):
            assert spectral._mirrored(q, s) == _centrosymmetric(dense_q(q)[s::2, s::2])

    @given(f=mirrored_fields(), bc=bcs)
    @settings(PROPERTY, max_examples=40)
    def test_mirrored_fields_take_the_split(self, f, bc):
        s = solve(f, bc)
        assume(not s.source.startswith("eig["))  # the x/p guard's dense solve
        assert s.source == f"xp[symplectic,{bc.value},n={f.N}]" + _mirror_note(f.N)
        M = _quadratic_matrix(f, bc)
        ref = np.linalg.eigvals(M)
        assert _distance(s.eigenvalues, ref) <= DENSE_BOUND * max(1.0, float(np.abs(ref).max()))
        _check_residual(_bands(_excitation_k(f, bc)), s.eigenvectors, s.eigenvalues)  # all 4N columns, on the dense K
        _assert_flip_pairs(s, M)
        bare = solve(f, bc, vectors=False)
        assert bare.source == s.source
        assert _distance(bare.eigenvalues, s.eigenvalues) <= 1e-12 * np.abs(s.eigenvalues).max()

    @given(f=mirrored_fields(), bc=bcs, data=st.data())
    @settings(PROPERTY, max_examples=40)
    def test_one_ulp_off_the_mirror_is_not_split(self, f, bc, data):
        # omega enters Q as it is, so one ulp on one site breaks the symmetry of Q
        split = solve(f, bc, vectors=False)
        assume(not split.source.startswith("eig["))
        name = data.draw(st.sampled_from(["omega_A", "omega_B"]))
        moved = getattr(f, name).copy()
        j = data.draw(st.integers(0, f.N - 1))
        moved[j] = np.nextafter(moved[j], np.inf)
        g = replace(f, **{name: moved})
        bound = DENSE_BOUND * max(1.0, float(np.abs(split.eigenvalues).max()))
        for vectors in (True, False):
            s = solve(g, bc, vectors)
            assume(not s.source.startswith("eig["))
            assert s.source == f"xp[symplectic,{bc.value},n={f.N}]"
            assert _distance(s.eigenvalues, split.eigenvalues) <= bound

    @pytest.mark.parametrize("p", [
        *XP_SWEEP,
        ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.1, N=100),
    ], ids=["sweep-0", "sweep-0.75", "sweep-1.5", "sweep-2.25", "sweep-3", "fig3b"])
    def test_matches_the_unsplit_solve_at_n100(self, p):
        # measured <= 1.3e-14 max|E|
        Q = dense_q(build_modbkc_quadratic(p, OBC))
        root = np.sqrt(np.linalg.eigvals(Q[1::2, 1::2] @ Q[0::2, 0::2]).astype(complex))
        ref = np.concatenate([root, -root])
        for vectors in (True, False):
            s = solve(p, OBC, vectors)
            assert s.source == "xp[symplectic,obc,n=100]" + _mirror_note(100)
            assert _distance(s.eigenvalues, ref) <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("N,split", [(3, False), (4, True)])
    def test_odd_quadrature_blocks_are_not_split(self, N, split):
        # J0 = Delta0 = 0: Q = omega I, whose N x N x and p blocks have no mirror halves at odd N
        s = solve(BKCParams(J0=0.0, Delta0=0.0, omega=0.5, N=N), OBC)
        assert s.source == f"xp[symplectic,obc,n={N}]" + (_mirror_note(N // 2) if split else "")
        assert np.array_equal(np.abs(s.eigenvalues), np.full(2 * N, 0.5))
