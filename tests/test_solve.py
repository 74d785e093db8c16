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
* the reduced route's real gauge: the complex eigenvalues of
  `effective_ssh_matrix` and the eigenpair residual on the 4N matrix.

Couplings are drawn with |Delta -+ J| bounded away from zero, so the gauge
ratios r = (Delta+J)/(Delta-J) stay within 1/4 <= |r| <= 4 (6.5 for the
site-jittered fields) and the dense reference of an open omega = 0 chain
stays accurate enough to compare against at N <= 12.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from bkchain.model import (
    BKCParams,
    BoundaryCondition,
    ModBKCParams,
    SiteFields,
    bloch_matrix,
    build_bkc_excitation_direct,
    build_bkc_quadratic,
    build_modbkc_excitation_direct,
    build_modbkc_quadratic,
    excitation_matrix,
)
from bkchain.disorder import DisorderSpec, sample_site_fields
from bkchain.skin import nhse_fraction, profile_matrix
from bkchain.spectral import (
    XP_MIN_EIGENVALUE,
    SolverError,
    Spectrum,
    _check_residual,
    _residuals,
    bkc_pbc_dispersion,
    eigendecompose,
    modbkc_spectrum_zero_omega,
    solve,
)
from bkchain.topology import edge_mode_count
from bkchain.transform import effective_ssh_matrix

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
        E = np.linalg.eigvals(effective_ssh_matrix(f, OBC))
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
        cut = np.any(np.abs(f.Delta1) == np.abs(f.J1)) or np.any(np.abs(f.Delta2[:-1]) == np.abs(f.J2[:-1]))
        assert (s.eigenvectors is None) == cut
        if not cut:
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

    def test_bkc_singular_point_falls_back_to_dense(self):
        # Delta0 = J0: no gauge exists; the hopping is one-way, so M is
        # nilpotent with exact spectrum {0}, which a dense solve of a
        # nilpotent chain of length N resolves to ~eps^(1/N) * max|M|
        p = BKCParams(J0=0.8, Delta0=0.8, omega=0.0, N=4)
        s = solve(p, OBC)
        assert s.source.startswith("eig[")
        assert s.eigenvectors is not None
        scale = np.abs(build_bkc_excitation_direct(p, OBC).M).max()
        assert np.abs(s.eigenvalues).max() <= 10 * np.finfo(float).eps ** (1 / p.N) * scale

    @pytest.mark.parametrize("Delta0,N", [(0.5001, 200), (0.51, 400)])
    def test_bkc_gauge_beyond_exp_overflow(self, Delta0, N):
        # (N - 1)/2 log r > 709: the gauge diagonal itself overflows a double,
        # but the gauge built in log space exists and the route stays exact
        p = BKCParams(J0=0.5, Delta0=Delta0, omega=0.0, N=N)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = solve(p, OBC)
        band = 2 * np.sqrt(complex(p.J0 ** 2 - p.Delta0 ** 2)) * np.cos(np.pi * np.arange(1, N + 1) / (N + 1))
        ref = np.concatenate([band, band])
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert s.source.startswith("similarity[")
        assert np.abs(s.eigenvalues - ref).max() <= 1e-12 * np.abs(ref).max()


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


class TestResidualCheck:
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
        assert np.abs(_residuals(M, V, E) - ref).max() <= 1e-12 * ref.max()

    @pytest.mark.parametrize("column", [0, 399])
    @pytest.mark.parametrize("kick", [1e-3, np.nan])
    def test_perturbed_eigenvector_raises(self, column, kick):
        p = ModBKCParams(J1=1.4, J2=1.2, Delta1=0.7, Delta2=1.0, omega=0.3, N=100)
        M = excitation_matrix(build_modbkc_quadratic(p, PBC)).M
        s = solve(p, PBC)
        _check_residual(M, s)
        V = s.eigenvectors.copy()
        V[column // 2, column] += kick
        with pytest.raises(SolverError, match="residual"):
            _check_residual(M, Spectrum(s.eigenvalues, V))


class TestReductionIsOpenOnly:
    p = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.0, N=10)

    def test_reduced_spectrum_rejects_pbc(self):
        with pytest.raises(ValueError, match="open boundaries"):
            modbkc_spectrum_zero_omega(self.p, PBC)

    def test_edge_mode_count_rejects_pbc(self):
        with pytest.raises(ValueError, match="open boundaries"):
            edge_mode_count(self.p, bc=PBC)
