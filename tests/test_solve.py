"""Differential tests of the spectral front door `solve` against independent references.

Every route `solve` can take is compared with a reference that does not go
through it:

* uniform couplings: the dense eigenvalues of the commutator-transcribed
  `build_*_excitation_direct` matrix, and under PBC also the union of the
  Bloch blocks;
* site-resolved fields on the reduced route (OBC, omega = 0): the dense
  eigenvalues of ``excitation_matrix(build_modbkc_quadratic(f, OBC))``.

Couplings are drawn with |Delta -+ J| bounded away from zero, so the gauge
ratios r = (Delta+J)/(Delta-J) stay within 1/4 <= |r| <= 4 (6.5 for the
site-jittered fields) and the dense reference of an open omega = 0 chain
stays accurate enough to compare against at N <= 12.
"""

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
    build_modbkc_excitation_direct,
    build_modbkc_quadratic,
    excitation_matrix,
)
from bkchain.spectral import modbkc_spectrum_zero_omega, solve
from bkchain.topology import edge_mode_count

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


def _distance(a, b):
    """Largest gap of the optimal one-to-one matching (multiplicities count)."""
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].max())


def _bloch_union(p):
    return np.concatenate([np.linalg.eigvals(bloch_matrix(p, 2 * np.pi * m / p.N))
                           for m in range(p.N)])


def _check_against_oracles(p, bc, direct, gauge_route):
    s = solve(p, bc)
    ref = np.linalg.eigvals(direct(p, bc).M)
    scale = max(1.0, float(np.abs(ref).max()))
    gauge = bc is OBC and p.omega == 0
    assert s.source.startswith(gauge_route if gauge else "eig[")
    bound = (GAUGE_BOUND if gauge else DENSE_BOUND) * scale
    assert _distance(s.eigenvalues, ref) <= bound
    if bc is PBC:
        assert _distance(s.eigenvalues, _bloch_union(p)) <= bound


def _dense_quadratic(f, bc):
    return np.linalg.eigvals(excitation_matrix(build_modbkc_quadratic(f, bc)).M)


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

    @given(f=zero_omega_site_fields())
    @settings(PROPERTY, max_examples=30)
    def test_site_fields_ring_takes_dense_route(self, f):
        # the gauge does not close around a ring: no reduction under PBC
        s = solve(f, PBC)
        ref = _dense_quadratic(f, PBC)
        assert s.source.startswith("eig[")
        assert _distance(s.eigenvalues, ref) <= DENSE_BOUND * max(1.0, float(np.abs(ref).max()))

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


class TestReductionIsOpenOnly:
    p = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.0, N=10)

    def test_reduced_spectrum_rejects_pbc(self):
        with pytest.raises(ValueError, match="open boundaries"):
            modbkc_spectrum_zero_omega(self.p, PBC)

    def test_edge_mode_count_rejects_pbc(self):
        with pytest.raises(ValueError, match="open boundaries"):
            edge_mode_count(self.p, bc=PBC)
