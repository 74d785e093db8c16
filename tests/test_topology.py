from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkchain.model import AxisSpec, BoundaryCondition, ModBKCParams
from bkchain.skin import edge_weight, spatial_profile
from bkchain.spectral import Spectrum, modbkc_spectrum_zero_omega
from bkchain.topology import (
    GapClosedError,
    edge_mode_count,
    h_pm,
    phase_scan,
    winding_analytic,
    winding_numeric,
    zero_modes,
)
from bkchain.transform import EffectiveSSHParams, effective_ssh_params

OBC = BoundaryCondition.OBC


def gap_closing_predicates(p: ModBKCParams, rel_tol: float = 1e-9) -> dict:
    """Open/periodic gap-closing identities as booleans.

    obc_type1: dtilde1^2 =  dtilde2^2  (Delta1^2 - J1^2 =   Delta2^2 - J2^2)
    obc_type2: dtilde1^2 = -dtilde2^2  (Delta1^2 - J1^2 = -(Delta2^2 - J2^2))
    pbc: with one coupling switched off, J^2 = (Delta1 +- Delta2)^2 for the
    other; the mixed-J periodic closing has no closed form here.
    """
    scale = max(1.0, p.J1 ** 2, p.J2 ** 2, p.Delta1 ** 2, p.Delta2 ** 2)
    t1 = (p.Delta1 ** 2 - p.J1 ** 2) - (p.Delta2 ** 2 - p.J2 ** 2)
    t2 = (p.Delta1 ** 2 - p.J1 ** 2) + (p.Delta2 ** 2 - p.J2 ** 2)
    pbc = False
    for sign in (1.0, -1.0):
        target = (p.Delta1 + sign * p.Delta2) ** 2
        if p.J2 == 0 and abs(p.J1 ** 2 - target) <= rel_tol * scale:
            pbc = True
        if p.J1 == 0 and abs(p.J2 ** 2 - target) <= rel_tol * scale:
            pbc = True
    return {
        "obc_type1": abs(t1) <= rel_tol * scale,
        "obc_type2": abs(t2) <= rel_tol * scale,
        "pbc": pbc,
    }


class TestHPM:
    def test_k0(self):
        eff = EffectiveSSHParams(dtilde1=1.0, dtilde2=2.0)
        assert h_pm(0.0, eff) == (pytest.approx(3.0), pytest.approx(3.0))

    def test_k_pi(self):
        eff = EffectiveSSHParams(dtilde1=1.0, dtilde2=2.0)
        hp, hm = h_pm(np.pi, eff)
        assert hp == pytest.approx(-1.0)
        assert hm == pytest.approx(-1.0)

    @given(k=st.floats(-np.pi, np.pi), d1=st.floats(-2, 2), d2=st.floats(-2, 2))
    @settings(max_examples=50, deadline=None)
    def test_conjugation_symmetry(self, k, d1, d2):
        eff = EffectiveSSHParams(dtilde1=d1, dtilde2=d2)
        hp, _ = h_pm(k, eff)
        _, hm = h_pm(-k, eff)
        assert abs(abs(hp) - abs(hm)) < 1e-12


class TestWinding:
    @pytest.mark.parametrize("d1,d2,expect", [
        (0.0, 1.0, (1, -1)),
        (2.0, 1.0, (0, 0)),
        (0.5, 1.0, (1, -1)),
    ])
    def test_numeric_examples(self, d1, d2, expect):
        w = winding_numeric(EffectiveSSHParams(dtilde1=d1, dtilde2=d2), 1024)
        assert (w.w_plus, w.w_minus) == expect

    @pytest.mark.parametrize("grid", [256, 1024, 4096])
    def test_grid_independence(self, grid):
        w = winding_numeric(EffectiveSSHParams(dtilde1=0.5, dtilde2=1.0), grid)
        assert (w.w_plus, w.w_minus) == (1, -1)

    def test_gap_closed_error(self):
        with pytest.raises(GapClosedError):
            winding_numeric(EffectiveSSHParams(dtilde1=1.0, dtilde2=1.0), 1024)

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            winding_numeric(EffectiveSSHParams(dtilde1=0.0, dtilde2=1.0), 32)

    def test_analytic_pairing_only(self):
        p = ModBKCParams(J1=0, J2=0, Delta1=1.0, Delta2=2.0, omega=0, N=4)
        assert winding_analytic(effective_ssh_params(p)) == winding_numeric(effective_ssh_params(p))

    def test_analytic_window_case_ii(self):
        # nontrivial inside sqrt(Delta1^2 - Delta2^2) < J1 < sqrt(Delta1^2 + Delta2^2)
        p = ModBKCParams(J1=1.2, J2=0, Delta1=1.5, Delta2=1.0, omega=0, N=4)
        assert winding_analytic(effective_ssh_params(p)).w_plus == 1
        p_lo = ModBKCParams(J1=1.0, J2=0, Delta1=1.5, Delta2=1.0, omega=0, N=4)
        assert winding_analytic(effective_ssh_params(p_lo)).w_plus == 0

    def test_analytic_intracell_dominant(self, intracell_dominant):
        # |dtilde1| = sqrt(0.43) < |dtilde2| = sqrt(1.25): nontrivial even
        # though J1 > J2 and Delta1 > Delta2
        eff = effective_ssh_params(intracell_dominant)
        assert abs(eff.dtilde1) == pytest.approx(np.sqrt(0.43))
        assert abs(eff.dtilde2) == pytest.approx(np.sqrt(1.25))
        assert winding_analytic(eff).w_plus == 1

    def test_boundary_raises(self):
        with pytest.raises(GapClosedError):
            winding_analytic(EffectiveSSHParams(dtilde1=1.0, dtilde2=1.0))

    def test_numeric_equals_analytic_on_grid(self):
        # 50 x 50 grid in (J1, J2) at fixed pairings; every gapped point agrees
        Delta1, Delta2 = 1.5, 2.1
        for J1 in np.linspace(0, 2.5, 50):
            for J2 in np.linspace(0, 2.5, 50):
                eff = EffectiveSSHParams(
                    dtilde1=np.sqrt(complex(Delta1 ** 2 - J1 ** 2)),
                    dtilde2=np.sqrt(complex(Delta2 ** 2 - J2 ** 2)))
                try:
                    wa = winding_analytic(eff)
                except GapClosedError:
                    continue
                if abs(abs(eff.dtilde1) - abs(eff.dtilde2)) < 1e-3:
                    continue  # numeric residue guard trips exactly at the boundary
                wn = winding_numeric(eff, 1024)
                assert wn == wa


class TestZeroModes:
    def test_literal_threshold_count(self):
        s = Spectrum(eigenvalues=np.array([0.0, 1e-9, 1.0, -1.0]))
        count, idx = zero_modes(s, 1e-6)
        assert count == 2 and idx == [0, 1]

    def test_full_spectrum_count_is_doubled(self, intercell_dominant):
        # the omega = 0 spectrum is two exact quadrature copies, so the raw
        # threshold count is twice the per-copy edge-mode count
        s = modbkc_spectrum_zero_omega(intercell_dominant, OBC)
        raw, _ = zero_modes(s, 1e-6)
        assert raw == 4
        assert edge_mode_count(intercell_dominant) == 2

    def test_trivial_phase_has_none(self):
        p = ModBKCParams(J1=0.5, J2=0.0, Delta1=1.5, Delta2=1.0, omega=0.0, N=100)
        assert edge_mode_count(p) == 0

    def test_onsite_term_destroys_intracell_dominant_modes(self):
        from bkchain.model import build_modbkc_excitation_direct
        from bkchain.spectral import eigendecompose
        p = ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.05, N=100)
        s = eigendecompose(build_modbkc_excitation_direct(p, OBC))
        assert zero_modes(s, 1e-6)[0] == 0

    def test_zero_mode_vectors_are_edge_localized(self, intercell_dominant):
        s = modbkc_spectrum_zero_omega(intercell_dominant, OBC)
        _, idx = zero_modes(s, 1e-6)
        assert len(idx) == 4
        for m in idx:
            prof = spatial_profile(s.eigenvectors[:, m], intercell_dominant.N)
            assert edge_weight(prof, 0.1) > 0.9

    def test_bulk_boundary_correspondence_grid(self):
        # count = 2 per copy exactly where the winding is nontrivial, on grid
        # points whose finite-size splitting (|dt1|/|dt2|)^N sits safely below
        # the threshold; at N = 100 points closer to the boundary fall below
        # detectability (see the decisions ledger on the acceptance sweep)
        Delta1, Delta2, N, tol = 1.5, 2.1, 100, 1e-6
        rng = np.random.default_rng(11)
        checked = 0
        for J1 in np.linspace(0, 2.5, 8):
            for J2 in rng.uniform(0, 2.5, 4):
                p = ModBKCParams(J1=float(J1), J2=float(J2), Delta1=Delta1,
                                 Delta2=Delta2, omega=0.0, N=N)
                eff = effective_ssh_params(p)
                a1, a2 = abs(eff.dtilde1), abs(eff.dtilde2)
                if a2 > a1 and (a1 / a2) ** N < tol / 100:
                    assert edge_mode_count(p, tol) == 2
                    checked += 1
                elif a1 > a2 * 1.05:
                    assert edge_mode_count(p, tol) == 0
                    checked += 1
        assert checked > 10


class TestGapClosingPredicates:
    def test_type1(self):
        p = ModBKCParams(J1=np.sqrt(1.25), J2=0.0, Delta1=1.5, Delta2=1.0, omega=0, N=4)
        flags = gap_closing_predicates(p)
        assert flags["obc_type1"] and not flags["obc_type2"]

    def test_type2(self):
        p = ModBKCParams(J1=0.0, J2=np.sqrt(1.0 + 2.25), Delta1=1.0, Delta2=1.5, omega=0, N=4)
        assert gap_closing_predicates(p)["obc_type2"]

    def test_pbc(self):
        p = ModBKCParams(J1=2.5, J2=0.0, Delta1=1.5, Delta2=1.0, omega=0, N=4)
        flags = gap_closing_predicates(p)
        assert flags["pbc"]
        q = ModBKCParams(J1=2.4, J2=0.0, Delta1=1.5, Delta2=1.0, omega=0, N=4)
        assert not gap_closing_predicates(q)["pbc"]


class TestPhaseScan:
    def test_degenerate_axis_single_column(self):
        base = ModBKCParams(J1=0.5, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=20)
        d = phase_scan(base, [AxisSpec("J1", 0.5, 0.5, 0.1)])
        assert len(d) == 1
        assert d[0].values == (0.5,)

    def test_zero_mode_region_matches_winding(self):
        # sweep J1 in [0, 2.5] at Delta1=1, Delta2=1.5: nontrivial for
        # J1 < sqrt(Delta1^2 + Delta2^2); compare regions away from the edge
        base = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        d = phase_scan(base, [AxisSpec("J1", 0.0, 2.5, 0.05)])
        for pt in d:
            if pt.error is not None:
                continue
            if pt.w_plus is None:
                continue
            eff = EffectiveSSHParams(
                dtilde1=np.sqrt(complex(1 - pt.values[0] ** 2)), dtilde2=1.5)
            ratio = abs(eff.dtilde1) / abs(eff.dtilde2)
            if pt.w_plus == 1 and ratio ** base.N < 1e-8:
                assert pt.zero_modes == 2
            if pt.w_plus == 0 and ratio > 1.05:
                assert pt.zero_modes == 0

    def test_errors_recorded_not_raised(self):
        # J1 = Delta1 grid point has a singular gauge: eigenvalues still come
        # out (reduced route), so no error; nhse_fraction is unavailable there
        base = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.5, Delta2=1.0, omega=0.0, N=20)
        d = phase_scan(base, [AxisSpec("J1", 1.5, 1.5, 1.0)])
        pt = d[0]
        assert pt.error is None
        assert np.isfinite(pt.zero_gap)
        assert pt.nhse_fraction is None

    def test_scan_count_matches_edge_mode_count(self):
        # every 5th point of the fig4 grid; the scan halves the literal count
        # on its own spectrum, edge_mode_count solves the reduced chain again
        base = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        d = phase_scan(base, [AxisSpec("J1", 0.0, 2.5, 0.1)])
        counts = [edge_mode_count(replace(base, J1=pt.values[0])) for pt in d]
        assert [pt.zero_modes for pt in d] == counts
        assert counts.count(2) > 5 and counts.count(0) > 5

    def test_grid_size_limit(self):
        base = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.5, Delta2=1.0, omega=0.0, N=20)
        with pytest.raises(ValueError, match="1e6"):
            phase_scan(base, [AxisSpec("J1", 0.0, 1.0, 1e-8)])

    def test_repeated_axis_rejected(self):
        # the later axis would overwrite the earlier one's value on every point
        base = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.5, Delta2=1.0, omega=0.0, N=20)
        with pytest.raises(ValueError, match="two axes"):
            phase_scan(base, [AxisSpec("J1", 0.0, 0.4, 0.4), AxisSpec("J1", 2.0, 2.0, 1.0)])

    def test_single_band_axis_rejected(self):
        # AxisSpec takes J0 for single-band sweeps; the two-sublattice scan has none
        base = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.5, Delta2=1.0, omega=0.0, N=20)
        with pytest.raises(ValueError, match="J0"):
            phase_scan(base, [AxisSpec("J0", 0.0, 1.0, 0.5)])

    def test_two_axes_and_threads(self):
        base = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.5, Delta2=1.0, omega=0.0, N=12)
        d1 = phase_scan(base, [AxisSpec("J1", 0.0, 0.4, 0.2), AxisSpec("J2", 0.0, 0.4, 0.2)])
        d2 = phase_scan(base, [AxisSpec("J1", 0.0, 0.4, 0.2), AxisSpec("J2", 0.0, 0.4, 0.2)],
                        threads=4)
        assert len(d1) == 9
        assert [pt.values for pt in d1] == [pt.values for pt in d2]
        assert [pt.zero_gap for pt in d1] == [pt.zero_gap for pt in d2]
