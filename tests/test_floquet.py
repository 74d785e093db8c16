import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0 as scipy_j0

from bkchain.floquet import (
    DriveSpec,
    averaged_phase,
    bessel_j0,
    chi,
    delta_omega,
    effective_params,
)


class TestDrive:
    def test_modulation_at_quarter_period(self):
        d = DriveSpec(lam=1.0, T=2.0)
        assert delta_omega(0.0, d) == 0.0
        assert delta_omega(d.T / 4, d) == pytest.approx(math.pi ** 2 / (2 * d.T))

    def test_no_drive_no_modulation(self):
        d = DriveSpec(lam=0.0, T=1.0)
        assert all(delta_omega(t, d) == 0.0 for t in np.linspace(0, 1, 7))

    def test_accumulated_phase_closed_form_vs_quadrature(self):
        # chi(t) = 2 * integral of delta_omega, cross-checked by quadrature
        d = DriveSpec(lam=0.7, T=1.3)
        for t in (0.2, 0.5, 0.9, 1.3):
            integral, _ = quad(lambda u: delta_omega(u, d), 0.0, t, epsabs=1e-13)
            assert chi(t, d) == pytest.approx(2 * integral, abs=1e-10)

    def test_phase_returns_after_full_period(self):
        d = DriveSpec(lam=1.0, T=2.0)
        assert chi(0.0, d) == 0.0
        assert chi(d.T / 2, d) == pytest.approx(math.pi)
        assert chi(d.T, d) == pytest.approx(0.0, abs=1e-14)

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            DriveSpec(lam=0.5, T=0.0)

    @pytest.mark.parametrize("fields", [dict(lam=math.nan), dict(T=math.nan), dict(T=math.inf),
                                        dict(Jt1=math.inf), dict(phi2=-math.inf), dict(lam=5.1), dict(lam=-20.0)])
    def test_non_finite_or_beyond_series_rejected(self, fields):
        # |pi lam / 2| <= 8, the range of bessel_j0's series, is |lam| <= 5.09
        with pytest.raises(ValueError):
            DriveSpec(**{"lam": 0.5, "T": 1.0, **fields})


class TestAveragedPhase:
    @pytest.mark.parametrize("lam", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_matches_bessel_closed_form(self, lam):
        closed = np.exp(1j * lam * math.pi / 2) * bessel_j0(lam * math.pi / 2)
        assert abs(averaged_phase(lam) - closed) < 1e-8

    def test_undriven_average_is_unity(self):
        assert averaged_phase(0.0) == pytest.approx(1.0)

    def test_full_drive_is_imaginary_bessel(self):
        val = averaged_phase(1.0)
        assert val.real == pytest.approx(0.0, abs=1e-12)
        assert val.imag == pytest.approx(bessel_j0(math.pi / 2), abs=1e-10)
        assert val.imag == pytest.approx(0.4720, abs=5e-5)

    def test_half_drive_modulus(self):
        # |e^{i pi/4} J0(pi/4)| = J0(pi/4) = 0.8516319... (series, quadrature
        # and scipy agree to 1e-12)
        assert abs(averaged_phase(0.5)) == pytest.approx(0.8516319137, abs=1e-9)

    def test_conjugate_pairing(self):
        # the e^{-i chi} average is the conjugate of the e^{+i chi} one
        d = DriveSpec(lam=0.6, T=1.0)
        ts = np.arange(512) / 512
        plus = np.mean([np.exp(1j * chi(t, d)) for t in ts])
        minus = np.mean([np.exp(-1j * chi(t, d)) for t in ts])
        assert minus == pytest.approx(np.conj(plus), abs=1e-14)

    def test_low_order_rejected(self):
        with pytest.raises(ValueError):
            averaged_phase(0.5, order=16)


class TestBessel:
    @pytest.mark.parametrize("x", np.linspace(0, np.pi, 9).tolist())
    def test_series_matches_integral_representation(self, x):
        integral, _ = quad(lambda th: math.cos(x * math.sin(th)), 0.0, math.pi, epsabs=1e-14)
        assert abs(bessel_j0(x) - integral / math.pi) < 1e-10

    @given(st.floats(min_value=-8, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_series_matches_scipy(self, x):
        assert abs(bessel_j0(x) - scipy_j0(x)) < 1e-12

    def test_range_guard(self):
        with pytest.raises(ValueError):
            bessel_j0(9.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, x):
        # abs(nan) > 8 is False, and the series of nan would stop at once and return 1
        with pytest.raises(ValueError, match="finite"):
            bessel_j0(x)


class TestEffectiveParams:
    def test_undriven_is_identity_on_hoppings(self):
        d = DriveSpec(lam=0.0, T=1.0, Jt1=0.4, Jt2=0.1, Dt1=1.0, Dt2=0.5, phi1=0.3, phi2=-0.2)
        eff = effective_params(d)
        assert eff.J1 == pytest.approx(0.4)
        assert eff.J2 == pytest.approx(0.1)
        assert eff.Delta1 == pytest.approx(np.exp(0.3j) * 1.0)
        assert eff.Delta2 == pytest.approx(np.exp(-0.2j) * 0.5)
        assert eff.omega == 0.0

    def test_full_drive_gives_imaginary_hoppings(self):
        d = DriveSpec(lam=1.0, T=1.0, Jt1=0.4, Jt2=0.1)
        eff = effective_params(d)
        assert eff.J1.real == pytest.approx(0.0, abs=1e-15)
        assert eff.J1.imag > 0
        assert eff.J2.real == pytest.approx(0.0, abs=1e-15)
        assert eff.J2.imag < 0

    def test_zero_phase_undriven_reproduces_chain_couplings(self):
        # lam = 0, phi = 0 feeds the two-sublattice model parameters directly
        d = DriveSpec(lam=0.0, T=1.0, Jt1=0.4, Jt2=0.1, Dt1=1.0, Dt2=0.5)
        eff = effective_params(d)
        assert (eff.J1, eff.J2, eff.Delta1, eff.Delta2) == (0.4, 0.1, 1.0, 0.5)

    @given(st.floats(min_value=0, max_value=1))
    @settings(max_examples=40, deadline=None)
    def test_common_bessel_factor_property(self, lam):
        d = DriveSpec(lam=lam, T=1.0, Jt1=0.4, Jt2=0.1)
        eff = effective_params(d)
        assert abs(eff.J1) == pytest.approx(abs(eff.J2) * (0.4 / 0.1), abs=1e-12)
