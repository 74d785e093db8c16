import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import j0 as scipy_j0

from bkchain import floquet
from bkchain.floquet import (
    DriveSpec,
    averaged_phase,
    bessel_j0,
    chi,
    delta_omega,
    effective_params,
)


class TestDrive:
    # t is in modulation periods
    def test_modulation_at_quarter_period(self):
        assert delta_omega(0.0, 1.0) == 0.0
        assert delta_omega(0.25, 1.0) == pytest.approx(math.pi ** 2 / 2)

    def test_no_drive_no_modulation(self):
        assert all(delta_omega(t, 0.0) == 0.0 for t in np.linspace(0, 1, 7))

    def test_accumulated_phase_closed_form_vs_quadrature(self):
        # chi(t) = 2 * integral of delta_omega, cross-checked by quadrature
        for t in (0.2, 0.5, 0.9, 1.3):
            integral, _ = quad(lambda u: delta_omega(u, 0.7), 0.0, t, epsabs=1e-13)
            assert chi(t, 0.7) == pytest.approx(2 * integral, abs=1e-10)

    def test_phase_returns_after_full_period(self):
        assert chi(0.0, 1.0) == 0.0
        assert chi(0.5, 1.0) == pytest.approx(math.pi)
        assert chi(1.0, 1.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("fields", [dict(lam=math.nan), dict(lam=math.inf), dict(lam=-math.inf),
                                        dict(Jt1=math.inf), dict(Jt2=-math.inf), dict(lam=5.1), dict(lam=-20.0)])
    def test_non_finite_or_beyond_series_rejected(self, fields):
        # |pi lam / 2| <= 8, the range of bessel_j0's series, is |lam| <= 5.09
        with pytest.raises(ValueError):
            DriveSpec(**{"lam": 0.5, **fields})


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
        ts = np.arange(512) / 512
        plus = np.mean([np.exp(1j * chi(t, 0.6)) for t in ts])
        minus = np.mean([np.exp(-1j * chi(t, 0.6)) for t in ts])
        assert minus == pytest.approx(np.conj(plus), abs=1e-14)

    def test_low_order_rejected(self, monkeypatch):
        monkeypatch.setattr(floquet, "QUADRATURE_ORDER", 16)
        with pytest.raises(ValueError, match="quadrature order must be >= 32, got 16"):
            averaged_phase(0.5)


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
        for Jt1, Jt2 in ((0.4, 0.1), (-0.7, 2.5), (0.0, -1.3)):
            eff = effective_params(DriveSpec(lam=0.0, Jt1=Jt1, Jt2=Jt2))
            assert (eff.J1, eff.J2) == (Jt1, Jt2)

    def test_full_drive_gives_imaginary_hoppings(self):
        d = DriveSpec(lam=1.0, Jt1=0.4, Jt2=0.1)
        eff = effective_params(d)
        assert eff.J1.real == pytest.approx(0.0, abs=1e-15)
        assert eff.J1.imag > 0
        assert eff.J2.real == pytest.approx(0.0, abs=1e-15)
        assert eff.J2.imag < 0

    def test_zero_phase_undriven_reproduces_chain_couplings(self):
        # lam = 0 feeds the two-sublattice model's hoppings directly
        eff = effective_params(DriveSpec(lam=0.0, Jt1=0.4, Jt2=0.1))
        assert (eff.J1, eff.J2) == (0.4, 0.1)

    @given(st.floats(min_value=0, max_value=1))
    @settings(max_examples=40, deadline=None)
    def test_common_bessel_factor_property(self, lam):
        d = DriveSpec(lam=lam, Jt1=0.4, Jt2=0.1)
        eff = effective_params(d)
        assert abs(eff.J1) == pytest.approx(abs(eff.J2) * (0.4 / 0.1), abs=1e-12)
