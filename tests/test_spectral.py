import numpy as np
import pytest

from bkchain.model import (
    BKCParams,
    BoundaryCondition,
    ModBKCParams,
    QuadraticForm,
    build_bkc_excitation_direct,
    build_modbkc_excitation_direct,
    excitation_matrix,
)
from bkchain.spectral import (
    Spectrum,
    bkc_pbc_dispersion,
    eigendecompose,
    modbkc_spectrum_zero_omega,
    solve,
    spectrum_distance,
    zero_gap,
)

OBC, PBC = BoundaryCondition.OBC, BoundaryCondition.PBC


class TestEigendecompose:
    def test_single_oscillator(self):
        q = QuadraticForm(diagonals={0: np.ones(2)}, n_cells=1, n_sublattices=1, bc=OBC)
        s = eigendecompose(excitation_matrix(q))
        assert s.eigenvalues == pytest.approx([-1.0, 1.0])

    def test_sorted_lexicographically(self):
        p = ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.5, N=10)
        s = eigendecompose(build_modbkc_excitation_direct(p, PBC))
        key = list(zip(s.eigenvalues.real, s.eigenvalues.imag))
        assert key == sorted(key)

    def test_unit_norm_and_residual(self):
        p = BKCParams(J0=0.5, Delta0=1.0, omega=0.5, N=40)
        M = build_bkc_excitation_direct(p, OBC)
        s = eigendecompose(M)
        norms = np.linalg.norm(s.eigenvectors, axis=0)
        assert np.abs(norms - 1).max() < 1e-12
        res = np.linalg.norm(M.M @ s.eigenvectors - s.eigenvectors * s.eigenvalues, axis=0)
        assert res.max() <= 1e-8 * np.abs(M.M).max() * M.dim

    def test_hermitian_limit_real_spectrum(self):
        # no pairing: the matrix is Hermitian, eigenvalues real
        for M in (build_bkc_excitation_direct(BKCParams(J0=1, Delta0=0, omega=0.3, N=30), OBC),
                  build_modbkc_excitation_direct(
                      ModBKCParams(J1=0.7, J2=1.1, Delta1=0, Delta2=0, omega=0.2, N=15), OBC)):
            s = eigendecompose(M)
            assert np.abs(s.eigenvalues.imag).max() < 1e-10


class TestTransformedRoutes:
    def test_obc_purely_imaginary_below_sweet_spot(self, skin_bkc):
        # J0 < Delta0, omega = 0: spectrum on the imaginary axis
        s = solve(skin_bkc, OBC)
        assert np.abs(s.eigenvalues.real).max() < 1e-8

    def test_obc_purely_real_above_sweet_spot(self):
        p = BKCParams(J0=2.0, Delta0=1.0, omega=0.0, N=100)
        s = solve(p, OBC)
        assert np.abs(s.eigenvalues.imag).max() < 1e-8

    def test_obc_standing_wave_quantization(self):
        # open-chain eigenvalues are +-2 sqrt(J0^2-Delta0^2) cos(pi m / (N+1));
        # the m/(N) quantization does not match (checked against the exact
        # Hermitian reduction, which is the ground truth here)
        p = BKCParams(J0=2.0, Delta0=1.0, omega=0.0, N=40)
        s = solve(p, OBC)
        c = np.sqrt(p.J0 ** 2 - p.Delta0 ** 2)
        m = np.arange(1, p.N + 1)
        standing = np.sort(np.concatenate([2 * c * np.cos(np.pi * m / (p.N + 1)),
                                           -2 * c * np.cos(np.pi * m / (p.N + 1))]))
        assert np.abs(np.sort(s.eigenvalues.real) - standing).max() < 1e-10
        ring = np.sort(np.concatenate([2 * c * np.cos(2 * np.pi * m / p.N),
                                       -2 * c * np.cos(2 * np.pi * m / p.N)]))
        assert np.abs(np.sort(s.eigenvalues.real) - ring).max() > 0.01

    # the skin chain, and four Hermitian-side chains whose equal x and p
    # spectra a joint solve mixes inside each degenerate pair
    @pytest.mark.parametrize("J0,Delta0", [(0.5, 1.0), (1.0, 0.7), (1.0, 0.9), (1.0, 0.99), (1.0, -0.9)])
    def test_lifted_vectors_satisfy_eigen_equation(self, J0, Delta0):
        p = BKCParams(J0=J0, Delta0=Delta0, omega=0.0, N=100)
        M = build_bkc_excitation_direct(p, OBC)
        s = solve(p, OBC)
        res = np.linalg.norm(M.M @ s.eigenvectors - s.eigenvectors * s.eigenvalues, axis=0)
        assert res.max() <= 1e-8 * np.abs(M.M).max() * M.dim

    def test_reduced_route_matches_direct_eig_at_small_n(self, set_distance):
        p = ModBKCParams(J1=0.5, J2=0.3, Delta1=1.0, Delta2=1.5, omega=0.0, N=12)
        s_red = modbkc_spectrum_zero_omega(p, OBC)
        s_eig = eigendecompose(build_modbkc_excitation_direct(p, OBC))
        assert set_distance(s_red.eigenvalues, s_eig.eigenvalues) < 1e-8

    def test_reduced_route_spectrum_is_doubled(self):
        p = ModBKCParams(J1=0.5, J2=0.3, Delta1=1.0, Delta2=1.5, omega=0.0, N=30)
        s = modbkc_spectrum_zero_omega(p, OBC)
        vals, counts = np.unique(np.round(s.eigenvalues, 9), return_counts=True)
        assert np.all(counts >= 2)  # exact quadrature doubling

    def test_reduced_route_survives_singular_gauge(self):
        # Delta1 = J1 makes the gauge singular but eigenvalues stay exact
        p = ModBKCParams(J1=1.5, J2=0.0, Delta1=1.5, Delta2=1.0, omega=0.0, N=30)
        s = modbkc_spectrum_zero_omega(p, OBC)
        assert s.eigenvectors is None
        assert np.abs(s.eigenvalues.real).max() < 1e-12


class TestDispersion:
    @pytest.mark.parametrize("k,expect", [
        (0.0, (2j, -2j)),
        (np.pi / 2, (2.0, 2.0)),
    ])
    def test_sweet_spot_values(self, k, expect):
        p = BKCParams(J0=1, Delta0=1, omega=0, N=4)
        assert bkc_pbc_dispersion(p, k) == pytest.approx(expect)

    def test_gap_closes_when_omega_matches_pairing(self):
        p = BKCParams(J0=1, Delta0=1, omega=2, N=4)
        assert bkc_pbc_dispersion(p, 0.0) == pytest.approx((0.0, 0.0))

    def test_pbc_spectrum_matches_dispersion(self, set_distance):
        p = BKCParams(J0=0.5, Delta0=1.0, omega=0.5, N=50)
        s = eigendecompose(build_bkc_excitation_direct(p, PBC))
        ks = 2 * np.pi * np.arange(p.N) / p.N
        disp = np.concatenate([[*bkc_pbc_dispersion(p, k)] for k in ks])
        assert set_distance(s.eigenvalues, disp) < 1e-10


class TestSpectrumComparisons:
    def test_identical_spectra_distance_zero(self):
        s = Spectrum(eigenvalues=np.array([1.0, 2.0 + 1j]))
        assert spectrum_distance(s, s) == 0.0

    def test_singleton_distance_is_euclidean(self):
        a = Spectrum(eigenvalues=np.array([0.0 + 0j]))
        b = Spectrum(eigenvalues=np.array([3.0 + 4j]))
        assert spectrum_distance(a, b) == pytest.approx(5.0)

    def test_empty_spectrum_rejected(self):
        s = Spectrum(eigenvalues=np.array([]))
        with pytest.raises(ValueError):
            spectrum_distance(s, s)

    def test_boundary_sensitivity_at_zero_omega(self, skin_bkc, set_distance):
        s_obc = solve(skin_bkc, OBC)
        s_pbc = eigendecompose(build_bkc_excitation_direct(skin_bkc, PBC))
        d = spectrum_distance(s_obc, s_pbc)
        assert d > 0.9 * skin_bkc.Delta0  # of order the imaginary gap

    def test_zero_gap(self):
        s = Spectrum(eigenvalues=np.array([1.0, -1.0, 1j, -1j]))
        assert zero_gap(s) == pytest.approx(1.0)
        s0 = Spectrum(eigenvalues=np.array([0.0, 2.0]))
        assert zero_gap(s0) == 0.0

    def test_zero_gap_in_topological_window(self):
        # inside the window sqrt(Delta1^2-Delta2^2) < J1 < sqrt(Delta1^2+Delta2^2)
        p = ModBKCParams(J1=1.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        s = modbkc_spectrum_zero_omega(p, OBC)
        assert zero_gap(s) < 1e-6
