from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from bkchain.csvio import write_csv
from bkchain.disorder import DisorderSpec, sample_site_fields
from bkchain.model import (
    BKCParams,
    BoundaryCondition,
    ModBKCParams,
    QuadraticForm,
    build_bkc_excitation_direct,
    build_bkc_quadratic,
    build_modbkc_excitation_direct,
    build_modbkc_quadratic,
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

# The dense spectrum against the complex eigvals(M), paired one to one,
# relative to max|E|: measured at most 1.2e-14 at 60 x 60 and 1.8e-14 at 400 x 400.
DENSE_COMPLEX_BOUND = 1e-12


def _dense_cases():
    """(id, M): both models' `excitation_matrix` and direct oracles, OBC and PBC, clean and disordered, omega != 0."""
    bkc = BKCParams(J0=0.5, Delta0=1.0, omega=0.5, N=30)
    mod = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.3, N=15)
    every = {k: 0.2 for k in ("J1", "J2", "Delta1", "Delta2", "omega")}
    fields = sample_site_fields(mod, DisorderSpec(every, seed=813), 0)
    cases = []
    for bc in (OBC, PBC):
        cases += [(f"bkc-{bc.value}", excitation_matrix(build_bkc_quadratic(bkc, bc))),
                  (f"bkc-direct-{bc.value}", build_bkc_excitation_direct(bkc, bc)),
                  (f"modbkc-{bc.value}", excitation_matrix(build_modbkc_quadratic(mod, bc))),
                  (f"modbkc-direct-{bc.value}", build_modbkc_excitation_direct(mod, bc)),
                  (f"disordered-{bc.value}", excitation_matrix(build_modbkc_quadratic(fields, bc)))]
    # criterion 07's 400 x 400 chain: intracell-dominant, omega = 0.05, 10% disorder on every parameter
    intra = ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.05, N=100)
    spec = DisorderSpec({k: 0.1 for k in every}, seed=814)
    fields = sample_site_fields(intra, spec, 0)
    cases.append(("disordered-obc-400", excitation_matrix(build_modbkc_quadratic(fields, OBC))))
    return cases


DENSE_CASES = _dense_cases()
DENSE_IDS = [label for label, _ in DENSE_CASES]
DENSE_MATRICES = [M for _, M in DENSE_CASES]
# chains whose Im M has real eigenvalues, so E has exactly zero real parts, and Hermitian M with real E
REAL_LAMBDA_CASES = [
    build_bkc_excitation_direct(BKCParams(J0=0.5, Delta0=1.0, omega=0.0, N=30), OBC),
    build_modbkc_excitation_direct(ModBKCParams(J1=0.5, J2=0.3, Delta1=1.0, Delta2=1.5, omega=0.0, N=12), OBC),
    build_bkc_excitation_direct(BKCParams(J0=1, Delta0=0, omega=0.3, N=30), OBC),
    build_modbkc_excitation_direct(ModBKCParams(J1=0.7, J2=1.1, Delta1=0, Delta2=0, omega=0.2, N=15), OBC),
]


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

    @pytest.mark.parametrize("vectors", [True, False], ids=["vectors", "values"])
    @pytest.mark.parametrize("M", DENSE_MATRICES, ids=DENSE_IDS)
    def test_spectrum_pairs_e_with_minus_conjugate_exactly(self, M, vectors):
        # M = i Im M: the real solve returns exact conjugate pairs, so E and -conj(E) are one set bit for bit
        E = eigendecompose(M, vectors).eigenvalues
        mirror = -E.conj() + 0.0
        mirror = mirror[np.lexsort((mirror.imag, mirror.real))]
        assert mirror.tobytes() == E.tobytes()

    @pytest.mark.parametrize("M", DENSE_MATRICES, ids=DENSE_IDS)
    def test_matches_complex_eigvals(self, M):
        # an independent reference: the complex eigvals of M itself, paired one to one
        E = eigendecompose(M, vectors=False).eigenvalues
        ref = np.linalg.eigvals(M.M)
        rows, cols = linear_sum_assignment(np.abs(E[:, None] - ref[None, :]))
        assert np.abs(E[rows] - ref[cols]).max() <= DENSE_COMPLEX_BOUND * np.abs(ref).max()

    def test_nonzero_real_part_rejected(self):
        # M = i K, so a nonzero Re M is a complex K, which no excitation matrix may hold, as no SiteFields may
        M = build_modbkc_excitation_direct(ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.3, N=4), OBC)
        for K in (M.K - 1e-3j * np.eye(M.dim), M.K.astype(complex)):
            with pytest.raises(TypeError, match="ExcitationMatrix.K must be real"):
                replace(M, K=K)

    def test_lapack_gets_real_arrays(self, monkeypatch):
        dtypes = []
        for name in ("eig", "eigvals"):
            def recording(A, inner=getattr(np.linalg, name)):
                dtypes.append(np.asarray(A).dtype)
                return inner(A)
            monkeypatch.setattr(np.linalg, name, recording)
        for M in DENSE_MATRICES:
            for vectors in (True, False):
                eigendecompose(M, vectors)
        assert len(dtypes) == 2 * len(DENSE_MATRICES)
        assert all(d == np.float64 for d in dtypes)

    @pytest.mark.parametrize("M", REAL_LAMBDA_CASES,
                             ids=["skin", "modbkc-zero-omega", "hermitian-bkc", "hermitian-modbkc"])
    def test_no_negative_zero(self, M, tmp_path):
        for vectors in (True, False):
            E = eigendecompose(M, vectors).eigenvalues
            parts = np.concatenate([E.real, E.imag])
            zero = parts == 0
            assert zero.any() and not np.signbit(parts[zero]).any()
            path = write_csv(str(tmp_path / "E.csv"), ["index", "re_E", "im_E"], [np.arange(len(E)), E.real, E.imag])
            with open(path) as fh:
                assert "-0" not in {cell for line in fh for cell in line.rstrip("\n").split(",")}


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
