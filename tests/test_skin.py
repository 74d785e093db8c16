import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkchain.model import BoundaryCondition, ModBKCParams, build_modbkc_excitation_direct, cell_index
from bkchain.skin import (
    SpatialProfile,
    edge_weight,
    nhse_fraction,
    profile_matrix,
    spatial_profile,
)
from bkchain.spectral import Spectrum, eigendecompose, modbkc_spectrum_zero_omega

OBC = BoundaryCondition.OBC


def mean_position(p: SpatialProfile):
    """Profile-weighted mean cell index, per column."""
    x = cell_index(len(p.prob), p.n_cells) @ p.prob
    return float(x) if np.ndim(x) == 0 else x


class TestSpatialProfile:
    def test_basis_vector(self):
        v = np.zeros(8)
        v[0] = 1.0
        p = spatial_profile(v, n_cells=2)
        assert p.prob[0] == 1.0 and p.prob[1:].sum() == 0.0

    def test_uniform_vector(self):
        p = spatial_profile(np.ones(8), n_cells=2)
        assert np.allclose(p.prob, 0.125)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            spatial_profile(np.zeros(4), n_cells=1)

    @pytest.mark.parametrize("kind", ["complex", "complex-F", "column", "real", "int"])
    def test_in_place_profile_matches_out_of_place(self, kind):
        # |v|^2, its column sums and both divisions run in place; the bytes are those of the out-of-place formula
        rng = np.random.default_rng(4)
        v = rng.normal(size=(40, 40)) * 10.0 ** rng.uniform(-150, 150, (40, 40)) + 1j * rng.normal(size=(40, 40))
        v = {"complex": v, "complex-F": np.asfortranarray(v), "column": v[:, 3], "real": v.real,
             "int": rng.integers(-3, 4, (40, 40))}[kind]
        v[..., 0] = 1  # no zero column
        ref = np.abs(v) ** 2
        ref = ref / ref.sum(axis=0)
        ref /= ref.sum(axis=0)
        prob = spatial_profile(v, n_cells=10).prob
        assert prob.tobytes() == ref.tobytes() and prob.flags.f_contiguous == ref.flags.f_contiguous

    @given(st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
                    min_size=4, max_size=40).filter(lambda xs: any(abs(x) > 1e-3 for x in xs)))
    @settings(max_examples=60, deadline=None)
    def test_normalization_property(self, entries):
        n = len(entries) - len(entries) % 4
        if n < 4:
            return
        v = np.array(entries[:n])
        p = spatial_profile(v, n_cells=n // 4)
        assert abs(p.prob.sum() - 1.0) <= 1e-12
        assert np.all(p.prob >= 0)


class TestEdgeWeight:
    def test_delta_at_left_edge(self):
        v = np.zeros(400)
        v[0] = 1.0
        p = spatial_profile(v, n_cells=100)
        assert edge_weight(p, 0.1) == 1.0

    def test_uniform_baseline(self):
        p = spatial_profile(np.ones(400), n_cells=100)
        assert edge_weight(p, 0.1) == pytest.approx(0.20)

    def test_frac_bounds(self):
        p = spatial_profile(np.ones(8), n_cells=2)
        with pytest.raises(ValueError):
            edge_weight(p, 0.0)
        with pytest.raises(ValueError):
            edge_weight(p, 0.6)

    def test_bulk_state_at_finite_omega_is_delocalized(self):
        p = ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.1, N=100)
        s = eigendecompose(build_modbkc_excitation_direct(p, OBC))
        weights = sorted(edge_weight(spatial_profile(s.eigenvectors[:, m], 100), 0.1)
                         for m in range(400))
        assert 0.15 < np.median(weights) < 0.30


class TestCensus:
    def test_zero_omega_census(self):
        # all omega = 0 eigenstates are boundary-localized; the exact fraction
        # at (frac, threshold) = (0.1, 0.9) is 0.95 for these parameters: the
        # band-edge states (slow sine envelopes under the exponential gauge
        # weight) carry edge weights 0.84-0.90, everything else clears 0.9
        p = ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.0, N=100)
        s = modbkc_spectrum_zero_omega(p, OBC)
        assert nhse_fraction(s, 0.1, 0.9, 100) == pytest.approx(0.95, abs=0.005)
        weights = [edge_weight(spatial_profile(s.eigenvectors[:, m], 100), 0.1)
                   for m in range(400)]
        assert min(weights) > 0.8

    def test_broken_census_at_finite_omega(self):
        p = ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.1, N=100)
        s = eigendecompose(build_modbkc_excitation_direct(p, OBC))
        assert nhse_fraction(s, 0.1, 0.9, 100) <= 0.05

    def test_hermitian_ssh_limit_counts_only_topological_modes(self):
        # no hoppings: no skin effect; the census picks up exactly the four
        # near-zero edge vectors (two per quadrature copy)
        p = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.0, Delta2=2.0, omega=0.0, N=100)
        s = modbkc_spectrum_zero_omega(p, OBC)
        frac = nhse_fraction(s, 0.1, 0.9, 100)
        assert frac == pytest.approx(4 / 400)


class TestColumnwise:
    """One array expression over all eigenvector columns against a per-column loop."""

    p = ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.0, N=20)

    def test_matches_per_column_profiles(self):
        s = modbkc_spectrum_zero_omega(self.p, OBC)
        columns = [spatial_profile(s.eigenvectors[:, m], self.p.N) for m in range(len(s))]
        ref = np.stack([c.prob for c in columns])
        assert np.abs(profile_matrix(s, self.p.N) - ref).max() <= 1e-15
        both = spatial_profile(s.eigenvectors, self.p.N)
        weights = np.array([edge_weight(c, 0.1) for c in columns])
        assert np.abs(edge_weight(both, 0.1) - weights).max() <= 1e-14
        positions = np.array([mean_position(c) for c in columns])
        assert np.abs(mean_position(both) - positions).max() <= 1e-12
        for threshold in (0.5, 0.9):
            assert np.abs(weights - threshold).min() > 1e-9  # no weight on the cut
            assert nhse_fraction(s, 0.1, threshold, self.p.N) == np.mean(weights > threshold)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_bad_column_rejected(self, bad):
        s = modbkc_spectrum_zero_omega(self.p, OBC)
        vecs = s.eigenvectors.copy()
        vecs[:, 3] = bad
        with pytest.raises(ValueError, match="zero or non-finite"):
            spatial_profile(vecs, self.p.N)
        with pytest.raises(ValueError, match="zero or non-finite"):
            nhse_fraction(Spectrum(s.eigenvalues, vecs), 0.1, 0.9, self.p.N)

    def test_each_column_must_sum_to_one(self):
        prob = np.full((8, 2), 0.125)
        prob[0, 1] = 0.25
        with pytest.raises(ValueError, match="sum to 1"):
            SpatialProfile(prob=prob, n_cells=2)


class TestMeanPosition:
    def test_delta_profile(self):
        v = np.zeros(400)
        v[2] = 1.0  # cell 0
        assert mean_position(spatial_profile(v, 100)) == 0.0

    def test_uniform_profile(self):
        assert mean_position(spatial_profile(np.ones(400), 100)) == pytest.approx(49.5)

    def test_skin_states_follow_gauge_growth(self):
        # r1, r2 > 1: gauge diagonals grow to the right, and the product-basis
        # eigenstates localize there (mean position near the last cell)
        p = ModBKCParams(J1=0.0, J2=0.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        s = modbkc_spectrum_zero_omega(p, OBC)
        positions = [mean_position(spatial_profile(s.eigenvectors[:, m], 100))
                     for m in range(400)]
        assert min(positions) > 90.0

    def test_profile_matrix_layout(self):
        p = ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.0, N=20)
        s = modbkc_spectrum_zero_omega(p, OBC)
        P = profile_matrix(s, 20)
        assert P.shape == (80, 80)
        assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
