import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkchain.disorder import (
    DisorderSpec,
    ensemble_observables,
    sample_site_fields,
)
from bkchain.model import (
    MAX_GRID_POINTS,
    AxisSpec,
    BoundaryCondition,
    ModBKCParams,
    SiteFields,
    bloch_matrix,
    build_modbkc_quadratic,
    excitation_matrix,
)
from bkchain import disorder, skin, topology
from bkchain.skin import nhse_fraction, profile_matrix, spatial_profile
from bkchain.spectral import SolverError, modbkc_spectrum_zero_omega, solve, zero_gap
from bkchain.topology import edge_mode_count, phase_scan, zero_modes_per_copy
from bkchain.transform import SingularTransformError, a_combined, ssh_lift_target, transform_residual

OBC = BoundaryCondition.OBC
PBC = BoundaryCondition.PBC
_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    """Scalar SplitMix64 finalizer on Python ints: the reference for the vectorized draw."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _keyed_uniform(seed: int, realization: int, param_id: int, index: int) -> float:
    """Uniform in [0, 1) with a 53-bit mantissa, keyed by the full coordinate."""
    h = seed & _MASK64
    for part in (realization, param_id, index):
        h = _splitmix64(h ^ (part & _MASK64))
    return (h >> 11) * 2.0 ** -53


@pytest.fixture
def base():
    return ModBKCParams(J1=1.0, J2=1.4, Delta1=1.5, Delta2=2.1, omega=0.0, N=40)


class TestSampling:
    def test_zero_disorder_collapses_to_base(self, base):
        spec = DisorderSpec(strengths={}, seed=9, realizations=1)
        f = sample_site_fields(base, spec, 0)
        assert np.all(f.J1 == base.J1) and np.all(f.Delta2 == base.Delta2)
        assert np.all(f.omega_A == 0.0) and np.all(f.omega_B == 0.0)

    def test_reproducible_bit_identical(self, base):
        spec = DisorderSpec(strengths={"J1": 0.1, "omega": 2.0}, seed=123, realizations=3)
        f1 = sample_site_fields(base, spec, 2)
        f2 = sample_site_fields(base, spec, 2)
        assert np.array_equal(f1.J1, f2.J1)
        assert np.array_equal(f1.omega_A, f2.omega_A)

    def test_realizations_differ(self, base):
        spec = DisorderSpec(strengths={"J1": 0.1}, seed=123, realizations=3)
        assert not np.array_equal(sample_site_fields(base, spec, 0).J1,
                                  sample_site_fields(base, spec, 1).J1)

    def test_interval_and_mean(self):
        # P = 1, W = 0.1: samples in [0.9, 1.1], mean near 1 over 1e4 draws
        p = ModBKCParams(J1=1.0, J2=0.0, Delta1=2.0, Delta2=2.0, omega=0.0, N=100)
        spec = DisorderSpec(strengths={"J1": 0.1}, seed=7, realizations=100)
        draws = np.concatenate([sample_site_fields(p, spec, r).J1 for r in range(100)])
        assert draws.min() >= 0.9 and draws.max() <= 1.1
        assert abs(draws.mean() - 1.0) < 0.01

    def test_omega_interval_allows_negative_values(self):
        p = ModBKCParams(J1=1.0, J2=0.5, Delta1=2.0, Delta2=2.0, omega=0.05, N=100)
        spec = DisorderSpec(strengths={"omega": 2.0}, seed=5, realizations=20)
        draws = np.concatenate([sample_site_fields(p, spec, r).omega_A for r in range(20)])
        assert draws.min() >= -0.05 and draws.max() <= 0.15
        assert (draws < 0).any()

    def test_sublattices_draw_independently(self):
        p = ModBKCParams(J1=1.0, J2=0.5, Delta1=2.0, Delta2=2.0, omega=0.05, N=50)
        spec = DisorderSpec(strengths={"omega": 2.0}, seed=5, realizations=1)
        f = sample_site_fields(p, spec, 0)
        assert not np.array_equal(f.omega_A, f.omega_B)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="J3"):
            DisorderSpec(strengths={"J3": 0.1}, seed=1, realizations=1)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_out_of_range_seed_rejected(self, seed):
        # the hash keys on 64 bits: 2**64 would draw the realizations of seed 0
        with pytest.raises(ValueError, match="seed"):
            DisorderSpec(strengths={}, seed=seed, realizations=1)

    @pytest.mark.parametrize("realizations", [0, MAX_GRID_POINTS + 1])
    def test_out_of_range_realization_count_rejected(self, realizations):
        # each realization is a solve, queued on the pool before any returns
        with pytest.raises(ValueError, match="realizations"):
            DisorderSpec(strengths={}, seed=1, realizations=realizations)
        assert DisorderSpec(strengths={}, seed=1, realizations=MAX_GRID_POINTS).realizations == MAX_GRID_POINTS

    def test_out_of_range_realization_rejected(self, base):
        spec = DisorderSpec(strengths={}, seed=1, realizations=2)
        with pytest.raises(ValueError):
            sample_site_fields(base, spec, 2)

    @pytest.mark.parametrize("seed", [0, 1, 20240601, 2 ** 63, 2 ** 64 - 1])
    def test_vectorized_draws_match_scalar_reference(self, seed):
        # the uint64 SplitMix64 must reproduce the Python-int hash bit for bit, at
        # every parameter id, with the wrap at seed 2**64 - 1, and N = 1 below the
        # SiteFields minimum of 2 cells
        for pid in sorted(disorder._PARAM_IDS.values()):
            for n in (1, 2, 100):
                ref = np.array([_keyed_uniform(seed, 5, pid, j) for j in range(n)])
                assert np.array_equal(disorder._keyed_uniforms(seed, 5, pid, n), ref)

    @given(seed=st.integers(min_value=0, max_value=2 ** 63), w=st.floats(0, 1))
    @settings(max_examples=30, deadline=None)
    def test_draw_bounds_property(self, seed, w):
        p = ModBKCParams(J1=1.0, J2=0.5, Delta1=2.0, Delta2=2.0, omega=0.0, N=10)
        spec = DisorderSpec(strengths={"Delta1": w}, seed=seed, realizations=1)
        f = sample_site_fields(p, spec, 0)
        assert f.Delta1.min() >= 2.0 * (1 - w) - 1e-12
        assert f.Delta1.max() <= 2.0 * (1 + w) + 1e-12


class TestDisorderedSimilarity:
    def test_uniform_fields_collapse_to_clean_gauge(self, base):
        A_clean = a_combined(base)
        A_dis = a_combined(SiteFields.uniform(base))
        assert np.abs(A_clean.log_scale - A_dis.log_scale).max() < 1e-13
        assert np.abs(A_clean.phase - A_dis.phase).max() < 1e-13

    def test_disordered_residual_against_ssh_form(self, base):
        spec = DisorderSpec(strengths={"J1": 0.1, "J2": 0.1, "Delta1": 0.1, "Delta2": 0.1},
                            seed=31, realizations=1)
        f = sample_site_fields(base, spec, 0)
        M = excitation_matrix(build_modbkc_quadratic(f, OBC))
        res = transform_residual(M, a_combined(f), ssh_lift_target(f))
        assert res < 1e-8

    def test_singular_site_named_in_error(self):
        f = SiteFields.uniform(ModBKCParams(J1=1.0, J2=0.5, Delta1=1.5, Delta2=2.1,
                                            omega=0.0, N=6))
        J1 = f.J1.copy()
        J1[3] = 1.5  # Delta1 = J1 at cell 3
        bad = SiteFields(J1=J1, J2=f.J2, Delta1=f.Delta1, Delta2=f.Delta2,
                         omega_A=f.omega_A, omega_B=f.omega_B)
        with pytest.raises(SingularTransformError, match="cell 3"):
            a_combined(bad)


class TestEnsembles:
    def test_single_clean_realization_equals_clean_values(self, base):
        spec = DisorderSpec(strengths={}, seed=1, realizations=1)
        res = ensemble_observables(base, spec, ("zero_gap", "zero_modes"))
        # these observables read eigenvalues only, which the ensemble solves without vectors
        clean = modbkc_spectrum_zero_omega(base, OBC, with_vectors=False)
        assert res.observables["zero_gap"][0] == zero_gap(clean)
        assert res.observables["zero_modes"][0] == edge_mode_count(base)
        # the solve with vectors finds the same eigenvalues, bit for bit
        assert res.observables["zero_gap"][0] == zero_gap(modbkc_spectrum_zero_omega(base, OBC))

    def test_pbc_zero_omega_matches_bloch_blocks(self):
        # the gauge does not close around a ring, so a clean omega = 0 ring
        # must report the periodic spectrum, not the reduced SSH ring's
        p = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.0, N=20)
        spec = DisorderSpec(strengths={}, seed=3, realizations=1)
        res = ensemble_observables(p, spec, ("abs_spectrum",), bc=PBC)
        blocks = np.concatenate([np.linalg.eigvals(bloch_matrix(p, 2 * np.pi * m / p.N))
                                 for m in range(p.N)])
        assert np.abs(res.observables["abs_spectrum"][0] - np.sort(np.abs(blocks))).max() < 1e-8

    def test_zero_mode_robustness_at_ten_percent(self):
        # both topological parameter sets keep their edge-mode pair in every
        # realization under 10% disorder on all couplings
        spec = DisorderSpec(strengths={"J1": 0.1, "J2": 0.1, "Delta1": 0.1, "Delta2": 0.1},
                            seed=77, realizations=20)
        for p in (ModBKCParams(J1=1.0, J2=1.4, Delta1=1.5, Delta2=2.1, omega=0.0, N=100),
                  ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.0, N=100)):
            res = ensemble_observables(p, spec, ("zero_modes",))
            assert np.all(res.observables["zero_modes"] == 2)

    def test_gap_stays_closed_across_window_sweep(self):
        # disorder-averaged zero gap stays tiny inside the topological window
        spec = DisorderSpec(strengths={"J1": 0.1, "J2": 0.1, "Delta1": 0.1, "Delta2": 0.1},
                            seed=101, realizations=20)
        for J2 in (0.8, 1.2, 1.6):
            p = ModBKCParams(J1=1.0, J2=J2, Delta1=1.5, Delta2=2.1, omega=0.0, N=100)
            res = ensemble_observables(p, spec, ("zero_gap",))
            assert res.mean["zero_gap"] < 1e-4

    def test_topological_ensemble_keeps_every_realization(self):
        # fig4 at J1 = 1.2 with 10% disorder: every realization holds a
        # near-zero edge pair, whose eigenvectors the census needs
        p = ModBKCParams(J1=1.2, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        spec = DisorderSpec(strengths={"J1": 0.1, "J2": 0.1, "Delta1": 0.1, "Delta2": 0.1},
                            seed=7, realizations=20)
        res = ensemble_observables(p, spec, ("nhse_fraction",))
        assert res.failures == () and len(res.observables["nhse_fraction"]) == 20

    @pytest.mark.parametrize("J1", [0.5, 0.7])
    def test_all_real_ensemble_keeps_every_realization(self, J1):
        # fig4 inside the window, every bond real: the dense bulk eigenvectors
        # once failed the lifted residual check in 4 (J1 = 0.5) and 11
        # (J1 = 0.7) of these 20 realizations
        p = ModBKCParams(J1=J1, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        spec = DisorderSpec(strengths={"J1": 0.1, "J2": 0.1, "Delta1": 0.1, "Delta2": 0.1},
                            seed=7, realizations=20)
        res = ensemble_observables(p, spec, ("nhse_fraction",))
        assert res.failures == () and len(res.observables["nhse_fraction"]) == 20

    def test_failures_recorded_not_fatal(self):
        # a sweet-spot base with zero disorder on J1 fails the gauge in every
        # realization only if the spectrum route needs it; the reduced route
        # tolerates it, so force failures through nhse_fraction instead
        p = ModBKCParams(J1=1.5, J2=0.5, Delta1=1.5, Delta2=2.1, omega=0.0, N=20)
        spec = DisorderSpec(strengths={"J2": 0.1}, seed=3, realizations=3)
        with pytest.raises(RuntimeError, match="realizations failed"):
            ensemble_observables(p, spec, ("nhse_fraction",))

    def test_threads_reproduce_serial(self, base):
        spec = DisorderSpec(strengths={"J1": 0.1, "Delta2": 0.1}, seed=13, realizations=6)
        serial = ensemble_observables(base, spec, ("zero_gap",))
        threaded = ensemble_observables(base, spec, ("zero_gap",), threads=4)
        assert np.array_equal(serial.observables["zero_gap"], threaded.observables["zero_gap"])

    def test_aggregate_metadata(self, base):
        spec = DisorderSpec(strengths={"J1": 0.05}, seed=21, realizations=4)
        res = ensemble_observables(base, spec, ("zero_gap",))
        assert res.realizations == 4 and res.seed == 21
        vals = res.observables["zero_gap"]
        assert res.mean["zero_gap"] == pytest.approx(vals.mean())
        assert res.std["zero_gap"] == pytest.approx(vals.std(ddof=1))


@pytest.mark.parametrize("observables,vectors", [
    (("zero_gap",), False), (("zero_modes",), False), (("abs_spectrum",), False),
    (("zero_gap", "zero_modes", "abs_spectrum"), False), (("nhse_fraction",), True),
    (("mean_profile",), True), (("zero_gap", "mean_profile"), True)])
def test_ensemble_solves_vectors_only_when_read(monkeypatch, observables, vectors):
    requests = []

    def recording_solve(p, bc, vectors=True):
        requests.append(vectors)
        return solve(p, bc, vectors)

    monkeypatch.setattr(disorder, "solve", recording_solve)
    base = ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.05, N=20)
    spec = DisorderSpec(strengths={"omega": 2.0}, seed=5, realizations=3)
    ensemble_observables(base, spec, observables)
    assert requests == [vectors] * 3


@pytest.mark.parametrize("observables", [("nhse_fraction", "mean_profile"), ("mean_profile", "zero_gap"),
                                         ("nhse_fraction",)])
def test_ensemble_builds_one_profile_per_realization(monkeypatch, observables):
    # nhse_fraction and mean_profile read one `spatial_profile` per realization, of the 2N base
    # columns of the x/p route, with the values `nhse_fraction` and `profile_matrix` give
    built = []

    def recording(v, n_cells):
        built.append(v.shape)
        return spatial_profile(v, n_cells)

    monkeypatch.setattr(skin, "spatial_profile", recording)  # disorder imports it where profiles are asked for
    base = ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.05, N=20)
    spec = DisorderSpec(strengths={"omega": 2.0}, seed=5, realizations=3)
    res = ensemble_observables(base, spec, observables)
    assert built == [(80, 40)] * 3
    for r in range(3):
        s = solve(sample_site_fields(base, spec, r), OBC)
        if "nhse_fraction" in observables:
            assert res.observables["nhse_fraction"][r] == nhse_fraction(s, 0.1, 0.9, base.N)
        if "mean_profile" in observables:
            assert res.observables["mean_profile"][r].tobytes() == profile_matrix(s, base.N).mean(axis=0).tobytes()


@pytest.mark.parametrize("J2", [0.0, 1.0, 2.0, 2.5])
def test_fig8_realization_without_vectors(J2):
    # fig8's first realization across its J2 grid: all bonds real up to J2 ~ 1.9,
    # sign-mixed beyond (half-size solve, or its guard near the gap closing)
    base = ModBKCParams(J1=1.0, J2=J2, Delta1=1.5, Delta2=2.1, omega=0.0, N=100)
    spec = DisorderSpec(strengths={"J1": 0.1, "J2": 0.1, "Delta1": 0.1, "Delta2": 0.1},
                        seed=20240601, realizations=20)
    f = sample_site_fields(base, spec, 0)
    full, bare = solve(f, OBC), solve(f, OBC, vectors=False)
    assert bare.eigenvectors is None
    assert zero_modes_per_copy(bare, f, OBC, 1e-6) == zero_modes_per_copy(full, f, OBC, 1e-6)
    assert abs(zero_gap(bare) - zero_gap(full)) <= 1e-12 * np.abs(full.eigenvalues).max()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("error,recorded", [(SolverError, True), (TypeError, False)],
                         ids=["solver-error-recorded", "type-error-propagates"])
def test_only_point_errors_are_recorded(monkeypatch, error, recorded, threads):
    # a SolverError fails one point or realization; a TypeError is a bug and must propagate
    def broken_solve(p, bc, vectors=True):
        raise error("broken solve")

    monkeypatch.setattr(topology, "solve", broken_solve)
    monkeypatch.setattr(disorder, "solve", broken_solve)
    base = ModBKCParams(J1=1.0, J2=0.5, Delta1=1.5, Delta2=2.1, omega=0.0, N=8)
    spec = DisorderSpec(strengths={"J1": 0.1}, seed=1, realizations=3)
    axes = [AxisSpec("J1", 0.0, 0.4, 0.2)]
    if recorded:
        d = phase_scan(base, axes, threads=threads)
        assert [pt.error for pt in d] == ["SolverError: broken solve"] * 3
        with pytest.raises(RuntimeError, match="all 3 realizations failed; first: SolverError"):
            ensemble_observables(base, spec, threads=threads)
    else:
        with pytest.raises(TypeError, match="broken solve"):
            phase_scan(base, axes, threads=threads)
        with pytest.raises(TypeError, match="broken solve"):
            ensemble_observables(base, spec, threads=threads)


@pytest.mark.parametrize("threads", [0, -3])
def test_map_points_rejects_fewer_than_one_thread(threads):
    with pytest.raises(ValueError, match="threads"):
        topology.map_points(abs, [1, 2], threads)


def test_map_points_keeps_a_bounded_window_in_flight():
    # the first item blocks: no more than the window may be drawn from the input until it ends
    import threading
    from collections.abc import Sequence

    workers = 2
    window = topology.TASKS_PER_WORKER * workers
    drawn, overdrawn, threads_seen = [], threading.Event(), set()

    class Items(Sequence):
        def __len__(self):
            return 1000

        def __getitem__(self, i):
            if not 0 <= i < len(self):
                raise IndexError(i)
            drawn.append(i)
            if len(drawn) > window:
                overdrawn.set()
            return i

    def fn(i):
        threads_seen.add(threading.get_ident())
        if i == 0:  # released by an overdraw, else after a wait in which an unbounded queue would fill
            overdrawn.wait(timeout=0.5)
            return len(drawn)
        return -i

    before = threading.active_count()
    results = topology.map_points(fn, Items(), workers)
    assert results[0] == (window, None)
    assert results[1:] == [(-i, None) for i in range(1, 1000)]  # in input order
    assert len(threads_seen) <= workers and threading.active_count() == before
