import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bkchain.model import (
    AxisSpec,
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
    flat_index_bkc,
    flat_index_modbkc,
    grid_points,
)

OBC, PBC = BoundaryCondition.OBC, BoundaryCondition.PBC

finite = st.floats(min_value=-3, max_value=3, allow_nan=False)


class TestQuadraticForms:
    def test_onsite_only_is_identity_times_omega(self):
        q = build_bkc_quadratic(BKCParams(J0=0, Delta0=0, omega=1.0, N=3), OBC)
        assert np.array_equal(q.Q, np.eye(6))

    def test_sweet_spot_kills_xp_coupling(self):
        # J0 = Delta0 removes the x_j p_{j+1} term; p_0 x_1 carries J0+Delta0 = 2
        q = build_bkc_quadratic(BKCParams(J0=1, Delta0=1, omega=0, N=2), OBC)
        expect = np.zeros((4, 4))
        expect[flat_index_bkc(0, 1), flat_index_bkc(1, 0)] = 2.0
        expect[flat_index_bkc(1, 0), flat_index_bkc(0, 1)] = 2.0
        assert np.array_equal(q.Q, expect)

    def test_pbc_adds_wrap_row(self):
        p = BKCParams(J0=0.5, Delta0=1.0, omega=0, N=4)
        q_obc = build_bkc_quadratic(p, OBC)
        q_pbc = build_bkc_quadratic(p, PBC)
        wrap = q_pbc.Q - q_obc.Q
        # the wrap bond carries the same couplings as a bulk bond
        assert wrap[flat_index_bkc(3, 0), flat_index_bkc(0, 1)] == pytest.approx(0.5)   # Delta0-J0
        assert wrap[flat_index_bkc(3, 1), flat_index_bkc(0, 0)] == pytest.approx(1.5)   # Delta0+J0
        assert np.count_nonzero(wrap) == 4

    def test_bkc_quadratic_matches_term_expansion(self):
        # brute-force expansion: H = sum of c * v_a v_b terms -> Q[a,b] = Q[b,a] = c
        p = BKCParams(J0=0.5, Delta0=1.0, omega=0.7, N=4)
        terms = []
        for j in range(4):
            terms.append((flat_index_bkc(j, 0), flat_index_bkc(j, 0), p.omega))
            terms.append((flat_index_bkc(j, 1), flat_index_bkc(j, 1), p.omega))
        for j in range(3):
            terms.append((flat_index_bkc(j, 0), flat_index_bkc(j + 1, 1), -(p.J0 - p.Delta0)))
            terms.append((flat_index_bkc(j, 1), flat_index_bkc(j + 1, 0), p.J0 + p.Delta0))
        Q = np.zeros((8, 8))
        for a, b, c in terms:
            if a == b:
                Q[a, a] += c
            else:
                Q[a, b] += c
                Q[b, a] += c
        assert np.allclose(build_bkc_quadratic(p, OBC).Q, Q, atol=1e-15)

    def test_modbkc_onsite_only(self):
        q = build_modbkc_quadratic(ModBKCParams(J1=0, J2=0, Delta1=0, Delta2=0, omega=2.0, N=2), OBC)
        assert np.array_equal(q.Q, 2.0 * np.eye(8))

    def test_modbkc_sweet_spot_intracell(self):
        q = build_modbkc_quadratic(ModBKCParams(J1=1, J2=0, Delta1=1, Delta2=0, omega=0, N=2), OBC)
        expect = np.zeros((8, 8))
        for j in range(2):
            expect[flat_index_modbkc(j, 0, 0), flat_index_modbkc(j, 1, 0)] = 2.0
            expect[flat_index_modbkc(j, 1, 0), flat_index_modbkc(j, 0, 0)] = 2.0
        assert np.array_equal(q.Q, expect)

    def test_modbkc_quadratic_matches_term_expansion(self):
        p = ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0, N=3)
        Q = np.zeros((12, 12))
        ix = flat_index_modbkc
        for j in range(3):
            for (a, b, c) in [(ix(j, 0, 0), ix(j, 1, 0), p.J1 + p.Delta1),
                              (ix(j, 0, 1), ix(j, 1, 1), p.J1 - p.Delta1)]:
                Q[a, b] += c
                Q[b, a] += c
        for j in range(2):
            for (a, b, c) in [(ix(j, 1, 0), ix(j + 1, 0, 0), p.J2 + p.Delta2),
                              (ix(j, 1, 1), ix(j + 1, 0, 1), p.J2 - p.Delta2)]:
                Q[a, b] += c
                Q[b, a] += c
        assert np.allclose(build_modbkc_quadratic(p, OBC).Q, Q, atol=1e-15)

    def test_site_fields_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            SiteFields(J1=np.ones(3), J2=np.ones(3), Delta1=np.ones(2), Delta2=np.ones(3),
                       omega_A=np.zeros(3), omega_B=np.zeros(3))

    def test_rejects_malformed_diagonals(self):
        # a form held as its upper diagonals is symmetric by construction; what
        # can be wrong is an offset outside [0, dim) or a diagonal of the wrong length
        from bkchain.model import QuadraticForm
        for diagonals, match in (({4: np.ones(0)}, "diagonal 4:"), ({-1: np.ones(3)}, "diagonal -1:"),
                                 ({1: np.ones(4)}, "shape \\(4,\\)"), ({0: np.ones((2, 2))}, "shape \\(2, 2\\)")):
            with pytest.raises(ValueError, match=match):
                QuadraticForm(diagonals=diagonals, n_cells=2, n_sublattices=1, bc=OBC)
        corner = np.zeros((4, 4))
        corner[0, 3] = corner[3, 0] = 5.0
        q = QuadraticForm(diagonals={3: np.array([5.0])}, n_cells=2, n_sublattices=1, bc=OBC)
        assert np.array_equal(q.Q, corner)

    def test_complex_site_fields_rejected(self):
        # as for ModBKCParams: a float conversion would keep only the real parts
        with pytest.raises(TypeError, match="J1 must be real"):
            ModBKCParams(J1=1 + 1j, J2=1, Delta1=1, Delta2=1, omega=0, N=3)
        for name in ("J1", "omega_B"):
            fields = {k: np.ones(3) for k in ("J1", "J2", "Delta1", "Delta2", "omega_A", "omega_B")}
            fields[name] = np.array([1 + 1j, 1, 1])
            with pytest.raises(TypeError, match=f"SiteFields.{name} must be real"):
                SiteFields(**fields)

    def test_small_chains_rejected(self):
        with pytest.raises(ValueError):
            BKCParams(J0=1, Delta0=0, omega=0, N=1)
        with pytest.raises(ValueError):
            ModBKCParams(J1=1, J2=1, Delta1=1, Delta2=1, omega=0, N=1)

    def test_non_integer_chain_length_rejected(self):
        for N in (2.5, 3.0, "3"):
            with pytest.raises(TypeError):
                BKCParams(J0=1, Delta0=0, omega=0, N=N)
            with pytest.raises(TypeError):
                ModBKCParams(J1=1, J2=1, Delta1=1, Delta2=1, omega=0, N=N)
        assert BKCParams(J0=1, Delta0=0, omega=0, N=np.int64(3)).N == 3
        assert ModBKCParams(J1=1, J2=1, Delta1=1, Delta2=1, omega=0, N=np.int64(3)).N == 3


class TestExcitationMatrix:
    def test_single_oscillator_is_omega_sigma_y(self):
        from bkchain.model import QuadraticForm
        q = QuadraticForm(diagonals={0: np.ones(2)}, n_cells=1, n_sublattices=1, bc=OBC)
        M = excitation_matrix(q).M
        sigma_y = np.array([[0, -1j], [1j, 0]])
        assert np.array_equal(M, sigma_y)
        assert sorted(np.linalg.eigvals(M).real) == pytest.approx([-1.0, 1.0])

    def test_sweet_spot_zero_mode_rows(self):
        # p_0 and x_{N-1} commute with H at J0 = Delta0, omega = 0: in the
        # row convention [H, v_a] = sum_b M[a, b] v_b their ROWS vanish
        # (equivalently columns of the transposed, coefficient-side matrix).
        M = build_bkc_excitation_direct(BKCParams(J0=1, Delta0=1, omega=0, N=3), OBC).M
        assert np.all(M[flat_index_bkc(0, 1), :] == 0)
        assert np.all(M[flat_index_bkc(2, 0), :] == 0)
        assert np.any(M[flat_index_bkc(0, 0), :] != 0)

    def test_bkc_block_structure_omega_only(self):
        M = build_bkc_excitation_direct(BKCParams(J0=0, Delta0=0, omega=0.5, N=2), OBC).M
        sigma_y = np.array([[0, -1j], [1j, 0]])
        expect = np.kron(np.eye(2), 0.5 * sigma_y)
        assert np.array_equal(M, expect)

    def test_pure_hopping_is_hermitian(self):
        M = build_bkc_excitation_direct(BKCParams(J0=1, Delta0=0, omega=0, N=7), OBC).M
        assert np.abs(M - M.conj().T).max() == 0

    def test_modbkc_omega_only_blocks(self):
        M = build_modbkc_excitation_direct(
            ModBKCParams(J1=0, J2=0, Delta1=0, Delta2=0, omega=1.0, N=2), OBC).M
        sigma_y = np.array([[0, -1j], [1j, 0]])
        assert np.array_equal(M, np.kron(np.eye(4), sigma_y))

    def test_dense_build_holds_k_alone(self):
        # a 400 x 400 open single-band chain: the real K (1.28 MB) is the one dense array the build
        # allocates, with no dense Q, Sigma Q or complex M beside it
        import tracemalloc
        q = build_bkc_quadratic(BKCParams(J0=0.5, Delta0=1.0, omega=0.5, N=200), OBC)
        tracemalloc.start()
        try:
            K = excitation_matrix(q).K
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert K.shape == (400, 400) and K.dtype == np.float64
        assert peak <= 1.5e6

    def test_pairing_only_is_i_sigma_x_times_ssh(self):
        # With J1 = J2 = omega = 0 the matrix factorizes as i sigma_x (x) SSH
        p = ModBKCParams(J1=0, J2=0, Delta1=0.7, Delta2=1.3, omega=0, N=3)
        M = build_modbkc_excitation_direct(p, OBC).M
        ssh = np.zeros((6, 6))
        for j in range(3):
            ssh[2 * j, 2 * j + 1] = ssh[2 * j + 1, 2 * j] = p.Delta1
        for j in range(2):
            ssh[2 * j + 1, 2 * j + 2] = ssh[2 * j + 2, 2 * j + 1] = p.Delta2
        # permute flat (j,S,s) into (s outer, (j,S) inner) to expose the kron
        perm = [flat_index_modbkc(j, S, s) for s in (0, 1) for j in range(3) for S in (0, 1)]
        sigma_x = np.array([[0, 1], [1, 0]])
        assert np.allclose(M[np.ix_(perm, perm)], 1j * np.kron(sigma_x, ssh), atol=1e-15)
        evals = np.linalg.eigvals(M)
        assert np.abs(evals.real).max() < 1e-12  # purely imaginary spectrum


class TestOracleEquivalence:
    @given(J0=finite, Delta0=finite, omega=finite,
           N=st.integers(min_value=2, max_value=6), pbc=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_bkc_builders_agree(self, J0, Delta0, omega, N, pbc):
        p = BKCParams(J0=J0, Delta0=Delta0, omega=omega, N=N)
        bc = PBC if pbc else OBC
        M1 = excitation_matrix(build_bkc_quadratic(p, bc)).M
        M2 = build_bkc_excitation_direct(p, bc).M
        assert np.abs(M1 - M2).max() <= 1e-13

    @given(J1=finite, J2=finite, Delta1=finite, Delta2=finite, omega=finite,
           N=st.integers(min_value=2, max_value=6), pbc=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_modbkc_builders_agree(self, J1, J2, Delta1, Delta2, omega, N, pbc):
        p = ModBKCParams(J1=J1, J2=J2, Delta1=Delta1, Delta2=Delta2, omega=omega, N=N)
        bc = PBC if pbc else OBC
        M1 = excitation_matrix(build_modbkc_quadratic(p, bc)).M
        M2 = build_modbkc_excitation_direct(p, bc).M
        assert np.abs(M1 - M2).max() <= 1e-13

    def test_disordered_fields_route_through_symplectic_builder(self):
        rng = np.random.default_rng(3)
        f = SiteFields(J1=rng.normal(size=4), J2=rng.normal(size=4),
                       Delta1=rng.normal(size=4), Delta2=rng.normal(size=4),
                       omega_A=rng.normal(size=4), omega_B=rng.normal(size=4))
        for bc in (OBC, PBC):
            M = excitation_matrix(build_modbkc_quadratic(f, bc)).M
            assert M.shape == (16, 16)
            assert np.all(np.isfinite(M))


def _loop_bkc_quadratic(p, bc):
    """Per-bond loop that the vectorized builder replaced: the exact reference."""
    n = p.N
    Q = np.diag(np.full(2 * n, float(p.omega)))
    bonds = [(j, j + 1) for j in range(n - 1)] + ([(n - 1, 0)] if bc is PBC else [])
    for a, b in bonds:
        for r, c, v in ((flat_index_bkc(a, 0), flat_index_bkc(b, 1), p.Delta0 - p.J0),
                        (flat_index_bkc(a, 1), flat_index_bkc(b, 0), p.J0 + p.Delta0)):
            Q[r, c] += v
            Q[c, r] += v
    return Q


def _loop_modbkc_quadratic(f, bc):
    n, ix = f.N, flat_index_modbkc
    Q = np.zeros((4 * n, 4 * n))
    for j in range(n):
        for S, w in ((0, f.omega_A[j]), (1, f.omega_B[j])):
            Q[ix(j, S, 0), ix(j, S, 0)] = Q[ix(j, S, 1), ix(j, S, 1)] = w
    terms = [(ix(j, 0, s), ix(j, 1, s), f.J1[j] + (-1) ** s * f.Delta1[j])
             for j in range(n) for s in (0, 1)]
    bonds = [(j, j + 1) for j in range(n - 1)] + ([(n - 1, 0)] if bc is PBC else [])
    terms += [(ix(a, 1, s), ix(b, 0, s), f.J2[a] + (-1) ** s * f.Delta2[a])
              for a, b in bonds for s in (0, 1)]
    for r, c, v in terms:
        Q[r, c] += v
        Q[c, r] += v
    return Q


class TestVectorizedBuilders:
    @given(J0=finite, Delta0=finite, omega=finite,
           N=st.integers(min_value=2, max_value=6), pbc=st.booleans())
    @example(J0=0.5, Delta0=1.0, omega=0.3, N=2, pbc=True)  # wrap bond hits the inner bond's entries
    @settings(max_examples=60, deadline=None)
    def test_bkc_quadratic_equals_loop(self, J0, Delta0, omega, N, pbc):
        p = BKCParams(J0=J0, Delta0=Delta0, omega=omega, N=N)
        bc = PBC if pbc else OBC
        assert np.array_equal(build_bkc_quadratic(p, bc).Q, _loop_bkc_quadratic(p, bc))

    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(min_value=2, max_value=6),
           pbc=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_modbkc_quadratic_equals_loop(self, seed, N, pbc):
        rng = np.random.default_rng(seed)
        f = SiteFields(*(rng.uniform(-3, 3, N) for _ in range(6)))
        bc = PBC if pbc else OBC
        assert np.array_equal(build_modbkc_quadratic(f, bc).Q, _loop_modbkc_quadratic(f, bc))

    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(min_value=2, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_row_swap_equals_symplectic_product(self, seed, N):
        rng = np.random.default_rng(seed)
        q = build_modbkc_quadratic(SiteFields(*(rng.uniform(-3, 3, N) for _ in range(6))), PBC)
        sigma = np.kron(np.eye(2 * N), [[0.0, 1.0], [-1.0, 0.0]])
        assert np.array_equal(excitation_matrix(q).M, -1j * sigma @ q.Q)


class TestBloch:
    def test_bkc_k0_sweet_spot(self):
        B = bloch_matrix(BKCParams(J0=1, Delta0=1, omega=0, N=4), 0.0)
        assert np.allclose(B, -2j * np.diag([1, -1]), atol=1e-15)
        assert sorted(np.linalg.eigvals(B).imag) == pytest.approx([-2.0, 2.0])

    def test_bkc_k0_omega_cancels_gap(self):
        B = bloch_matrix(BKCParams(J0=1, Delta0=1, omega=2, N=4), 0.0)
        assert np.abs(np.linalg.eigvals(B)).max() < 1e-7

    @pytest.mark.parametrize("params", [
        BKCParams(J0=0.5, Delta0=1.0, omega=0.3, N=8),
        ModBKCParams(J1=0.4, J2=0.9, Delta1=1.1, Delta2=0.5, omega=0.2, N=8),
    ])
    def test_array_k_stacks_scalar_blocks(self, params):
        k = np.linspace(-4, 4, 15).reshape(3, 5)
        stack = bloch_matrix(params, k)
        s = 2 if isinstance(params, BKCParams) else 4
        assert stack.shape == (3, 5, s, s) and bloch_matrix(params, 0.7).shape == (s, s)
        for idx in np.ndindex(k.shape):
            assert np.array_equal(stack[idx], bloch_matrix(params, float(k[idx])))

    @pytest.mark.parametrize("params", [
        BKCParams(J0=0.5, Delta0=1.0, omega=0.3, N=8),
        ModBKCParams(J1=0.4, J2=0.9, Delta1=1.1, Delta2=0.5, omega=0.2, N=8),
    ])
    def test_pbc_spectrum_is_union_of_bloch_blocks(self, params, set_distance):
        direct = build_bkc_excitation_direct if isinstance(params, BKCParams) else build_modbkc_excitation_direct
        M = direct(params, PBC).M
        full = np.linalg.eigvals(M)
        blocks = np.concatenate([
            np.linalg.eigvals(bloch_matrix(params, 2 * np.pi * m / params.N))
            for m in range(params.N)
        ])
        assert set_distance(full, blocks) < 1e-10
        # every block eigenpair (E, u) at k is the ring eigenpair of the plane wave exp(ikj) u / sqrt(N)
        for n in (2, 3, 8):
            p = replace(params, N=n)
            M = direct(p, PBC).M
            for k in 2 * np.pi * np.arange(n) / n:
                E, U = np.linalg.eig(bloch_matrix(p, k))
                V = np.kron(np.exp(1j * k * np.arange(n))[:, None], U) / np.sqrt(n)
                assert np.linalg.norm(M @ V - V * E, axis=0).max() <= 1e-12 * np.abs(M).max()


class TestGridPoints:
    BASE = ModBKCParams(J1=0.5, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=8)

    @pytest.mark.parametrize("axes", [
        [],
        [AxisSpec("J1", 0.0, 1.0, 0.25)],
        [AxisSpec("J1", 0.0, 0.4, 0.2), AxisSpec("Delta2", 1.0, 2.0, 0.5)],
    ], ids=["no-axes", "one-axis", "two-axes"])
    def test_points_of_the_product_grid_first_axis_slowest(self, axes):
        reference = [(values, replace(self.BASE, **{ax.name: v for ax, v in zip(axes, values)}))
                     for values in itertools.product(*([float(v) for v in ax.values()] for ax in axes))]
        points = list(grid_points(self.BASE, axes))
        assert points == reference
        assert all(type(v) is float for values, _ in points for v in values)
        if not axes:
            assert points[0][1] is self.BASE

    @pytest.mark.parametrize("axes,match", [
        ([AxisSpec("J0", 0.0, 1.0, 0.5)], "J0"),
        ([AxisSpec("N", 2.0, 4.0, 1.0)], "N"),
        ([AxisSpec("J1", 0.0, 1.0, 0.5), AxisSpec("J1", 2.0, 2.0, 1.0)], "two axes"),
        ([AxisSpec("J1", 0.0, 1.0, 1e-8)], "1e6"),
    ], ids=["not-a-field", "not-a-coupling", "repeated-name", "oversized"])
    def test_bad_axes_raise_at_the_call(self, axes, match):
        with pytest.raises(ValueError, match=match):
            grid_points(self.BASE, axes)  # never iterated
