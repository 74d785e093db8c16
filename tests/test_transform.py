from dataclasses import replace

import mpmath
import numpy as np
import pytest

from bkchain.model import (
    BKCParams,
    BoundaryCondition,
    ModBKCParams,
    SiteFields,
    build_bkc_excitation_direct,
    build_modbkc_excitation_direct,
    build_modbkc_quadratic,
    excitation_matrix,
)
from bkchain.spectral import _bands, _residuals, eigendecompose, modbkc_spectrum_zero_omega, solve, zero_gap
from bkchain.transform import (
    SimilarityMatrix,
    SingularTransformError,
    a_combined,
    effective_ssh_params,
    effective_ssh_matrix,
    hatano_nelson_A,
    ssh_bonds,
)
from conftest import a1_prime, a2_prime, conjugate, hatano_nelson_target, ssh_lift_target, transform_residual

OBC = BoundaryCondition.OBC


class TestHatanoNelson:
    def test_ratio_value(self):
        A = hatano_nelson_A(BKCParams(J0=0.5, Delta0=1.0, omega=0, N=5))
        # p component at cell j = 2 scales as r^{+j/2} = r = 3
        assert np.exp(A.log_scale[5]) * A.phase[5] == pytest.approx(3.0)
        assert np.exp(A.log_scale[5]) == pytest.approx(3.0)
        # x component carries the reciprocal scale
        assert np.exp(A.log_scale[4]) == pytest.approx(1 / 3.0)

    # every sign quadrant of (J0, Delta0), on both sides of |J0| = |Delta0|
    @pytest.mark.parametrize("J0,Delta0", [(0.5, 1.0), (2.0, 1.0), (0.5, -1.0), (2.0, -1.0),
                                           (-2.0, 1.0), (-2.0, -1.0), (-0.5, 1.0), (-0.5, -1.0)])
    def test_residual_against_target(self, J0, Delta0):
        p = BKCParams(J0=J0, Delta0=Delta0, omega=0.0, N=100)
        M = build_bkc_excitation_direct(p, OBC)
        res = transform_residual(M, hatano_nelson_A(p), hatano_nelson_target(p))
        assert res < 1e-8

    def test_hermitian_when_hopping_dominates(self):
        # r < 0: the principal branch introduces the i^j gauge that makes the
        # transformed matrix literally Hermitian
        p = BKCParams(J0=2.0, Delta0=1.0, omega=0.0, N=60)
        M = build_bkc_excitation_direct(p, OBC)
        K = conjugate(hatano_nelson_A(p), M.M)
        assert np.abs(K - K.conj().T).max() < 1e-8 * np.abs(M.M).max()
        A = hatano_nelson_A(p)
        assert np.exp(A.log_scale[5]) * A.phase[5] == pytest.approx(-3.0)  # r^{j/2} = r at the p component of j = 2

    def test_anti_hermitian_when_pairing_dominates(self, skin_bkc):
        M = build_bkc_excitation_direct(skin_bkc, OBC)
        K = conjugate(hatano_nelson_A(skin_bkc), M.M)
        assert np.abs(K + K.conj().T).max() < 1e-8 * np.abs(M.M).max()

    def test_singular_at_sweet_spot(self):
        with pytest.raises(SingularTransformError):
            hatano_nelson_A(BKCParams(J0=1.0, Delta0=1.0, omega=0, N=5))


class TestSublatticeGauges:
    def test_a1_identity_when_no_intracell_hopping(self):
        p = ModBKCParams(J1=0.0, J2=0.4, Delta1=1.0, Delta2=1.5, omega=0, N=8)
        A = a1_prime(p)
        assert np.abs(A.log_scale).max() == 0
        assert np.allclose(A.phase, 1.0)

    def test_a2_identity_when_no_intercell_hopping(self):
        p = ModBKCParams(J1=0.4, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0, N=8)
        A = a2_prime(p)
        assert np.abs(A.log_scale).max() == 0

    def test_a2_ratio_pattern(self):
        p = ModBKCParams(J1=0.0, J2=1.0, Delta1=1.0, Delta2=1.5, omega=0, N=6)
        A = a2_prime(p)
        from bkchain.model import flat_index_modbkc
        # r2 = 5: A p at cell j = 2 scales as r2^{+j/2} = r2
        assert np.exp(A.log_scale[flat_index_modbkc(2, 0, 1)]) * A.phase[flat_index_modbkc(2, 0, 1)] \
            == pytest.approx(5.0)
        # scale magnitudes follow r2^{+-j/2}
        for j in range(6):
            assert np.exp(A.log_scale[flat_index_modbkc(j, 0, 1)]) == pytest.approx(5.0 ** (j / 2))
            assert np.exp(A.log_scale[flat_index_modbkc(j, 0, 0)]) == pytest.approx(5.0 ** (-j / 2))

    def test_case_ii_residual(self):
        p = ModBKCParams(J1=0.5, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        M = build_modbkc_excitation_direct(p, OBC)
        res = transform_residual(M, a1_prime(p), ssh_lift_target(p))
        assert res < 1e-9

    def test_case_iii_residual(self):
        p = ModBKCParams(J1=0.0, J2=0.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        M = build_modbkc_excitation_direct(p, OBC)
        res = transform_residual(M, a2_prime(p), ssh_lift_target(p))
        assert res < 1e-9

    def test_case_iv_residual(self):
        p = ModBKCParams(J1=1.0, J2=1.4, Delta1=1.5, Delta2=2.1, omega=0.0, N=100)
        M = build_modbkc_excitation_direct(p, OBC)
        res = transform_residual(M, a_combined(p), ssh_lift_target(p))
        assert res < 1e-8

    @pytest.mark.parametrize("J1,Delta1", [(2.0, 1.0), (0.5, -1.0), (-2.0, 1.0)])
    def test_target_for_every_bond_sign(self, J1, Delta1):
        # J > Delta and Delta < 0: the gauge maps each bond to
        # sign(Delta - J) sqrt(Delta^2 - J^2), imaginary or negative here
        p = ModBKCParams(J1=J1, J2=2.5, Delta1=Delta1, Delta2=1.5, omega=0.0, N=20)
        M = build_modbkc_excitation_direct(p, OBC)
        assert transform_residual(M, a_combined(p), ssh_lift_target(p)) < 1e-12

    def test_combined_is_product_of_gauges(self):
        p = ModBKCParams(J1=0.7, J2=1.1, Delta1=1.5, Delta2=2.1, omega=0, N=20)
        A = a_combined(p)
        A1, A2 = a1_prime(p), a2_prime(p)
        assert np.allclose(A.log_scale, A1.log_scale + A2.log_scale, atol=1e-13)

    def test_combined_identity_when_hoppings_vanish(self):
        p = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.0, Delta2=2.0, omega=0, N=6)
        assert np.abs(a_combined(p).log_scale).max() == 0

    def test_condition_number_growth(self):
        # the diagonal spans r1^{N/2}: condition number grows geometrically
        conds = []
        for n in (10, 20, 40):
            p = ModBKCParams(J1=0.5, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0, N=n)
            conds.append(a1_prime(p).log10_condition)
        r1 = 3.0
        assert conds[1] - conds[0] == pytest.approx(10 / 2 * np.log10(r1) * 2, rel=0.2)
        assert conds[2] > conds[1] > conds[0]

    def test_onsite_term_not_gauge_invariant(self):
        # the onsite sigma_y block does not commute with a nontrivial gauge:
        # conjugating it changes the matrix (chiral symmetry breaking)
        p = ModBKCParams(J1=1.0, J2=1.4, Delta1=1.5, Delta2=2.1, omega=0.5, N=10)
        onsite = build_modbkc_excitation_direct(
            ModBKCParams(J1=0, J2=0, Delta1=0, Delta2=0, omega=0.5, N=10), OBC).M
        K = conjugate(a_combined(p), onsite)
        assert np.abs(K - onsite).max() > 1.0

    def test_singular_gauge_raises(self):
        p = ModBKCParams(J1=1.0, J2=0.3, Delta1=1.0, Delta2=1.5, omega=0, N=6)
        with pytest.raises(SingularTransformError):
            a1_prime(p)


@pytest.mark.filterwarnings("error")
class TestOpenChainBonds:
    """The gauge of the open chain uses its 2N - 1 bonds and nothing else.

    The last entry of ``J2``/``Delta2`` is the ring's wrap bond, which the
    open chain does not have; Delta = +-J on a bond it does have raises
    before any log(0).
    """

    @staticmethod
    def _fields(**last_cell):
        f = SiteFields.uniform(ModBKCParams(J1=1.0, J2=0.5, Delta1=1.5, Delta2=2.1, omega=0.0, N=6))
        arrays = {name: getattr(f, name).copy() for name in ("J1", "J2", "Delta1", "Delta2", "omega_A", "omega_B")}
        for name, value in last_cell.items():
            arrays[name][-1] = value
        return SiteFields(**arrays)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_last_intercell_entry_is_not_a_bond(self, sign):
        f = self._fields(J2=sign * 2.1)   # Delta2 = +-J2 on the wrap bond only
        s = solve(f, OBC)
        assert s.source.startswith("reduced[") and s.eigenvectors is not None
        M = excitation_matrix(build_modbkc_quadratic(f, OBC)).M
        V = s.eigenvectors
        assert np.linalg.norm(M @ V - V * s.eigenvalues, axis=0).max() <= 1e-10 * np.abs(M).max()

    @pytest.mark.parametrize("cut", [dict(J1=-1.5), dict(J1=1.5)])
    def test_singular_bond_raises_before_log(self, cut):
        f = self._fields(**cut)           # Delta1 = -+J1 in the last cell
        with pytest.raises(SingularTransformError, match="cell 5"):
            a_combined(f)
        assert solve(f, OBC).eigenvectors is None

    @pytest.mark.parametrize("t", [1e-8, 1e-10])
    def test_bond_near_delta_equals_j(self, t):
        # Delta1^2 - J1^2 cancels to a relative error of about eps / t here
        p = ModBKCParams(J1=0.7 * (1 - t), J2=0.3, Delta1=0.7, Delta2=1.5, omega=0.0, N=12)
        b = np.diagonal(effective_ssh_matrix(p), 1)
        with mpmath.workdps(50):
            ref = mpmath.sqrt(mpmath.mpf(p.Delta1) ** 2 - mpmath.mpf(p.J1) ** 2)
            assert float(abs(mpmath.mpf(float(b[0].real)) / ref - 1)) <= 1e-14
        s = modbkc_spectrum_zero_omega(p, OBC)
        M = excitation_matrix(build_modbkc_quadratic(p, OBC)).M
        assert _residuals(_bands(M), s.eigenvectors, s.eigenvalues).max() <= 1e-12 * np.abs(M).max()

    def test_single_band_anti_sweet_spot_raises(self):
        with pytest.raises(SingularTransformError):
            hatano_nelson_A(BKCParams(J0=1.0, Delta0=-1.0, omega=0, N=5))

    @pytest.mark.parametrize("J,Delta", [("J1", "Delta1"), ("J2", "Delta2")])
    def test_bond_without_coupling_has_ratio_one(self, J, Delta):
        # J = Delta = 0 couples nothing: r = 1, as for J = 0 with any Delta
        f = self._fields()
        cut, ref = (replace(f, **{J: getattr(f, J).copy(), Delta: getattr(f, Delta).copy()}) for _ in range(2))
        getattr(cut, J)[2] = getattr(cut, Delta)[2] = 0.0
        getattr(ref, J)[2] = 0.0
        A, B = a_combined(cut), a_combined(ref)
        assert A.log_scale.tobytes() == B.log_scale.tobytes() and A.phase.tobytes() == B.phase.tobytes()
        I = hatano_nelson_A(BKCParams(J0=0.0, Delta0=0.0, omega=0, N=5))
        assert not I.log_scale.any() and np.all(I.phase == 1)

    @pytest.mark.parametrize("n", [4, 10])
    @pytest.mark.parametrize("cut", [dict(J1=0.0, Delta1=0.0, J2=0.5, Delta2=1.5),
                                     dict(J1=0.5, Delta1=1.5, J2=0.0, Delta2=0.0),
                                     dict(J1=0.0, Delta1=0.0, J2=2.5, Delta2=1.5)],
                             ids=["intracell", "intercell", "intracell-mixed"])
    def test_chain_cut_by_zero_bonds_has_vectors(self, cut, n):
        # the full-size solve of H_r: `_twisted` divides by every bond; the phase S steps across a zero bond by 1
        p = ModBKCParams(omega=0.0, N=n, **cut)
        s, bare = solve(p, OBC), solve(p, OBC, vectors=False)
        # the singular values stay on the fallback; without small values the bare solve stays half-size
        assert s.source.startswith(bare.source) and s.eigenvalues.tobytes() == bare.eigenvalues.tobytes()
        assert s.source.startswith(f"reduced[modbkc,obc,n={n}] (half-size guard: ")
        assert s.source.endswith(" on a chain cut by a zero bond)") and s.base.shape == (4 * n, 2 * n)
        assert np.abs(np.linalg.norm(s.base, axis=0) - 1).max() <= 4 * np.finfo(float).eps
        M = excitation_matrix(build_modbkc_quadratic(p, OBC)).M
        V = s.eigenvectors
        assert np.linalg.norm(M @ V - V * s.eigenvalues, axis=0).max() <= 1e-12 * np.abs(M).max()
        assert np.linalg.matrix_rank(V) == 4 * n


def _reference_lift(A, vectors):
    """The entrywise log-space lift the production `lift` replaced."""
    v = np.asarray(vectors, dtype=complex)
    logmag = A.log_scale[:, None] + np.log(np.abs(v) + 1e-300)
    logmag = logmag - logmag.max(axis=0, keepdims=True)
    out = np.exp(logmag) * A.phase[:, None] * np.where(v == 0, 0, v / np.abs(np.where(v == 0, 1, v)))
    return out / np.linalg.norm(out, axis=0, keepdims=True)


@pytest.mark.filterwarnings("error")
class TestLift:
    @staticmethod
    def _product_basis(p):
        b = np.diagonal(effective_ssh_matrix(p), 1)
        _, U = np.linalg.eig(np.diag(b, 1) + np.diag(b, -1))
        vecs = np.empty((4 * p.N, 4 * p.N), dtype=complex)
        vecs[0::2], vecs[1::2] = np.hstack([U, U]), np.hstack([U, -U])
        return vecs

    # log10 conditions 0.7, 37, 48, 104 and 913; the last sits 1e-9 from Delta1 = J1
    @pytest.mark.parametrize("J1,J2,Delta1,Delta2,bound", [
        (1.0, 1.4, 1.5, 2.1, 1e-14), (2.5, 0.0, 1.0, 1.5, 1e-14), (2.0, 0.0, 1.0, 1.5, 1e-14),
        (1.2, 0.0, 1.0, 1.5, 1e-14), (1.0 + 1e-9, 0.3, 1.0, 1.5, 1e-12)])
    def test_matches_reference_formula(self, J1, J2, Delta1, Delta2, bound):
        p = ModBKCParams(J1=J1, J2=J2, Delta1=Delta1, Delta2=Delta2, omega=0.0, N=100)
        A = a_combined(p)
        vecs = self._product_basis(p)
        out = A.lift(vecs)
        assert np.all(np.isfinite(out))
        assert np.abs(np.linalg.norm(out, axis=0) - 1).max() <= 1e-14
        # the reference is accurate to ~eps * max|log_scale| (log and exp round trip)
        assert np.abs(out - _reference_lift(A, vecs)).max() <= bound

    def test_exact_zeros_stay_zero(self):
        p = ModBKCParams(J1=1.2, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=100)
        A = a_combined(p)
        assert A.log10_condition >= 60
        vecs = self._product_basis(p)
        vecs[::3, ::2] = 0
        out = A.lift(vecs)
        assert np.all(out[::3, ::2] == 0)
        assert np.all(np.isfinite(out))
        assert np.abs(out - _reference_lift(A, vecs)).max() <= 1e-14


class TestEffectiveParams:
    @pytest.mark.parametrize("J1,Delta1,expect", [
        (0.0, 1.0, 1.0),
        (1.0, 1.5, np.sqrt(1.25)),
        (2.2, 2.1, 1j * np.sqrt(0.43)),
    ])
    def test_principal_roots(self, J1, Delta1, expect):
        p = ModBKCParams(J1=J1, J2=0.1, Delta1=Delta1, Delta2=0.5, omega=0, N=4)
        assert effective_ssh_params(p).dtilde1 == pytest.approx(expect, abs=1e-12)

    def test_real_vs_imaginary_branches(self):
        p = ModBKCParams(J1=0.4, J2=2.0, Delta1=1.0, Delta2=0.5, omega=0, N=4)
        eff = effective_ssh_params(p)
        assert eff.dtilde1.imag == 0
        assert eff.dtilde2.real == 0 and eff.dtilde2.imag > 0

    @pytest.mark.parametrize("fields", [False, True])
    def test_root_near_delta_equals_j(self, fields):
        # fig2's sweep point one ulp above J1 = 1.4: Delta1^2 - J1^2 cancels
        # to a 3.5e-2 relative error there; site fields take their roots from `ssh_bonds`
        p = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.4000000000000001, Delta2=1.0, omega=0.0, N=4)
        root = ssh_bonds(SiteFields.uniform(p))[0] if fields else effective_ssh_params(p).dtilde1
        with mpmath.workdps(50):
            ref = mpmath.sqrt(mpmath.mpf(p.Delta1) ** 2 - mpmath.mpf(p.J1) ** 2)
            assert root.imag == 0
            assert float(abs(mpmath.mpf(float(root.real)) / ref - 1)) <= 1e-15
            assert np.array_equal(np.diagonal(effective_ssh_matrix(p), 1)[0], root)

    def test_site_fields_rejected(self):
        # a disordered chain has no one root per bond kind: its bonds are `ssh_bonds`, not cell 0's
        f = SiteFields.uniform(ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.0, N=4))
        with pytest.raises(TypeError):
            effective_ssh_params(f)


class TestResidualMechanics:
    def test_similarity_rejects_mismatched_or_non_finite(self):
        with pytest.raises(ValueError, match="equal shapes"):
            SimilarityMatrix(log_scale=np.zeros(3), phase=np.ones(4))
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(SingularTransformError, match="zero or infinite entries"):
                SimilarityMatrix(log_scale=np.array([0.0, bad]), phase=np.ones(2))

    def test_residual_rejects_mismatched_dimensions(self):
        A = SimilarityMatrix(log_scale=np.zeros(4), phase=np.ones(4))
        for M, target in ((np.eye(6), np.eye(6)), (np.eye(4), np.eye(6))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                transform_residual(M, A, target)

    def test_residual_of_zero_matrix_is_max_target(self):
        # no scale to divide by: the residual is the target's own size
        A = SimilarityMatrix(log_scale=np.arange(4.0), phase=np.ones(4))
        target = np.zeros((4, 4), dtype=complex)
        assert transform_residual(np.zeros((4, 4)), A, target) == 0.0
        target[1, 2] = -0.25j
        assert transform_residual(np.zeros((4, 4)), A, target) == 0.25

    def test_identity_transform_zero_residual(self):
        p = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0, N=10)
        M = build_modbkc_excitation_direct(p, OBC)
        res = transform_residual(M, a_combined(p), M.M)
        assert res == 0.0

    def test_wrong_target_detected(self):
        # negative control: using the bare Delta1 instead of dtilde1
        p = ModBKCParams(J1=0.5, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=40)
        M = build_modbkc_excitation_direct(p, OBC)
        wrong = ssh_lift_target(ModBKCParams(J1=0.0, J2=0.0, Delta1=1.0, Delta2=1.5,
                                             omega=0.0, N=40))
        res = transform_residual(M, a1_prime(p), wrong)
        assert res > 0.01

    def test_spectrum_invariance_under_gauge(self, set_distance):
        # similarity preserves the eigenvalue multiset (moderate condition)
        p = ModBKCParams(J1=0.4, J2=0.3, Delta1=1.0, Delta2=1.5, omega=0.0, N=16)
        A = a_combined(p)
        assert A.log10_condition < 12
        M = build_modbkc_excitation_direct(p, OBC)
        direct = np.linalg.eigvals(M.M)
        transformed = np.linalg.eigvals(conjugate(A, M.M))
        assert set_distance(direct, transformed) < 1e-7 * np.abs(M.M).max()


class TestGapClosingConsistency:
    def test_gap_closes_exactly_at_equal_effective_couplings(self):
        # scan J1 at J2 = 0: the open-chain gap closes where |dt1| = |dt2|
        Delta1, Delta2 = 1.5, 1.0
        boundary_low = np.sqrt(Delta1 ** 2 - Delta2 ** 2)
        boundary_high = np.sqrt(Delta1 ** 2 + Delta2 ** 2)
        for J1, inside in [(1.0, False), (1.2, True), (1.7, True), (1.9, False)]:
            p = ModBKCParams(J1=J1, J2=0.0, Delta1=Delta1, Delta2=Delta2, omega=0.0, N=100)
            s = modbkc_spectrum_zero_omega(p, OBC, with_vectors=False)
            eff = effective_ssh_params(p)
            predicted_inside = abs(eff.dtilde2) > abs(eff.dtilde1)
            assert predicted_inside == inside == (boundary_low < J1 < boundary_high)
            if inside:
                assert zero_gap(s) < 1e-4
            else:
                assert zero_gap(s) > 5e-2
