"""Forward accuracy of the solve routes against 40-digit eigenpairs of M.

A backward residual does not bound the forward error on the non-normal open
chains, so the per-row profiles |v_i|^2 / ||v||^2 of the reduced route's
base columns are compared with those of an independent reference, for
chains of N <= 12 cells: all-real, all-imaginary (which the route solves as
the all-real T = H_ssh / i), sign-mixed, with a deflated edge pair
(closed-form and solved vectors) and on the guarded fallback.

The reference works from M alone, in mpmath at 40 digits.  M is built from
the couplings (each entry exact), and a diagonal gauge G is found from M's
entries, bond by bond, such that G^-1 M G = i sigma_x (x) H with H symmetric
and G equal to 1 at both quadratures of the first site, the normalisation of
the route's gauge, which fixes the eigenvector within the twofold
degenerate eigenspace of M.  Each eigenvector w of H (mpmath's ``eig``) for
E gives the eigenvector v = G (w at both quadratures of each site) of M for
iE, and ||M v - iE v|| is checked to 40 digits.

The eigenvalues of the other routes, x/p (split into mirror halves and not),
Bloch (both models) and dense, are compared with those of M itself, of 4N
(2N for the single-band chain) <= 24, in mpmath at 40 digits.  M =
`excitation_matrix` of the chain's quadratic form is i Im M exactly, so the
reference is i times mpmath's ``eig`` of the real Im M, each float entry
taken exactly.
"""

from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from bkchain.disorder import DisorderSpec, sample_site_fields
from bkchain.model import (
    BKCParams,
    BoundaryCondition,
    ModBKCParams,
    SiteFields,
    build_bkc_quadratic,
    build_modbkc_quadratic,
    excitation_matrix,
)
from bkchain.skin import spatial_profile
from bkchain.spectral import solve

OBC, PBC = BoundaryCondition.OBC, BoundaryCondition.PBC
# Largest difference of a profile entry, route against reference, over the
# chains below: the larger of the two measured before and after the reduced
# route took its vectors from log-moduli, and for the all-imaginary chains
# before and after they took the all-real path (see CHANGES.md).
PROFILE_BOUND = {"all-real": 1.0e-15, "all-real-deflated": 1.9e-15, "sign-mixed": 1.4e-15,
                 "sign-mixed-deflated": 3.4e-15, "sign-mixed-solved": 7.8e-16, "random-mixed": 2.0e-15,
                 "all-imaginary": 1.5e-15, "all-imaginary-deflated": 2.6e-15, "guarded": 4.2e-14}


def _fields(p):
    return SiteFields.uniform(p) if isinstance(p, ModBKCParams) else p


def _guarded_chain():
    """Two topological pieces of six cells joined by an intercell bond of ~2e-3: two small |E|, the guard."""
    f = _fields(ModBKCParams(J1=0.0, J2=0.0, Delta1=0.5, Delta2=1.5, omega=0.0, N=12))
    J2 = f.J2.copy()
    J2[5] = f.Delta2[5] * (1 - 1e-6)
    return SiteFields(J1=f.J1, J2=J2, Delta1=f.Delta1, Delta2=f.Delta2, omega_A=f.omega_A, omega_B=f.omega_B)


def _random_mixed_chain(n=12):
    """omega = 0 fields with each bond J- or Delta-dominant at random."""
    rng = np.random.default_rng(7)
    delta1, delta2 = rng.uniform(1.0, 2.0, n), rng.uniform(0.5, 1.5, n)
    J1 = delta1 * np.where(rng.random(n) < 0.5, rng.uniform(0.2, 0.5, n), rng.uniform(1.5, 2.0, n))
    J2 = delta2 * np.where(rng.random(n) < 0.5, rng.uniform(0.2, 0.5, n), rng.uniform(1.5, 2.0, n))
    zero = np.zeros(n)
    return SiteFields(J1=J1, J2=J2, Delta1=delta1, Delta2=delta2, omega_A=zero, omega_B=zero)


# (chain, a fragment of the route's source that places it)
CHAINS = {
    "all-real": (ModBKCParams(J1=0.4, J2=0.1, Delta1=1.0, Delta2=0.5, omega=0.0, N=12), "reduced[modbkc,obc,n=12]"),
    "all-real-deflated": (ModBKCParams(J1=0.0, J2=0.0, Delta1=0.1, Delta2=1.5, omega=0.0, N=12),
                          "(deflated edge pair, closed form"),
    "sign-mixed": (ModBKCParams(J1=2.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=12),
                   "reduced[modbkc,obc,n=12]"),
    "sign-mixed-deflated": (ModBKCParams(J1=1.005, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=12),
                            "(deflated edge pair, closed form"),
    "sign-mixed-solved": (ModBKCParams(J1=1.4, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=12),
                          "(deflated edge pair, solved vectors"),
    "all-imaginary": (ModBKCParams(J1=2.0, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.0, N=12),
                      "reduced[modbkc,obc,n=12]"),
    "all-imaginary-deflated": (ModBKCParams(J1=1.005, J2=1.5, Delta1=1.0, Delta2=0.0, omega=0.0, N=12),
                               "(deflated edge pair, closed form"),
    "random-mixed": (_random_mixed_chain(), "reduced[modbkc,obc,n=12]"),
    "guarded": (_guarded_chain(), "(half-size guard"),
}


def _mp_excitation_matrix(f):
    """M = -i Sigma Q of the open chain, from the couplings: Q's entries J +- Delta are exact at 40 digits."""
    n = f.N
    Q = mpmath.zeros(4 * n)
    for j in range(n):
        pairs = [(4 * j, f.J1[j], f.Delta1[j], 1), (4 * j + 1, f.J1[j], f.Delta1[j], -1)]
        if j < n - 1:
            pairs += [(4 * j + 2, f.J2[j], f.Delta2[j], 1), (4 * j + 3, f.J2[j], f.Delta2[j], -1)]
        for row, J, delta, sign in pairs:  # x x couplings J + Delta, p p couplings J - Delta
            Q[row, row + 2] = Q[row + 2, row] = mpmath.mpf(float(J)) + sign * mpmath.mpf(float(delta))
    M = mpmath.zeros(4 * n)
    for k in range(2 * n):  # row 2k of Sigma Q is Q's row 2k + 1, row 2k + 1 is -Q's row 2k
        for c in range(4 * n):
            M[2 * k, c], M[2 * k + 1, c] = -1j * Q[2 * k + 1, c], 1j * Q[2 * k, c]
    return M


def _mp_gauge(M):
    """Diagonal G (as a list) with G^-1 M G = i sigma_x (x) H, H symmetric, and H; G is 1 on the first site.

    For the bond of sites a, a + 1, with x_a at row 2 a and p_a at 2 a + 1,
    the structure asks K[x_a, p_{a+1}] = K[p_a, x_{a+1}] = K[x_{a+1}, p_a]
    for K = G^-1 M G, which fixes G at site a + 1 from G at site a up to a
    sign; the fourth entry, K[p_{a+1}, x_a], is checked with the rest.
    """
    sites = M.rows // 2
    G = [mpmath.mpf(1), mpmath.mpf(1)]
    for a in range(sites - 1):
        gx, gp = G[2 * a], G[2 * a + 1]
        m1, m2, m3 = M[2 * a, 2 * a + 3], M[2 * a + 1, 2 * a + 2], M[2 * a + 2, 2 * a + 1]
        x = gp * mpmath.sqrt(m3 / m2)
        G += [x, m2 * x * gx / (m1 * gp)]
    K = mpmath.matrix(M.rows)
    for i in range(M.rows):
        for j in range(M.rows):
            K[i, j] = M[i, j] * G[j] / G[i]
    H = mpmath.matrix(sites)
    for a in range(sites):
        for b in range(sites):
            H[a, b] = -1j * K[2 * a, 2 * b + 1]
    scale = mpmath.mnorm(K, 1)
    assert mpmath.mnorm(H - H.T, 1) <= mpmath.mpf(10) ** -35 * scale
    for a in range(sites):
        for b in range(sites):
            assert abs(K[2 * a, 2 * b]) + abs(K[2 * a + 1, 2 * b + 1]) == 0
            assert abs(K[2 * a + 1, 2 * b] - K[2 * a, 2 * b + 1]) <= mpmath.mpf(10) ** -35 * scale
    return G, H


def _mp_profiles(p):
    """(E, profile) per eigenvalue iE of M with E an eigenvalue of H; profile |v_i|^2 / ||v||^2 as floats."""
    with mpmath.workdps(40):
        M = _mp_excitation_matrix(_fields(p))
        G, H = _mp_gauge(M)
        E, W = mpmath.eig(H)
        out = []
        for k, e in enumerate(E):
            v = mpmath.matrix([G[r] * W[r // 2, k] for r in range(M.rows)])
            residual = mpmath.norm(M * v - 1j * e * v)
            assert residual <= mpmath.mpf(10) ** -35 * mpmath.mnorm(M, 1) * mpmath.norm(v)
            weight = [abs(x) ** 2 for x in v]
            total = mpmath.fsum(weight)
            out.append((complex(e), np.array([float(w / total) for w in weight])))
        return out


def profile_errors(p):
    """Largest |profile entry - reference| over the route's base columns, and the route's source."""
    s = solve(p, OBC)
    assert s.base is not None, s.source
    prob = spatial_profile(s.base, p.N).prob
    reference = _mp_profiles(p)
    worst = 0.0
    place = np.argsort(s.order)  # the sorted place of each value of the route's layout, base columns first
    for c in range(s.base.shape[1]):
        E = s.eigenvalues[place[c]] / 1j
        gaps = [abs(e - E) for e, _ in reference]
        k = int(np.argmin(gaps))
        assert sorted(gaps)[1] > 1e3 * gaps[k]  # the matching eigenvalue of H is unambiguous
        worst = max(worst, float(np.abs(prob[:, c] - reference[k][1]).max()))
    return worst, s.source


@pytest.mark.parametrize("name", list(CHAINS))
def test_profiles_match_the_mp_eigenvectors(name):
    p, note = CHAINS[name]
    error, source = profile_errors(p)
    assert note in source
    assert error <= PROFILE_BOUND[name]


def _cut_chain():
    """Every intracell bond at Delta = J and one onsite omega: the x/p guard's dense solve of a defective M.

    The cuts couple each cell to the next one way only, so M is defective:
    its eigenvalues 0 (the zero modes) and +-i sqrt(2) are each 4-fold, in
    Jordan blocks of up to z = 4, which a dense solve resolves to about
    eps^(1/z), as in tests/test_solve.py.
    """
    f = SiteFields.uniform(ModBKCParams(J1=1.0, J2=0.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=4))
    return replace(f, omega_A=np.array([0.0, 0.0, 0.0, 0.3]))


_SWEEP = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.3, N=6)
_FIG9 = ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.05, N=6)
# (chain, boundary, a fragment of the route's source, z): z counts the zero
# modes, and where it is nonzero M is defective with at most z equal eigenvalues
EIGENVALUE_CHAINS = {
    "xp-split": (_SWEEP, OBC, "(mirror halves: 2 x 6)", 0),
    "xp-unsplit": (sample_site_fields(_FIG9, DisorderSpec({"omega": 2.0}, seed=20240601), 0), OBC,
                   "xp[symplectic,obc,n=6]", 0),
    "bloch-modbkc": (_SWEEP, PBC, "bloch[", 0),
    "bloch-bkc": (BKCParams(J0=0.5, Delta0=1.0, omega=0.5, N=12), PBC, "bloch[", 0),
    "dense": (BKCParams(J0=0.5, Delta0=1.0, omega=0.5, N=12), OBC, "eig[symplectic,obc,n=12]", 0),
    "dense-cut": (_cut_chain(), OBC, "(x/p guard", 4),
}
# Largest matched eigenvalue error relative to max(1, max|E|), with and without
# vectors: twice the value measured (see CHANGES.md).  A defective M is
# bounded by 10 eps^(1/z) instead (measured 5.6e-6 at z = 4).
EIGENVALUE_BOUND = {"xp-split": 5.3e-15, "xp-unsplit": 1.2e-15, "bloch-modbkc": 2.4e-15, "bloch-bkc": 1.4e-15,
                    "dense": 7e-15}


def _mp_eigenvalues(p, bc):
    """The eigenvalues of M = `excitation_matrix` of the chain, as i eig(Im M) at 40 digits."""
    build = build_bkc_quadratic if isinstance(p, BKCParams) else build_modbkc_quadratic
    M = excitation_matrix(build(p, bc)).M
    assert not M.real.any() and len(M) <= 24
    with mpmath.workdps(40):
        values = mpmath.eig(mpmath.matrix(M.imag.tolist()), left=False, right=False)
        return np.array([complex(1j * e) for e in values])


def matched_gap(values, reference):
    """Largest gap of the one-to-one matching of ``values`` to ``reference``, relative to max(1, max|reference|)."""
    gap = np.abs(values[:, None] - reference[None, :])
    rows, cols = linear_sum_assignment(gap)
    return float(gap[rows, cols].max()) / max(1.0, float(np.abs(reference).max()))


@pytest.mark.parametrize("name", list(EIGENVALUE_CHAINS))
def test_eigenvalues_match_the_mp_eigenvalues(name):
    p, bc, note, z = EIGENVALUE_CHAINS[name]
    reference = _mp_eigenvalues(p, bc)
    equal = np.abs(reference[:, None] - reference) <= 1e-8 * np.abs(reference).max()
    assert (np.abs(reference) <= 1e-8 * np.abs(reference).max()).sum() == z
    assert not z or equal.sum(axis=0).max() == z
    bound = 10 * np.finfo(float).eps ** (1 / z) if z else EIGENVALUE_BOUND[name]
    for vectors in (True, False):
        s = solve(p, bc, vectors)
        assert note in s.source and matched_gap(s.eigenvalues, reference) <= bound
