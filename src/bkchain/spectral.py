"""Excitation spectra through one front door, `solve(p, bc)`.

`p` is a `BKCParams`, a `ModBKCParams` or a `SiteFields`; `solve` is the only
code that picks a solve route:

* **Hatano-Nelson gauge** (single-band chain, OBC, omega = 0).  The open
  chain is exponentially non-normal (gauge condition numbers up to 1e60),
  so a dense solver returns pseudospectra.  The gauge maps M onto
  c sigma_z (x) (S + S^T), a uniform open chain per channel (Hatano &
  Nelson, PRL 77, 570 (1996)): `_hatano_nelson_spectrum` writes its
  standing waves in closed form and lifts them.  At Delta0 = +-J0 there is
  no gauge (`SingularTransformError`): the dense route is taken, and
  ``Spectrum.source`` names the error.
* **SSH reduction** (two-sublattice chain, OBC, every onsite omega = 0).  The
  combined gauge maps M onto i sigma_x (x) H_ssh, two decoupled copies of an
  SSH chain, so `modbkc_spectrum_zero_omega` solves the 2N-dimensional H_ssh
  and lifts the product basis (sigma_x eigenvector) (x) (SSH eigenvector);
  every eigenvalue is exactly twofold degenerate.  H_ssh is tridiagonal with
  real or imaginary bonds, so a diagonal S of exact phases +-1, +-i maps it
  onto a real H_r with eigenvectors S U_r.  H_r is bipartite with a zero
  diagonal, [[0, D], [F, 0]] in sublattice order, so its spectrum is
  E = +-sqrt(mu) over N values mu: the eigenvalues of the N x N real D F
  where some Delta^2 - J^2 < 0, else the squares of the upper half of
  `eigvalsh` of the symmetric H_r, whose roots return them exactly.
  `_half_size` sorts the roots +-sqrt(mu), as on the x/p route, and
  `_twisted` gives the eigenvector of H_r at each root, accurate entry by
  entry, as the gauge lift of a localized state needs.  Squaring E loses
  accuracy near 0, so a value with |E| <= ``REDUCED_MIN_EIGENVALUE`` *
  max|H_r| is not taken from its square.

  In the topological phase H_r has one such value, its edge pair,
  exponentially close to 0: a dense solve returns noise for E and mixes the
  two vectors.  `_edge_pair` deflates the pair in O(N): E from the
  determinant identity det(D F) = prod(mu), vectors from the sublattice
  zero-mode recursions, or, near a transition where those are too
  inexact, from `_twisted`; the guard judges the other N - 1 values only.
  A chain with more than one small value (weakly coupled pieces, an edge
  pair each) or an exactly zero bond takes the full-size solve of H_r
  instead: `eigh` where every bond is real, else the real `eig`.
  ``Spectrum.source`` names the deflation or the fallback.  M anticommutes
  with Sigma = diag(+1, -1) over (x, p) and with Gamma = diag(+1, -1) over
  the sublattices (Asboth, Oroszlany & Palyi, LNP 919 (2016), ch. 1): with
  v the lifted column for +i root, Gamma v and Sigma v belong to -i root
  and Sigma Gamma v to +i root.  So only the N columns v, the SSH
  eigenvector at both quadratures of each site, are lifted
  (``SimilarityMatrix.lift``) and checked; `_sorted_pairs` writes all 4N
  into their sorted places.  The fallback's -E vectors are no Gamma-flips,
  so it lifts 2N columns and adds their Sigma-flips.  At Delta = +-J
  exactly on some bond the eigenvalues stay exact but no eigenvectors are
  computed.
* **Bloch** (uniform ring of either model, `BKCParams` or `ModBKCParams`
  under PBC, any omega).  Translation invariance splits the ring into N
  independent blocks B(k), k = 2 pi m / N, 2x2 or 4x4, read off the model's
  builder by `bloch_matrix`.  `_bloch_spectrum` solves them in one batched
  `eig` and writes each ring eigenvector as the plane wave exp(+ikj) of a
  block eigenvector.  Nothing is squared, so no eigenvalue needs a guard.
  Neither gauge closes around a ring, so no ring takes a gauge route.
* **x/p** for every other point whose quadratic form has an exactly zero x-p
  cross block ``Q[0::2, 1::2]``: every other two-sublattice point, that is,
  open chains at nonzero omega and site-resolved fields, open or periodic.
  In (x, p) block order M = [[0, -i Qp], [i Qx, 0]], so
  M^2 = diag(Qp Qx, Qx Qp) and the spectrum is +-sqrt(eig(Qp Qx)), a real
  problem of half the size (Colpa, Physica A 93, 327 (1978); McDonald,
  Pereg-Barnea & Clerk, PRX 8, 041031 (2018)).  `_xp_spectrum` lifts each
  eigenvector x of Qp Qx to (x, i Qx x / E).  A chain whose fields read the
  same from both ends, such as every uniform open chain, is symmetric under
  the mirror A_j <-> B_{N-1-j}, which reverses the site order: Qx and Qp
  then equal their own reversals T[::-1, ::-1] (centrosymmetric), a test
  read off Q exactly.  With J the reversal of N sites, such a T of 2N sites
  maps the even vectors (y, J y) and the odd ones (y, -J y) into
  themselves, through the N x N blocks T+- = T[:N, :N] +- T[:N, N:] J
  (Cantoni & Butler, Linear Algebra Appl. 13, 275 (1976)).  So Qp Qx is
  solved as Qp+ Qx+ and Qp- Qx-, two N x N problems in place of one
  2N x 2N, and x is (y, +-J y) from their eigenvectors y;
  ``Spectrum.source`` adds " (mirror halves: 2 x N)".  Squaring loses about
  sqrt(eps) of accuracy near E = 0, so a point with min|E| <=
  ``XP_MIN_EIGENVALUE`` * max|Q|, judged on the values of both halves
  together, is solved densely instead, and its ``Spectrum.source`` names
  the guard and the smallest |E|.
* **Dense** `eigendecompose` of ``excitation_matrix(build_*_quadratic(p, bc))``
  for everything else: the open single-band chain off the gauge route (its
  cross block is nonzero) and the points the x/p guard turns away.

Every route checks its eigenvectors by `_check_residual`: each eigenpair's
residual on M must be at most ``RESIDUAL_FACTOR`` * max|M| * dim.  The
check runs on M's nonzero diagonals.  The dense route reads them off the M
it builds (`_bands`); every other route reads them off Q
(`excitation_bands`) and never forms M.  On the SSH reduction and x/p
routes M couples x only to p, so it anticommutes with Sigma, and each -E
eigenvector is the exact Sigma-flip of its +E partner.
Their residuals are equal bit for bit, as are those of Gamma-flips, so the
x/p route checks its 2N +E columns and the reduction its N lifted ones.  A
failure raises `SolverError`, except on the two gauge routes: their
eigenvalues are exact, so they are returned without eigenvectors, and
``Spectrum.source`` names the failure.

**Eigenvalues only.**  ``solve(p, bc, vectors=False)`` takes the same route,
with the same ``source`` prefix, but computes no eigenvector, lifts nothing
and builds no M that it does not solve.  These spectra get no residual
check: there is nothing to check it on.  Per route:

* Hatano-Nelson gauge: the same closed form, with no standing wave or Q;
  the dense fallback at Delta0 = +-J0 takes `eigvals` of M.
* SSH reduction: the same values mu, roots, deflation and guard, without
  `_twisted`; the fallback takes `eigvalsh` or `eigvals` of H_r.  Both
  paths write the same ``source`` and, off the fallback, the same
  eigenvalues bit for bit.  A singular gauge, which has no vectors either
  way, is solved the same way.
* Bloch: one batched `eigvals` of the N blocks; neither the ring's Q nor M is
  built.
* x/p: `eigvals` of Qp Qx, or of its two mirror halves where Qx and Qp are
  centrosymmetric; a guarded point takes the dense `eigvals` of M.

The x/p and reduced half-size solves share the +- sort of their roots
(`_half_size`) and one eigenvector writer, `_sorted_pairs`, which writes
each checked column and its sign flips into their sorted places.  Each route
owns its small-|E| guard: `_edge_pair` decides it on the reduced route, one
test in `_xp_spectrum` on the x/p route.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Union

import numpy as np

from .model import (
    BKCParams,
    BoundaryCondition,
    ExcitationMatrix,
    ModBKCParams,
    QuadraticForm,
    SiteFields,
    bloch_matrix,
    build_bkc_quadratic,
    build_modbkc_quadratic,
    excitation_bands,
    excitation_matrix,
)
from .transform import (
    SingularTransformError,
    a_combined,
    hatano_nelson_A,
    hatano_nelson_coupling,
    ssh_bonds,
)

__all__ = [
    "SolverError",
    "Spectrum",
    "solve",
    "eigendecompose",
    "modbkc_spectrum_zero_omega",
    "reduced_route",
    "bkc_pbc_dispersion",
    "spectrum_distance",
    "zero_gap",
]

RESIDUAL_FACTOR = 1e-8
# Smallest |E| the x/p route accepts, relative to max|Q|.  That route solves
# for E^2, and squaring loses about sqrt(eps) of accuracy near E = 0: at
# J1=1.2, J2=0, Delta1=1, Delta2=1.5, N=100 it returns a 1.4e-6 "zero mode"
# where the dense value is 3e-15, above the 1e-6 zero-mode tolerance.  Points
# with a smaller eigenvalue are solved densely instead.
XP_MIN_EIGENVALUE = 1e-4
# Smallest |E| the reduced route's half-size solve accepts, relative to
# max|H_r|, with or without vectors: the x/p guard, made stricter because
# these eigenvalues are written out as they are (fig8 zero_gap).  At 1e-4
# they strayed from the unsquared eig(H_r) by up to 1.3e-11 max|E| over the
# 160 sign-mixed fig8 realizations; at 1e-2 by at most 1.1e-13, with 138 of
# them still half-size.
REDUCED_MIN_EIGENVALUE = 1e-2
# Largest backward error of the closed-form edge pair vectors (`_edge_pair`),
# relative to max|H_r|, that the reduced route accepts.  It bounds the pair's
# residual on M relative to max|M|, so an accepted pair meets the 1e-10
# max|M| the route's other eigenpairs are tested to.  The error is about
# |E| / max|H_r|: a pair above it lies near a transition, where |E| is large
# enough for a solver to resolve the pair, and the pair's vectors are solved.
EDGE_PAIR_MAX_ERROR = 1e-10
# Columns per block of `_residuals`: its temporaries are a few (dim, 64) arrays.
_RESIDUAL_BLOCK = 64


class SolverError(RuntimeError):
    """Eigensolver failure, carrying a description of the offending matrix."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with column-aligned unit-norm right eigenvectors.

    Sorted lexicographically by (real part, imaginary part).  ``eigenvectors``
    is None in a spectrum solved with ``vectors=False``, and where a gauge
    route has eigenvalues only (singular gauge, or vectors that failed the
    residual check); ``source`` then says why.
    """

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    source: str = field(default="", compare=False)

    def __len__(self) -> int:
        return len(self.eigenvalues)


def _sorted(eigenvalues, eigenvectors, source):
    """Spectrum in (Re, Im) order; every route hands in unit-norm columns already."""
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    vecs = None if eigenvectors is None else eigenvectors[:, order]
    return Spectrum(eigenvalues=eigenvalues[order], eigenvectors=vecs, source=source)


def _bands(M: np.ndarray) -> list:
    """Nonzero diagonals of a dense M as (offset, values) pairs, in the format of `excitation_bands`."""
    n = M.shape[0]
    flat = np.flatnonzero(M != 0)
    return [(d, np.diagonal(M, d)) for d in np.unique(flat % n - flat // n)]


def _residuals(bands: list, vectors: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Column norms of M V - V diag(E), with M given by its nonzero diagonals.

    ``bands`` holds (offset d, values) pairs by ascending d, values laid out
    as ``np.diagonal(M, d)``: four for an open chain of either model, eight
    for a two-sublattice ring with its wrap corners, 2n - 1 for a dense M.
    M V is accumulated over them ``_RESIDUAL_BLOCK`` columns at a time, in
    O(len(bands) n) time per column, so no n x n temporary is allocated.
    """
    n = len(vectors)
    res = np.empty(vectors.shape[1])
    for c in range(0, vectors.shape[1], _RESIDUAL_BLOCK):
        V = vectors[:, c:c + _RESIDUAL_BLOCK]
        R = V * -eigenvalues[c:c + _RESIDUAL_BLOCK]
        for d, m in bands:
            if d >= 0:
                R[:n - d] += m[:, None] * V[d:]
            else:
                R[-d:] += m[:, None] * V[:n + d]
        res[c:c + _RESIDUAL_BLOCK] = np.linalg.norm(R, axis=0)
    return res


def _check_residual(bands: list, vectors: np.ndarray, eigenvalues: np.ndarray):
    """Raise `SolverError` unless every column's residual is at most ``RESIDUAL_FACTOR`` max|M| dim."""
    bound = RESIDUAL_FACTOR * max((np.abs(m).max() for _, m in bands), default=0.0) * len(vectors)
    worst = _residuals(bands, vectors, eigenvalues).max()
    if not worst <= bound:
        raise SolverError(f"eigenpair residual {worst:.3e} exceeds bound {bound:.3e}")


def eigendecompose(M: ExcitationMatrix, vectors: bool = True) -> Spectrum:
    """Full spectrum from the dense solver, with right eigenvectors unless ``vectors`` is False."""
    if not np.all(np.isfinite(M.M)):
        raise SolverError(f"matrix contains non-finite entries ({M.source}, bc={M.bc})")
    try:
        vals, vecs = np.linalg.eig(M.M) if vectors else (np.linalg.eigvals(M.M), None)
    except np.linalg.LinAlgError as err:
        raise SolverError(
            f"eigensolver failed for {M.source} matrix, dim={M.dim}, bc={M.bc}: {err}") from err
    spec = _sorted(vals, vecs, source=f"eig[{M.source},{M.bc.value},n={M.n_cells}]")
    del vals, vecs  # the residual check below is the peak of memory use
    if vectors:
        _check_residual(_bands(M.M), spec.eigenvectors, spec.eigenvalues)
    return spec


def _hatano_nelson_spectrum(p: BKCParams, vectors: bool) -> Spectrum:
    """Closed-form spectrum of the open single-band chain at omega = 0 (module docstring).

    The x channel has E_m = 2 c sin(pi (N + 1 - 2 m) / (2 N + 2)), which is
    2 c cos(pi m / (N + 1)), m = 1..N; the p channel has -E_m.  The odd sine
    argument makes the set its own negative bit for bit.  Both channels share
    the standing waves sqrt(2 / (N + 1)) sin(pi m (j + 1) / (N + 1)).  Each
    column lives on one channel, so each channel's N x N block is lifted
    through that channel's rows of the gauge and written into its sorted
    columns; the other channel's rows stay zero.
    """
    try:
        A = hatano_nelson_A(p)
    except SingularTransformError as err:  # Delta0 = +-J0: no gauge, so the dense solver
        spec = eigendecompose(excitation_matrix(build_bkc_quadratic(p, BoundaryCondition.OBC)), vectors)
        return replace(spec, source=f"{spec.source} (no gauge: {err})")
    n = p.N
    source = f"similarity[symplectic,{BoundaryCondition.OBC.value},n={n}]"
    m = np.arange(1, n + 1)
    E = 2 * hatano_nelson_coupling(p) * np.sin(np.pi * (n + 1 - 2 * m) / (2 * n + 2))
    vals = np.concatenate([E, -E]) + 0.0  # + 0.0 turns every -0.0 part, which a CSV writes as "-0", into 0
    if not vectors:
        return _sorted(vals, None, source)
    order = np.lexsort((vals.imag, vals.real))
    place = np.empty_like(order)
    place[order] = np.arange(2 * n)  # column c of concat([x channel, p channel]) is sorted column place[c]
    U = np.sqrt(2 / (n + 1)) * np.sin(np.pi * (np.outer(m, m) % (2 * n + 2)) / (n + 1))  # row j, column m - 1
    # each column lives on one channel: lift that channel's rows only, into the layout of a [:, order] gather
    vecs = np.zeros((2 * n, 2 * n), dtype=complex, order="F")
    for rows, cols in ((slice(0, None, 2), place[:n]), (slice(1, None, 2), place[n:])):
        vecs[rows, cols] = replace(A, log_scale=A.log_scale[rows], phase=A.phase[rows]).lift(U)
    spec = Spectrum(eigenvalues=vals[order], eigenvectors=vecs, source=source)
    bands = excitation_bands(build_bkc_quadratic(p, BoundaryCondition.OBC))  # M's diagonals; M is never formed
    try:
        _check_residual(bands, spec.eigenvectors, spec.eigenvalues)
    except SolverError as err:  # the eigenvalues are exact, so they stay
        return replace(spec, eigenvectors=None, source=f"{source} (no vectors: {err})")
    return spec


def _zero_omega(p: Union[ModBKCParams, SiteFields]) -> bool:
    if isinstance(p, ModBKCParams):
        return p.omega == 0
    return bool(np.all(p.omega_A == 0) and np.all(p.omega_B == 0))


def reduced_route(p: Union[BKCParams, ModBKCParams, SiteFields], bc: BoundaryCondition) -> bool:
    """Whether `solve` takes the SSH reduction: the open two-sublattice chain at every omega = 0.

    Its spectrum holds two exact copies of the reduced SSH spectrum, so each
    edge mode appears twice.
    """
    return not isinstance(p, BKCParams) and bc is BoundaryCondition.OBC and _zero_omega(p)


class _SmallEigenvalue(Exception):
    """A half-size solve met an eigenvalue too close to zero to take from its square."""


def _square_eig(P: np.ndarray, vectors: bool):
    """Eigenvalues mu of the real matrix P, with its eigenvectors (else None) when ``vectors``."""
    try:
        return np.linalg.eig(P) if vectors else (np.linalg.eigvals(P), None)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"half-size eigensolver failed, dim={len(P)}: {err}") from err


def _half_size(root: np.ndarray):
    """The +- sort both half-size routes share: ``(vals, order)`` for the spectrum +-``root``.

    ``vals`` is concat([root, -root])[order], sorted as `_sorted` sorts.  The
    x/p route passes the roots sqrt(mu) of P = Qp Qx, the reduced route those
    of P = D F of H_r.  It holds no guard: each route rules out the small |E|
    that squaring cannot resolve before it calls this, the x/p route by its
    own test, the reduced route in `_edge_pair`.
    """
    vals = np.concatenate([root, -root])
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], order


class _EdgePair(NamedTuple):
    m: int                  # index of the pair's value in mu
    E: complex              # its root, from the determinant identity
    error: float            # backward error of the closed-form vectors, relative to max|H_r|
    u: Optional[np.ndarray]  # eigenvector of H_r for +E; None where error > EDGE_PAIR_MAX_ERROR


def _edge_pair(mag: np.ndarray, lower: np.ndarray, mu: np.ndarray) -> Optional[_EdgePair]:
    """The near-zero eigenpair of H_r = diag(mag, 1) + diag(lower, -1), in closed form.

    ``mu`` holds the N values E^2 of H_r from one solve (the eigenvalues of
    D F).  Returns None where every |E| lies above the half-size guard
    (``REDUCED_MIN_EIGENVALUE`` max|H_r|).  Where exactly one lies at or
    below it, returns an `_EdgePair`: mu[m] is that value, E its root, u the
    eigenvector of H_r for +E, with max|u| = 1 (for -E negate its B
    entries), and ``error`` the backward error of u; u is None where that
    error exceeds ``EDGE_PAIR_MAX_ERROR``.  Raises `_SmallEigenvalue` where
    more values are small or a bond is zero.

    H_r is bipartite with a zero diagonal; site 2j is A_j and 2j+1 is B_j.
    Its A-sublattice zero mode a solves every B row but the last,
    lower[2j] a_j + mag[2j+1] a_{j+1} = 0, and its B mode b every A row but
    the first, lower[2j-1] b_{j-1} + mag[2j] b_j = 0, run from the right
    end (the transfer recursion of Kunst, Edvardsson, Budich & Bergholtz,
    PRL 121, 026808 (2018); Asboth, Oroszlany & Palyi, LNP 919 (2016),
    ch. 1).  Both are kept as cumulative sums of log ratios and cumulative
    sign products, so nothing overflows; entries below 1e-308 max|u| flush
    to zero.  They are the far tails of a and b, which the gauge lifts no
    higher than the other mode's entries in the same cell, so the lift
    loses nothing by them.

    * E: det(D F) = prod_j mag[2j] lower[2j] is the product of all N values
      of mu, so mu[m] is that determinant over the other N - 1.  They lie
      above the guard, so their rounding, and hence E's, stays relative.
    * u = (a, k b).  The left A mode has entries tau_j a_j (tau_j = +-1) and
      D^T (tau a) = mag[-1] tau_{N-1} a_{N-1} e_{N-1}, so an exact eigenvector
      (x_A, x_B) has E (tau a . x_A) = mag[-1] tau_{N-1} a_{N-1} x_B[N-1].
      With x_A = a near the left end and x_B = k b near the right end,
      k = E (tau a . a) / (mag[-1] tau_{N-1} a_{N-1} b_{N-1}).
    * ``error``: u solves H_r u = E u up to -E u in every row but rows A_0
      and B_{N-1}, which the recursions leave.  ``error`` is
      max_i |(H_r u - E u)_i / u_i| / max|H_r|.  The gauge and the phase S
      are diagonal, so it bounds the residual of the lifted unit column on
      M by error max|H_r| <= error max|M|.
    """
    size = np.sqrt(np.abs(mu))
    small = ~(size > REDUCED_MIN_EIGENVALUE * mag.max())
    if not small.any():
        return None
    if small.sum() > 1:
        raise _SmallEigenvalue(
            f"min|E| {size.min():.2e} <= {REDUCED_MIN_EIGENVALUE:g} max|H_r|, {small.sum()} values")
    if not mag.all():
        raise _SmallEigenvalue(f"min|E| {size.min():.2e} on a chain cut by a zero bond")
    m = int(np.argmax(small))
    rest = np.delete(mu, m)
    sign = lower / mag
    lm = np.log(mag)
    la = np.concatenate([[0.0], np.cumsum(lm[:-1:2] - lm[1::2])])
    lb = np.concatenate([np.cumsum(lm[-1:0:-2] - lm[-2::-2])[::-1], [0.0]])
    la -= la.max()
    lb -= lb.max()
    sa = np.concatenate([[1.0], np.cumprod(-sign[:-1:2])])
    sb = np.concatenate([np.cumprod(-sign[-2::-2])[::-1], [1.0]])
    tau = np.concatenate([[1.0], np.cumprod(sign[:-1:2] * sign[1::2])])
    overlap = np.sum(tau * np.exp(2 * la))
    log_E = lm[0::2].sum() - 0.5 * np.log(np.abs(rest)).sum()
    phase_E = 1.0 if np.prod(sign[0::2]) * np.prod(rest / np.abs(rest)).real > 0 else 1j
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # a failed pair reads as error inf or nan
        log_k = log_E + np.log(np.abs(overlap)) - lm[-1] - la[-1] - lb[-1]
        phase_k = phase_E * np.sign(overlap) * tau[-1] * sa[-1]
        E = phase_E * np.exp(log_E)
        row_a0 = phase_k * sb[0] * np.exp(log_k + lb[0] + lm[0] - la[0]) - E
        row_bn = sign[-1] * sa[-1] / phase_k * np.exp(lm[-1] + la[-1] - log_k - lb[-1]) - E
        error = max(abs(E), abs(row_a0), abs(row_bn)) / mag.max()
    if not error <= EDGE_PAIR_MAX_ERROR:
        return _EdgePair(m, E, error, None)
    log_u = np.empty(2 * len(la))
    log_u[0::2], log_u[1::2] = la, log_k + lb
    u = np.exp(log_u - log_u.max()).astype(complex)
    u[0::2] *= sa
    u[1::2] *= phase_k * sb
    return _EdgePair(m, E, error, u)


def _twisted(mag: np.ndarray, lower: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Eigenvectors of H_r = diag(mag, 1) + diag(lower, -1), one column per eigenvalue in E.

    Twisted factorization (Parlett & Dhillon, Linear Algebra Appl. 267, 247
    (1997)): for each E the pivots of H_r - E from the top,
    P_i = -E - mag_{i-1} lower_{i-1} / P_{i-1}, and from the bottom,
    Q_i = -E - mag_i lower_i / Q_{i+1}, give the vector z with z_k = 1 at the
    twist k that minimizes |P_k + Q_k + E|, and the ratios
    z_{i+1} / z_i = -P_i / mag_i above k and -lower_i / Q_{i+1} below it.
    Each row of (H_r - E) z = 0 but row k then holds to rounding relative to
    its own entries, however far z decays from k, so the gauge lift keeps
    the residual small.  A dense solver's eigenvectors carry errors of
    eps max|z| instead, which the gauge lifts above the true tails of a
    localized state: in disordered chains those columns failed the check on
    M.  The ratios are accumulated as logs and unit phases; entries below
    1e-308 of a column's largest flush to zero.  All columns are solved at
    once, one row at a time.
    """
    n = len(mag) + 1
    bond = mag * lower
    # W[i] stacks P_i and Q_{n-1-i}: both recurrences advance in one step per row
    W = np.empty((n, 2, len(E)), dtype=complex)
    step = np.stack([bond, bond[::-1]], axis=1)[:, :, None]
    pivmin = np.finfo(float).eps * mag.max()
    minus_E = -E
    W[0] = minus_E
    # a deflated edge value far below every bond can still overflow a pivot;
    # its column, NaN then, is replaced by the closed-form pair
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # an exactly zero pivot (E an exact eigenvalue of a leading or trailing
        # block) takes a second pass, which replaces it by pivmin = eps max|H_r|
        for fix in (False, True):
            for i in range(1, n):
                if fix:
                    W[i - 1, W[i - 1] == 0] = pivmin
                W[i] = minus_E - step[i - 1] / W[i - 1]
            if W.all():
                break
        P, Q = W[:, 0], W[::-1, 1]
        twist = np.argmin(np.abs(P + Q + E), axis=0)
        ratio = np.where(np.arange(n - 1)[:, None] < twist, -P[:-1] / mag[:, None], -lower[:, None] / Q[1:])
        del W, P, Q
        size = np.abs(ratio)
        log_z = np.zeros((n, len(E)))
        np.cumsum(np.log(size), axis=0, out=log_z[1:])
        ratio /= size
    z = np.ones((n, len(E)), dtype=complex)
    np.cumprod(ratio, axis=0, out=z[1:])
    z *= np.exp(log_z - log_z.max(axis=0))
    return z


def _sorted_pairs(base: np.ndarray, order: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The checked columns ``base`` and their chiral flips, each written into its sorted place.

    The eigenvector writer of both half-size routes.  ``order`` sorts the
    eigenvalues concat([e, -e]): e = i E on the reduced route, the roots
    sqrt(mu) on the x/p route.  Column c of [``base``, Gamma ``base``]
    belongs to e[cols[c]] and its Sigma-flip to -e[cols[c]].  Sigma negates
    the p rows, Gamma the x and p rows of the B sites; where ``cols`` has one
    entry per column (the x/p route, and the reduced route's full-size
    solve) only Sigma-flips are written.  Each column is written once into an
    F-contiguous array, the layout of a ``[:, order]`` gather, which
    `spatial_profile`'s column sums depend on.  The flips negate rows of
    ``base`` in place, which allocates nothing beside the result.
    """
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    slots = place.reshape(2, -1)[:, cols].reshape(2, -1, base.shape[1])  # [Sigma, Gamma, column]
    out = np.empty((len(base), len(order)), dtype=complex, order="F")
    p_rows, b_rows = [base[1::2]], [base[2::4], base[3::4]]  # B_j is site 2j + 1: rows 4j + 2, 4j + 3
    walk = [((0, 0), []), ((1, 0), p_rows), ((1, 1), b_rows), ((0, 1), p_rows)]  # 1, Sigma, Sigma Gamma, Gamma
    for (s, g), negate in walk[:len(order) // base.shape[1]]:
        for rows in negate:
            np.negative(rows, out=rows)
        out[:, slots[s, g]] = base
    return out


def modbkc_spectrum_zero_omega(p: Union[ModBKCParams, SiteFields],
                               bc: BoundaryCondition = BoundaryCondition.OBC,
                               with_vectors: bool = True) -> Spectrum:
    """Exact omega=0 spectrum of the open two-sublattice chain via the SSH reduction.

    Eigenvalues are +-i E_m over the reduced SSH spectrum {E_m}, solved in
    real arithmetic through the phase gauge of the module docstring: the N
    values mu = E^2 are the squares of the upper half of `eigvalsh` of H_r
    where every bond is real, else the eigenvalues of D F, and `_half_size`
    sorts their roots.  A lone value with |E| <= ``REDUCED_MIN_EIGENVALUE``
    * max|H_r|, the topological edge pair, is replaced by its closed form
    (`_edge_pair`): E = +-sqrt(det(D F) / prod of the other values of mu),
    which is forward-accurate however small E is, and vectors (a, +-k b)
    from the sublattice zero-mode recursions where their backward error is
    at most ``EDGE_PAIR_MAX_ERROR``.  Every other eigenvector of H_r comes
    from `_twisted`.  Where more than one value is that small or a bond is
    zero, the full-size solve of H_r runs instead, `eigh` where every bond
    is real, else the real `eig`.  ``Spectrum.source`` names the deflation,
    with the closed form's backward error, or the reason for the fallback.
    Eigenvectors are the product basis lifted through the combined gauge
    (``SimilarityMatrix.lift``): N unit columns v for +i root, phase-gauged
    and lifted, then Gamma v, Sigma v and Sigma Gamma v (module docstring);
    the fallback lifts 2N columns and adds their Sigma-flips.  The lifted
    columns are checked; where they fail, the eigenvalues are returned alone
    and ``source`` names the failure.  With ``with_vectors=False`` (or at
    singular gauge points Delta = +-J) only the eigenvalues are computed,
    along the same path; they remain exact at singular points by continuity
    of the characteristic polynomial.  Open boundaries only: the gauge does
    not close around a ring, so the reduced ring is not the PBC spectrum.
    """
    if bc is not BoundaryCondition.OBC:
        raise ValueError("modbkc_spectrum_zero_omega requires open boundaries")
    if not _zero_omega(p):
        raise ValueError("modbkc_spectrum_zero_omega requires all onsite omega = 0")
    source = f"reduced[modbkc,{bc.value},n={p.N}]"
    # H is tridiagonal with bonds b_k, each real or purely imaginary: with s_{k+1} = s_k |b_k| / b_k,
    # a power of i, S^-1 H S is the real H_r with |b_k| above and b_k^2 / |b_k| below the diagonal.
    b = ssh_bonds(p)
    mag = np.abs(b)
    lower = np.where(b.imag != 0, -mag, mag)
    Hr = np.diag(mag, 1) + np.diag(lower, -1)
    A = None
    if with_vectors:
        try:
            A = a_combined(p)
        except SingularTransformError as err:  # Delta = +-J somewhere: no gauge, eigenvalues only
            source += f" (no vectors: {err})"
    vectors = A is not None
    mixed = b.imag.any()
    try:
        if mixed:  # bipartite: [[0, D], [F, 0]] in sublattice order, E^2 = eigvals(D F)
            mu, _ = _square_eig(Hr[0::2, 1::2] @ Hr[1::2, 0::2], False)
        else:  # symmetric: eigvalsh is ascending and symmetric about 0, and sqrt(x^2) = |x| exactly
            mu = np.linalg.eigvalsh(Hr)[p.N:] ** 2
        pair = _edge_pair(mag, lower, mu)
    except _SmallEigenvalue as guard:
        source, pair = f"{source} (half-size guard: {guard})", None
        if vectors:
            E, U = np.linalg.eig(Hr) if mixed else np.linalg.eigh(Hr)
        else:
            E, U = np.linalg.eigvals(Hr) if mixed else np.linalg.eigvalsh(Hr), None
        root, cols = E, np.arange(len(E))  # column j belongs to E[j]; -E[j]'s is no Gamma-flip of it
    else:
        root = np.sqrt(mu.astype(complex))
        if pair is not None:  # the one value too small to take from its square
            root[pair.m] = pair.E
        E, half_order = _half_size(root)
        U = None
        if vectors:  # unit eigenvectors (z_A, z_B) of H_r for +root; (z_A, -z_B) belongs to -root
            U = _twisted(mag, lower, root)
            if pair is not None and pair.u is not None:
                U[:, pair.m] = pair.u
            U /= np.sqrt((np.abs(U[0::2]) ** 2).sum(axis=0) + (np.abs(U[1::2]) ** 2).sum(axis=0))
        cols = np.argsort(half_order)  # column c of [U, Gamma U] belongs to E[cols[c]]
    del Hr  # freed, like U below, before the lift's arrays: the peak of memory use
    if pair is not None and pair.u is not None:
        source += f" (deflated edge pair, closed form: backward error {pair.error:.1e})"
    elif pair is not None:
        source += (f" (deflated edge pair, solved vectors: closed-form backward error {pair.error:.2e}"
                   f" > {EDGE_PAIR_MAX_ERROR:g})")
    # not _half_size(1j * E): -(1j E) has -0.0 real parts where -1j E has 0.0, and a CSV writes "-0"
    vals = np.concatenate([1j * E, -1j * E])
    order = np.lexsort((vals.imag, vals.real))
    spec = Spectrum(eigenvalues=vals[order], eigenvectors=None, source=source)
    if U is None:
        return spec
    bands = excitation_bands(build_modbkc_quadratic(p, bc))
    # U = S U_r; |b| / b and S hold +-1, +-i only, so every product is exact
    U = np.concatenate([[1], np.cumprod(np.sign(b.real) - 1j * np.sign(b.imag))])[:, None] * U
    plus = A.lift(np.repeat(U, 2, axis=0))  # site a at x row 2a and p row 2a + 1
    del U
    try:  # the Sigma- and Gamma-flips of these columns have equal residuals
        _check_residual(bands, plus, 1j * root)
    except SolverError as err:  # the eigenvalues are exact, so they stay
        return replace(spec, source=f"{source} (no vectors: {err})")
    return replace(spec, eigenvectors=_sorted_pairs(plus, order, cols))


def _mirrored(T: np.ndarray) -> bool:
    """Whether T has even size and equals its own reversal T[::-1, ::-1] exactly (centrosymmetric)."""
    return len(T) % 2 == 0 and np.array_equal(T, T[::-1, ::-1])


def _mirror_halves(T: np.ndarray):
    """The even and odd blocks T[:h, :h] +- T[:h, h:] J of a centrosymmetric T, h = len(T) / 2."""
    h = len(T) // 2
    flip = T[:h, h:][:, ::-1]
    return T[:h, :h] + flip, T[:h, :h] - flip


def _mirror_join(even: np.ndarray, odd: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """[[Y+, Y-], [J Y+, -J Y-]] in ``out`` or a new array: columns (y, J y) of ``even``, (y, -J y) of ``odd``."""
    h = len(even)
    out = np.empty((2 * h, 2 * h), np.result_type(even, odd)) if out is None else out
    out[:h, :h], out[:h, h:], out[h:, :h] = even, odd, even[::-1]
    np.negative(odd[::-1], out=out[h:, h:])
    return out


def _xp_spectrum(q: QuadraticForm, vectors: bool) -> Spectrum:
    """Spectrum of M = `excitation_matrix` (q) from the x/p blocks of a form with a zero cross block.

    In (x, p) block order M = [[0, -i Qp], [i Qx, 0]], so M (x, p) = E (x, p)
    holds exactly when Qp Qx x = E^2 x and p = i Qx x / E: each eigenpair
    (mu, x) of the real, half-dimensional Qp Qx gives the eigenvalues
    E = +-sqrt(mu), sorted by `_half_size`.  Where Qx and Qp are both
    centrosymmetric (`_mirrored`), Qp Qx is solved as its two mirror halves
    Qp+- Qx+- (module docstring) and x is joined from their eigenvectors
    (`_mirror_join`).  The route's own guard sends a point whose smallest
    |E| is at or below ``XP_MIN_EIGENVALUE`` * max|Q| to `eigendecompose`
    instead; M is built only for that dense solve.  The 2N base columns
    (x, y), normalised together, are checked as they are: the residual check
    reads M's diagonals off Q (`excitation_bands`), and M couples x only to
    p, so each -E column (x, -y) is the Sigma-flip of its +E partner (x, y),
    with a residual equal bit for bit.  `_sorted_pairs` writes both into
    their sorted places.
    """
    Qx, Qp = q.Q[0::2, 0::2], q.Q[1::2, 1::2]
    source = f"xp[symplectic,{q.bc.value},n={q.n_cells}]"
    split = _mirrored(Qx) and _mirrored(Qp)
    if split:
        blocks = list(zip(_mirror_halves(Qx), _mirror_halves(Qp)))
        source += f" (mirror halves: 2 x {len(Qx) // 2})"
    else:
        blocks = [(Qx, Qp)]
    solved = [_square_eig(P @ T, vectors) for T, P in blocks]
    mu = np.concatenate([m for m, _ in solved])
    root = np.sqrt(mu.astype(complex))
    small = ~(np.abs(root) > XP_MIN_EIGENVALUE * np.abs(q.Q).max())
    if small.any():
        del solved  # not used by the dense solve
        count = f", {small.sum()} values" if small.sum() > 1 else ""
        spec = eigendecompose(excitation_matrix(q), vectors)
        return replace(spec, source=f"{spec.source} (x/p guard: min|E| {np.abs(root).min():.2e}"
                                    f" <= {XP_MIN_EIGENVALUE:g} max|Q|{count})")
    vals, order = _half_size(root)
    if not vectors:
        return Spectrum(eigenvalues=vals, eigenvectors=None, source=source)
    plus = np.zeros((q.dim, len(root)), dtype=complex)  # site a at x row 2a and p row 2a + 1
    # real x rows are normalised as reals: a complex division rounds differently
    X, Y = plus[0::2] if np.result_type(*(V for _, V in solved)).kind == "c" else plus[0::2].real, plus[1::2]
    if split:
        _mirror_join(*(V for _, V in solved), out=X)
        _mirror_join(*(T @ V for (T, _), (_, V) in zip(blocks, solved)), out=Y)
    else:
        X[:] = solved[0][1]
        Y[:] = Qx @ solved[0][1]
    del solved
    Y *= 1j / root
    norm = np.sqrt((np.abs(X) ** 2).sum(axis=0) + (np.abs(Y) ** 2).sum(axis=0))
    X /= norm
    Y /= norm
    _check_residual(excitation_bands(q), plus, root)
    return Spectrum(eigenvalues=vals, eigenvectors=_sorted_pairs(plus, order, np.arange(len(root))),
                    source=source)


def _bloch_spectrum(p: Union[BKCParams, ModBKCParams], vectors: bool) -> Spectrum:
    """Spectrum of a uniform ring from its N Bloch blocks, checked on the ring's M.

    Each eigenpair (E, u) of the block at k = 2 pi m / N gives the ring
    eigenpair (E, v), v[(j, a)] = w^(j m) u_a / sqrt(N), with w = exp(2 pi i / N)
    (see `bloch_matrix`).  The plane waves are written straight into the
    ring's eigenvector array, in the order `_sorted` gives.  The check reads
    M's diagonals off the ring's Q (`excitation_bands`) and never forms M.
    Without ``vectors`` only the block eigenvalues are solved, and the ring's
    Q is not built.
    """
    n = p.N
    source = f"bloch[symplectic,{BoundaryCondition.PBC.value},n={n}]"
    if vectors:
        build = build_bkc_quadratic if isinstance(p, BKCParams) else build_modbkc_quadratic
        bands = excitation_bands(build(p, BoundaryCondition.PBC))
    m = np.arange(n)
    B = bloch_matrix(p, 2 * np.pi * m / n)
    s = B.shape[-1]
    try:
        if not vectors:
            return _sorted(np.linalg.eigvals(B).ravel(), None, source)
        vecs = np.empty((n * s, n * s), dtype=complex)
        E, U = np.linalg.eig(B)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"Bloch eigensolver failed, n={n}: {err}") from err
    vals = E.ravel()
    order = np.lexsort((vals.imag, vals.real))
    mk, band = np.divmod(order, s)
    wave = np.exp(2j * np.pi * m / n) / np.sqrt(n)   # w^t / sqrt(N), t = j m mod N
    np.multiply(wave[np.outer(m, mk) % n][:, None, :], U[mk, :, band].T,
                out=vecs.reshape(n, s, n * s))
    spec = Spectrum(eigenvalues=vals[order], eigenvectors=vecs, source=source)
    _check_residual(bands, vecs, spec.eigenvalues)
    return spec


def solve(p: Union[BKCParams, ModBKCParams, SiteFields], bc: BoundaryCondition,
          vectors: bool = True) -> Spectrum:
    """Spectrum of the chain ``p`` under ``bc``; the route is chosen as in the module docstring.

    With ``vectors=False`` the same route returns the eigenvalues alone
    (``eigenvectors`` is None, ``source`` has the same route prefix): it
    computes, lifts and residual-checks no eigenvector, and builds M only
    where M itself is solved.  Use it wherever only eigenvalues are read.
    """
    if reduced_route(p, bc):
        return modbkc_spectrum_zero_omega(p, bc, with_vectors=vectors)
    if bc is BoundaryCondition.PBC and not isinstance(p, SiteFields):
        return _bloch_spectrum(p, vectors)
    single_band = isinstance(p, BKCParams)
    if single_band and p.omega == 0:  # open: the ring took the Bloch route
        return _hatano_nelson_spectrum(p, vectors)
    q = build_bkc_quadratic(p, bc) if single_band else build_modbkc_quadratic(p, bc)
    if np.any(q.Q[0::2, 1::2]):
        return eigendecompose(excitation_matrix(q), vectors)
    return _xp_spectrum(q, vectors)


def bkc_pbc_dispersion(p: BKCParams, k: float):
    """Analytic periodic-chain branches 2 J0 sin(k) +- sqrt(omega^2 - 4 Delta0^2 cos(k)^2)."""
    root = cmath.sqrt(p.omega ** 2 - 4 * p.Delta0 ** 2 * np.cos(k) ** 2)
    base = 2 * p.J0 * np.sin(k)
    return base + root, base - root


def spectrum_distance(a: Spectrum, b: Spectrum) -> float:
    """Symmetric Hausdorff distance between two eigenvalue sets."""
    ea, eb = np.asarray(a.eigenvalues), np.asarray(b.eigenvalues)
    if len(ea) == 0 or len(eb) == 0:
        raise ValueError("spectrum_distance requires non-empty spectra")
    d = np.abs(ea[:, None] - eb[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def zero_gap(s: Spectrum) -> float:
    """Smallest eigenvalue modulus, min_m |E_m|."""
    if len(s) == 0:
        raise ValueError("zero_gap requires a non-empty spectrum")
    return float(np.abs(s.eigenvalues).min())
