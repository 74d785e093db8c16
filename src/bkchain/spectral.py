"""Excitation spectra through one front door, `solve(p, bc)`.

`p` is a `BKCParams`, a `ModBKCParams` or a `SiteFields`; `solve` is the only
code that picks a solve route:

* **Hatano-Nelson gauge** (single-band chain, OBC, omega = 0).  The open
  chain is exponentially non-normal (gauge condition numbers up to 1e60),
  so a dense solver returns pseudospectra.  The gauge maps M onto
  c sigma_z (x) (S + S^T), a uniform open chain per channel (Hatano &
  Nelson, PRL 77, 570 (1996)): `_hatano_nelson_spectrum` writes its
  eigenvalues and standing waves in closed form.  At Delta0 = +-J0, M is
  nilpotent and every eigenvalue exactly 0; there is no gauge
  (`SingularTransformError`), so no eigenvectors, and ``source`` says so.
  Only J0 = Delta0 = 0, where M = 0, keeps the identity gauge and its vectors.
* **SSH reduction** (two-sublattice chain, OBC, every onsite omega = 0).  The
  combined gauge maps M onto i sigma_x (x) H_ssh, two decoupled copies of an
  SSH chain, so `modbkc_spectrum_zero_omega` solves the 2N-dimensional H_ssh
  and lifts the product basis (sigma_x eigenvector) (x) (SSH eigenvector);
  every eigenvalue is exactly twofold degenerate.  H_ssh is tridiagonal with
  real or imaginary bonds; where all are imaginary, H_ssh = i T and the real
  T is solved in its place, its eigenvalues times i.  A diagonal S of exact
  phases +-1, +-i maps the bonds onto a real H_r with eigenvectors S U_r.
  H_r is bipartite with a zero diagonal, [[0, D], [F, 0]] in sublattice
  order, so its spectrum is E = +-sqrt(mu) over the N eigenvalues mu of the
  real D F.  Three kernels find them.  On a single-phase chain F = D^T is
  upper bidiagonal and E are its singular values, each to high relative
  accuracy however small (Demmel & Kahan, SIAM J. Sci. Stat. Comput. 11,
  873 (1990)).  On a uniform sign-mixed chain (real and imaginary bonds,
  every intracell bond equal, every intercell bond equal), D F is
  tridiagonal Toeplitz but for its first row, and `_quantised_mu` solves its
  open-boundary quantisation condition by Newton's method, O(N) per step,
  and checks the roots.  Every other sign-mixed chain, and a uniform one
  whose roots fail a check, takes `eigvals` of the dense D F
  (`_square_eig`).  `_twisted` gives the eigenvector of H_r at each root as
  log-moduli and phases, real on a single-phase chain, accurate entry by
  entry, as the gauge lift of a localized state needs.

  In the topological phase H_r has one value with |E| <=
  ``REDUCED_MIN_EIGENVALUE`` * max|H_r|, its edge pair, exponentially close
  to 0: a dense solve or a root of mu returns noise for E, and a dense
  solve or `_twisted` mixes the two vectors.  `_edge_pair` deflates the pair in O(N): E on sign-mixed
  chains from the determinant identity det(D F) = prod(mu), vectors from
  the sublattice zero-mode recursions, or, near a transition where those
  are too inexact, from `_twisted`.  A chain with more than one small
  value (weakly coupled pieces, an edge pair each) takes the full-size
  solve of H_r instead: `eigh` for the vectors of a single-phase chain,
  whose singular values stay, else the real `eig`.  So does a chain with
  an exactly zero bond (Delta = +-J), where a value is small or vectors
  are solved: the recursions and `_twisted` divide by every bond.
  ``Spectrum.source`` names the deflation or the fallback.  M anticommutes
  with Sigma = diag(+1, -1) over (x, p) and with Gamma = diag(+1, -1) over
  the sublattices (Asboth, Oroszlany & Palyi, LNP 919 (2016), ch. 1): with
  v the lifted column for +i root, Gamma v and Sigma v belong to -i root
  and Sigma Gamma v to +i root.  So only the N columns v, the SSH
  eigenvector at both quadratures of each site, are lifted from their
  log-moduli (``SimilarityMatrix.lift_polar``, which exponentiates each
  entry once, with the gauge's), checked and kept as ``Spectrum.base``.
  The fallback's -E vectors are no Gamma-flips, so it keeps 2N columns,
  each with its Sigma-flip.  At Delta = +-J != 0 on some bond the
  eigenvalues stay exact but no eigenvectors are computed.
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
  read off Q's diagonals exactly (`_mirrored`).  With J the reversal of N
  sites, such a T of 2N sites maps the even vectors (y, J y) and the odd
  ones (y, -J y) into themselves, through the N x N blocks
  T+- = T[:N, :N] +- T[:N, N:] J (Cantoni & Butler, Linear Algebra
  Appl. 13, 275 (1976)).  So Qp Qx is
  solved as Qp+ Qx+ and Qp- Qx-, two N x N problems in place of one
  2N x 2N, and x is (y, +-J y) from their eigenvectors y;
  ``Spectrum.source`` adds " (mirror halves: 2 x N)".  Squaring loses about
  sqrt(eps) of accuracy near E = 0, so a point with min|E| <=
  ``XP_MIN_EIGENVALUE`` * max|Q|, judged on the values of both halves
  together, is solved densely instead, and its ``Spectrum.source`` names
  the guard and the smallest |E|.
* **Dense** `eigendecompose` of the real K of
  ``excitation_matrix(build_*_quadratic(p, bc))`` for everything else: the
  open single-band chain off the gauge route (its cross block is nonzero)
  and the points the x/p guard turns away.  M = i K, so E = i eig(K) in
  real arithmetic: K's complex eigenvalues come in exact conjugate pairs,
  so each E pairs with -conj(E) bit for bit.

Every route checks its eigenvectors by `_check_residual`: each eigenpair's
residual |K v + i E v| = |M v - E v| must be at most ``RESIDUAL_FACTOR`` *
max|K| * dim.  The check runs on K's real nonzero diagonals: the dense
route reads them off the K it solves (`_bands`), every other route maps
them from Q's diagonals (`excitation_bands`), and none forms the dense Q or
the complex M of its chain.  On the SSH reduction and x/p routes M couples x
only to p, so it anticommutes with Sigma, and each -E eigenvector is the
exact Sigma-flip of its +E partner.  Their residuals are equal bit for bit,
as are those of Gamma-flips, so the x/p route checks its 2N +E columns and
the reduction its N lifted ones.  A failure raises `SolverError`, except in
`_checked`, the two gauge routes' tail: their eigenvalues are exact, so
they are returned alone, and ``Spectrum.source`` names the failure.

**Eigenvalues only.**  ``solve(p, bc, vectors=False)`` takes the same route,
with the same ``source`` prefix, but computes no eigenvector, lifts nothing
and builds no K that it does not solve.  These spectra get no residual
check, and no ``base`` or ``order``: there is nothing to check or place.
Per route:

* Hatano-Nelson gauge: the same closed form, with no gauge, standing wave
  or Q, at Delta0 = +-J0 too.
* SSH reduction: the same kernel for mu (singular values of F on every
  single-phase chain, `_quantised_mu` or `eigvals` of D F on a sign-mixed
  one), roots, deflation and guard, without `_twisted`; the sign-mixed
  fallback takes `eigvals` of H_r.  Both paths write the same ``source``
  and, off that fallback, the same eigenvalues bit for bit, but on a chain
  cut by a bond with J = Delta = 0, where only a vector solve takes the
  fallback.  A singular gauge, which has no vectors either way, is solved
  the same way.
* Bloch: one batched `eigvals` of the N blocks; neither the ring's Q nor M is
  built.
* x/p: `eigvals` of Qp Qx, or of its two mirror halves where Qx and Qp are
  centrosymmetric; a guarded point takes the dense `eigvals` of K.

Every route sorts by `_order`, with no -0.0 part (a CSV's "-0").  No route
writes its columns in sorted order.  Each keeps them in its own layout as
``Spectrum.base``: every column on the dense, Bloch and Hatano-Nelson
routes, the base columns on the half-size ones.  The sort's permutation,
``Spectrum.order``, places each column and each of its flips; only a read
of ``Spectrum.eigenvectors`` gathers every column.  Each route owns its
small-|E| guard: `_edge_pair` on the reduced route, one test in
`_xp_spectrum` on the x/p route.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from functools import cached_property
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

__all__ = [
    "SolverError",
    "Spectrum",
    "solve",
    "eigendecompose",
    "modbkc_spectrum_zero_omega",
    "reduced_route",
    "bkc_pbc_dispersion",
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
# Acceptance of `_quantised_mu`'s roots: at most _QUANTISED_STEPS Newton steps
# until every step of z = exp(i theta) is at most _QUANTISED_STEP |z|; any two
# values 2 cos theta at least _QUANTISED_SEPARATION apart; and sum(mu) within
# _QUANTISED_TRACE N eps max|mu| of the trace.  On the 159 sign-mixed fig2,
# fig4, fig5 and fig7 open chains (N = 100) accepted roots took at most 7 steps,
# lay at least 2.9e-3 apart and met the trace to 1.7 N eps max|mu|.  Near
# |kappa| = 1 the first starts lie far from their roots: on 4 of those chains
# (1 < |kappa| < 1.04) Newton needs more steps, and D F is solved densely.
_QUANTISED_STEPS = 8
_QUANTISED_STEP = 1e-13
_QUANTISED_SEPARATION = 1e-8
_QUANTISED_TRACE = 16
# Columns per block of `_residuals`: its temporaries are a few (dim, 64) arrays.
_RESIDUAL_BLOCK = 64


class SolverError(RuntimeError):
    """Eigensolver failure, carrying a description of the offending matrix."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues, sorted by (real part, imaginary part), and their checked unit-norm eigenvectors.

    ``base`` holds the checked base columns in the route's own layout: every
    column (dense, Bloch, Hatano-Nelson), N of 4N (reduced route) or 2N of
    4N (x/p, and the reduced route's fallback).  `_order` sorted the route's
    values laid out [Sigma][Gamma][column], its columns and their flips:
    sorted place i holds layout entry ``order[i]``, which is base column
    ``order[i] % C`` (C = ``base.shape[1]``) flipped by Sigma^s Gamma^g, with
    ``order[i] // C`` = 2 s + g for 4C values, s for 2C and 0 for C.
    ``eigenvectors``, every column in sorted order, is gathered on first
    read.  ``base`` and ``order`` are None without ``vectors`` and where a
    gauge route has eigenvalues only (singular gauge, failed check);
    ``source`` says why.
    """

    eigenvalues: np.ndarray
    base: Optional[np.ndarray] = None
    source: str = field(default="", compare=False)
    order: Optional[np.ndarray] = field(default=None, compare=False)

    def __len__(self) -> int:
        return len(self.eigenvalues)

    @cached_property
    def eigenvectors(self) -> Optional[np.ndarray]:
        """Every column in sorted order, in the memory layout of ``base``: one gather, then the flips."""
        if self.base is None:
            return None
        C = self.base.shape[1]
        sigma, gamma = np.divmod(self.order // C, max(len(self) // C // 2, 1))  # gamma = 0 below 4 C values
        rows = np.arange(len(self.base))[:, None]
        V = self.base[:, self.order % C].copy(order="F" if self.base.flags.f_contiguous else "C")
        # Sigma negates the p rows 2a + 1, Gamma the rows 4j + 2, 4j + 3 of the B sites 2j + 1
        return np.negative(V, out=V, where=(sigma & rows) ^ (gamma & rows // 2) == 1)


def _order(vals: np.ndarray):
    """The sort of every route: ``(sorted, order)``, ``sorted = vals[order]`` by (Re, Im).

    Adding 0.0 turns every -0.0 part, which a CSV writes as "-0", into 0.
    """
    vals = vals + 0.0
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], order


def _bands(A: np.ndarray) -> list:
    """Nonzero diagonals of a dense matrix as (offset, values) pairs, in the format of `excitation_bands`."""
    n = A.shape[0]
    flat = np.flatnonzero(A != 0)
    return [(d, np.diagonal(A, d)) for d in np.unique(flat % n - flat // n)]


def _residuals(bands: list, vectors: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Column norms of A V - V diag(lambda), with A given by its nonzero diagonals.

    ``bands`` holds (offset d, values) pairs by ascending d, values laid out
    as ``np.diagonal(A, d)``: four for an open chain of either model, eight
    for a two-sublattice ring with its wrap corners, 2n - 1 for a dense A.
    A V is accumulated over them ``_RESIDUAL_BLOCK`` columns at a time, in
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
    """Raise `SolverError` unless each |K v + i E v| is at most ``RESIDUAL_FACTOR`` max|K| dim; ``bands`` are K's."""
    bound = RESIDUAL_FACTOR * max((np.abs(m).max() for _, m in bands), default=0.0) * len(vectors)
    worst = _residuals(bands, vectors, -1j * eigenvalues).max()
    if not worst <= bound:
        raise SolverError(f"eigenpair residual {worst:.3e} exceeds bound {bound:.3e}")


def eigendecompose(M: ExcitationMatrix, vectors: bool = True) -> Spectrum:
    """Full spectrum from the dense solver, with right eigenvectors unless ``vectors`` is False.

    Solves the real K of M = i K and writes E = i eig(K), each E paired
    with -conj(E) bit for bit; the check runs on K's diagonals.
    """
    K = M.K
    if not np.all(np.isfinite(K)):
        raise SolverError(f"matrix contains non-finite entries ({M.source}, bc={M.bc})")
    try:
        lam, vecs = np.linalg.eig(K) if vectors else (np.linalg.eigvals(K), None)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"eigensolver failed for {M.source} matrix, dim={M.dim}, bc={M.bc}: {err}") from err
    vals, order = _order(1j * lam)
    source = f"eig[{M.source},{M.bc.value},n={M.n_cells}]"
    if not vectors:
        return Spectrum(eigenvalues=vals, source=source)
    vecs = np.asfortranarray(vecs)  # `spatial_profile`'s column sums depend on the layout
    _check_residual(_bands(K), vecs, 1j * lam)
    return Spectrum(eigenvalues=vals, base=vecs, source=source, order=order)


def _hatano_nelson_spectrum(p: BKCParams, vectors: bool) -> Spectrum:
    """Closed-form spectrum of the open single-band chain at omega = 0 (module docstring).

    The x channel has E_m = 2 c sin(pi (N + 1 - 2 m) / (2 N + 2)), which is
    2 c cos(pi m / (N + 1)), m = 1..N; the p channel has -E_m.  The odd sine
    argument makes the set its own negative bit for bit; at Delta0 = +-J0,
    c = 0 and every E is exactly 0.  Only ``vectors`` builds the gauge, and
    where it is singular the eigenvalues come alone.  Both channels share
    the standing waves sqrt(2 / (N + 1)) sin(pi m (j + 1) / (N + 1)).  Each
    column lives on one channel, so each channel's N x N block is lifted
    through that channel's rows of the gauge and written into that channel's
    N columns, x then p, the layout of the values [E, -E]; the other
    channel's rows stay zero.
    """
    from .transform import SingularTransformError, hatano_nelson_A, hatano_nelson_coupling
    n = p.N
    source = f"similarity[symplectic,{BoundaryCondition.OBC.value},n={n}]"
    m = np.arange(1, n + 1)
    E = 2 * hatano_nelson_coupling(p) * np.sin(np.pi * (n + 1 - 2 * m) / (2 * n + 2))
    e = np.concatenate([E, -E])  # [x, p channel][column]
    vals, order = _order(e)
    if not vectors:
        return Spectrum(eigenvalues=vals, source=source)
    try:
        A = hatano_nelson_A(p)
    except SingularTransformError as err:  # Delta0 = +-J0: no gauge, eigenvalues only
        return Spectrum(eigenvalues=vals, source=f"{source} (no vectors: {err})")
    U = np.sqrt(2 / (n + 1)) * np.sin(np.pi * (np.outer(m, m) % (2 * n + 2)) / (n + 1))  # row j, column m - 1
    # each column lives on one channel: lift that channel's rows only, F-ordered as `lift` writes them
    vecs = np.zeros((2 * n, 2 * n), dtype=complex, order="F")
    for rows, cols in ((slice(0, None, 2), slice(None, n)), (slice(1, None, 2), slice(n, None))):
        vecs[rows, cols] = replace(A, log_scale=A.log_scale[rows], phase=A.phase[rows]).lift(U)
    return _checked(vals, order, source, build_bkc_quadratic(p, BoundaryCondition.OBC), vecs, e)


def _checked(vals: np.ndarray, order: np.ndarray, source: str, q: QuadraticForm, columns: np.ndarray,
             e: np.ndarray) -> Spectrum:
    """The gauge routes' tail: the exact ``vals``, with the base ``columns`` and ``order`` where these pass the check.

    ``columns`` belong to the eigenvalues ``e`` and are checked on K's diagonals
    from ``q``'s (`excitation_bands`); where they fail, ``source`` says why.
    ``order`` sorted the route's values, ``e`` and their flips, into ``vals``.
    """
    try:
        _check_residual(excitation_bands(q), columns, e)
    except SolverError as err:
        return Spectrum(eigenvalues=vals, source=f"{source} (no vectors: {err})")
    return Spectrum(eigenvalues=vals, base=columns, source=source, order=order)


def reduced_route(p: Union[BKCParams, ModBKCParams, SiteFields], bc: BoundaryCondition) -> bool:
    """Whether `solve` takes the SSH reduction: the open two-sublattice chain at every omega = 0.

    Its spectrum holds two exact copies of the reduced SSH spectrum, so each
    edge mode appears twice.
    """
    if isinstance(p, BKCParams) or bc is not BoundaryCondition.OBC:
        return False
    return bool(p.omega == 0 if isinstance(p, ModBKCParams) else not (p.omega_A.any() or p.omega_B.any()))


class _SmallEigenvalue(Exception):
    """A half-size solve met an eigenvalue too close to zero to take from its square."""


def _square_eig(P: np.ndarray, vectors: bool):
    """Eigenvalues mu of the real matrix P, with its eigenvectors (else None) when ``vectors``."""
    try:
        return np.linalg.eig(P) if vectors else (np.linalg.eigvals(P), None)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"half-size eigensolver failed, dim={len(P)}: {err}") from err


def _quantised_starts(n: int, edge: bool) -> np.ndarray:
    """Newton's starts for the N (N - 1 with an ``edge`` root) bulk roots theta of `_quantised_mu`."""
    return np.pi / (n + 1 - edge) * np.arange(1, n + 1 - edge)


def _quantised_mu(mag: np.ndarray, lower: np.ndarray) -> Optional[np.ndarray]:
    """The N eigenvalues mu of D F of a uniform sign-mixed H_r, from the open-boundary quantisation condition.

    H_r = diag(mag, 1) + diag(lower, -1) is uniform when every intracell bond
    (even index) equals the first and every intercell bond (odd index) the
    second.  It is sign-mixed here: lower[0] and lower[1] have opposite signs
    sigma_1, sigma_2.  With a = mag[0], c = mag[1], D F is tridiagonal
    Toeplitz but for its first row: diagonal alpha = sigma_1 a^2 + sigma_2 c^2,
    alpha + delta in row 0 (delta = -sigma_2 c^2), a c above and -a c below.
    A diagonal similarity with entries of modulus 1 maps it onto
    alpha + s (S_0 + kappa e_0 e_0^T), S_0 = tridiag(1, 0, 1), s = i a c and
    kappa = delta / s, imaginary, |kappa| = c / a.  So
    mu = alpha + 2 s cos theta, with sin((N + 1) theta) = kappa sin(N theta)
    (Yueh, Appl. Math. E-Notes 5, 66 (2005); Kunst, Edvardsson, Budich &
    Bergholtz, PRL 121, 026808 (2018)).

    Newton's method solves all roots at once, from theta = m pi / (N + 1),
    m = 1..N, where |kappa| < 1, and from m pi / N, m = 1..N - 1, where
    |kappa| > 1; there the edge root is solved as z = exp(i theta), |z| > 1,
    from z = kappa, on z - kappa = z^-2N (1 / z - kappa), which cannot
    overflow.  The roots are accepted when every Newton step is small (see
    ``_QUANTISED_STEPS``), no two values of 2 cos theta coincide (two starts
    reached one root), and sum(mu) equals the trace N alpha + delta of D F to
    rounding (no start reached the spurious roots theta = 0, pi, or another
    wrong one).  Returns None on a single-phase or non-uniform chain, on a zero
    bond, at |kappa| = 1 or where a check fails: D F is then solved densely.
    """
    n = (len(mag) + 1) // 2
    if n < 2 or not all(np.all(v[k::2] == v[k]) for v in (mag, lower) for k in (0, 1)):
        return None
    a, c = mag[0], mag[1]
    if not (a > 0 and c > 0) or a == c or lower[0] * lower[1] > 0:
        return None
    alpha, delta, s = lower[0] * a + lower[1] * c, -lower[1] * c, 1j * a * c
    kappa = delta / s
    edge = c > a
    theta = _quantised_starts(n, edge).astype(complex)
    z = kappa
    with np.errstate(all="ignore"):  # a step that overflows or divides by zero fails the test below
        for _ in range(_QUANTISED_STEPS):
            step = ((np.sin((n + 1) * theta) - kappa * np.sin(n * theta))
                    / ((n + 1) * np.cos((n + 1) * theta) - n * kappa * np.cos(n * theta)))
            theta -= step
            worst = np.abs(step).max()  # the step of theta is the relative step of exp(i theta)
            if edge:
                w = 1 / z
                w2n = w ** (2 * n)
                dz = (z - kappa - w2n * (w - kappa)) / (1 + w2n * w * ((2 * n + 1) * w - 2 * n * kappa))
                z -= dz
                worst = max(worst, abs(dz / z))
            if worst <= _QUANTISED_STEP:
                break
        else:
            return None
        lam = 2 * np.cos(theta)
        if edge:
            lam = np.append(lam, z + 1 / z)
        gap = np.abs(lam[:, None] - lam)
        np.fill_diagonal(gap, np.inf)
        mu = alpha + s * lam
        trace_error = abs(mu.sum() - (n * alpha + delta))
        if gap.min() >= _QUANTISED_SEPARATION and (
                trace_error <= _QUANTISED_TRACE * n * np.finfo(float).eps * np.abs(mu).max()):
            return mu
    return None


class _EdgePair(NamedTuple):
    m: int                  # index of the pair's value in mu
    E: complex              # its root, from the determinant identity; used on sign-mixed chains
    error: float            # backward error of the closed-form vectors, relative to max|H_r|
    u: Optional[tuple]      # eigenvector of H_r for +E as (log|u|, u / |u|); None where error > EDGE_PAIR_MAX_ERROR


def _edge_pair(mag: np.ndarray, lower: np.ndarray, mu: np.ndarray, vectors: bool) -> Optional[_EdgePair]:
    """The near-zero eigenpair of H_r = diag(mag, 1) + diag(lower, -1), in closed form.

    ``mu`` holds the N values E^2 of H_r (the eigenvalues of D F, or on a
    single-phase chain the squared singular values of F = D^T).  Returns None where every |E| lies
    above the half-size guard (``REDUCED_MIN_EIGENVALUE`` max|H_r|).  Where exactly one lies at or
    below it, returns an `_EdgePair`: mu[m] is that value, E its root, u the
    eigenvector of H_r for +E as (log|u|, u / |u|), the form of `_twisted`'s
    columns (for -E negate its B entries), and ``error`` the backward error
    of u; u is None where that error exceeds ``EDGE_PAIR_MAX_ERROR``.
    Raises `_SmallEigenvalue` where more values are small, or where a bond
    is zero and a value is small or ``vectors`` are to be solved.

    H_r is bipartite with a zero diagonal; site 2j is A_j and 2j+1 is B_j.
    Its A-sublattice zero mode a solves every B row but the last,
    lower[2j] a_j + mag[2j+1] a_{j+1} = 0, and its B mode b every A row but
    the first, lower[2j-1] b_{j-1} + mag[2j] b_j = 0, run from the right
    end (the transfer recursion of Kunst, Edvardsson, Budich & Bergholtz,
    PRL 121, 026808 (2018); Asboth, Oroszlany & Palyi, LNP 919 (2016),
    ch. 1).  Both are kept as cumulative sums of log ratios and cumulative
    sign products, so nothing overflows, and are handed to the lift so.

    * E: det(D F) = prod_j mag[2j] lower[2j] is the product of all N values
      of mu, so mu[m] is that determinant over the other N - 1.  They lie
      above the guard, so their rounding, and hence E's, stays relative.
      Single-phase chains take E from the singular values, but k needs log E.
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
    if small.sum() > 1:
        raise _SmallEigenvalue(
            f"min|E| {size.min():.2e} <= {REDUCED_MIN_EIGENVALUE:g} max|H_r|, {small.sum()} values")
    if not mag.all() and (small.any() or vectors):  # the recursions and `_twisted` divide by every bond
        raise _SmallEigenvalue(f"min|E| {size.min():.2e} on a chain cut by a zero bond")
    if not small.any():
        return None
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
    phase = np.empty(2 * len(la), dtype=np.result_type(phase_k, float))  # real on all-real chains
    phase[0::2], phase[1::2] = sa, phase_k * sb
    return _EdgePair(m, E, error, (log_u, phase))


def _twisted(mag: np.ndarray, lower: np.ndarray, E: np.ndarray):
    """Eigenvectors z of H_r = diag(mag, 1) + diag(lower, -1), one column per eigenvalue in E, as (log|z|, z / |z|).

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
    M.  The ratios are accumulated, and returned, as log-moduli and unit
    phases, which `SimilarityMatrix.lift_polar` lifts; a real E (every bond
    real) runs in real arithmetic, with phases +-1.  All columns are solved
    at once, one row at a time.
    """
    n = len(mag) + 1
    bond = mag * lower
    # W[i] stacks P_i and Q_{n-1-i}: both recurrences advance in one step per row
    W = np.empty((n, 2, len(E)), dtype=E.dtype)
    rows, steps = list(W), list(np.stack([bond, bond[::-1]], axis=1)[:, :, None])
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
                    rows[i - 1][rows[i - 1] == 0] = pivmin
                np.divide(steps[i - 1], rows[i - 1], out=rows[i])
                np.subtract(minus_E, rows[i], out=rows[i])
            if W.all():
                break
        P, Q = W[:, 0], W[::-1, 1]
        twist = np.argmin(np.abs(P + Q + E), axis=0)
        above = np.arange(n - 1)[:, None] < twist
        ratio = -lower[:, None] / Q[1:]
        if E.dtype.kind == "c":  # each side only where it is used: a masked complex division costs less
            np.negative(P[:-1], out=ratio, where=above)
            np.divide(ratio, mag[:, None], out=ratio, where=above)
        else:  # a masked real division costs more than both sides in full
            ratio = np.where(above, -P[:-1] / mag[:, None], ratio)
        del W, P, Q, rows
        size = np.abs(ratio)
        log_z = np.zeros((n, len(E)))
        np.cumsum(np.log(size), axis=0, out=log_z[1:])
        ratio /= size
    phase = np.ones((n, len(E)), dtype=E.dtype)
    np.cumprod(ratio, axis=0, out=phase[1:])
    return log_z, phase


def modbkc_spectrum_zero_omega(p: Union[ModBKCParams, SiteFields],
                               bc: BoundaryCondition = BoundaryCondition.OBC,
                               with_vectors: bool = True) -> Spectrum:
    """Exact omega=0 spectrum of the open two-sublattice chain via the SSH reduction (module docstring).

    Eigenvalues are +-i E_m over the reduced SSH spectrum {E_m}, in real
    arithmetic, from the module docstring's kernels: the singular values of F
    on a single-phase chain (an all-imaginary one solved as T = H_ssh / i,
    its E_m times i), else the roots of `_quantised_mu` or `eigvals` of D F.
    A lone |E| <= ``REDUCED_MIN_EIGENVALUE`` * max|H_r|, the edge pair, is
    deflated (`_edge_pair`); more such values, or a zero bond (with a small
    value or vectors), send H_r to the full-size solve.  A LAPACK failure on any kernel raises `SolverError`.
    ``Spectrum.source`` names the deflation or the fallback and its reason.
    Eigenvectors are lifted through the combined gauge from log-moduli: N
    unit columns v for +i root, F-ordered, kept as ``Spectrum.base``;
    ``Spectrum.order`` places them and Gamma v, Sigma v and Sigma Gamma v.
    The fallback keeps 2N columns and their Sigma-flips.  Where `_checked`
    finds them failing, the eigenvalues are returned alone and ``source``
    names the failure.
    With ``with_vectors=False`` (or at a singular gauge, Delta = +-J != 0) only
    the eigenvalues are computed, along the same path.  A chain that
    `reduced_route` turns away raises ValueError.
    """
    if not reduced_route(p, bc):
        raise ValueError("modbkc_spectrum_zero_omega requires a two-sublattice chain with open boundaries"
                         " and every onsite omega = 0")
    from .transform import SingularTransformError, a_combined, ssh_bonds
    source = f"reduced[modbkc,{bc.value},n={p.N}]"
    f = SiteFields.of(p)  # the bonds, gauge and Q all read it
    # H is tridiagonal with bonds b_k, each real or purely imaginary: with s_{k+1} = s_k |b_k| / b_k,
    # a power of i, S^-1 H S is the real H_r with |b_k| above and b_k^2 / |b_k| below the diagonal.
    b = ssh_bonds(f)  # M's eigenvalues are i E over H's E; where every b_k is imaginary, H = i T: solve the real T
    b, turn = (b.imag, 1j * 1j) if not b.real.any() else (b, 1j)
    mag = np.abs(b)
    lower = np.where(b.imag != 0, -mag, mag)
    A = None
    if with_vectors:
        try:
            A = a_combined(f)
        except SingularTransformError as err:  # Delta = +-J somewhere: no gauge, eigenvalues only
            source += f" (no vectors: {err})"
    vectors = A is not None
    mixed = b.imag.any()
    F = np.diag(lower[0::2]) + np.diag(mag[1::2], 1)  # H_r = [[0, D], [F, 0]] in sublattice order
    if mixed:  # E^2 = the eigenvalues mu of D F: on a uniform chain from its quantisation condition
        mu = _quantised_mu(mag, lower)
        if mu is None:
            mu, _ = _square_eig((np.diag(mag[0::2]) + np.diag(lower[1::2], -1)) @ F, False)
        root = np.sqrt(mu.astype(complex))
    else:  # F = D^T is upper bidiagonal: E = its singular values, ascending, each to high relative accuracy
        try:
            s = np.linalg.svd(F, compute_uv=False)[::-1]
        except np.linalg.LinAlgError as err:
            raise SolverError(f"half-size singular value solve failed, dim={len(F)}: {err}") from err
        root, mu = s.astype(complex), s * s
    try:
        pair = _edge_pair(mag, lower, mu, vectors)
    except _SmallEigenvalue as guard:
        source, pair = f"{source} (half-size guard: {guard})", None
        Hr = np.diag(mag, 1) + np.diag(lower, -1)
        try:
            if mixed:
                E, U = np.linalg.eig(Hr) if vectors else (np.linalg.eigvals(Hr), None)
            else:  # the singular values stay: eigh orders its columns by the same ascending E
                E, U = np.concatenate([-s[::-1], s]), np.linalg.eigh(Hr)[1] if vectors else None
        except np.linalg.LinAlgError as err:
            raise SolverError(f"full-size eigensolver failed, dim={len(Hr)}: {err}") from err
        root, gamma = E, False  # column j belongs to E[j]; -E[j]'s is no Gamma-flip of it
    else:
        if mixed and pair is not None:  # the one value too small to take from its square
            root[pair.m] = pair.E
        U, gamma = None, True
        if vectors:  # eigenvectors (z_A, z_B) of H_r for +root as (log|z|, z / |z|); (z_A, -z_B) belongs to -root
            U = _twisted(mag, lower, root if mixed else root.real)
            if pair is not None and pair.u is not None:
                U[0][:, pair.m], U[1][:, pair.m] = pair.u
    if pair is not None and pair.u is not None:
        source += f" (deflated edge pair, closed form: backward error {pair.error:.1e})"
    elif pair is not None:
        source += (f" (deflated edge pair, solved vectors: closed-form backward error {pair.error:.2e}"
                   f" > {EDGE_PAIR_MAX_ERROR:g})")
    e = turn * root  # M's eigenvalue for each base column; -e for its Sigma- and its Gamma-flip
    vals, order = _order(np.concatenate([e, -e, -e, e] if gamma else [e, -e]))  # [Sigma][Gamma][column]
    if U is None:
        return Spectrum(eigenvalues=vals, source=source)
    # U = S U_r, S in the gauge's phases; |b| / b and S hold +-1, +-i only, so every product is exact;
    # a zero bond couples nothing, and S steps across it by 1
    S = np.concatenate([[1], np.cumprod(np.where(b == 0, 1, np.sign(b.real) - 1j * np.sign(b.imag)))])
    A = replace(A, phase=A.phase * np.repeat(S, 2))
    plus = A.lift(U) if isinstance(U, np.ndarray) else A.lift_polar(*U)
    del U
    # the Sigma- and Gamma-flips of these columns have equal residuals
    return _checked(vals, order, source, build_modbkc_quadratic(f, bc), plus, e)


def _mirrored(q: QuadraticForm, s: int) -> bool:
    """Whether ``q.block(s)`` has even size and equals its own reversal T[::-1, ::-1] exactly.

    A symmetric T is centrosymmetric exactly when each of its upper diagonals
    reads the same reversed, and T's diagonal e is Q's diagonal 2 e at rows
    s, s + 2, ...: an O(N) test that forms no block.
    """
    return q.dim % 4 == 0 and all(np.array_equal(v[s::2], v[s::2][::-1])
                                  for d, v in q.diagonals.items() if d % 2 == 0)


def _mirror_halves(T: np.ndarray):
    """The even and odd blocks T[:h, :h] +- T[:h, h:] J of a centrosymmetric T, h = len(T) / 2."""
    h = len(T) // 2
    flip = T[:h, h:][:, ::-1]
    return T[:h, :h] + flip, T[:h, :h] - flip


def _mirror_join(even: np.ndarray, odd: np.ndarray, out: np.ndarray) -> None:
    """Write [[Y+, Y-], [J Y+, -J Y-]] to ``out``: columns (y, J y) of ``even``, (y, -J y) of ``odd``."""
    h = len(even)
    out[:h, :h], out[:h, h:], out[h:, :h] = even, odd, even[::-1]
    np.negative(odd[::-1], out=out[h:, h:])


def _xp_spectrum(q: QuadraticForm, vectors: bool) -> Spectrum:
    """Spectrum of M = `excitation_matrix` (q) from the x/p blocks of a form with a zero cross block.

    In (x, p) block order M = [[0, -i Qp], [i Qx, 0]], so M (x, p) = E (x, p)
    holds exactly when Qp Qx x = E^2 x and p = i Qx x / E: each eigenpair
    (mu, x) of the real, half-dimensional Qp Qx gives the eigenvalues
    E = +-sqrt(mu), sorted by `_order`.  Where Qx and Qp are both
    centrosymmetric (`_mirrored`), Qp Qx is solved as its two mirror halves
    Qp+- Qx+- (module docstring) and x is joined from their eigenvectors
    (`_mirror_join`).  The route's own guard sends a point whose smallest
    |E| is at or below ``XP_MIN_EIGENVALUE`` * max|Q| to `eigendecompose`
    instead; the dense K is formed only for that solve.  The 2N base
    columns (x, y), normalised together, are checked as they are: the check
    maps K's diagonals from Q's (`excitation_bands`), and M couples x only to
    p, so each -E column (x, -y) is the Sigma-flip of its +E partner (x, y),
    with a residual equal bit for bit.  The base columns are kept, and
    ``Spectrum.order`` places both.
    """
    Qx, Qp = q.block(0), q.block(1)
    source = f"xp[symplectic,{q.bc.value},n={q.n_cells}]"
    split = _mirrored(q, 0) and _mirrored(q, 1)
    if split:
        blocks = list(zip(_mirror_halves(Qx), _mirror_halves(Qp)))
        source += f" (mirror halves: 2 x {len(Qx) // 2})"
    else:
        blocks = [(Qx, Qp)]
    solved = [_square_eig(P @ T, vectors) for T, P in blocks]
    mu = np.concatenate([m for m, _ in solved])
    root = np.sqrt(mu.astype(complex))
    scale = max((np.abs(v).max() for v in q.diagonals.values()), default=0.0)  # max|Q|
    small = ~(np.abs(root) > XP_MIN_EIGENVALUE * scale)
    if small.any():
        del solved  # not used by the dense solve
        count = f", {small.sum()} values" if small.sum() > 1 else ""
        spec = eigendecompose(excitation_matrix(q), vectors)
        return replace(spec, source=f"{spec.source} (x/p guard: min|E| {np.abs(root).min():.2e}"
                                    f" <= {XP_MIN_EIGENVALUE:g} max|Q|{count})")
    vals, order = _order(np.concatenate([root, -root]))  # [Sigma][column]
    if not vectors:
        return Spectrum(eigenvalues=vals, source=source)
    plus = np.zeros((q.dim, len(root)), dtype=complex, order="F")  # site a at x row 2a and p row 2a + 1
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
    square = np.empty(X.shape)  # C-ordered, so its column sums add row by row
    norm = np.sqrt(sum(np.square(np.abs(Z, out=square), out=square).sum(axis=0) for Z in (X, Y)))
    X /= norm
    Y /= norm
    _check_residual(excitation_bands(q), plus, root)
    return Spectrum(eigenvalues=vals, base=plus, source=source, order=order)


def _bloch_spectrum(p: Union[BKCParams, ModBKCParams], vectors: bool) -> Spectrum:
    """Spectrum of a uniform ring from its N Bloch blocks, checked on the ring's M.

    Each eigenpair (E, u) of the block at k = 2 pi m / N gives the ring
    eigenpair (E, v), v[(j, a)] = w^(j m) u_a / sqrt(N), with w = exp(2 pi i / N)
    (see `bloch_matrix`).  The plane waves are written straight into the
    ring's eigenvector array, one column per (k, band).  The check maps
    K's diagonals from the ring's Q's (`excitation_bands`) and never forms K.
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
            return Spectrum(eigenvalues=_order(np.linalg.eigvals(B).ravel())[0], source=source)
        vecs = np.empty((n * s, n * s), dtype=complex)  # C-ordered: `spatial_profile`'s column sums depend on it
        E, U = np.linalg.eig(B)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"Bloch eigensolver failed, n={n}: {err}") from err
    vals, order = _order(E.ravel())  # [k][band]
    wave = np.exp(2j * np.pi * m / n) / np.sqrt(n)   # w^t / sqrt(N), t = j m mod N
    # row (j, a), column (k, band): w^(j k) U[k, a, band] / sqrt(N)
    np.multiply(wave[np.outer(m, m) % n][:, None, :, None], U.transpose(1, 0, 2), out=vecs.reshape(n, s, n, s))
    _check_residual(bands, vecs, E.ravel())
    return Spectrum(eigenvalues=vals, base=vecs, source=source, order=order)


def solve(p: Union[BKCParams, ModBKCParams, SiteFields], bc: BoundaryCondition,
          vectors: bool = True) -> Spectrum:
    """Spectrum of the chain ``p`` under ``bc``; the route is chosen as in the module docstring.

    With ``vectors=False`` the same route returns the eigenvalues alone
    (``eigenvectors`` is None, ``source`` has the same route prefix): it
    computes, lifts and residual-checks no eigenvector, and builds K only
    where K itself is solved.  Use it wherever only eigenvalues are read.
    """
    if reduced_route(p, bc):
        return modbkc_spectrum_zero_omega(p, bc, with_vectors=vectors)
    if bc is BoundaryCondition.PBC and not isinstance(p, SiteFields):
        return _bloch_spectrum(p, vectors)
    single_band = isinstance(p, BKCParams)
    if single_band and p.omega == 0:  # open: the ring took the Bloch route
        return _hatano_nelson_spectrum(p, vectors)
    q = build_bkc_quadratic(p, bc) if single_band else build_modbkc_quadratic(p, bc)
    if any(v.any() for d, v in q.diagonals.items() if d % 2):  # Q[0::2, 1::2] lies on the odd-offset diagonals
        return eigendecompose(excitation_matrix(q), vectors)
    return _xp_spectrum(q, vectors)


def bkc_pbc_dispersion(p: BKCParams, k: float):
    """Analytic periodic-chain branches 2 J0 sin(k) +- sqrt(omega^2 - 4 Delta0^2 cos(k)^2)."""
    root = cmath.sqrt(p.omega ** 2 - 4 * p.Delta0 ** 2 * np.cos(k) ** 2)
    base = 2 * p.J0 * np.sin(k)
    return base + root, base - root


def zero_gap(s: Spectrum) -> float:
    """Smallest eigenvalue modulus, min_m |E_m|."""
    if len(s) == 0:
        raise ValueError("zero_gap requires a non-empty spectrum")
    return float(np.abs(s.eigenvalues).min())
