"""Excitation spectra through one front door, `solve(p, bc)`.

`p` is a `BKCParams`, a `ModBKCParams` or a `SiteFields`; `solve` is the only
code that picks a solve route:

* **Hatano-Nelson gauge** (single-band chain, OBC, omega = 0).  The open
  chain is exponentially non-normal: its diagonal gauge onto an
  (anti-)Hermitian matrix has condition numbers up to 1e60, and the dense
  solver returns pseudospectra.  `spectrum_via_similarity` diagonalizes the
  gauge image instead and lifts the eigenvectors back; the conjugation is
  entrywise and therefore exact.  At Delta0 = J0 the gauge does not exist
  (`SingularTransformError`) and the dense route is taken.
* **SSH reduction** (two-sublattice chain, OBC, every onsite omega = 0).  The
  combined gauge maps M onto i sigma_x (x) H_ssh, two decoupled copies of an
  SSH chain, so `modbkc_spectrum_zero_omega` solves the 2N-dimensional H_ssh
  and lifts the product basis (sigma_x eigenvector) (x) (SSH eigenvector);
  every eigenvalue is exactly twofold degenerate.  H_ssh is tridiagonal with
  real or imaginary bonds, so a diagonal S of exact phases +-1, +-i maps it
  onto a real H_r, solved by `eigh` (all bonds real) or real `eig` with
  eigenvectors S U_r; nothing is squared.  At Delta = J somewhere the
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
  eigenvector x of Qp Qx to (x, i Qx x / E).  Squaring loses about sqrt(eps)
  of accuracy near E = 0, so a point with min|E| <= ``XP_MIN_EIGENVALUE`` *
  max|Q| is solved densely instead, and its ``Spectrum.source`` names the
  guard and the smallest |E|.
* **Dense** `eigendecompose` of ``excitation_matrix(build_*_quadratic(p, bc))``
  for everything else: the open single-band chain off the gauge route (its
  cross block is nonzero) and the points the x/p guard turns away.

Every route that returns eigenvectors except the two gauge routes checks
them by `_check_residual` on the full matrix M.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field, replace
from typing import Optional, Union

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
    excitation_matrix,
)
from .transform import (
    SimilarityMatrix,
    SingularTransformError,
    a_combined,
    effective_ssh_matrix,
    hatano_nelson_A,
)

__all__ = [
    "SolverError",
    "Spectrum",
    "solve",
    "eigendecompose",
    "spectrum_via_similarity",
    "modbkc_spectrum_zero_omega",
    "reduced_route",
    "bkc_pbc_dispersion",
    "spectrum_distance",
    "zero_gap",
]

RESIDUAL_FACTOR = 1e-8
# relative tolerance on max|K - K^H| for treating the gauge image as Hermitian
_HERMITIAN_TOL = 1e-10
# Smallest |E| the x/p route accepts, relative to max|Q|.  That route solves
# for E^2, and squaring loses about sqrt(eps) of accuracy near E = 0: at
# J1=1.2, J2=0, Delta1=1, Delta2=1.5, N=100 it returns a 1.4e-6 "zero mode"
# where the dense value is 3e-15, above the 1e-6 zero-mode tolerance.  Points
# with a smaller eigenvalue are solved densely instead.
XP_MIN_EIGENVALUE = 1e-4
# Columns per block of `_residuals`: its temporaries are a few (dim, 64) arrays.
_RESIDUAL_BLOCK = 64


class SolverError(RuntimeError):
    """Eigensolver failure, carrying a description of the offending matrix."""


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues with column-aligned unit-norm right eigenvectors.

    Sorted lexicographically by (real part, imaginary part).  ``eigenvectors``
    is None for routes that can produce eigenvalues only (singular gauge).
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


def _residuals(M: np.ndarray, vectors: np.ndarray, eigenvalues: np.ndarray) -> np.ndarray:
    """Column norms of M V - V diag(E), in O(nnz(M) n) time.

    M V is accumulated over the nonzero diagonals of M (four for an open
    chain of either model, eight for a two-sublattice ring with its wrap
    corners; a dense M has 2n - 1), ``_RESIDUAL_BLOCK`` columns at a time, so
    no n x n temporary is allocated.
    """
    n = M.shape[0]
    flat = np.flatnonzero(M != 0)
    diagonals = [(d, np.diagonal(M, d)[:, None]) for d in np.unique(flat % n - flat // n)]
    res = np.empty(vectors.shape[1])
    for c in range(0, vectors.shape[1], _RESIDUAL_BLOCK):
        V = vectors[:, c:c + _RESIDUAL_BLOCK]
        R = V * -eigenvalues[c:c + _RESIDUAL_BLOCK]
        for d, m in diagonals:
            if d >= 0:
                R[:n - d] += m * V[d:]
            else:
                R[-d:] += m * V[:n + d]
        res[c:c + _RESIDUAL_BLOCK] = np.linalg.norm(R, axis=0)
    return res


def _check_residual(M, spec: Spectrum):
    if spec.eigenvectors is None:
        return
    bound = RESIDUAL_FACTOR * np.abs(M).max() * M.shape[0]
    worst = _residuals(M, spec.eigenvectors, spec.eigenvalues).max()
    if not worst <= bound:
        raise SolverError(f"eigenpair residual {worst:.3e} exceeds bound {bound:.3e}")


def eigendecompose(M: ExcitationMatrix) -> Spectrum:
    """Full spectrum with right eigenvectors from the dense solver."""
    if not np.all(np.isfinite(M.M)):
        raise SolverError(f"matrix contains non-finite entries ({M.source}, bc={M.bc})")
    try:
        vals, vecs = np.linalg.eig(M.M)
    except np.linalg.LinAlgError as err:
        raise SolverError(
            f"eigensolver failed for {M.source} matrix, dim={M.dim}, bc={M.bc}: {err}") from err
    spec = _sorted(vals, vecs, source=f"eig[{M.source},{M.bc.value},n={M.n_cells}]")
    del vals, vecs  # the residual check below is the peak of memory use
    _check_residual(M.M, spec)
    return spec


def spectrum_via_similarity(M: ExcitationMatrix, A: SimilarityMatrix) -> Spectrum:
    """Spectrum of M obtained from the gauge image K = A^{-1} M A.

    When K is Hermitian (or anti-Hermitian) within ``_HERMITIAN_TOL`` relative
    to max|K| the Hermitian solver is used, which pins the spectrum to the
    real (imaginary) axis exactly.  Eigenvectors are lifted back through A
    with log-space normalization.
    """
    K = A.conjugate(M.M)
    scale = np.abs(K).max()
    herm = np.abs(K - K.conj().T).max()
    anti = np.abs(K + K.conj().T).max()
    if herm <= _HERMITIAN_TOL * scale:
        vals, vecs = np.linalg.eigh((K + K.conj().T) / 2)
        vals = vals.astype(complex)
    elif anti <= _HERMITIAN_TOL * scale:
        Kh = 1j * K
        vals, vecs = np.linalg.eigh((Kh + Kh.conj().T) / 2)
        vals = -1j * vals
    else:
        vals, vecs = np.linalg.eig(K)
    lifted = A.lift(vecs)
    return _sorted(vals, lifted, source=f"similarity[{M.source},{M.bc.value},n={M.n_cells}]")


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


def modbkc_spectrum_zero_omega(p: Union[ModBKCParams, SiteFields],
                               bc: BoundaryCondition = BoundaryCondition.OBC,
                               with_vectors: bool = True) -> Spectrum:
    """Exact omega=0 spectrum of the open two-sublattice chain via the SSH reduction.

    Eigenvalues are +-i E_m over the reduced SSH spectrum {E_m}, solved in
    real arithmetic through the phase gauge of the module docstring;
    eigenvectors are the product basis lifted through the combined gauge.
    With ``with_vectors=False`` (or at singular gauge points Delta = J) only
    the eigenvalues are computed; they remain exact there by continuity of
    the characteristic polynomial.  Open boundaries only: the gauge does not
    close around a ring, so the reduced ring is not the PBC spectrum.
    """
    if bc is not BoundaryCondition.OBC:
        raise ValueError("modbkc_spectrum_zero_omega requires open boundaries")
    if not _zero_omega(p):
        raise ValueError("modbkc_spectrum_zero_omega requires all onsite omega = 0")
    n = p.N
    source = f"reduced[modbkc,{bc.value},n={n}]"
    # H is tridiagonal with bonds b_k, each real or purely imaginary: with s_{k+1} = s_k |b_k| / b_k,
    # a power of i, S^-1 H S is the real H_r with |b_k| above and b_k^2 / |b_k| below the diagonal.
    b = np.diagonal(effective_ssh_matrix(p, bc), 1)
    mag, symmetric = np.abs(b), not b.imag.any()
    Hr = np.diag(mag, 1) + np.diag(np.where(b.imag != 0, -mag, mag), -1)
    try:
        A = a_combined(p) if with_vectors else None
    except SingularTransformError:
        A = None  # Delta = +-J somewhere: no gauge, eigenvalues only
    if A is None:
        E = np.linalg.eigvalsh(Hr) if symmetric else np.linalg.eigvals(Hr)
        return _sorted(np.concatenate([1j * E, -1j * E]), None, source)
    E, U = np.linalg.eigh(Hr) if symmetric else np.linalg.eig(Hr)
    # U = S U_r; |b| / b and S hold +-1, +-i only, so every product is exact
    U = np.concatenate([[1], np.cumprod(np.sign(b.real) - 1j * np.sign(b.imag))])[:, None] * U
    vals = np.concatenate([1j * E, -1j * E])
    # lift (sigma_pm (x) u_m): quadrature components (1, +-1)/sqrt(2) * u.
    # SSH site a = 2j+S sits at flat index 2a (x) and 2a+1 (p).
    vecs = np.empty((4 * n, 4 * n), dtype=complex)
    vecs[0::2] = np.hstack([U, U])     # columns m: eigenvalue +i E_m
    vecs[1::2] = np.hstack([U, -U])    # columns 2n+m: eigenvalue -i E_m
    return _sorted(vals, A.lift(vecs), source)


def _xp_spectrum(q: QuadraticForm, M: ExcitationMatrix) -> Spectrum:
    """Spectrum of M from the x/p blocks of a form with a zero cross block.

    In (x, p) block order M = [[0, -i Qp], [i Qx, 0]], so M (x, p) = E (x, p)
    holds exactly when Qp Qx x = E^2 x and p = i Qx x / E: each eigenpair
    (mu, x) of the real, half-dimensional Qp Qx gives the eigenvalues
    E = +-sqrt(mu).  A point whose smallest |E| is at or below
    ``XP_MIN_EIGENVALUE`` * max|Q| goes to `eigendecompose` instead.
    """
    Qx, Qp = q.Q[0::2, 0::2], q.Q[1::2, 1::2]
    try:
        mu, X = np.linalg.eig(Qp @ Qx)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"x/p eigensolver failed, dim={q.dim}, bc={q.bc}: {err}") from err
    root = np.sqrt(mu.astype(complex))
    smallest, floor = np.abs(root).min(), XP_MIN_EIGENVALUE * np.abs(q.Q).max()
    if not smallest > floor:
        spec = eigendecompose(M)
        return replace(spec, source=f"{spec.source} (x/p guard: min|E| {smallest:.2e} "
                                    f"<= {XP_MIN_EIGENVALUE:g} max|Q|)")
    # Allocated before the temporaries below, so that freeing them leaves no
    # hole under it; allocated after them, it raised the peak RSS of a fig9
    # ensemble run by 2 MB (4%).
    vecs = np.empty((q.dim, q.dim), dtype=complex)
    # unit-norm (x, p) halves per mu; the -sqrt(mu) partner has p negated
    P = (Qx @ X) * (1j / root)
    norm = np.sqrt((np.abs(X) ** 2).sum(axis=0) + (np.abs(P) ** 2).sum(axis=0))
    X, P = X / norm, P / norm
    half = len(mu)
    vals = np.concatenate([root, -root])
    order = np.lexsort((vals.imag, vals.real))  # the order `_sorted` gives
    vecs[0::2] = X[:, order % half]
    vecs[1::2] = P[:, order % half]
    vecs[1::2] *= np.where(order < half, 1.0, -1.0)
    del X, P  # the residual check below is the peak of memory use
    spec = Spectrum(eigenvalues=vals[order], eigenvectors=vecs,
                    source=f"xp[{M.source},{M.bc.value},n={M.n_cells}]")
    _check_residual(M.M, spec)
    return spec


def _bloch_spectrum(p: Union[BKCParams, ModBKCParams], M: ExcitationMatrix) -> Spectrum:
    """Spectrum of a uniform ring from its N Bloch blocks, checked on the ring matrix M.

    Each eigenpair (E, u) of the block at k = 2 pi m / N gives the ring
    eigenpair (E, v), v[(j, a)] = w^(j m) u_a / sqrt(N), with w = exp(2 pi i / N)
    (see `bloch_matrix`).  The plane waves are written straight into the
    ring's eigenvector array, in the order `_sorted` gives.
    """
    n = p.N
    m = np.arange(n)
    B = bloch_matrix(p, 2 * np.pi * m / n)
    s = B.shape[-1]
    vecs = np.empty((n * s, n * s), dtype=complex)
    try:
        E, U = np.linalg.eig(B)
    except np.linalg.LinAlgError as err:
        raise SolverError(f"Bloch eigensolver failed, n={n}: {err}") from err
    vals = E.ravel()
    order = np.lexsort((vals.imag, vals.real))
    mk, band = np.divmod(order, s)
    wave = np.exp(2j * np.pi * m / n) / np.sqrt(n)   # w^t / sqrt(N), t = j m mod N
    np.multiply(wave[np.outer(m, mk) % n][:, None, :], U[mk, :, band].T,
                out=vecs.reshape(n, s, n * s))
    spec = Spectrum(eigenvalues=vals[order], eigenvectors=vecs,
                    source=f"bloch[{M.source},{M.bc.value},n={M.n_cells}]")
    _check_residual(M.M, spec)
    return spec


def solve(p: Union[BKCParams, ModBKCParams, SiteFields], bc: BoundaryCondition) -> Spectrum:
    """Spectrum of the chain ``p`` under ``bc``; the route is chosen as in the module docstring."""
    if reduced_route(p, bc):
        return modbkc_spectrum_zero_omega(p, bc)
    obc = bc is BoundaryCondition.OBC
    single_band = isinstance(p, BKCParams)
    q = build_bkc_quadratic(p, bc) if single_band else build_modbkc_quadratic(p, bc)
    M = excitation_matrix(q)
    if not obc and not isinstance(p, SiteFields):
        return _bloch_spectrum(p, M)
    if single_band and p.omega == 0:
        try:
            return spectrum_via_similarity(M, hatano_nelson_A(p))
        except SingularTransformError:
            pass  # Delta0 = J0: no gauge, fall back to the dense solver
    if np.any(q.Q[0::2, 1::2]):
        return eigendecompose(M)
    return _xp_spectrum(q, M)


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
