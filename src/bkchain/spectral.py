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
  every eigenvalue is exactly twofold degenerate.  At Delta = J somewhere the
  eigenvalues stay exact but no eigenvectors are returned.
* **Dense** `eigendecompose` of ``excitation_matrix(build_*_quadratic(p, bc))``
  for everything else.  With omega != 0 the matrix is not exponentially
  non-normal, and neither gauge closes around a ring, so PBC is always dense.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .model import (
    BKCParams,
    BoundaryCondition,
    ExcitationMatrix,
    ModBKCParams,
    SiteFields,
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
    "bkc_pbc_dispersion",
    "spectrum_distance",
    "zero_gap",
]

RESIDUAL_FACTOR = 1e-8
# relative tolerance on max|K - K^H| for treating the gauge image as Hermitian
_HERMITIAN_TOL = 1e-10


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
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    vals = eigenvalues[order]
    vecs = None
    if eigenvectors is not None:
        vecs = eigenvectors[:, order]
        vecs = vecs / np.linalg.norm(vecs, axis=0, keepdims=True)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, source=source)


def _check_residual(M, spec: Spectrum):
    if spec.eigenvectors is None:
        return
    res = np.linalg.norm(M @ spec.eigenvectors - spec.eigenvectors * spec.eigenvalues[None, :], axis=0)
    bound = RESIDUAL_FACTOR * np.abs(M).max() * M.shape[0]
    worst = res.max()
    if worst > bound:
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


def modbkc_spectrum_zero_omega(p: Union[ModBKCParams, SiteFields],
                               bc: BoundaryCondition = BoundaryCondition.OBC,
                               with_vectors: bool = True) -> Spectrum:
    """Exact omega=0 spectrum of the open two-sublattice chain via the SSH reduction.

    Eigenvalues are +-i E_m over the reduced SSH spectrum {E_m}; eigenvectors
    are the product basis lifted through the combined gauge.  With
    ``with_vectors=False`` (or at singular gauge points Delta = J) only the
    eigenvalues are returned; they remain exact there by continuity of the
    characteristic polynomial.  Open boundaries only: the gauge does not
    close around a ring, so the reduced ring is not the PBC spectrum.
    """
    if bc is not BoundaryCondition.OBC:
        raise ValueError("modbkc_spectrum_zero_omega requires open boundaries")
    if not _zero_omega(p):
        raise ValueError("modbkc_spectrum_zero_omega requires all onsite omega = 0")
    n = p.N
    H = effective_ssh_matrix(p, bc)
    if np.abs(H.imag).max() == 0:
        E, U = np.linalg.eigh(H.real)
        E = E.astype(complex)
        U = U.astype(complex)
    else:
        E, U = np.linalg.eig(H)
    vals = np.concatenate([1j * E, -1j * E])
    if not with_vectors:
        return _sorted(vals, None, source=f"reduced[modbkc,{bc.value},n={n}]")
    try:
        A = a_combined(p)
    except SingularTransformError:
        return _sorted(vals, None, source=f"reduced[modbkc,{bc.value},n={n}]")
    # lift (sigma_pm (x) u_m): quadrature components (1, +-1)/sqrt(2) * u.
    # SSH site a = 2j+S sits at flat index 2a (x) and 2a+1 (p).
    vecs = np.empty((4 * n, 4 * n), dtype=complex)
    vecs[0::2] = np.hstack([U, U])     # columns m: eigenvalue +i E_m
    vecs[1::2] = np.hstack([U, -U])    # columns 2n+m: eigenvalue -i E_m
    lifted = A.lift(vecs)
    return _sorted(vals, lifted, source=f"reduced[modbkc,{bc.value},n={n}]")


def solve(p: Union[BKCParams, ModBKCParams, SiteFields], bc: BoundaryCondition) -> Spectrum:
    """Spectrum of the chain ``p`` under ``bc``; the route is chosen as in the module docstring."""
    obc = bc is BoundaryCondition.OBC
    if isinstance(p, BKCParams):
        M = excitation_matrix(build_bkc_quadratic(p, bc))
        if obc and p.omega == 0:
            try:
                return spectrum_via_similarity(M, hatano_nelson_A(p))
            except SingularTransformError:
                pass  # Delta0 = J0: no gauge, fall back to the dense solver
        return eigendecompose(M)
    if obc and _zero_omega(p):
        return modbkc_spectrum_zero_omega(p, bc)
    return eigendecompose(excitation_matrix(build_modbkc_quadratic(p, bc)))


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
