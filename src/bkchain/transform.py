"""Exact diagonal similarity transformations of the excitation matrices.

The non-reciprocity of the excitation matrices can be gauged away by diagonal
rescalings of the quadrature basis (imaginary gauge transformations).  For the
single-band chain a single ratio r = (Delta0+J0)/(Delta0-J0) does the job; for
the two-sublattice chain the intracell ratio r1 and intercell ratio r2 combine
into a mapping onto an SSH chain with renormalized couplings

    dtilde1 = sqrt(Delta1^2 - J1^2),   dtilde2 = sqrt(Delta2^2 - J2^2).

Diagonal entries grow/decay like r^(j/2), which overflows double precision
near N ~ 100 for large r.  Every gauge is therefore built from log r as a
complex log-diagonal and stored as (log-modulus, phase); the diagonal itself
is never formed, and all products are taken entrywise in log space.
Transforms are exact entrywise (each transformed entry is a single product),
which keeps residual checks at machine precision even when the condition
number of the diagonal is 1e60+.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import (
    BKCParams,
    BoundaryCondition,
    ExcitationMatrix,
    ModBKCParams,
    SiteFields,
)

__all__ = [
    "SingularTransformError",
    "SimilarityMatrix",
    "EffectiveSSHParams",
    "hatano_nelson_A",
    "hatano_nelson_target",
    "a1_prime",
    "a2_prime",
    "a_combined",
    "effective_ssh_params",
    "effective_ssh_matrix",
    "ssh_lift_target",
    "transform_residual",
]

_SINGULAR_TOL = 1e-12


class SingularTransformError(ValueError):
    """The requested diagonal rescaling does not exist (Delta = J somewhere)."""


@dataclass(frozen=True)
class SimilarityMatrix:
    """Diagonal similarity transform stored as exp(log_scale) * phase."""

    log_scale: np.ndarray      # real log-moduli of the diagonal
    phase: np.ndarray          # unit-modulus complex phases
    r_values: dict

    def __post_init__(self):
        if self.log_scale.shape != self.phase.shape:
            raise ValueError("log_scale and phase must have equal shapes")
        if not np.all(np.isfinite(self.log_scale)):
            raise SingularTransformError("similarity diagonal has zero or infinite entries")

    @property
    def dim(self) -> int:
        return len(self.log_scale)

    @property
    def log10_condition(self) -> float:
        return float((self.log_scale.max() - self.log_scale.min()) / np.log(10.0))

    def conjugate(self, M: np.ndarray) -> np.ndarray:
        """A^{-1} M A, computed entrywise only on the nonzero pattern of M."""
        rows, cols = np.nonzero(M)
        out = np.zeros_like(M, dtype=complex)
        ratio = np.exp(self.log_scale[cols] - self.log_scale[rows]) \
            * self.phase[cols] / self.phase[rows]
        out[rows, cols] = M[rows, cols] * ratio
        return out

    def lift(self, vectors: np.ndarray) -> np.ndarray:
        """Map eigenvectors of A^{-1} M A to unit-norm eigenvectors of M.

        Columns are vectors.  Entry v_im becomes v_im phase_i exp(s_i - t_m),
        s = ``log_scale``, with the column maximum t_m = max_i (s_i + log|v_im|)
        taken in log space, so the result is finite even when the explicit
        diagonal would overflow, and exact zeros stay zero.
        """
        v = np.asarray(vectors, dtype=complex)
        s = self.log_scale[:, None]
        with np.errstate(divide="ignore"):  # log|0| = -inf never wins a maximum
            top = (np.log(np.abs(v)) + s).max(axis=0)
        # s_i - t_m <= -log|v_im| < 709 wherever v_im is a normal number; the
        # clip keeps the factor finite on zero and subnormal entries
        out = v * np.exp(np.minimum(s - top, 700.0))
        out *= self.phase[:, None]
        out /= np.linalg.norm(out, axis=0)
        return out


def _log_ratios(delta, J, what: str):
    """(log r, r) with r = (Delta + J)/(Delta - J), elementwise over bonds.

    The gauge needs Delta != +-J on every bond: Delta = J divides by zero and
    Delta = -J gives r = 0, so both raise `SingularTransformError`.
    """
    delta, J = np.asarray(delta, dtype=float), np.asarray(J, dtype=float)
    singular = (np.abs(delta - J) < _SINGULAR_TOL) | (np.abs(delta + J) < _SINGULAR_TOL)
    if singular.any():
        j = np.flatnonzero(singular)[0]
        where = "" if delta.ndim == 0 else f" at cell {j}"
        raise SingularTransformError(
            f"{what}{where}: Delta = {float(delta.flat[j])!r}, J = {float(J.flat[j])!r} "
            f"within {_SINGULAR_TOL} of Delta = +-J; transform is singular")
    # real division, then complex: a complex division can leave a signed-zero
    # imaginary part, which would flip the principal branch of log for negative r
    r = ((delta + J) / (delta - J)).astype(complex)
    return np.log(r), r


def _from_log(diag_log: np.ndarray, r_values: dict) -> SimilarityMatrix:
    """Similarity whose diagonal is exp(diag_log), never formed explicitly."""
    return SimilarityMatrix(log_scale=diag_log.real, phase=np.exp(1j * diag_log.imag), r_values=r_values)


def hatano_nelson_A(p: BKCParams) -> SimilarityMatrix:
    """Diagonal gauge for the single-band chain, r = (Delta0+J0)/(Delta0-J0).

    Scales are r^(-j/2) on x components and r^(+j/2) on p components; with
    this choice A^{-1} M A is (anti-)Hermitian, see `hatano_nelson_target`.
    """
    log_r, r = _log_ratios(p.Delta0, p.J0, "hatano_nelson_A")  # principal branch for negative r
    j = np.arange(p.N)
    diag_log = np.empty(2 * p.N, dtype=complex)
    diag_log[0::2] = -0.5 * j * log_r  # x_j
    diag_log[1::2] = 0.5 * j * log_r   # p_j
    return _from_log(diag_log, {"r": complex(r)})


def hatano_nelson_target(p: BKCParams, bc: BoundaryCondition = BoundaryCondition.OBC) -> np.ndarray:
    """Image of the omega=0 single-band chain under `hatano_nelson_A`.

    The transformed matrix is c * sigma_z (x) (S + S^T) with
    c = -sqrt(J0^2 - Delta0^2) (principal root) for |Delta0| <= |J0| and
    c = -sign(Delta0) sqrt(J0^2 - Delta0^2) otherwise: Hermitian for
    J0 > |Delta0| (purely real spectrum) and anti-Hermitian for
    |Delta0| > |J0| (purely imaginary spectrum).
    """
    c = -np.sqrt(complex(p.J0 ** 2 - p.Delta0 ** 2))
    if abs(p.Delta0) > abs(p.J0) and p.Delta0 < 0:
        c = -c
    n = p.N
    T = np.zeros((2 * n, 2 * n), dtype=complex)
    a = np.arange(n if bc is BoundaryCondition.PBC else n - 1)
    b = (a + 1) % n
    T[2 * a, 2 * b] = T[2 * b, 2 * a] = c                   # x channel
    T[2 * a + 1, 2 * b + 1] = T[2 * b + 1, 2 * a + 1] = -c   # p channel
    return T


def _fields(p: Union[ModBKCParams, SiteFields]) -> SiteFields:
    return SiteFields.uniform(p) if isinstance(p, ModBKCParams) else p


def _similarity_from_products(f: SiteFields, use_r1: bool, use_r2: bool) -> SimilarityMatrix:
    """Product-form diagonal; uniform fields collapse to powers of r1, r2.

    Channel exponents (uniform limit, cell j):
        A x:  r1^(+j/2)  r2^(-j/2)
        A p:  r1^(-j/2)  r2^(+j/2)
        B x:  r1^(-(j+1)/2)  r2^(+j/2)
        B p:  r1^(+(j+1)/2)  r2^(-j/2)

    r1 runs over the N intracell bonds and r2 over the N - 1 intercell bonds
    of the open chain; the last entry of ``J2``/``Delta2`` is the ring's wrap
    bond, which no gauge uses.
    """
    n = f.N
    log_r1, r1 = (_log_ratios(f.Delta1, f.J1, "intracell bond") if use_r1
                  else (np.zeros(n), None))
    log_r2, r2 = (_log_ratios(f.Delta2[:-1], f.J2[:-1], "intercell bond") if use_r2
                  else (np.zeros(n - 1), None))
    c1 = np.concatenate([[0.0], np.cumsum(log_r1)])  # c1[j] = sum_{l<j} log r1_l, j = 0..N
    c2 = np.concatenate([[0.0], np.cumsum(log_r2)])  # j = 0..N-1
    diag_log = np.empty(4 * n, dtype=complex)
    diag_log[0::4] = 0.5 * (c1[:-1] - c2)  # A x
    diag_log[1::4] = 0.5 * (c2 - c1[:-1])  # A p
    diag_log[2::4] = 0.5 * (c2 - c1[1:])   # B x
    diag_log[3::4] = 0.5 * (c1[1:] - c2)   # B p
    r_values = {}
    for name, r in (("r1", r1), ("r2", r2)):
        if r is not None:
            r_values[name] = r if np.ptp(r.real) + np.ptp(r.imag) > 0 else r[0]
    return _from_log(diag_log, r_values)


def a1_prime(p: Union[ModBKCParams, SiteFields]) -> SimilarityMatrix:
    """Intracell gauge (ratio r1 only); identity when J1 = 0."""
    return _similarity_from_products(_fields(p), use_r1=True, use_r2=False)


def a2_prime(p: Union[ModBKCParams, SiteFields]) -> SimilarityMatrix:
    """Intercell gauge (ratio r2 only); identity when J2 = 0."""
    return _similarity_from_products(_fields(p), use_r1=False, use_r2=True)


def a_combined(p: Union[ModBKCParams, SiteFields]) -> SimilarityMatrix:
    """Product of the intracell and intercell gauges (elementwise diagonal)."""
    return _similarity_from_products(_fields(p), use_r1=True, use_r2=True)


@dataclass(frozen=True)
class EffectiveSSHParams:
    """Renormalized SSH couplings produced by the similarity mapping."""

    dtilde1: complex
    dtilde2: complex


def effective_ssh_params(p: Union[ModBKCParams, SiteFields]) -> EffectiveSSHParams:
    """Principal-branch roots dtilde_i = sqrt(Delta_i^2 - J_i^2).

    Purely real when Delta > |J|, purely imaginary when Delta < |J|.
    Site-resolved fields use the per-cell leading values; use
    `effective_ssh_matrix` for the full disordered couplings.
    """
    if isinstance(p, SiteFields):
        d1 = np.sqrt(complex(p.Delta1[0] ** 2 - p.J1[0] ** 2))
        d2 = np.sqrt(complex(p.Delta2[0] ** 2 - p.J2[0] ** 2))
    else:
        d1 = np.sqrt(complex(p.Delta1 ** 2 - p.J1 ** 2))
        d2 = np.sqrt(complex(p.Delta2 ** 2 - p.J2 ** 2))
    return EffectiveSSHParams(dtilde1=d1, dtilde2=d2)


def effective_ssh_matrix(p: Union[ModBKCParams, SiteFields],
                         bc: BoundaryCondition = BoundaryCondition.OBC) -> np.ndarray:
    """2N-dimensional SSH-form matrix with bonds sign(Delta - J) dtilde[j].

    Under open boundaries the combined gauge maps the omega=0 excitation
    matrix exactly onto i sigma_x (x) (this matrix): each bond is the gauge's
    (Delta - J) sqrt(r), real or purely imaginary, and the 4N eigenvalues are
    +-i E_m over the 2N eigenvalues E_m here.  The eigenvalue identity holds
    for all parameters (including Delta = J, where the gauge is singular)
    because characteristic polynomials depend polynomially on the couplings.
    It does not hold for the ring: the gauge does not close around it (the
    wrap bond is rescaled by the gauge accumulated along the chain instead of
    being symmetrized), so the PBC matrix built here is the symmetric SSH
    ring, not an image of the periodic excitation matrix.
    """
    f = _fields(p)
    n = f.N
    v = np.sign(f.Delta1 - f.J1) * np.sqrt((f.Delta1 ** 2 - f.J1 ** 2).astype(complex))
    w = np.sign(f.Delta2 - f.J2) * np.sqrt((f.Delta2 ** 2 - f.J2 ** 2).astype(complex))
    H = np.zeros((2 * n, 2 * n), dtype=complex)
    j = np.arange(n)
    H[2 * j, 2 * j + 1] = H[2 * j + 1, 2 * j] = v
    a = j if bc is BoundaryCondition.PBC else j[:-1]
    b = (a + 1) % n
    H[2 * a + 1, 2 * b] = H[2 * b, 2 * a + 1] = w[a]
    return H


def ssh_lift_target(p: Union[ModBKCParams, SiteFields],
                    bc: BoundaryCondition = BoundaryCondition.OBC) -> np.ndarray:
    """4N target matrix i sigma_x (x) effective_ssh_matrix in the flat basis."""
    H = effective_ssh_matrix(p, bc)
    T = np.zeros((2 * H.shape[0], 2 * H.shape[0]), dtype=complex)
    # SSH site a = 2j+S sits at flat index 2a (x) and 2a+1 (p); sigma_x
    # flips the quadrature bit
    T[0::2, 1::2] = T[1::2, 0::2] = 1j * H
    return T


def transform_residual(M: Union[ExcitationMatrix, np.ndarray],
                       A: SimilarityMatrix,
                       target: np.ndarray) -> float:
    """max-norm residual of A^{-1} M A against a target, relative to max|M|."""
    Mm = M.M if isinstance(M, ExcitationMatrix) else np.asarray(M)
    if Mm.shape[0] != A.dim or Mm.shape != target.shape:
        raise ValueError("dimension mismatch between matrix, similarity and target")
    scale = np.abs(Mm).max()
    if scale == 0:
        return float(np.abs(target).max())
    # conjugate() only touches the nonzero pattern of M; entries where the
    # target is nonzero but M is zero must still be counted.
    diff = A.conjugate(Mm) - target
    return float(np.abs(diff).max() / scale)
