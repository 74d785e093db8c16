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
number of the diagonal is 1e60+.  A gauge is singular, and raises
`SingularTransformError`, only where Delta = +-J != 0 exactly on a bond.  A
bond with J = Delta = 0 couples nothing and has r = 1: at J0 = Delta0 = 0
the single-band chain's gauge is the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .model import BKCParams, ModBKCParams, SiteFields

__all__ = [
    "SingularTransformError",
    "SimilarityMatrix",
    "EffectiveSSHParams",
    "hatano_nelson_A",
    "hatano_nelson_coupling",
    "a_combined",
    "effective_ssh_params",
    "ssh_bonds",
    "effective_ssh_matrix",
]

class SingularTransformError(ValueError):
    """The requested diagonal rescaling does not exist (Delta = +-J != 0 exactly on some bond)."""


@dataclass(frozen=True)
class SimilarityMatrix:
    """Diagonal similarity transform stored as exp(log_scale) * phase."""

    log_scale: np.ndarray      # real log-moduli of the diagonal
    phase: np.ndarray          # unit-modulus complex phases

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

    def lift(self, vectors: np.ndarray) -> np.ndarray:
        """Unit-norm eigenvectors of M from real or complex eigenvectors v of A^{-1} M A: `lift_polar`."""
        v = np.asarray(vectors)
        size, phase = np.abs(v), np.zeros_like(v)
        # part by part: a complex division rounds twice, and a real v + 0j would get phases off +-1
        for part, out in ((v.real, phase.real), (v.imag, phase.imag))[:1 + np.iscomplexobj(v)]:
            np.divide(part, size, out=out, where=size > 0)
        with np.errstate(divide="ignore"):  # log|0| = -inf: the entry stays zero
            return self.lift_polar(np.log(size), phase)

    def lift_polar(self, log_modulus: np.ndarray, phase: np.ndarray) -> np.ndarray:
        """Unit-norm eigenvectors of M, F-ordered, from eigenvectors v of A^{-1} M A given as log|v| and v / |v|.

        One column per vector, one row per row of A or per site (shared by its
        x and p rows).  The moduli are exponentiated once, in real arithmetic,
        below their column maxima of ``log_scale`` + log|v|, taken in log space:
        no entry overflows, and log|v| = -inf stays zero.  The columns are
        normalised from their real squares; the phases of A and v come last.
        """
        sites, columns = log_modulus.shape
        rows = self.dim // sites
        # (column, site, row) in C order is the F-ordered (row of A, column); each loop runs over the sites
        log_t, mod = np.ascontiguousarray(log_modulus.T), np.empty((columns, sites, rows))
        for r in range(rows):
            np.add(log_t, self.log_scale[r::rows], out=mod[:, :, r])
        flat = mod.reshape(columns, self.dim)
        flat -= flat.max(axis=1, keepdims=True)
        np.exp(flat, out=flat)
        # squares summed row by row, as over the rows of a C-ordered array: zero rows change no bit
        flat /= np.sqrt(np.square(flat.T, out=np.empty((self.dim, columns))).sum(axis=0))[:, None]
        out = np.empty((columns, sites, rows), dtype=complex)
        for r in range(rows):
            np.multiply(phase.T, self.phase[r::rows], out=out[:, :, r])
        out *= mod
        return out.reshape(columns, self.dim).T


def _log_ratios(delta, J, what: str):
    """log r with r = (Delta + J)/(Delta - J), elementwise over bonds, and r = 1 where J = Delta = 0.

    The gauge needs Delta != +-J on every coupling bond: Delta = J divides by
    zero and Delta = -J gives r = 0, so both raise `SingularTransformError`.
    Only an exact equality is singular: the gauge is built in log space,
    where any finite ratio fits, and distinct doubles Delta, J give |r| of
    order 1/eps at most.  A bond with J = Delta = 0 cuts the chain, and any
    r serves it; r = 1 leaves the gauge across it as it is.
    """
    delta, J = np.asarray(delta, dtype=float), np.asarray(J, dtype=float)
    cut = (delta == 0) & (J == 0)
    singular = ((delta - J == 0) | (delta + J == 0)) & ~cut
    if singular.any():
        j = np.flatnonzero(singular)[0]
        where = "" if delta.ndim == 0 else f" at cell {j}"
        raise SingularTransformError(
            f"{what}{where}: Delta = {float(delta.flat[j])!r}, J = {float(J.flat[j])!r} "
            f"gives Delta = +-J; transform is singular")
    # real division, then complex: a complex division can leave a signed-zero
    # imaginary part, which would flip the principal branch of log for negative r
    return np.log(np.divide(delta + J, delta - J, out=np.ones_like(delta), where=~cut).astype(complex))


def _from_log(diag_log: np.ndarray) -> SimilarityMatrix:
    """Similarity whose diagonal is exp(diag_log), never formed explicitly."""
    return SimilarityMatrix(log_scale=diag_log.real, phase=np.exp(1j * diag_log.imag))


def hatano_nelson_A(p: BKCParams) -> SimilarityMatrix:
    """Diagonal gauge for the single-band chain, r = (Delta0+J0)/(Delta0-J0).

    Scales are r^(-j/2) on x components and r^(+j/2) on p components; with
    this choice A^{-1} M A is c sigma_z (x) (S + S^T), c from
    `hatano_nelson_coupling`.  At J0 = Delta0 = 0 the chain has no bonds and
    the gauge is the identity.
    """
    log_r = _log_ratios(p.Delta0, p.J0, "hatano_nelson_A")  # principal branch
    j = np.arange(p.N)
    diag_log = np.empty(2 * p.N, dtype=complex)
    diag_log[0::2] = -0.5 * j * log_r  # x_j
    diag_log[1::2] = 0.5 * j * log_r   # p_j
    return _from_log(diag_log)


def hatano_nelson_coupling(p: BKCParams) -> complex:
    """Bond c = -sign(J0 + Delta0) sqrt((J0 - Delta0)(J0 + Delta0)) of the gauge image c sigma_z (x) (S + S^T).

    Real (Hermitian image) where |J0| > |Delta0|, else purely imaginary; the
    sign matches the gauge's principal branch of log r in every quadrant.
    """
    return complex(-np.sign(p.J0 + p.Delta0) * np.sqrt(complex((p.J0 - p.Delta0) * (p.J0 + p.Delta0))))


def a_combined(p: Union[ModBKCParams, SiteFields]) -> SimilarityMatrix:
    """Product of the intracell gauge (ratios r1) and the intercell gauge (ratios r2), as one diagonal.

    Channel exponents (uniform limit, cell j):
        A x:  r1^(+j/2)  r2^(-j/2)
        A p:  r1^(-j/2)  r2^(+j/2)
        B x:  r1^(-(j+1)/2)  r2^(+j/2)
        B p:  r1^(+(j+1)/2)  r2^(-j/2)

    r1 runs over the N intracell bonds and r2 over the N - 1 intercell bonds
    of the open chain; the last entry of ``J2``/``Delta2`` is the ring's wrap
    bond, which no gauge uses.  A bond with J = 0 has r = 1 exactly, so the
    chain with every J2 = 0 gives the intracell gauge alone, and every J1 = 0
    the intercell one; so does a bond with J = Delta = 0 (`_log_ratios`).
    """
    f = SiteFields.of(p)
    log_r1 = _log_ratios(f.Delta1, f.J1, "intracell bond")
    log_r2 = _log_ratios(f.Delta2[:-1], f.J2[:-1], "intercell bond")
    c1 = np.concatenate([[0.0], np.cumsum(log_r1)])  # c1[j] = sum_{l<j} log r1_l, j = 0..N
    c2 = np.concatenate([[0.0], np.cumsum(log_r2)])  # j = 0..N-1
    diag_log = np.empty(4 * f.N, dtype=complex)
    diag_log[0::4] = 0.5 * (c1[:-1] - c2)  # A x
    diag_log[1::4] = 0.5 * (c2 - c1[:-1])  # A p
    diag_log[2::4] = 0.5 * (c2 - c1[1:])   # B x
    diag_log[3::4] = 0.5 * (c1[1:] - c2)   # B p
    return _from_log(diag_log)


@dataclass(frozen=True)
class EffectiveSSHParams:
    """Renormalized SSH couplings produced by the similarity mapping."""

    dtilde1: complex
    dtilde2: complex


def effective_ssh_params(p: ModBKCParams) -> EffectiveSSHParams:
    """Principal-branch roots dtilde_i = sqrt(Delta_i^2 - J_i^2) of a uniform chain.

    Purely real when Delta > |J|, purely imaginary when Delta < |J|.  Each
    root is taken from (Delta - J)(Delta + J), as in `ssh_bonds`, which
    stays accurate where |J| is close to |Delta|; `ssh_bonds` also gives the
    bonds of site-resolved fields.
    """
    d1, d2 = (np.sqrt(complex((delta - J) * (delta + J))) for delta, J in ((p.Delta1, p.J1), (p.Delta2, p.J2)))
    return EffectiveSSHParams(dtilde1=d1, dtilde2=d2)


def ssh_bonds(p: Union[ModBKCParams, SiteFields]) -> np.ndarray:
    """The 2N - 1 bonds sign(Delta - J) sqrt((Delta - J)(Delta + J)) of the open SSH chain, in chain order.

    Each is the combined gauge's (Delta - J) sqrt(r), real or purely
    imaginary; the product (Delta - J)(Delta + J) stays accurate where |J|
    is close to |Delta|, and the ring's wrap bond is not among them.
    """
    f = SiteFields.of(p)
    delta, J = np.empty((2, 2 * f.N - 1))
    delta[0::2], delta[1::2] = f.Delta1, f.Delta2[:-1]
    J[0::2], J[1::2] = f.J1, f.J2[:-1]
    return np.sign(delta - J) * np.sqrt(((delta - J) * (delta + J)).astype(complex))


def effective_ssh_matrix(p: Union[ModBKCParams, SiteFields]) -> np.ndarray:
    """2N-dimensional open SSH chain with the bonds `ssh_bonds` on its off-diagonals.

    The combined gauge maps the open omega=0 excitation matrix exactly onto
    i sigma_x (x) (this matrix), and the 4N eigenvalues are +-i E_m over the
    2N eigenvalues E_m here.  The eigenvalue identity holds for all parameters
    (including Delta = J, where the gauge is singular) because characteristic
    polynomials depend polynomially on the couplings.
    """
    b = ssh_bonds(p)
    H = np.zeros((len(b) + 1, len(b) + 1), dtype=complex)
    k = np.arange(len(b))
    H[k, k + 1] = H[k + 1, k] = b
    return H
