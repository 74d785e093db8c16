"""Quadrature-basis lattice models and their excitation matrices.

Two models are supported:

* the single-band bosonic Kitaev chain (BKC) with purely imaginary hopping
  i*J0 and pairing i*Delta0, which in quadrature variables reads

      H = sum_j [ -(J0-Delta0) x_j p_{j+1} + (J0+Delta0) p_j x_{j+1} ]
          + sum_j omega/2 (x_j^2 + p_j^2),

* a two-sublattice (SSH-like) variant with real intracell/intercell hopping
  J1, J2 and pairing Delta1, Delta2,

      H' = sum_j [ (J1+Delta1) x_{A,j} x_{B,j} + (J1-Delta1) p_{A,j} p_{B,j} ]
           + sum_j [ (J2+Delta2) x_{B,j} x_{A,j+1} + (J2-Delta2) p_{B,j} p_{A,j+1} ]
           + onsite omega.

Both Hamiltonians are quadratic, H = (1/2) v^T Q v with v the vector of
quadrature operators, so the commutator map [H, .] closes on the operator
basis and is represented by the (generally non-Hermitian) excitation matrix

    [H, v_a] = sum_b  M[a, b] v_b,      M = -i Sigma Q,

where Sigma[a, b] = [v_a, v_b] / i is the symplectic form.  The basis is
site-major: flat index 2j+s for the single-band chain and 4j+2S+s for the
two-sublattice chain (S = 0 for A, 1 for B; s = 0 for x, 1 for p).

Every production matrix is ``excitation_matrix(build_*_quadratic(...))``.
The ``build_*_excitation_direct`` builders transcribe M from the commutators
instead; they are kept only as an independent oracle for tests and are
called nowhere else in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "BoundaryCondition",
    "BKCParams",
    "ModBKCParams",
    "SiteFields",
    "QuadraticForm",
    "ExcitationMatrix",
    "flat_index_bkc",
    "flat_index_modbkc",
    "cell_index",
    "build_bkc_quadratic",
    "build_modbkc_quadratic",
    "excitation_matrix",
    "build_bkc_excitation_direct",
    "build_modbkc_excitation_direct",
    "bloch_matrix",
]

_ASYMMETRY_TOL = 1e-14


class BoundaryCondition(Enum):
    OBC = "obc"
    PBC = "pbc"


def _require_finite(name, *values):
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"{name}: parameters must be finite, got {v!r}")


@dataclass(frozen=True)
class BKCParams:
    """Site-uniform parameters of the single-band chain."""

    J0: float
    Delta0: float
    omega: float
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"chain length N must be >= 2, got {self.N}")
        _require_finite("BKCParams", self.J0, self.Delta0, self.omega)


@dataclass(frozen=True)
class ModBKCParams:
    """Site-uniform parameters of the two-sublattice chain (N unit cells)."""

    J1: float
    J2: float
    Delta1: float
    Delta2: float
    omega: float
    N: int

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"cell count N must be >= 2, got {self.N}")
        for name in ("J1", "J2", "Delta1", "Delta2"):
            v = getattr(self, name)
            if isinstance(v, complex):
                raise TypeError(f"{name} must be real; complex couplings are not supported")
        _require_finite("ModBKCParams", self.J1, self.J2, self.Delta1, self.Delta2, self.omega)


@dataclass(frozen=True)
class SiteFields:
    """Per-site parameter arrays for the two-sublattice chain.

    ``J1``, ``Delta1``, ``omega_A``, ``omega_B`` are per-cell values;
    ``J2``, ``Delta2`` are per-bond values indexed by the left cell (the last
    entry is used only under periodic boundary conditions).
    """

    J1: np.ndarray
    J2: np.ndarray
    Delta1: np.ndarray
    Delta2: np.ndarray
    omega_A: np.ndarray
    omega_B: np.ndarray

    def __post_init__(self):
        arrays = {name: np.asarray(getattr(self, name), dtype=float)
                  for name in ("J1", "J2", "Delta1", "Delta2", "omega_A", "omega_B")}
        n = len(arrays["J1"])
        for name, arr in arrays.items():
            if arr.shape != (n,):
                raise ValueError(f"SiteFields.{name} must have length {n}, got shape {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"SiteFields.{name} contains non-finite entries")
            object.__setattr__(self, name, arr)
        if n < 2:
            raise ValueError(f"SiteFields needs at least 2 cells, got {n}")

    @property
    def N(self) -> int:
        return len(self.J1)

    @classmethod
    def uniform(cls, p: ModBKCParams) -> "SiteFields":
        n = p.N
        return cls(
            J1=np.full(n, p.J1), J2=np.full(n, p.J2),
            Delta1=np.full(n, p.Delta1), Delta2=np.full(n, p.Delta2),
            omega_A=np.full(n, p.omega), omega_B=np.full(n, p.omega),
        )


@dataclass(frozen=True)
class QuadraticForm:
    """Real symmetric matrix Q with H = (1/2) v^T Q v in the flat basis."""

    Q: np.ndarray
    n_cells: int
    n_sublattices: int  # 1 for the single-band chain, 2 for the SSH-like chain
    bc: BoundaryCondition

    def __post_init__(self):
        dim = 2 * self.n_cells * self.n_sublattices
        if self.Q.shape != (dim, dim):
            raise ValueError(f"Q must be {dim}x{dim}, got {self.Q.shape}")

    @property
    def dim(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class ExcitationMatrix:
    """Dense matrix of the commutator map [H, .] on the quadrature basis."""

    M: np.ndarray
    n_cells: int
    n_sublattices: int
    bc: BoundaryCondition
    source: str = field(default="", compare=False)

    @property
    def dim(self) -> int:
        return self.M.shape[0]


def flat_index_bkc(j: int, s: int) -> int:
    return 2 * j + s


def flat_index_modbkc(j: int, S: int, s: int) -> int:
    return 4 * j + 2 * S + s


def cell_index(dim: int, n_cells: int) -> np.ndarray:
    """Cell index of each flat basis component."""
    per_cell = dim // n_cells
    return np.repeat(np.arange(n_cells), per_cell)


def _bonds(n: int, bc: BoundaryCondition):
    bonds = [(j, j + 1) for j in range(n - 1)]
    if bc is BoundaryCondition.PBC:
        bonds.append((n - 1, 0))
    return bonds


def _add_symmetric(Q: np.ndarray, rows, cols, values):
    """Q[r, c] += v and Q[c, r] += v; repeated entries accumulate (np.add.at).

    The N = 2 periodic wrap bond of the single-band chain lands on the same
    entries as the inner bond, so plain fancy-indexed assignment would drop it.
    """
    np.add.at(Q, (rows, cols), values)
    np.add.at(Q, (cols, rows), values)


def build_bkc_quadratic(p: BKCParams, bc: BoundaryCondition) -> QuadraticForm:
    """Quadratic form of the single-band chain; PBC adds the wrap bond."""
    n = p.N
    Q = np.zeros((2 * n, 2 * n))
    Q[np.diag_indices(2 * n)] = p.omega
    a, b = np.array(_bonds(n, bc)).T
    _add_symmetric(Q, 2 * a, 2 * b + 1, p.Delta0 - p.J0)  # -(J0-Delta0) x_a p_b
    _add_symmetric(Q, 2 * a + 1, 2 * b, p.J0 + p.Delta0)  # +(J0+Delta0) p_a x_b
    return QuadraticForm(Q=Q, n_cells=n, n_sublattices=1, bc=bc)


def build_modbkc_quadratic(p: Union[ModBKCParams, SiteFields], bc: BoundaryCondition) -> QuadraticForm:
    """Quadratic form of the two-sublattice chain, uniform or site-resolved."""
    f = SiteFields.uniform(p) if isinstance(p, ModBKCParams) else p
    n = f.N
    Q = np.diag(np.repeat(np.column_stack([f.omega_A, f.omega_B]).ravel(), 2))
    x_a = 4 * np.arange(n)  # flat index of x_{A,j}; p_A, x_B, p_B follow
    # (J1+Delta1) x_{A,j} x_{B,j} + (J1-Delta1) p_{A,j} p_{B,j}
    _add_symmetric(Q, x_a, x_a + 2, f.J1 + f.Delta1)
    _add_symmetric(Q, x_a + 1, x_a + 3, f.J1 - f.Delta1)
    # (J2+Delta2) x_{B,a} x_{A,b} + (J2-Delta2) p_{B,a} p_{A,b}
    a, b = np.array(_bonds(n, bc)).T
    _add_symmetric(Q, 4 * a + 2, 4 * b, f.J2[a] + f.Delta2[a])
    _add_symmetric(Q, 4 * a + 3, 4 * b + 1, f.J2[a] - f.Delta2[a])
    return QuadraticForm(Q=Q, n_cells=n, n_sublattices=2, bc=bc)


def excitation_matrix(q: QuadraticForm) -> ExcitationMatrix:
    """Commutator map of a quadratic Hamiltonian: M = -i Sigma Q.

    Sigma[a, b] = [v_a, v_b]/i is block-diagonal with [[0, 1], [-1, 0]] per
    (site, sublattice), so Sigma Q is a signed swap of the x and p rows.  The
    sign makes a single oscillator (Q = omega*I) come out as omega*sigma_y in
    the (x, p) basis, consistent with the direct builders below.
    """
    asym = np.abs(q.Q - q.Q.T).max()
    if asym > _ASYMMETRY_TOL:
        raise ValueError(f"quadratic form is not symmetric: max asymmetry {asym:.3e}")
    SQ = np.empty_like(q.Q)
    SQ[0::2] = q.Q[1::2]
    SQ[1::2] = -q.Q[0::2]
    return ExcitationMatrix(M=-1j * SQ, n_cells=q.n_cells, n_sublattices=q.n_sublattices,
                            bc=q.bc, source="symplectic")


def build_bkc_excitation_direct(p: BKCParams, bc: BoundaryCondition) -> ExcitationMatrix:
    """Single-band excitation matrix transcribed from the commutators (test oracle).

    Per bond (a -> b = a+1):  [H, x_a] picks up -i(J0+Delta0) x_b,
    [H, x_b] picks up +i(J0-Delta0) x_a, and the p channel has the two
    couplings interchanged; onsite, [H, x_j] = -i omega p_j and
    [H, p_j] = +i omega x_j (the omega*sigma_y block).
    """
    n = p.N
    M = np.zeros((2 * n, 2 * n), dtype=complex)
    for j in range(n):
        M[flat_index_bkc(j, 0), flat_index_bkc(j, 1)] = -1j * p.omega
        M[flat_index_bkc(j, 1), flat_index_bkc(j, 0)] = 1j * p.omega
    for a, b in _bonds(n, bc):
        M[flat_index_bkc(a, 0), flat_index_bkc(b, 0)] += -1j * (p.J0 + p.Delta0)
        M[flat_index_bkc(b, 0), flat_index_bkc(a, 0)] += 1j * (p.J0 - p.Delta0)
        M[flat_index_bkc(a, 1), flat_index_bkc(b, 1)] += -1j * (p.J0 - p.Delta0)
        M[flat_index_bkc(b, 1), flat_index_bkc(a, 1)] += 1j * (p.J0 + p.Delta0)
    return ExcitationMatrix(M=M, n_cells=n, n_sublattices=1, bc=bc, source="direct")


def build_modbkc_excitation_direct(p: ModBKCParams, bc: BoundaryCondition) -> ExcitationMatrix:
    """Two-sublattice excitation matrix transcribed from the commutators (test oracle).

    Intracell, [H', x_{A,j}] = ... + i(Delta1-J1) p_{B,j} and
    [H', p_{A,j}] = ... + i(Delta1+J1) x_{B,j} (and A <-> B mirrored);
    intercell bonds couple (B, a) to (A, a+1) with Delta2 -+ J2 weights.
    """
    n = p.N
    M = np.zeros((4 * n, 4 * n), dtype=complex)
    ix = flat_index_modbkc
    for j in range(n):
        for S in (0, 1):
            M[ix(j, S, 0), ix(j, S, 1)] = -1j * p.omega
            M[ix(j, S, 1), ix(j, S, 0)] = 1j * p.omega
        M[ix(j, 0, 0), ix(j, 1, 1)] += 1j * (p.Delta1 - p.J1)
        M[ix(j, 0, 1), ix(j, 1, 0)] += 1j * (p.Delta1 + p.J1)
        M[ix(j, 1, 0), ix(j, 0, 1)] += 1j * (p.Delta1 - p.J1)
        M[ix(j, 1, 1), ix(j, 0, 0)] += 1j * (p.Delta1 + p.J1)
    for a, b in _bonds(n, bc):
        M[ix(b, 0, 0), ix(a, 1, 1)] += 1j * (p.Delta2 - p.J2)
        M[ix(b, 0, 1), ix(a, 1, 0)] += 1j * (p.Delta2 + p.J2)
        M[ix(a, 1, 0), ix(b, 0, 1)] += 1j * (p.Delta2 - p.J2)
        M[ix(a, 1, 1), ix(b, 0, 0)] += 1j * (p.Delta2 + p.J2)
    return ExcitationMatrix(M=M, n_cells=n, n_sublattices=2, bc=bc, source="direct")


def bloch_matrix(p: Union[BKCParams, ModBKCParams], k) -> np.ndarray:
    """Bloch block of the periodic chain at quasi-momentum k.

    ``k`` is a scalar, giving one (s, s) block (s = 2 for the single-band
    chain, 4 for the two-sublattice chain), or an array of any shape, giving
    a stack of shape ``k.shape + (s, s)``.

    B(k) = T0 + T+ exp(ik) + T- exp(-ik), where T0, T+ and T- are the blocks
    of cell 0 with cells 0, 1 and 2 of the model's production matrix on a
    three-cell ring (there cells 1 and 2 are the distinct neighbours of
    cell 0).  Both models therefore share one convention: the plane wave
    v[(j, a)] = exp(+ikj) u_a is an eigenvector of the ring wherever u is
    one of the block, and the eigenvalue set over k = 2 pi m / N is the PBC
    spectrum.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(np.isfinite(k)):
        raise ValueError(f"momentum must be finite, got {k!r}")
    # exp(+ik), exact at the quarter turns k = 0, pi/2, pi, 3 pi/2 as rounded:
    # in the two-cell ring (k = 0, pi) the wrap bond lands on the inner
    # bond's entries, and couplings that cancel there must cancel here too
    turns = np.round(k / (np.pi / 2))
    exact = np.array([1, 1j, -1, -1j])[(turns % 4).astype(int)]
    fwd = np.where(turns * (np.pi / 2) == k, exact, np.exp(1j * k))[..., None, None]
    build = build_bkc_quadratic if isinstance(p, BKCParams) else build_modbkc_quadratic
    M = excitation_matrix(build(replace(p, N=3), BoundaryCondition.PBC)).M
    s = M.shape[0] // 3
    return M[:s, :s] + M[:s, s:2 * s] * fwd + M[:s, 2 * s:] * fwd.conj()
