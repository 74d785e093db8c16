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

    [H, v_a] = sum_b  M[a, b] v_b,      M = -i Sigma Q = i K,

where Sigma[a, b] = [v_a, v_b] / i is the symplectic form.  Q is real
symmetric, so K = -Sigma Q is real (Colpa, Physica A 93, 327 (1978)): K is
the model's excitation operator.  The basis is site-major: flat index 2j+s
for the single-band chain and 4j+2S+s for the two-sublattice chain (S = 0
for A, 1 for B; s = 0 for x, 1 for p).

`excitation_bands` maps Q's diagonals onto K's, and `excitation_matrix`
scatters them into a dense K.  No solve forms the dense Q, nor the complex
M of the chain it solves (`bloch_matrix` reads a three-cell ring's M).
The ``build_*_excitation_direct`` builders transcribe K from the commutators
instead; they are kept only as an independent oracle for tests and are
called nowhere else in the package.

The run limits (``MAX_CELLS``, ``MAX_THREADS``, ``MIN_WINDING_GRID``,
``MAX_GRID_POINTS``) and sweep grids (`AxisSpec`, `grid_size`, `grid_points`)
live here only, beside the parameters they bound, so that a config check
loads no solver beyond this module.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Sequence, Union

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
    "excitation_bands",
    "build_bkc_excitation_direct",
    "build_modbkc_excitation_direct",
    "bloch_matrix",
    "AxisSpec",
    "grid_size",
    "grid_points",
]

MAX_GRID_POINTS = 10 ** 6
# Largest chain length a run config may ask for: the 4N x 4N complex
# eigenvectors of a two-sublattice chain take 1.6 GB at N = 2500 cells
MAX_CELLS = 2500
# Most worker threads a run config may ask for; topology.map_points starts at most one per point
MAX_THREADS = 64
MIN_WINDING_GRID = 64
MAX_SEED = (1 << 64) - 1  # largest disorder seed: the keyed hash reads 64 bits, so a larger one would alias


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
        if operator.index(self.N) < 2:  # a non-integer N raises TypeError
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
        if operator.index(self.N) < 2:  # a non-integer N raises TypeError
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
        n = len(self.J1)
        for name in ("J1", "J2", "Delta1", "Delta2", "omega_A", "omega_B"):
            if np.iscomplexobj(getattr(self, name)):  # a float conversion would drop the imaginary part
                raise TypeError(f"SiteFields.{name} must be real; complex couplings are not supported")
            arr = np.asarray(getattr(self, name), dtype=float)
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

    @classmethod
    def of(cls, p: Union[ModBKCParams, "SiteFields"]) -> "SiteFields":
        """``p`` as site fields: a `ModBKCParams` is made `uniform`, site fields are returned as they are."""
        return cls.uniform(p) if isinstance(p, ModBKCParams) else p


@dataclass(frozen=True)
class QuadraticForm:
    """Real symmetric matrix Q with H = (1/2) v^T Q v in the flat basis, held as its upper diagonals.

    ``diagonals`` maps offsets 0 <= d < dim to ``np.diagonal(Q, d)``; the dense Q is never formed.
    """

    diagonals: dict
    n_cells: int
    n_sublattices: int  # 1 for the single-band chain, 2 for the SSH-like chain
    bc: BoundaryCondition

    def __post_init__(self):
        for d, values in self.diagonals.items():
            if not (0 <= d < self.dim and np.shape(values) == (self.dim - d,)):
                raise ValueError(f"diagonal {d}: need 0 <= d < {self.dim} and {self.dim} - d values,"
                                 f" got shape {np.shape(values)}")

    @property
    def dim(self) -> int:
        return 2 * self.n_cells * self.n_sublattices

    def block(self, s: int) -> np.ndarray:
        """``Q[s::2, s::2]``, the x (s = 0) or p (s = 1) block, from the even-offset diagonals alone."""
        return _symmetric(self.dim // 2, {d // 2: v[s::2] for d, v in self.diagonals.items() if d % 2 == 0})


def _symmetric(dim: int, diagonals: dict) -> np.ndarray:
    """The dense symmetric dim x dim matrix with the upper diagonals ``diagonals`` (offset -> values)."""
    return _scatter(np.zeros((dim, dim)), [*diagonals.items(), *((-d, v) for d, v in diagonals.items() if d)])


def _scatter(A: np.ndarray, bands) -> np.ndarray:
    """``A`` with the diagonals ``bands`` ((offset, values) pairs) written into it."""
    for d, values in bands:
        i = np.arange(len(A) - abs(d))
        A[i + max(0, -d), i + max(0, d)] = values
    return A


@dataclass(frozen=True)
class ExcitationMatrix:
    """The commutator map [H, .] on the quadrature basis, M = i K, held as the dense K; a complex K raises TypeError."""

    K: np.ndarray
    n_cells: int
    bc: BoundaryCondition
    source: str = field(default="", compare=False)

    def __post_init__(self):
        if np.iscomplexobj(self.K):
            raise TypeError("ExcitationMatrix.K must be real: M = i K with K real")

    @property
    def M(self) -> np.ndarray:
        """M = -i (-K), formed on each read as -i Sigma Q writes it: every real part +0.0, every imaginary part K's."""
        return -1j * -self.K

    @property
    def dim(self) -> int:
        return self.K.shape[0]


def flat_index_bkc(j: int, s: int) -> int:
    return 2 * j + s


def flat_index_modbkc(j: int, S: int, s: int) -> int:
    return 4 * j + 2 * S + s


def cell_index(dim: int, n_cells: int) -> np.ndarray:
    """Cell index of each flat basis component."""
    per_cell = dim // n_cells
    return np.repeat(np.arange(n_cells), per_cell)


def build_bkc_quadratic(p: BKCParams, bc: BoundaryCondition) -> QuadraticForm:
    """Quadratic form of the single-band chain; PBC adds the wrap bond."""
    n = p.N
    diagonals = {0: np.full(2 * n, float(p.omega)), 1: np.zeros(2 * n - 1), 3: np.zeros(2 * n - 3)}
    diagonals[1][1::2] += p.J0 + p.Delta0  # +(J0+Delta0) p_a x_{a+1} at Q[2a + 1, 2a + 2]
    diagonals[3][0::2] += p.Delta0 - p.J0  # -(J0-Delta0) x_a p_{a+1} at Q[2a, 2a + 3]
    if bc is BoundaryCondition.PBC:  # wrap bond: Q[1, 2n - 2], Q[0, 2n - 1]; at n = 2 it adds to the inner bond's
        diagonals.setdefault(2 * n - 3, np.zeros(3))[1] += p.Delta0 - p.J0
        diagonals.setdefault(2 * n - 1, np.zeros(1))[0] += p.J0 + p.Delta0
    return QuadraticForm(diagonals=diagonals, n_cells=n, n_sublattices=1, bc=bc)


def build_modbkc_quadratic(p: Union[ModBKCParams, SiteFields], bc: BoundaryCondition) -> QuadraticForm:
    """Quadratic form of the two-sublattice chain, uniform or site-resolved."""
    f = SiteFields.of(p)
    n = f.N
    # Q[4j + r, 4j + r + 2], r = 0..3: (J1+Delta1) x_{A,j} x_{B,j}, (J1-Delta1) p_{A,j} p_{B,j},
    # (J2+Delta2) x_{B,j} x_{A,j+1}, (J2-Delta2) p_{B,j} p_{A,j+1}; + 0.0 stores -0.0 as 0.0, as += onto zeros does
    bonds = np.column_stack([f.J1 + f.Delta1, f.J1 - f.Delta1, f.J2 + f.Delta2, f.J2 - f.Delta2]).ravel() + 0.0
    diagonals = {0: np.repeat(np.column_stack([f.omega_A, f.omega_B]).ravel(), 2), 2: bonds[:-2]}
    if bc is BoundaryCondition.PBC:  # the last intercell bond wraps to cell 0: Q[0, 4n - 2] and Q[1, 4n - 1]
        diagonals[4 * n - 2] = bonds[-2:]
    return QuadraticForm(diagonals=diagonals, n_cells=n, n_sublattices=2, bc=bc)


def excitation_matrix(q: QuadraticForm) -> ExcitationMatrix:
    """The dense real K of M = -i Sigma Q = i K, scattered from `excitation_bands`; the dense Q is not formed."""
    K = np.zeros((q.dim, q.dim))
    K[0::2] = -0.0  # row 2i is -Q[2i + 1]: LAPACK reads the sign of a zero, and single-band solves move without it
    return ExcitationMatrix(K=_scatter(K, excitation_bands(q)), n_cells=q.n_cells, bc=q.bc, source="symplectic")


def excitation_bands(q: QuadraticForm) -> list:
    """Nonzero diagonals of K = -Sigma Q as (offset, values) pairs, by ascending offset; no dense Q is formed.

    Sigma[a, b] = [v_a, v_b]/i is block-diagonal with [[0, 1], [-1, 0]] per
    (site, sublattice), so Sigma Q is a signed swap of the x and p rows: row
    2i of K is -Q[2i + 1] and row 2i + 1 is Q[2i].  K's diagonal d therefore
    reads Q's diagonal d - 1 on even rows and d + 1 on odd rows.  The sign
    makes a single oscillator (Q = omega*I) come out as M = omega*sigma_y in
    the (x, p) basis, consistent with the direct builders below.  An
    all-zero K has no band.
    """
    n, zero = q.dim, np.zeros(q.dim)
    by_row = {e: np.concatenate([v, zero[:e]]) for e, v in q.diagonals.items()}  # Q[r, r + e] at r, else 0
    by_row.update({-e: np.roll(row, e) for e, row in by_row.items()})  # Q[r, r - e] = Q[r - e, r] at r, else 0
    bands = []
    for d in sorted({e + t for e in by_row for t in (-1, 1) if abs(e + t) < n}):
        K = np.empty(n)
        K[0::2] = -by_row.get(d - 1, zero)[1::2]
        K[1::2] = by_row.get(d + 1, zero)[0::2]
        values = K[max(0, -d):n - max(0, d)]
        if values.any():
            bands.append((d, values))
    return bands


def build_bkc_excitation_direct(p: BKCParams, bc: BoundaryCondition) -> ExcitationMatrix:
    """Single-band excitation matrix transcribed from the commutators (test oracle).

    Per bond (a -> b = a+1):  [H, x_a] picks up -i(J0+Delta0) x_b,
    [H, x_b] picks up +i(J0-Delta0) x_a, and the p channel has the two
    couplings interchanged; onsite, [H, x_j] = -i omega p_j and
    [H, p_j] = +i omega x_j (the omega*sigma_y block).  Each entry is
    written as K's, the real coefficient of i.
    """
    n = p.N
    K = np.zeros((2 * n, 2 * n))
    for j in range(n):
        K[flat_index_bkc(j, 0), flat_index_bkc(j, 1)] = -p.omega
        K[flat_index_bkc(j, 1), flat_index_bkc(j, 0)] = p.omega
    for a in range(n if bc is BoundaryCondition.PBC else n - 1):  # bond (a, b); a ring's last bond wraps to 0
        b = (a + 1) % n
        K[flat_index_bkc(a, 0), flat_index_bkc(b, 0)] += -(p.J0 + p.Delta0)
        K[flat_index_bkc(b, 0), flat_index_bkc(a, 0)] += p.J0 - p.Delta0
        K[flat_index_bkc(a, 1), flat_index_bkc(b, 1)] += -(p.J0 - p.Delta0)
        K[flat_index_bkc(b, 1), flat_index_bkc(a, 1)] += p.J0 + p.Delta0
    return ExcitationMatrix(K=K, n_cells=n, bc=bc, source="direct")


def build_modbkc_excitation_direct(p: ModBKCParams, bc: BoundaryCondition) -> ExcitationMatrix:
    """Two-sublattice excitation matrix transcribed from the commutators (test oracle).

    Intracell, [H', x_{A,j}] = ... + i(Delta1-J1) p_{B,j} and
    [H', p_{A,j}] = ... + i(Delta1+J1) x_{B,j} (and A <-> B mirrored);
    intercell bonds couple (B, a) to (A, a+1) with Delta2 -+ J2 weights.
    Each entry is written as K's, the real coefficient of i.
    """
    n = p.N
    K = np.zeros((4 * n, 4 * n))
    ix = flat_index_modbkc
    for j in range(n):
        for S in (0, 1):
            K[ix(j, S, 0), ix(j, S, 1)] = -p.omega
            K[ix(j, S, 1), ix(j, S, 0)] = p.omega
        K[ix(j, 0, 0), ix(j, 1, 1)] += p.Delta1 - p.J1
        K[ix(j, 0, 1), ix(j, 1, 0)] += p.Delta1 + p.J1
        K[ix(j, 1, 0), ix(j, 0, 1)] += p.Delta1 - p.J1
        K[ix(j, 1, 1), ix(j, 0, 0)] += p.Delta1 + p.J1
    for a in range(n if bc is BoundaryCondition.PBC else n - 1):  # bond (a, b); a ring's last bond wraps to 0
        b = (a + 1) % n
        K[ix(b, 0, 0), ix(a, 1, 1)] += p.Delta2 - p.J2
        K[ix(b, 0, 1), ix(a, 1, 0)] += p.Delta2 + p.J2
        K[ix(a, 1, 0), ix(b, 0, 1)] += p.Delta2 - p.J2
        K[ix(a, 1, 1), ix(b, 0, 0)] += p.Delta2 + p.J2
    return ExcitationMatrix(K=K, n_cells=n, bc=bc, source="direct")


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


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter, inclusive range; the name is a coupling or omega of either model."""

    name: str
    start: float
    stop: float
    step: float

    def count(self) -> int:
        """Number of points start + i step <= stop, with 1e-9 relative slack for rounding; no grid allocated."""
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and math.isfinite(self.step)):
            raise ValueError("axis start, stop and step must be finite")
        if self.step <= 0:
            raise ValueError("axis step must be positive")
        if self.stop < self.start:
            raise ValueError("axis stop must be >= start")
        ratio = (self.stop - self.start) / self.step
        if not math.isfinite(ratio):
            raise ValueError(f"axis step {self.step!r} gives a non-finite number of points")
        return math.floor(ratio + 1e-9 * max(1.0, ratio)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(grid_size([self]))


def grid_size(axes: Sequence[AxisSpec]) -> int:
    """Points of the product grid; raises ValueError above the 1e6 limit."""
    total = math.prod(ax.count() for ax in axes)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid has {total} points, above the 1e6 limit")
    return total


def grid_points(base: Union[BKCParams, ModBKCParams], axes: Sequence[AxisSpec]):
    """(values, parameters) per point of the product grid of ``axes`` over ``base``, first axis slowest.

    The one walk of a sweep grid.  It raises ValueError when called, on an
    axis whose name is no coupling or omega of ``base`` or is on another axis
    (whose value it would overwrite), or on a grid `grid_size` rejects.  The
    values are floats; no axes give the one point ``((), base)``.
    """
    names = tuple(ax.name for ax in axes)
    known = {f.name for f in fields(base)} - {"N"}  # the couplings and omega: N sizes the chain
    for i, name in enumerate(names):
        if name not in known:
            raise ValueError(f"sweep parameter {name!r} is no coupling or omega of {type(base).__name__}")
        if name in names[:i]:
            raise ValueError(f"sweep parameter {name!r} is on two axes")
    grid_size(axes)
    return ((values, replace(base, **dict(zip(names, values))) if names else base)
            for values in itertools.product(*(ax.values().tolist() for ax in axes)))
