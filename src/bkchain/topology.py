"""Winding numbers, zero-mode detection and phase-diagram scans.

The off-diagonal Bloch components of the mapped SSH chain,

    h_pm(k) = dtilde1 + dtilde2 cos(k) +- i dtilde2 sin(k) = dtilde1 + dtilde2 e^{+-ik},

trace circles of radius |dtilde2| centered at dtilde1, so the winding numbers
are w_pm = +-1 when |dtilde2| > |dtilde1| and 0 otherwise.  `winding_numeric`
evaluates the contour integral by phase unwrapping on a uniform k grid and
must agree with the closed form on every gapped point.

Zero modes: at omega = 0 the excitation spectrum consists of two exact copies
of the reduced SSH spectrum (+-i E_m each), so counting threshold crossings on
the full matrix double-counts the physical edge modes.  The per-copy count,
2 in the topological phase and 0 in the trivial one, is therefore half of the
literal `zero_modes` count on that spectrum; `zero_modes_per_copy` takes it
from a spectrum already solved, and `edge_mode_count` solves the reduced
spectrum for it without eigenvectors.  `zero_modes` is the literal threshold
count on whatever spectrum it is given.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .model import BoundaryCondition, ModBKCParams, SiteFields
from .skin import nhse_fraction
from .spectral import (SolverError, Spectrum, modbkc_spectrum_zero_omega, reduced_route, solve,
                       zero_gap as _zero_gap)
from .transform import EffectiveSSHParams, effective_ssh_params

__all__ = [
    "WindingResult",
    "GapClosedError",
    "NonIntegerWindingError",
    "h_pm",
    "winding_numeric",
    "winding_analytic",
    "zero_modes",
    "zero_modes_per_copy",
    "edge_mode_count",
    "gap_closing_predicates",
    "AxisSpec",
    "PhasePoint",
    "PhaseDiagram",
    "grid_size",
    "POINT_ERRORS",
    "map_points",
    "phase_scan",
]

_WINDING_RESIDUE_TOL = 0.01
_GAP_TOL = 1e-10
MAX_GRID_POINTS = 10 ** 6
# Largest chain length a run config may ask for: the 4N x 4N complex
# eigenvectors of a two-sublattice chain take 1.6 GB at N = 2500 cells
MAX_CELLS = 2500
MIN_WINDING_GRID = 64


class GapClosedError(ValueError):
    """|h(k)| dipped below threshold somewhere on the k grid."""


class NonIntegerWindingError(RuntimeError):
    """Unwrapped phase did not land near an integer multiple of 2 pi."""


@dataclass(frozen=True)
class WindingResult:
    w_plus: int
    w_minus: int


def h_pm(k: float, eff: EffectiveSSHParams):
    """Off-diagonal Bloch entries of the mapped SSH block at momentum k."""
    hp = eff.dtilde1 + eff.dtilde2 * np.cos(k) + 1j * eff.dtilde2 * np.sin(k)
    hm = eff.dtilde1 + eff.dtilde2 * np.cos(k) - 1j * eff.dtilde2 * np.sin(k)
    return hp, hm


def _winding_of_samples(h: np.ndarray) -> int:
    if np.abs(h).min() < _GAP_TOL:
        raise GapClosedError(f"min |h| = {np.abs(h).min():.3e} below {_GAP_TOL}; winding undefined")
    closed = np.concatenate([h, h[:1]])
    total = np.unwrap(np.angle(closed))
    w = (total[-1] - total[0]) / (2 * np.pi)
    nearest = round(w)
    if abs(w - nearest) >= _WINDING_RESIDUE_TOL:
        raise NonIntegerWindingError(f"winding residue |{w:.4f} - {nearest}| >= {_WINDING_RESIDUE_TOL}")
    return int(nearest)


def winding_numeric(eff: EffectiveSSHParams, grid: int = 1024) -> WindingResult:
    """Phase-unwrapped winding numbers of h_pm over k in [-pi, pi)."""
    if grid < MIN_WINDING_GRID:
        raise ValueError(f"grid must be >= {MIN_WINDING_GRID}, got {grid}")
    ks = -np.pi + 2 * np.pi * np.arange(grid) / grid
    hp, hm = h_pm(ks, eff)
    return WindingResult(w_plus=_winding_of_samples(hp), w_minus=_winding_of_samples(hm))


def winding_analytic(p: Union[ModBKCParams, EffectiveSSHParams]) -> WindingResult:
    """Closed form: (+1, -1) when |dtilde2| > |dtilde1|, else (0, 0)."""
    eff = p if isinstance(p, EffectiveSSHParams) else effective_ssh_params(p)
    a1, a2 = abs(eff.dtilde1), abs(eff.dtilde2)
    if math.isclose(a1, a2, rel_tol=1e-12, abs_tol=1e-15):
        raise GapClosedError(f"|dtilde1| = |dtilde2| = {a1:.6g}: phase boundary, winding undefined")
    if a2 > a1:
        return WindingResult(w_plus=1, w_minus=-1)
    return WindingResult(w_plus=0, w_minus=0)


def zero_modes(s: Spectrum, tol: float):
    """Indices and count of eigenvalues with |E| < tol (literal threshold)."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    idx = np.flatnonzero(np.abs(s.eigenvalues) < tol)
    return len(idx), idx.tolist()


def zero_modes_per_copy(s: Spectrum, p: Union[ModBKCParams, SiteFields], bc: BoundaryCondition,
                        tol: float) -> int:
    """Zero modes of ``s = solve(p, bc)`` per quadrature copy.

    Half the literal count where `reduced_route` holds (its spectrum has two
    copies of each edge mode), the literal count otherwise.
    """
    return zero_modes(s, tol)[0] // (2 if reduced_route(p, bc) else 1)


def edge_mode_count(p: Union[ModBKCParams, SiteFields], tol: float = 1e-6,
                    bc: BoundaryCondition = BoundaryCondition.OBC) -> int:
    """Zero modes per quadrature copy of the open chain at omega = 0 (reduced SSH spectrum).

    The reduced spectrum is {+i E_m} and {-i E_m}, two exact copies, so this
    is ``zero_modes(spectrum, tol)[0] // 2`` on it, which callers that
    already hold the spectrum compute directly.  The reduction holds for
    open chains only, so PBC is rejected.
    """
    return zero_modes(modbkc_spectrum_zero_omega(p, bc, with_vectors=False), tol)[0] // 2


def gap_closing_predicates(p: ModBKCParams, rel_tol: float = 1e-9) -> dict:
    """Open/periodic gap-closing identities as booleans.

    obc_type1: dtilde1^2 =  dtilde2^2  (Delta1^2 - J1^2 =   Delta2^2 - J2^2)
    obc_type2: dtilde1^2 = -dtilde2^2  (Delta1^2 - J1^2 = -(Delta2^2 - J2^2))
    pbc: with one coupling switched off, J^2 = (Delta1 +- Delta2)^2 for the
    other; the mixed-J periodic closing has no closed form here.
    """
    scale = max(1.0, p.J1 ** 2, p.J2 ** 2, p.Delta1 ** 2, p.Delta2 ** 2)
    t1 = (p.Delta1 ** 2 - p.J1 ** 2) - (p.Delta2 ** 2 - p.J2 ** 2)
    t2 = (p.Delta1 ** 2 - p.J1 ** 2) + (p.Delta2 ** 2 - p.J2 ** 2)
    pbc = False
    for sign in (1.0, -1.0):
        target = (p.Delta1 + sign * p.Delta2) ** 2
        if p.J2 == 0 and abs(p.J1 ** 2 - target) <= rel_tol * scale:
            pbc = True
        if p.J1 == 0 and abs(p.J2 ** 2 - target) <= rel_tol * scale:
            pbc = True
    return {
        "obc_type1": abs(t1) <= rel_tol * scale,
        "obc_type2": abs(t2) <= rel_tol * scale,
        "pbc": pbc,
    }


@dataclass(frozen=True)
class AxisSpec:
    """One swept parameter, inclusive range; the name is a coupling or omega of either model."""

    name: str
    start: float
    stop: float
    step: float

    def count(self) -> int:
        """Number of grid points, computed without allocating the grid."""
        if self.name not in ("J0", "Delta0", "J1", "J2", "Delta1", "Delta2", "omega"):
            raise ValueError(f"unknown sweep parameter {self.name!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop) and math.isfinite(self.step)):
            raise ValueError("axis start, stop and step must be finite")
        if self.step <= 0:
            raise ValueError("axis step must be positive")
        if self.stop < self.start:
            raise ValueError("axis stop must be >= start")
        ratio = (self.stop - self.start) / self.step
        if not math.isfinite(ratio):
            raise ValueError(f"axis step {self.step!r} gives a non-finite number of points")
        return int(round(ratio)) + 1

    def values(self) -> np.ndarray:
        return self.start + self.step * np.arange(grid_size([self]))


def grid_size(axes: Sequence[AxisSpec]) -> int:
    """Points of the product grid; raises ValueError above the 1e6 limit."""
    total = math.prod(ax.count() for ax in axes)
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid has {total} points, above the 1e6 limit")
    return total


@dataclass(frozen=True)
class PhasePoint:
    values: tuple
    zero_gap: float
    zero_modes: Optional[int]
    w_plus: Optional[int]
    w_minus: Optional[int]
    nhse_fraction: Optional[float]
    error: Optional[str] = None


@dataclass(frozen=True)
class PhaseDiagram:
    axes: tuple
    points: tuple


def _scan_point(p: ModBKCParams, values: tuple, tol: float, frac: float, threshold: float) -> PhasePoint:
    eff = effective_ssh_params(p)
    try:
        w = winding_analytic(eff)
        w_plus, w_minus = w.w_plus, w.w_minus
    except GapClosedError:
        w_plus = w_minus = None
    spec = solve(p, BoundaryCondition.OBC)
    nhse = None if spec.eigenvectors is None else nhse_fraction(spec, frac, threshold, p.N)
    return PhasePoint(values=values, zero_gap=_zero_gap(spec),
                      zero_modes=zero_modes_per_copy(spec, p, BoundaryCondition.OBC, tol),
                      w_plus=w_plus, w_minus=w_minus, nhse_fraction=nhse)


# Errors that fail a single point or realization.  Anything else is a
# programming error and propagates.  ValueError covers SingularTransformError
# and GapClosedError.
POINT_ERRORS = (SolverError, ValueError, np.linalg.LinAlgError)


def map_points(fn, items: Sequence, threads: int = 1) -> list:
    """fn over items in input order, on ``threads`` worker threads when threads > 1.

    Each result is ``(fn(item), None)``, or ``(None, "Name: message")`` where
    fn raised one of `POINT_ERRORS`; any other exception propagates.
    """
    def guarded(item):
        try:
            return fn(item), None
        except POINT_ERRORS as err:
            return None, f"{type(err).__name__}: {err}"

    if threads <= 1:
        return [guarded(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(guarded, items))


def phase_scan(base: ModBKCParams, axes: Sequence[AxisSpec], tol: float = 1e-6,
               frac: float = 0.1, threshold: float = 0.9,
               threads: int = 1) -> PhaseDiagram:
    """Sweep 1-2 parameters; a point that fails records its error and does not abort the scan."""
    if not 1 <= len(axes) <= 2:
        raise ValueError("phase_scan takes one or two axes")
    for ax in axes:
        if not hasattr(base, ax.name):
            raise ValueError(f"sweep parameter {ax.name!r} does not exist on {type(base).__name__}")
    grid_size(axes)
    combos = [tuple(float(v) for v in vals) for vals in itertools.product(*(ax.values() for ax in axes))]

    def work(vals):
        p = replace(base, **{ax.name: v for ax, v in zip(axes, vals)})
        return _scan_point(p, vals, tol, frac, threshold)

    points = tuple(point or PhasePoint(values=vals, zero_gap=float("nan"), zero_modes=None, w_plus=None,
                                       w_minus=None, nhse_fraction=None, error=error)
                   for vals, (point, error) in zip(combos, map_points(work, combos, threads)))
    return PhaseDiagram(axes=tuple(axes), points=points)
