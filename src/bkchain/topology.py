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
from a spectrum already solved, and `edge_mode_count` solves the open
chain for it without eigenvectors.  `zero_modes` is the literal threshold
count on whatever spectrum it is given.

`phase_scan` returns one `PhasePoint` per point of `model.grid_points`; the
sweep axes and run limits live in `model` only.  The census defaults are set
here only: ``ZERO_TOL`` on |E|, and the skin census's ``EDGE_FRAC`` and
``EDGE_THRESHOLD`` (`skin.nhse_fraction`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence, Union

import numpy as np

from .model import (MAX_GRID_POINTS, MIN_WINDING_GRID, AxisSpec, BoundaryCondition, ModBKCParams, SiteFields,
                    grid_points)
from .spectral import SolverError, Spectrum, reduced_route, solve, zero_gap as _zero_gap

if TYPE_CHECKING:  # transform is imported by the functions that use it: an x/p run never loads it
    from .transform import EffectiveSSHParams

__all__ = [
    "WindingResult",
    "GapClosedError",
    "h_pm",
    "winding_numeric",
    "winding_analytic",
    "zero_modes",
    "zero_modes_per_copy",
    "edge_mode_count",
    "PhasePoint",
    "POINT_ERRORS",
    "map_points",
    "phase_scan",
]

_GAP_TOL = 1e-10
ZERO_TOL = 1e-6
EDGE_FRAC = 0.1
EDGE_THRESHOLD = 0.9


class GapClosedError(ValueError):
    """|h(k)| dipped below threshold somewhere on the k grid."""


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
    closed = np.concatenate([h, h[:1]])  # closed on its first sample: w is an integer to rounding
    total = np.unwrap(np.angle(closed))
    return round((total[-1] - total[0]) / (2 * np.pi))


def winding_numeric(eff: EffectiveSSHParams, grid: int = 1024) -> WindingResult:
    """Phase-unwrapped winding numbers of h_pm over k in [-pi, pi)."""
    if not MIN_WINDING_GRID <= grid <= MAX_GRID_POINTS:
        raise ValueError(f"grid must be in [{MIN_WINDING_GRID}, {MAX_GRID_POINTS}], got {grid}")
    ks = -np.pi + 2 * np.pi * np.arange(grid) / grid
    hp, hm = h_pm(ks, eff)
    return WindingResult(w_plus=_winding_of_samples(hp), w_minus=_winding_of_samples(hm))


def winding_analytic(eff: EffectiveSSHParams) -> WindingResult:
    """Closed form: (+1, -1) when |dtilde2| > |dtilde1|, else (0, 0)."""
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


def edge_mode_count(p: Union[ModBKCParams, SiteFields], tol: float = ZERO_TOL) -> int:
    """Zero modes per quadrature copy of the open chain, from an eigenvalue-only `solve`.

    This is `zero_modes_per_copy` on ``solve(p, OBC, vectors=False)``, which
    callers that already hold the spectrum compute directly; at omega = 0 it
    counts on the reduced SSH spectrum.  Edge modes live on open chains only.
    """
    return zero_modes_per_copy(solve(p, BoundaryCondition.OBC, vectors=False), p, BoundaryCondition.OBC, tol)


@dataclass(frozen=True)
class PhasePoint:
    values: tuple
    zero_gap: float
    zero_modes: Optional[int]
    w_plus: Optional[int]
    w_minus: Optional[int]
    nhse_fraction: Optional[float]
    error: Optional[str] = None


def _scan_point(values: tuple, p: ModBKCParams) -> PhasePoint:
    from .skin import nhse_fraction
    from .transform import effective_ssh_params
    eff = effective_ssh_params(p)
    try:
        w = winding_analytic(eff)
        w_plus, w_minus = w.w_plus, w.w_minus
    except GapClosedError:
        w_plus = w_minus = None
    spec = solve(p, BoundaryCondition.OBC)
    nhse = None if spec.base is None else nhse_fraction(spec, EDGE_FRAC, EDGE_THRESHOLD, p.N)
    return PhasePoint(values=values, zero_gap=_zero_gap(spec),
                      zero_modes=zero_modes_per_copy(spec, p, BoundaryCondition.OBC, ZERO_TOL),
                      w_plus=w_plus, w_minus=w_minus, nhse_fraction=nhse)


# Errors that fail a single point or realization.  Anything else is a
# programming error and propagates.  SolverError covers every LAPACK failure
# of a solve; ValueError covers SingularTransformError and GapClosedError.
POINT_ERRORS = (SolverError, ValueError)
# Tasks in flight per worker thread in `map_points`; `Executor.map` would submit every item at once.
TASKS_PER_WORKER = 4


def map_points(fn, items: Sequence, threads: int = 1) -> list:
    """fn over items in input order, on min(threads, len(items)) worker threads.

    Each result is ``(fn(item), None)``, or ``(None, "Name: message")`` where
    fn raised one of `POINT_ERRORS`; any other exception propagates.  At most
    ``TASKS_PER_WORKER`` tasks per worker are in flight.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    def guarded(item):
        try:
            return fn(item), None
        except POINT_ERRORS as err:
            return None, f"{type(err).__name__}: {err}"

    workers = min(threads, len(items))
    if workers <= 1:
        return [guarded(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results, pending = [], []
        for item in items:
            pending.append(pool.submit(guarded, item))
            if len(pending) == TASKS_PER_WORKER * workers:
                results.append(pending.pop(0).result())
        return results + [future.result() for future in pending]


def phase_scan(base: ModBKCParams, axes: Sequence[AxisSpec], threads: int = 1) -> tuple:
    """`PhasePoint` per point of a 1-2 parameter sweep (`grid_points`); a point that fails records its error."""
    if not 1 <= len(axes) <= 2:
        raise ValueError("phase_scan takes one or two axes")
    grid = list(grid_points(base, axes))
    results = map_points(lambda point: _scan_point(*point), grid, threads)
    return tuple(point or PhasePoint(values=vals, zero_gap=float("nan"), zero_modes=None, w_plus=None,
                                     w_minus=None, nhse_fraction=None, error=error)
                 for (vals, _), (point, error) in zip(grid, results))
