"""Seeded disorder ensembles and disorder-averaged observables.

Every parameter P in {J1, J2, Delta1, Delta2, omega} can be drawn per site
uniformly from [P(1-W_P), P(1+W_P)].  The onsite frequency is drawn
independently for the two sublattices (omega_A, omega_B).  Randomness comes
from a counter-based keyed hash (SplitMix64 finalizer): every entry is a pure
function of (seed, realization, parameter, site), so single entries are
reproducible in isolation, realizations can run in any order or in parallel,
and outputs are bit-identical across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .model import MAX_GRID_POINTS, MAX_SEED, BoundaryCondition, ModBKCParams, SiteFields
from .spectral import solve, zero_gap
from .topology import EDGE_FRAC, EDGE_THRESHOLD, ZERO_TOL, map_points, zero_modes_per_copy

__all__ = [
    "DisorderSpec",
    "sample_site_fields",
    "EnsembleResult",
    "ensemble_observables",
    "OBSERVABLES",
]

_PARAM_IDS = {"J1": 1, "J2": 2, "Delta1": 3, "Delta2": 4, "omega_A": 5, "omega_B": 6}

OBSERVABLES = ("abs_spectrum", "zero_gap", "zero_modes", "nhse_fraction", "mean_profile")


@dataclass(frozen=True)
class DisorderSpec:
    """Disorder strengths W_P per parameter, RNG seed and realization count.

    The seed lies in [0, 2**64): the hash keys on its 64 bits, so a seed
    outside that range would alias one inside it.
    """

    strengths: dict
    seed: int
    realizations: int = 20

    def __post_init__(self):
        allowed = {"J1", "J2", "Delta1", "Delta2", "omega"}
        for name, w in self.strengths.items():
            if name not in allowed:
                raise ValueError(f"unknown disorder parameter {name!r}; allowed: {sorted(allowed)}")
            if not 0 <= w < math.inf:
                raise ValueError(f"disorder strength W_{name} must be finite and >= 0, got {w}")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if not 1 <= self.realizations <= MAX_GRID_POINTS:
            raise ValueError(f"realizations must be in [1, {MAX_GRID_POINTS}], got {self.realizations}")

    def strength(self, name: str) -> float:
        return float(self.strengths.get(name, 0.0))


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise over np.uint64, whose arithmetic wraps mod 2**64."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _keyed_uniforms(seed: int, realization: int, param_id: int, n: int) -> np.ndarray:
    """Uniforms in [0, 1) with 53-bit mantissas, one per site index 0..n-1, keyed by the full coordinate."""
    h = np.array([seed], dtype=np.uint64)
    for part in (np.uint64(realization), np.uint64(param_id), np.arange(n, dtype=np.uint64)):
        h = _splitmix64(h ^ part)
    return (h >> np.uint64(11)).astype(float) * 2.0 ** -53


def _draw(base: float, w: float, seed: int, realization: int, param: str, n: int) -> np.ndarray:
    if w == 0.0:
        return np.full(n, base)
    u = _keyed_uniforms(seed, realization, _PARAM_IDS[param], n)
    return base * (1.0 + w * (2.0 * u - 1.0))


def sample_site_fields(base: ModBKCParams, spec: DisorderSpec, realization: int) -> SiteFields:
    """One disorder realization; entries are uniform in [P(1-W_P), P(1+W_P)]."""
    if not 0 <= realization < spec.realizations:
        raise ValueError(f"realization {realization} outside [0, {spec.realizations})")
    n = base.N
    w_om = spec.strength("omega")
    return SiteFields(
        J1=_draw(base.J1, spec.strength("J1"), spec.seed, realization, "J1", n),
        J2=_draw(base.J2, spec.strength("J2"), spec.seed, realization, "J2", n),
        Delta1=_draw(base.Delta1, spec.strength("Delta1"), spec.seed, realization, "Delta1", n),
        Delta2=_draw(base.Delta2, spec.strength("Delta2"), spec.seed, realization, "Delta2", n),
        omega_A=_draw(base.omega, w_om, spec.seed, realization, "omega_A", n),
        omega_B=_draw(base.omega, w_om, spec.seed, realization, "omega_B", n),
    )


@dataclass(frozen=True)
class EnsembleResult:
    """Per-realization observable values with mean/std aggregates."""

    observables: dict            # name -> array, one row per realization not in failures, in order
    mean: dict
    std: dict
    seed: int
    realizations: int
    failures: tuple = field(default=())


def ensemble_observables(base: ModBKCParams, spec: DisorderSpec,
                         observables: Iterable[str] = ("zero_gap", "zero_modes"),
                         bc: BoundaryCondition = BoundaryCondition.OBC,
                         zero_tol: float = ZERO_TOL,
                         frac: float = EDGE_FRAC, threshold: float = EDGE_THRESHOLD,
                         threads: int = 1) -> EnsembleResult:
    """Disorder-averaged observables over ``spec.realizations`` realizations.

    A realization that raises one of `topology.POINT_ERRORS` is recorded and
    skipped; the run only fails if every realization does.  ``zero_modes`` is
    the per-quadrature-copy count of the open chain at omega = 0 and the
    literal threshold count otherwise.  Eigenvectors are solved, and the
    `spatial_profile` of their base columns built once, only when
    ``nhse_fraction`` or ``mean_profile`` asks for them.
    """
    names = tuple(observables)
    for name in names:
        if name not in OBSERVABLES:
            raise ValueError(f"unknown observable {name!r}; choose from {OBSERVABLES}")

    vectors = not {"nhse_fraction", "mean_profile"}.isdisjoint(names)

    def one(realization: int):
        f = sample_site_fields(base, spec, realization)
        spectrum = solve(f, bc, vectors=vectors)
        out, profile = {}, None
        for name in names:
            if name == "abs_spectrum":
                out[name] = np.sort(np.abs(spectrum.eigenvalues))
            elif name == "zero_gap":
                out[name] = zero_gap(spectrum)
            elif name == "zero_modes":
                out[name] = zero_modes_per_copy(spectrum, f, bc, zero_tol)
            elif spectrum.base is None:
                raise ValueError(f"{name} needs a spectrum with eigenvectors")
            else:  # nhse_fraction or mean_profile, from one profile of the base columns per realization
                from .skin import edge_weight, profile_rows, spatial_profile  # only a run that reads profiles
                profile = profile or spatial_profile(spectrum.base, base.N)
                out[name] = (float((edge_weight(profile, frac) > threshold).mean()) if name == "nhse_fraction"
                             else profile_rows(spectrum, profile).mean(axis=0))
        return out

    results = map_points(one, range(spec.realizations), threads)
    failures = [(r, error) for r, (_, error) in enumerate(results) if error is not None]
    good = [out for out, _ in results if out is not None]
    if not good:
        raise RuntimeError(f"all {spec.realizations} realizations failed; first: {failures[0][1]}")
    obs = {name: np.array([g[name] for g in good]) for name in names}
    mean = {name: np.mean(arr, axis=0) for name, arr in obs.items()}
    std = {name: np.std(arr, axis=0, ddof=1) if len(good) > 1 else np.zeros_like(np.mean(arr, axis=0))
           for name, arr in obs.items()}
    return EnsembleResult(observables=obs, mean=mean, std=std, seed=spec.seed,
                          realizations=spec.realizations, failures=tuple(failures))
