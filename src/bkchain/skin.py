"""Spatial eigenstate profiles and skin-effect diagnostics.

A profile is the normalized squared modulus of an eigenvector over the flat
basis (occupation probability).  Edge weight sums the profile over the first
and last ceil(frac*N) unit cells; `nhse_fraction` reports how many eigenstates
clear an edge-weight threshold, which distinguishes the skin-effect regime
(all states pile up at the boundaries) from the delocalized one.

The profiles of a `Spectrum` are read off ``Spectrum.base``: each sign flip
has the profile of its base column, so `profile_matrix` (`profile_rows`)
equals the profiles of ``Spectrum.eigenvectors`` bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import cell_index
from .spectral import Spectrum

__all__ = [
    "SpatialProfile",
    "spatial_profile",
    "edge_weight",
    "nhse_fraction",
    "profile_rows",
    "profile_matrix",
]


@dataclass(frozen=True)
class SpatialProfile:
    """Occupation probabilities over the flat basis, one column per state; each sums to one."""

    prob: np.ndarray
    n_cells: int

    def __post_init__(self):
        if np.any(self.prob < 0):
            raise ValueError("profile entries must be non-negative")
        drift = np.abs(self.prob.sum(axis=0) - 1.0).max()
        if drift > 1e-12:
            raise ValueError(f"profile must sum to 1, off by {drift!r}")


def spatial_profile(v: np.ndarray, n_cells: int) -> SpatialProfile:
    """Normalized |v|^2 over the flat basis; a 2-D ``v`` holds one vector per column."""
    prob = np.abs(np.asarray(v)).astype(float, copy=False)
    np.square(prob, out=prob)  # in place, like the divisions: one array of the size of v's parts
    norm2 = prob.sum(axis=0)
    if np.any(norm2 == 0) or not np.all(np.isfinite(norm2)):
        raise ValueError("cannot build a profile from a zero or non-finite vector")
    prob /= norm2
    prob /= prob.sum(axis=0)  # repair last-ulp drift
    return SpatialProfile(prob=prob, n_cells=n_cells)


def edge_weight(p: SpatialProfile, frac: float):
    """Profile mass in the first and last ceil(frac*N) cells, per column."""
    if not 0 < frac <= 0.5:
        raise ValueError(f"frac must be in (0, 0.5], got {frac}")
    n = p.n_cells
    ncells = math.ceil(frac * n)
    cells = cell_index(len(p.prob), n)
    weight = p.prob[(cells < ncells) | (cells >= n - ncells)].sum(axis=0)
    return float(weight) if np.ndim(weight) == 0 else weight  # a float for a single profile


def nhse_fraction(s: Spectrum, frac: float, threshold: float, n_cells: int) -> float:
    """Fraction of eigenstates with edge weight above the threshold; each base column stands for equally many."""
    if s.base is None:
        raise ValueError("nhse_fraction needs a spectrum with eigenvectors")
    return float((edge_weight(spatial_profile(s.base, n_cells), frac) > threshold).mean())


def profile_rows(s: Spectrum, p: SpatialProfile) -> np.ndarray:
    """The profiles ``p`` of ``s.base``, each written into the rows of its sorted slots (``Spectrum.slots``)."""
    if s.slots is None:
        return p.prob.T
    rows = np.empty((len(s), len(p.prob)))
    for slot in s.slots.reshape(-1, p.prob.shape[1]):
        rows[slot] = p.prob.T
    return rows


def profile_matrix(s: Spectrum, n_cells: int) -> np.ndarray:
    """Stacked profiles, row = eigenstate (in eigenvalue sort order), column = flat index."""
    if s.base is None:
        raise ValueError("profile_matrix needs a spectrum with eigenvectors")
    return profile_rows(s, spatial_profile(s.base, n_cells))
