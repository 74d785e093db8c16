"""The benchmark's workloads: a config generated from the seed, a unit count
and a check of the outputs the CLI wrote.

All three run the two-sublattice chain at N = 100 cells, the size of the
paper's figures.  The grids are strided subsets of the figure grids so that
one CLI run takes a few seconds; N is never reduced, because a smaller N
shifts the balance between the dense O(n^3) solves and the Python overhead.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N = 100
DIM = 4 * N

# scan: an edge mode pair splits by about (|dtilde1|/|dtilde2|)^N; above this
# the count at tolerance 1e-6 is a finite-size effect, not a phase property.
SPLITTING_SKIP = 1e-9
PAIRING_TOL = 1e-10    # sweep: E <-> -E, relative to max|E|
BLOCH_TOL = 1e-6       # sweep: PBC spectrum vs Bloch union, relative to max|E|
PROFILE_SUM_TOL = 1e-9
FRACTION_TOL = 1e-9


@dataclass
class Check:
    """Outcome of checking one run's outputs: failed units with reasons."""

    failures: dict = field(default_factory=dict)   # unit label -> reason
    notes: list = field(default_factory=list)

    def fail(self, unit, reason: str):
        self.failures.setdefault(str(unit), reason)


def grid_offset(seed: int) -> float:
    """Seeded fraction of one grid step; seed 0 gives the figure grid exactly."""
    return 0.0 if seed == 0 else random.Random(seed).random()


def _grid(seed: int, step: float, points: int):
    start = grid_offset(seed) * step
    return start, start + (points - 1) * step


def _read_rows(path: Path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def hausdorff(a, b) -> float:
    d = np.abs(np.asarray(a)[:, None] - np.asarray(b)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def bloch_eigenvalues(J1, J2, Delta1, Delta2, omega, n_cells) -> np.ndarray:
    """Union over k = 2 pi m / N of the 4x4 Bloch block eigenvalues.

    A copy of the block written out here, so that a solve route built on
    `bkchain.model.bloch_matrix` is still checked against an independent one.
    """
    k = 2 * np.pi * np.arange(n_cells) / n_cells
    em, ep = np.exp(-1j * k), np.exp(1j * k)
    B = np.zeros((n_cells, 4, 4), dtype=complex)
    for S in (0, 1):
        B[:, 2 * S, 2 * S + 1] = -1j * omega
        B[:, 2 * S + 1, 2 * S] = 1j * omega
    B[:, 0, 3] = 1j * (Delta1 - J1) + 1j * (Delta2 - J2) * em
    B[:, 1, 2] = 1j * (Delta1 + J1) + 1j * (Delta2 + J2) * em
    B[:, 2, 1] = 1j * (Delta1 - J1) + 1j * (Delta2 - J2) * ep
    B[:, 3, 0] = 1j * (Delta1 + J1) + 1j * (Delta2 + J2) * ep
    return np.linalg.eigvals(B).ravel()


class Scan:
    """phase-scan over J1 on the fig4 grid at stride 10 (13 points, OBC, omega = 0).

    Every point goes through the omega = 0 SSH reduction and the gauge lift;
    edge_mode_count solves the same SSH matrix again and the skin census
    builds 4N spatial profiles.  No dense 4N solve runs.
    """

    name = "scan"
    command = "phase-scan"
    J2, Delta1, Delta2 = 0.0, 1.0, 1.5
    step, points = 0.2, 13
    units = points

    def config(self, seed: int) -> str:
        start, stop = _grid(seed, self.step, self.points)
        return (f"[model]\nkind = modbkc\nJ1 = 0\nJ2 = {self.J2!r}\nDelta1 = {self.Delta1!r}\n"
                f"Delta2 = {self.Delta2!r}\nomega = 0\nN = {N}\nbc = obc\n\n"
                f"[sweep]\nparameter = J1\nmin = {start!r}\nmax = {stop!r}\nstep = {self.step!r}\n")

    def expected_modes(self, J1: float):
        """2 where the analytic winding is nonzero, 0 where it is zero, None to skip."""
        d1 = abs(np.sqrt(complex(self.Delta1 ** 2 - J1 ** 2)))
        d2 = abs(np.sqrt(complex(self.Delta2 ** 2 - self.J2 ** 2)))
        ratio = d1 / d2 if d2 else math.inf
        if ratio > 1:
            return 0
        return None if ratio ** N >= SPLITTING_SKIP else 2

    def check(self, out: Path, seed: int) -> Check:
        result = Check()
        start, _ = _grid(seed, self.step, self.points)
        header, rows = _read_rows(out / "phase_scan.csv")
        col = {name: i for i, name in enumerate(header)}
        skipped = 0
        for i in range(self.points):
            J1 = start + self.step * i
            if i >= len(rows):
                result.fail(i, "row missing")
                continue
            row = rows[i]
            if abs(float(row[col["J1"]]) - J1) > 1e-12:
                result.fail(i, f"J1 {row[col['J1']]} != {J1!r}")
            elif row[col["error"]]:
                result.fail(i, f"error: {row[col['error']]}")
            else:
                expected = self.expected_modes(J1)
                if expected is None:
                    skipped += 1
                elif row[col["zero_modes"]] != str(expected):
                    result.fail(i, f"zero_modes {row[col['zero_modes']]!r} != {expected} at J1={J1!r}")
        result.notes.append(f"zero-mode check skipped {skipped} of {self.points} points "
                            f"with edge splitting >= {SPLITTING_SKIP:g}")
        return result


class Sweep:
    """spectrum over Delta1 in [0, 3] at step 0.75 (5 points, omega = 0.3, OBC and PBC).

    Every solve is a dense 4N x 4N eigendecompose whose eigenvectors are
    thrown away; the run writes the largest CSV and SVG of the three.  It
    bypasses transform, topology, skin and disorder.
    """

    name = "sweep"
    command = "spectrum"
    J1, J2, Delta2, omega = 1.4, 1.2, 1.0, 0.3
    step, points = 0.75, 5
    bcs = ("obc", "pbc")
    units = points * len(bcs)

    def config(self, seed: int) -> str:
        start, stop = _grid(seed, self.step, self.points)
        return (f"[model]\nkind = modbkc\nJ1 = {self.J1!r}\nJ2 = {self.J2!r}\nDelta1 = 1\n"
                f"Delta2 = {self.Delta2!r}\nomega = {self.omega!r}\nN = {N}\nbc = both\n\n"
                f"[sweep]\nparameter = Delta1\nmin = {start!r}\nmax = {stop!r}\nstep = {self.step!r}\n")

    def check(self, out: Path, seed: int) -> Check:
        result = Check()
        start, _ = _grid(seed, self.step, self.points)
        worst_pair = worst_bloch = 0.0
        for bc in self.bcs:
            _, rows = _read_rows(out / f"{bc}.csv")
            for i in range(self.points):
                unit = f"{bc}:{i}"
                block = rows[i * DIM:(i + 1) * DIM]
                Delta1 = start + self.step * i
                if len(block) != DIM or any(abs(float(r[0]) - Delta1) > 1e-12 for r in block):
                    result.fail(unit, f"expected {DIM} eigenvalues at Delta1={Delta1!r}")
                    continue
                E = np.array([complex(float(r[2]), float(r[3])) for r in block])
                scale = np.abs(E).max()
                pair = hausdorff(E, -E) / scale
                worst_pair = max(worst_pair, pair)
                if not pair <= PAIRING_TOL:
                    result.fail(unit, f"E <-> -E pairing off by {pair:.2e} x max|E|")
                if bc == "pbc":
                    ref = bloch_eigenvalues(self.J1, self.J2, Delta1, self.Delta2, self.omega, N)
                    dist = hausdorff(E, ref) / scale
                    worst_bloch = max(worst_bloch, dist)
                    if not dist <= BLOCH_TOL:
                        result.fail(unit, f"PBC vs Bloch union off by {dist:.2e} x max|E|")
        result.notes.append(f"worst pairing {worst_pair:.1e}, worst PBC-Bloch {worst_bloch:.1e} (x max|E|)")
        return result


class Ensemble:
    """disorder in the fig9 shape (omega = 0.05, W_omega = 2), 6 realizations.

    Same dense solver as sweep, but the eigenvectors feed the skin census and
    the mean profile; it also runs the hash RNG and the Python-loop quadratic
    builder with the excitation_matrix product.
    """

    name = "ensemble"
    command = "disorder"
    realizations = 6
    base_seed = 20240601   # fig9's seed; workload seed 0 reproduces its first realizations
    units = realizations

    def config(self, seed: int) -> str:
        return (f"[model]\nkind = modbkc\nJ1 = 2.2\nJ2 = 1\nDelta1 = 2.1\nDelta2 = 1.5\n"
                f"omega = 0.05\nN = {N}\nbc = obc\n\n"
                f"[disorder]\nW_omega = 2\nrealizations = {self.realizations}\n"
                f"seed = {self.base_seed + seed}\nobservables = nhse_fraction,mean_profile\n"
                f"frac = 0.1\nthreshold = 0.5\n")

    def check(self, out: Path, seed: int) -> Check:
        result = Check()
        _, rows = _read_rows(out / "nhse_fraction.csv")
        values = {r[0]: r[1] for r in rows}
        for i in range(self.realizations):
            if str(i) not in values:
                result.fail(i, "realization row missing")
                continue
            v = float(values[str(i)])
            if not (0 <= v <= 1 and abs(v * DIM - round(v * DIM)) <= FRACTION_TOL):
                result.fail(i, f"nhse_fraction {v!r} is not a multiple of 1/{DIM} in [0, 1]")
        _, rows = _read_rows(out / "mean_profile.csv")
        prob = np.array([float(r[1]) for r in rows])
        reason = None
        if len(prob) != DIM:
            reason = f"mean_profile has {len(prob)} entries, expected {DIM}"
        elif prob.min() < 0:
            reason = f"mean_profile has a negative entry {prob.min()!r}"
        elif abs(prob.sum() - 1) > PROFILE_SUM_TOL:
            reason = f"mean_profile sums to 1 {prob.sum() - 1:+.2e}"
        if reason:   # an aggregate over every realization: all of them fail
            for i in range(self.realizations):
                result.fail(i, reason)
        return result


WORKLOADS = {w.name: w for w in (Scan(), Sweep(), Ensemble())}
