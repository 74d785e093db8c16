#!/usr/bin/env python3
"""Per-stage timings of one parameter point per solve route.

Usage: PYTHONPATH=src python scripts/per_point.py [--cells N] [--repeats K]

For one point of each route of `bkchain.spectral.solve` (chain length N,
default 100) it times, best of K runs (default 7), in milliseconds:

* ``build``: what the route builds to check or solve: Q's diagonals
  (``build_*_quadratic``) and the diagonals of the real K = -i M mapped
  from them (`excitation_bands`); on the dense route, including the x/p
  guard's fallback, also the dense K scattered from those diagonals
  (`excitation_matrix`).  No route forms the dense Q;
* ``solve`` and ``solve_no_vectors``: ``solve(p, bc)`` and
  ``solve(p, bc, vectors=False)``;
* ``eigenvalues``: the reduced route's eigenvalue kernels inside
  ``solve(p, bc, vectors=False)``, timed by wrapping them, the sum of each
  called kernel's best time (null off the reduced route): `np.linalg.svd`
  of the upper-bidiagonal F = D^T on a single-phase chain (every bond real,
  or every bond imaginary, solved as T = H_ssh / i); on a sign-mixed chain
  (real and imaginary bonds), the quantisation-condition kernel
  `_quantised_mu`, plus the dense eigenvalues of D F (`_square_eig`) where
  it returns None, as on every such chain that is not uniform.  The reduced
  points run: svd
  (``reduced_all_real``), `_quantised_mu` (``reduced_half_size``,
  ``reduced_deflated`` and ``reduced_deflated_solved``, uniform sign-mixed
  chains), `_quantised_mu` then `_square_eig` (``reduced_guarded``, not
  uniform);
* ``lift`` and ``residuals``: the lift kernel ``SimilarityMatrix.lift_polar``
  of the checked eigenvector columns on both gauge routes and `_residuals`,
  each timed inside ``solve`` by wrapping it (null where the route runs no
  such step);
* ``census_base``: `nhse_fraction`, the census the program runs, on the
  spectrum's base columns, at the census defaults of `bkchain.topology`;
* ``csv_write``: one `write_csv` of the point's eigenvalues, as the
  columns index, re_E and im_E;
* ``profile_csv_write``: one `write_csv` of the point's profile table
  (`profile_matrix`) as the ``profiles`` command writes it;
* ``svg_write``: `scatter_svg` of the eigenvalues plus `heatmap_svg` of the
  profile matrix, as the ``spectrum`` and ``profiles`` commands plot them.

``census_base``, ``profile_csv_write`` and ``svg_write`` are null where
the spectrum has no vectors.

It also reports ``minor_faults_per_solve``: in a fresh process per point
(``spawn``), under the CLI's heap policy (`bkchain.cli.keep_freed_heap`),
after ``WARMUP_SOLVES`` solves of that point, the median over K
``solve(p, bc)`` calls of the minor page faults each took (``ru_minflt`` of
`resource.getrusage`), the cost of fresh pages for the arrays a solve
allocates.  Counted apart from every other stage, it does not depend on
what the script allocated before.  ``keep_freed_heap`` records whether
mallopt took that policy in every such process.  ``minor_faults_per_census`` is the
median over the K timed ``census_base`` calls in the main process (null
where the spectrum has no vectors).

``imports`` has one entry per CLI command: the bkchain modules a small run
of that command loads (``modules``, read off a fresh interpreter that runs
it) and ``median_ms``, the median over K fresh interpreters of the time to
import `bkchain.cli` and those modules, NumPy already loaded.  The
interpreters run with ``PYTHONDONTWRITEBYTECODE=1``, as the benchmark runs
its children, on a copy of the package without its ``__pycache__``, so
every bkchain module is compiled as in a fresh checkout.  The spectrum,
profiles and disorder runs are off the gauge routes (omega = 0.3), as the
benchmark's ``sweep`` and ``ensemble`` are; winding and phase-scan run at
omega = 0, as they must.

Every stage runs under the CLI's heap policy, as `bkchain.cli.main` applies
it before any solve: the main process takes it before the first stage, so
its ``solve`` times hold no page faults that the CLI does not take either.
``keep_freed_heap_stages`` records whether mallopt took it there.

``sample_site_fields`` (one realization with every parameter disordered) is
timed once.  BLAS and OpenMP run on one thread unless the environment sets
otherwise; the JSON printed on standard output records the thread settings
and the NumPy and BLAS build.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402

import numpy as np  # noqa: E402

import bkchain  # noqa: E402
from bkchain import spectral, transform  # noqa: E402
from bkchain.cli import keep_freed_heap  # noqa: E402
from bkchain.csvio import write_csv  # noqa: E402
from bkchain.disorder import DisorderSpec, sample_site_fields  # noqa: E402
from bkchain.model import (  # noqa: E402
    BKCParams,
    BoundaryCondition,
    ModBKCParams,
    SiteFields,
    build_bkc_quadratic,
    build_modbkc_quadratic,
    excitation_bands,
    excitation_matrix,
)
from bkchain.skin import nhse_fraction, profile_matrix  # noqa: E402
from bkchain.svgplot import heatmap_svg, scatter_svg  # noqa: E402
from bkchain.topology import EDGE_FRAC, EDGE_THRESHOLD  # noqa: E402

OBC, PBC = BoundaryCondition.OBC, BoundaryCondition.PBC
# solves of a point before its page faults are counted, in a process of its own
WARMUP_SOLVES = 3

_MODEL = "[model]\nkind = modbkc\nJ1 = 1\nJ2 = 0.5\nDelta1 = 1.5\nDelta2 = 2.1\nomega = {omega}\nN = 8\nbc = {bc}\n"
# command -> the config of its small run in `import_record`
IMPORT_RUNS = {
    "spectrum": _MODEL.format(omega=0.3, bc="both"),
    "profiles": _MODEL.format(omega=0.3, bc="obc"),
    "winding": _MODEL.format(omega=0, bc="obc"),
    "phase-scan": _MODEL.format(omega=0, bc="obc") + "[sweep]\nparameter = J1\nmin = 0\nmax = 1\nstep = 0.5\n",
    "disorder": _MODEL.format(omega=0.3, bc="obc") + "[disorder]\nW_J1 = 0.1\nrealizations = 2\n",
    "floquet": "[floquet]\nlambdas = 0,0.5\n",
}
_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'bkchain')"
# runs the command in argv and prints the bkchain modules it loaded
_RUN_SCRIPT = ("import json, sys\nfrom bkchain.cli import main\nassert main(sys.argv[1:]) == 0\n"
               f"print(json.dumps({_LOADED}))")
# imports the modules in argv after NumPy and prints the seconds it took
_IMPORT_SCRIPT = """import importlib, sys, time
import numpy
t0 = time.perf_counter()
for name in sys.argv[1:]:
    importlib.import_module(name)
print(time.perf_counter() - t0)
"""


def points(n):
    """(label, params, bc): one point per route; the reduced route has five cases, the x/p route two.

    ``reduced_all_real`` (every bond real: singular values of F = D^T) and
    ``reduced_deflated`` (sign-mixed: eigenvalues of D F) are topological,
    with a closed-form edge pair; both take their other eigenvectors from
    the twisted factorization.  ``reduced_half_size`` is sign-mixed and
    trivial; ``reduced_deflated_solved`` lies near the transition, where
    the pair's vectors are solved instead; ``reduced_guarded`` is the fig5
    chain at J2 = 2.2 nearly cut at its middle intercell bond, whose two
    edge pairs send it to the full-size solve.  ``xp`` is the uniform open
    chain, which the x/p route solves as two mirror halves; ``xp_fields``
    is the first fig9 realization (onsite omega disordered, no mirror
    symmetry), which keeps the unsplit x/p solve.  ``eig`` is the open
    single-band chain at omega = 0.5, whose x-p cross block is nonzero: the
    dense route, `eigendecompose`, which solves the real 2N x 2N Im M
    (M = i Im M) and returns E = i eig(Im M).
    """
    scan = ModBKCParams(J1=0.0, J2=0.0, Delta1=1.0, Delta2=1.5, omega=0.0, N=n)
    split = SiteFields.uniform(replace(scan, J2=2.2))
    J2 = split.J2.copy()
    J2[n // 2 - 1] = split.Delta2[n // 2 - 1] * (1 - 1e-6)
    sweep = ModBKCParams(J1=1.4, J2=1.2, Delta1=1.0, Delta2=1.0, omega=0.3, N=n)
    fig9 = ModBKCParams(J1=2.2, J2=1.0, Delta1=2.1, Delta2=1.5, omega=0.05, N=n)
    return [
        ("similarity", BKCParams(J0=0.5, Delta0=1.0, omega=0.0, N=n), OBC),
        ("reduced_all_real", ModBKCParams(J1=0.0, J2=0.5, Delta1=1.0, Delta2=1.5, omega=0.0, N=n), OBC),
        ("reduced_half_size", replace(scan, J1=2.0), OBC),
        ("reduced_deflated", replace(scan, J1=1.4), OBC),
        ("reduced_deflated_solved", replace(scan, J1=1.7), OBC),
        ("reduced_guarded", replace(split, J2=J2), OBC),
        ("bloch", sweep, PBC),
        ("xp", sweep, OBC),
        ("xp_fields", sample_site_fields(fig9, DisorderSpec({"omega": 2.0}, seed=20240601), 0), OBC),
        ("eig", BKCParams(J0=0.5, Delta0=1.0, omega=0.5, N=n), OBC),
    ]


def runs(fn, repeats):
    """Wall time (s) and minor page faults of each of ``repeats`` calls of fn."""
    times, faults = [], []
    for _ in range(repeats):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    return times, faults


def best_ms(fn, repeats):
    return 1e3 * min(runs(fn, repeats)[0])


class StageTimer:
    """Wraps the functions ``(owner, name)`` and records the wall time of each call."""

    def __init__(self, *targets):
        self.times = {target: [] for target in targets}

    def __enter__(self):
        self.inner = {target: getattr(*target) for target in self.times}
        for (owner, name), inner in self.inner.items():
            setattr(owner, name, self._timed(inner, self.times[owner, name]))
        return self

    @staticmethod
    def _timed(inner, times):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)
        return timed

    def __exit__(self, *exc):
        for (owner, name), inner in self.inner.items():
            setattr(owner, name, inner)

    def best_ms(self):
        """Sum over the wrapped functions that were called of each one's best call; None if none was."""
        called = [min(times) for times in self.times.values() if times]
        return 1e3 * sum(called) if called else None


def route_stages(p, bc, repeats):
    """The point's record, with every stage but the writers' and the page faults per solve, and its spectrum."""
    build = build_bkc_quadratic if isinstance(p, BKCParams) else build_modbkc_quadratic
    with StageTimer((transform.SimilarityMatrix, "lift_polar")) as lift, \
            StageTimer((spectral, "_residuals")) as residuals:
        solve_ms = best_ms(lambda: spectral.solve(p, bc), repeats)
    with StageTimer((np.linalg, "svd"), (spectral, "_quantised_mu"), (spectral, "_square_eig")) as kernel:
        bare_ms = best_ms(lambda: spectral.solve(p, bc, vectors=False), repeats)
    spec = spectral.solve(p, bc)
    built = excitation_matrix if spec.source.startswith("eig[") else excitation_bands  # the dense K, else its bands
    census_base = None
    if spec.base is not None:
        census_base = runs(lambda: nhse_fraction(spec, EDGE_FRAC, EDGE_THRESHOLD, p.N), repeats)
    stages = {
        "build": best_ms(lambda: built(build(p, bc)), repeats),
        "solve": solve_ms,
        "solve_no_vectors": bare_ms,
        "eigenvalues": kernel.best_ms() if spec.source.startswith("reduced[") else None,
        "lift": lift.best_ms(),
        "residuals": residuals.best_ms(),
        "census_base": None if census_base is None else 1e3 * min(census_base[0]),
    }
    params = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(p).items()}
    return {"params": params, "bc": bc.value, "source": spec.source, "stages_ms": stages,
            "minor_faults_per_census": None if census_base is None else statistics.median(census_base[1])}, spec


def solve_faults(label, cells, repeats):
    """(``minor_faults_per_solve`` of the point ``label``, whether mallopt took the CLI's heap policy).

    Run in a fresh process, under that policy, after ``WARMUP_SOLVES`` solves.
    """
    kept = keep_freed_heap()
    p, bc = next((p, bc) for name, p, bc in points(cells) if name == label)
    for _ in range(WARMUP_SOLVES):
        spectral.solve(p, bc)
    return statistics.median(runs(lambda: spectral.solve(p, bc), repeats)[1]), kept


def writer_stages(spec, n_cells, repeats, tmpdir):
    """The writer stages of one point: ``csv_write``, ``profile_csv_write`` and ``svg_write``."""
    E = spec.eigenvalues
    stages = {"csv_write": best_ms(lambda: write_csv(os.path.join(tmpdir, "eigenvalues.csv"),
                                                     ("index", "re_E", "im_E"), (np.arange(len(E)), E.real, E.imag)),
                                   repeats),
              "profile_csv_write": None, "svg_write": None}
    if spec.base is not None:
        P = profile_matrix(spec, n_cells)
        header = ("state",) + tuple(f"b{a}" for a in range(P.shape[1]))
        stages["profile_csv_write"] = best_ms(lambda: write_csv(os.path.join(tmpdir, "profiles.csv"), header,
                                                                (np.arange(len(P)),) + tuple(P.T)), repeats)

        def svg_write():
            scatter_svg(os.path.join(tmpdir, "spectrum.svg"), [("spectrum", E.real, E.imag, "crimson")],
                        "excitation spectrum", "Re E", "Im E")
            heatmap_svg(os.path.join(tmpdir, "profiles.svg"), P, "eigenstate occupation probabilities",
                        "flat basis index", "eigenstate")

        stages["svg_write"] = best_ms(svg_write, repeats)
    return stages


def _fresh_interpreter(root, script, *args):
    """Standard output of ``script`` run with ``args`` in a fresh interpreter that writes no bytecode.

    ``root`` is put first on its path: a directory that holds the bkchain package.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, check=True, capture_output=True,
                          text=True, timeout=120).stdout


def import_record(repeats, tmpdir):
    """The ``imports`` record: per command, the bkchain modules its run loads and their median import time."""
    root = os.path.join(tmpdir, "checkout")  # the sources alone, with no cached bytecode, as in a fresh checkout
    shutil.copytree(os.path.dirname(bkchain.__file__), os.path.join(root, "bkchain"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    record = {}
    for command, text in IMPORT_RUNS.items():
        cfg = os.path.join(tmpdir, f"{command}.cfg")
        with open(cfg, "w") as fh:
            fh.write(text)
        loaded = json.loads(_fresh_interpreter(root, _RUN_SCRIPT, command, "--config", cfg, "--out",
                                               os.path.join(tmpdir, command)).splitlines()[-1])
        modules = ["bkchain.cli"] + [m for m in loaded if m != "bkchain.cli"]
        times = [float(_fresh_interpreter(root, _IMPORT_SCRIPT, *modules)) for _ in range(repeats)]
        record[command] = {"modules": loaded, "median_ms": round(1e3 * statistics.median(times), 2)}
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=100, help="chain length N (default 100)")
    parser.add_argument("--repeats", type=int, default=7, help="runs per stage, best kept (default 7)")
    args = parser.parse_args(argv)
    if args.cells < 2 or args.repeats < 1:
        parser.error("--cells must be >= 2 and --repeats >= 1")
    base = ModBKCParams(J1=1.0, J2=1.4, Delta1=1.5, Delta2=2.1, omega=0.3, N=args.cells)
    spec = DisorderSpec({"J1": 0.5, "J2": 0.5, "Delta1": 0.5, "Delta2": 0.5, "omega": 0.5}, seed=1)
    kept_stages = keep_freed_heap()
    with tempfile.TemporaryDirectory() as tmpdir:
        solved = {label: (p, *route_stages(p, bc, args.repeats)) for label, p, bc in points(args.cells)}
        for p, record, spectrum in solved.values():
            record["stages_ms"].update(writer_stages(spectrum, p.N, args.repeats, tmpdir))
        imports = import_record(args.repeats, tmpdir)
    kept = []
    with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:  # a new process per point
        for label, (_, record, _) in solved.items():
            record["minor_faults_per_solve"], heap = pool.apply(solve_faults, (label, args.cells, args.repeats))
            kept.append(heap)
    routes = {label: record for label, (_, record, _) in solved.items()}
    for record in routes.values():
        record["stages_ms"] = {k: None if v is None else round(v, 3) for k, v in record["stages_ms"].items()}
    report = {
        "cells": args.cells,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas"),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                       "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "keep_freed_heap": all(kept),
        "keep_freed_heap_stages": kept_stages,
        "routes": routes,
        "imports": imports,
        "sample_site_fields_ms": round(best_ms(lambda: sample_site_fields(base, spec, 0), args.repeats), 3),
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
