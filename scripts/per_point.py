#!/usr/bin/env python3
"""Per-stage timings of one parameter point per solve route.

Usage: PYTHONPATH=src python scripts/per_point.py [--cells N] [--repeats K]

For one point of each route of `bkchain.spectral.solve` (chain length N,
default 100) it times, best of K runs (default 7), in milliseconds:

* ``build``: what the route builds for its checks: the quadratic form Q
  and the diagonals of M read off it (`excitation_bands`), or Q and the
  dense excitation matrix M on the dense route;
* ``solve`` and ``solve_no_vectors``: ``solve(p, bc)`` and
  ``solve(p, bc, vectors=False)``;
* ``lift`` and ``residuals``: the writing of the eigenvector columns
  (``SimilarityMatrix.lift`` on both gauge routes, plus `_sorted_pairs` on
  the reduced and x/p routes) and `_residuals`, each timed inside ``solve``
  by wrapping it (null where the route runs no such step);
* ``census``: `nhse_fraction` on the spectrum with vectors;
* ``csv_write``: one `write_csv` of the point's eigenvalues.

It also reports ``minor_faults_per_solve``, the median over the K timed
``solve(p, bc)`` calls of the minor page faults each took (``ru_minflt`` of
`resource.getrusage`): the cost of fresh pages for the arrays a solve
allocates.  ``minor_faults_per_census`` is the same median over the K timed
census calls (null where the spectrum has no vectors).

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
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, replace  # noqa: E402

import numpy as np  # noqa: E402

from bkchain import spectral, transform  # noqa: E402
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
from bkchain.skin import nhse_fraction  # noqa: E402

OBC, PBC = BoundaryCondition.OBC, BoundaryCondition.PBC


def points(n):
    """(label, params, bc): one point per route; the reduced route has five cases, the x/p route two.

    ``reduced_all_real`` (every bond real: `eigvalsh` of H_r) and
    ``reduced_deflated`` (sign-mixed: eigenvalues of D F) are topological,
    with a closed-form edge pair; both take their other eigenvectors from
    the twisted factorization.  ``reduced_half_size`` is sign-mixed and
    trivial; ``reduced_deflated_solved`` lies near the transition, where
    the pair's vectors are solved instead; ``reduced_guarded`` is the fig5
    chain at J2 = 2.2 nearly cut at its middle intercell bond, whose two
    edge pairs send it to the full-size solve.  ``xp`` is the uniform open
    chain, which the x/p route solves as two mirror halves; ``xp_fields``
    is the first fig9 realization (onsite omega disordered, no mirror
    symmetry), which keeps the unsplit x/p solve.
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


def route_stages(p, bc, repeats, tmpdir):
    build = build_bkc_quadratic if isinstance(p, BKCParams) else build_modbkc_quadratic
    with StageTimer((transform.SimilarityMatrix, "lift"), (spectral, "_sorted_pairs")) as lift, \
            StageTimer((spectral, "_residuals")) as residuals:
        solve_times, solve_faults = runs(lambda: spectral.solve(p, bc), repeats)
    spec = spectral.solve(p, bc)
    checked = excitation_matrix if spec.source.startswith("eig[") else excitation_bands
    census = None if spec.eigenvectors is None else runs(lambda: nhse_fraction(spec, 0.1, 0.9, p.N), repeats)
    stages = {
        "build": best_ms(lambda: checked(build(p, bc)), repeats),
        "solve": 1e3 * min(solve_times),
        "solve_no_vectors": best_ms(lambda: spectral.solve(p, bc, vectors=False), repeats),
        "lift": lift.best_ms(),
        "residuals": residuals.best_ms(),
        "census": None if census is None else 1e3 * min(census[0]),
    }
    rows = [(i, e.real, e.imag) for i, e in enumerate(spec.eigenvalues)]
    path = os.path.join(tmpdir, "eigenvalues.csv")
    stages["csv_write"] = best_ms(lambda: write_csv(path, ("index", "re_E", "im_E"), rows), repeats)
    params = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(p).items()}
    return {"params": params, "bc": bc.value, "source": spec.source,
            "stages_ms": {k: None if v is None else round(v, 3) for k, v in stages.items()},
            "minor_faults_per_solve": statistics.median(solve_faults),
            "minor_faults_per_census": None if census is None else statistics.median(census[1])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", type=int, default=100, help="chain length N (default 100)")
    parser.add_argument("--repeats", type=int, default=7, help="runs per stage, best kept (default 7)")
    args = parser.parse_args(argv)
    if args.cells < 2 or args.repeats < 1:
        parser.error("--cells must be >= 2 and --repeats >= 1")
    base = ModBKCParams(J1=1.0, J2=1.4, Delta1=1.5, Delta2=2.1, omega=0.3, N=args.cells)
    spec = DisorderSpec({"J1": 0.5, "J2": 0.5, "Delta1": 0.5, "Delta2": 0.5, "omega": 0.5}, seed=1)
    with tempfile.TemporaryDirectory() as tmpdir:
        routes = {label: route_stages(p, bc, args.repeats, tmpdir) for label, p, bc in points(args.cells)}
    report = {
        "cells": args.cells,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas"),
        "thread_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                       "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "routes": routes,
        "sample_site_fields_ms": round(best_ms(lambda: sample_site_fields(base, spec, 0), args.repeats), 3),
    }
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
