"""Per-layer tracing of the bkchain package from outside it.

`Tracer.install` wraps every public function of every ``bkchain`` module,
and the public methods of the classes they define, in a span that counts
calls and measures self time (the span's time minus the time of the spans
it encloses).  ``from .x import f`` copies a name into the importing module,
so each function is rebound at every place a module binds it, private
aliases included.  Nothing under ``src/`` changes.

NumPy's eigensolvers are wrapped as counters, not spans, so the time spent
in LAPACK stays in the self time of the bkchain function that called it.

Traced runs use one worker thread: spans are kept per thread, and spans
opened in a pool thread would not nest under the span that submitted them.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
import types

# Layer groups reported by the benchmark; each member is "module.function"
# or "module.Class.method" relative to the bkchain package.
LAYERS = {
    "cli.parse_config": ("cli.parse_config",),
    "model.build": ("model.build_bkc_quadratic", "model.build_modbkc_quadratic",
                    "model.excitation_matrix", "model.build_bkc_excitation_direct",
                    "model.build_modbkc_excitation_direct"),
    "spectral.eigendecompose": ("spectral.eigendecompose",),
    "spectral.modbkc_spectrum_zero_omega": ("spectral.modbkc_spectrum_zero_omega",),
    "transform.effective_ssh_matrix": ("transform.effective_ssh_matrix",),
    "transform.a_combined": ("transform.a_combined",),
    "transform.lift": ("transform.SimilarityMatrix.lift",),
    "topology.edge_mode_count": ("topology.edge_mode_count",),
    "topology.phase_scan": ("topology.phase_scan",),
    "skin": ("skin.spatial_profile", "skin.edge_weight", "skin.profile_matrix",
             "skin.nhse_fraction"),
    "skin.spatial_profile": ("skin.spatial_profile",),
    "disorder.sample_site_fields": ("disorder.sample_site_fields",),
    "disorder.ensemble_observables": ("disorder.ensemble_observables",),
    "csvio.write": ("csvio.write_csv", "csvio.write_manifest"),
    "svgplot": ("svgplot.scatter_svg", "svgplot.line_svg", "svgplot.heatmap_svg"),
}

EIGENSOLVERS = ("eig", "eigh", "eigvals", "eigvalsh")


class Tracer:
    """Span statistics per wrapped function plus eigensolve counters."""

    def __init__(self):
        self.stats = {}        # "module.name" -> [calls, total_s, self_s]
        self.counters = {"spectral.solved_dim3": 0, "linalg.solved_dim3": 0,
                         "disorder.failures": 0}
        self.root_s = 0.0      # time covered by outermost spans
        self._local = threading.local()

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []           # child time accumulated per open span
            local.spectral_depth = 0
        return local

    def _wrap(self, key: str, fn):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        spectral = key.startswith("spectral.")
        failures = key == "disorder.ensemble_observables"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = self._state()
            stack = local.stack
            stack.append(0.0)
            local.spectral_depth += spectral
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if failures:
                    self.counters["disorder.failures"] += len(result.failures)
                return result
            finally:
                dt = time.perf_counter() - t0
                local.spectral_depth -= spectral
                children = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - children
                if stack:
                    stack[-1] += dt
                else:
                    self.root_s += dt

        return traced

    def _count_solves(self, fn):
        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            cube = int(a.shape[-1]) ** 3
            self.counters["linalg.solved_dim3"] += cube
            if self._state().spectral_depth:
                self.counters["spectral.solved_dim3"] += cube
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> list:
        """Wrap the package in place; returns LAYERS members that were not found."""
        import numpy.linalg

        import bkchain

        for info in pkgutil.iter_modules(bkchain.__path__):
            importlib.import_module(f"bkchain.{info.name}")
        for name in EIGENSOLVERS:
            setattr(numpy.linalg, name, self._count_solves(getattr(numpy.linalg, name)))
        modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("bkchain.")]
        wrapped = {}   # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{name}", obj))
                elif isinstance(obj, type):
                    self._wrap_methods(f"{short}.{name}", obj)
        for mod in [bkchain, *modules]:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)][1])
        return [m for members in LAYERS.values() for m in members if m not in self.stats]

    def _wrap_methods(self, prefix: str, cls: type):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(f"{prefix}.{name}", attr))
            elif isinstance(attr, (classmethod, staticmethod)):
                setattr(cls, name, type(attr)(self._wrap(f"{prefix}.{name}", attr.__func__)))

    def report(self) -> dict:
        """Plain-data summary for the run record."""
        return {"stats": {k: v for k, v in self.stats.items() if v[0]},
                "counters": dict(self.counters), "root_s": self.root_s}


def layer_metrics(report: dict) -> dict:
    """calls and self_s of every LAYERS group, plus the counters."""
    stats = report["stats"]
    out = {}
    for group, members in LAYERS.items():
        rows = [stats.get(m, [0, 0.0, 0.0]) for m in members]
        out[f"{group}.calls"] = sum(r[0] for r in rows)
        out[f"{group}.self_s"] = sum(r[2] for r in rows)
    out.update(report["counters"])
    return out
