"""Command-line driver.

    bkchain <command> --config <file> [--out <dir>] [--plots] [--seed <u64>] [--threads <n>]

Run configurations are INI-style UTF-8 files (key = value under sections, see
configs/ for one per reproduced figure).  The sections each command reads:

    command      required              optional
    spectrum     [model]               [sweep]
    profiles     [model]
    winding      [model]               [sweep], [winding]
    phase-scan   [model], [sweep]
    disorder     [model], [disorder]   [sweep]
    floquet      [floquet]

Every command may also have an [output] section; any other section is a
configuration error.  [sweep] has one axis (parameter, min, max, step);
phase-scan takes a second (parameter2, min2, max2, step2) on another
parameter.  disorder.observables lists each observable once.

Integer keys (model.N, disorder.seed and .realizations, winding.grid,
output.threads) are integer literals, parsed exactly.  A chain has at most
MAX_CELLS = 2500 cells, a disorder seed, from the config or --seed, lies in
[0, 2**64), winding.grid in [64, MAX_GRID_POINTS = 10**6], disorder runs
at most MAX_GRID_POINTS realizations over all [sweep] points, and a thread
count, from any of the three sources below, lies in [1, MAX_THREADS = 64].

Every run writes CSV files plus a run manifest listing them; --plots adds
self-contained SVG figures.  A run computes all of its outputs before it
writes any, so a failed compute step writes no file.  Exit codes: 2 for
configuration errors, which are found before any compute step runs; 1 for
compute errors.

Thread count: --threads beats the BKCHAIN_THREADS environment variable beats
the config.  Only phase-scan points and disorder realizations are farmed out
over the threads, deterministically; spectrum, profiles, winding and floquet
run on one thread whatever the count.

Each command loads only the bkchain modules its run executes: every command
loads csvio, model, spectral and svgplot, to which profiles adds skin,
phase-scan adds topology, skin and transform, winding adds topology and
transform, disorder adds disorder and topology, and skin where an observable
reads profiles, floquet adds floquet, and a solve on a gauge route (an open
chain at omega = 0) adds transform.

On glibc, `main` keeps freed memory on the heap (`keep_freed_heap`), so a
run's repeated solves reuse their pages instead of faulting fresh ones in.
"""

from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import math
import os
import sys
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Union

import numpy as np

from . import __version__
from .csvio import write_csv, write_manifest
from .model import (
    MAX_CELLS,
    MAX_GRID_POINTS,
    MAX_SEED,
    MAX_THREADS,
    MIN_WINDING_GRID,
    AxisSpec,
    BKCParams,
    BoundaryCondition,
    ModBKCParams,
    grid_points,
)
from .spectral import solve
from . import svgplot

if TYPE_CHECKING:  # the other modules are imported by the commands and checks that use them
    from .disorder import DisorderSpec

_SCHEMA = {
    "model": {"kind", "J0", "Delta0", "J1", "J2", "Delta1", "Delta2", "omega", "N", "bc"},
    "sweep": {"parameter", "min", "max", "step", "parameter2", "min2", "max2", "step2"},
    "disorder": {"W_J1", "W_J2", "W_Delta1", "W_Delta2", "W_omega", "realizations", "seed",
                 "observables", "frac", "threshold", "zero_tol"},
    "winding": {"grid"},
    "floquet": {"lambdas", "Jt1", "Jt2"},
    "output": {"dir", "plots", "threads"},
}
# command -> (required sections, optional sections besides [output]), as in the module docstring
_SECTIONS = {
    "spectrum": ({"model"}, {"sweep"}),
    "profiles": ({"model"}, set()),
    "winding": ({"model"}, {"sweep", "winding"}),
    "phase-scan": ({"model", "sweep"}, set()),
    "disorder": ({"model", "disorder"}, {"sweep"}),
    "floquet": ({"floquet"}, set()),
}
COMMANDS = tuple(_SECTIONS)
# (mallopt parameter, value) of `keep_freed_heap`: M_MMAP_THRESHOLD (-3 in malloc.h), so blocks below 32 MiB,
# glibc's cap, come from the heap, and M_TRIM_THRESHOLD (-1), so up to 64 MiB may lie free at its top
_HEAP_POLICY = ((-3, 32 << 20), (-1, 64 << 20))
# observables with one value per realization; the others are arrays, written without a [sweep] only
_SCALAR_OBSERVABLES = ("zero_gap", "zero_modes", "nhse_fraction")


class ConfigError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """A run configuration whose every value `parse_config` has checked.

    Fields a command does not read keep their defaults.
    """

    command: str
    sections: dict                    # section -> {key: raw text}, as the manifest echoes it
    out_dir: str
    plots: bool
    threads: int
    model: Union[BKCParams, ModBKCParams, None] = None
    bcs: tuple = ()                   # BoundaryCondition per solve, from model.bc
    axes: tuple = ()                  # AxisSpec per [sweep] axis
    disorder: Optional[DisorderSpec] = None
    observables: tuple = ()
    frac: Optional[float] = None
    threshold: Optional[float] = None
    zero_tol: Optional[float] = None
    winding_grid: Optional[int] = None
    drives: tuple = ()                # DriveSpec per entry of floquet.lambdas

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})


def parse_config(path: str, command: str) -> RunConfig:
    """Read and check the config at ``path`` for ``command``; raises ConfigError on any bad input."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # preserve key case (parameters are case-sensitive)
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is skipped
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from err
    sections = {}
    for sec in cp.sections():
        if sec not in _SCHEMA:
            raise ConfigError(f"unknown section [{sec}] in {path}")
        for key in cp[sec]:
            if key not in _SCHEMA[sec]:
                raise ConfigError(f"unknown key {key!r} in section [{sec}] of {path}")
        sections[sec] = dict(cp[sec].items())
    required, optional = _SECTIONS[command]
    missing = sorted(required - sections.keys())
    if missing:
        raise ConfigError(f"{command} requires a [{missing[0]}] section")
    unread = sorted(sections.keys() - required - optional - {"output"})
    if unread:
        raise ConfigError(f"{command} reads no [{unread[0]}] section; remove it")

    output = sections.get("output", {})
    cfg = RunConfig(command, sections, out_dir=output.get("dir") or "out",
                    plots=output.get("plots", "").lower() in ("1", "true", "yes"),
                    threads=_check_threads(_get_int(output, "threads", "output", 1), "output.threads"))
    if "model" in sections:
        model, bcs = _parse_model(sections["model"], command)
        axes = _parse_axes(sections["sweep"], model, command) if "sweep" in sections else ()
        cfg = dataclasses.replace(cfg, model=model, bcs=bcs, axes=axes)
    if command == "disorder":
        cfg = dataclasses.replace(cfg, **_parse_disorder(sections["disorder"], cfg.axes))
    elif command == "winding":
        grid = _get_int(cfg.section("winding"), "grid", "winding", 1024)
        if not MIN_WINDING_GRID <= grid <= MAX_GRID_POINTS:
            raise ConfigError(f"winding.grid must be in [{MIN_WINDING_GRID}, {MAX_GRID_POINTS}], got {grid}")
        cfg = dataclasses.replace(cfg, winding_grid=grid)
    elif command == "floquet":
        cfg = dataclasses.replace(cfg, drives=_parse_floquet(sections["floquet"]))
    return cfg


def _get(sec: dict, name: str, section: str, default, parse: Callable, kind: str):
    if name not in sec:
        if default is None:
            raise ConfigError(f"missing required key {name!r} in section [{section}]")
        return default
    try:
        return parse(sec[name])
    except ValueError as err:
        raise ConfigError(f"key {name!r} in [{section}] must be {kind}, got {sec[name]!r}") from err


def _get_float(sec: dict, name: str, section: str, default=None) -> float:
    return _get(sec, name, section, default, float, "a number")


def _get_int(sec: dict, name: str, section: str, default=None) -> int:
    return _get(sec, name, section, default, int, "an integer")


def _check_threads(threads: int, where: str) -> int:
    if not 1 <= threads <= MAX_THREADS:
        raise ConfigError(f"{where} must be in [1, {MAX_THREADS}], got {threads}")
    return threads


def _parse_model(sec: dict, command: str):
    """Model parameters and the boundary conditions to solve, checked for ``command``."""
    kind = sec.get("kind")
    if kind not in ("bkc", "modbkc"):
        raise ConfigError("model.kind must be 'bkc' or 'modbkc'")
    if command in ("winding", "phase-scan", "disorder") and kind != "modbkc":
        raise ConfigError(f"{command} requires model.kind = modbkc")
    n = _get_int(sec, "N", "model")
    if n > MAX_CELLS:
        raise ConfigError(f"model.N must be <= {MAX_CELLS}, got {n}")
    omega = _get_float(sec, "omega", "model", 0.0)
    cls, names = (BKCParams, ("J0", "Delta0")) if kind == "bkc" else \
        (ModBKCParams, ("J1", "J2", "Delta1", "Delta2"))
    couplings = {name: _get_float(sec, name, "model") for name in names}
    try:
        p = cls(**couplings, omega=omega, N=n)
    except ValueError as err:
        raise ConfigError(f"[model]: {err}") from err
    bc = sec.get("bc", "obc").lower()
    if bc not in ("obc", "pbc", "both"):
        raise ConfigError("model.bc must be one of obc, pbc, both")
    if command == "phase-scan" and bc != "obc":
        raise ConfigError("phase-scan scans open chains only; set model.bc = obc")
    if command == "disorder" and bc == "both":
        raise ConfigError("disorder runs one boundary condition; set model.bc to obc or pbc")
    if bc == "both":
        return p, (BoundaryCondition.OBC, BoundaryCondition.PBC)
    return p, (BoundaryCondition(bc),)


def _parse_axes(sec: dict, p, command: str) -> tuple:
    """[sweep] axes, checked against the model by `grid_points`; only phase-scan has two."""
    axes = []
    for suffix in ("", "2"):
        name, start, stop, step = (key + suffix for key in ("parameter", "min", "max", "step"))
        if suffix and not {name, start, stop, step} & sec.keys():
            continue
        if not sec.get(name):
            raise ConfigError(f"missing required key {name!r} in section [sweep]")
        axes.append(AxisSpec(name=sec[name], start=_get_float(sec, start, "sweep"),
                             stop=_get_float(sec, stop, "sweep"), step=_get_float(sec, step, "sweep")))
    if len(axes) > 1 and command != "phase-scan":
        raise ConfigError(f"{command} sweeps one parameter; remove parameter2, min2, max2 and step2 "
                          "from [sweep]")
    try:
        grid_points(p, axes)
    except ValueError as err:
        raise ConfigError(f"[sweep]: {err}") from err
    return tuple(axes)


def _parse_disorder(sec: dict, axes: tuple) -> dict:
    """RunConfig fields of the [disorder] section."""
    from .disorder import OBSERVABLES, DisorderSpec
    from .topology import EDGE_FRAC, EDGE_THRESHOLD, ZERO_TOL
    strengths = {key[2:]: _get_float(sec, key, "disorder") for key in sec if key.startswith("W_")}
    try:
        spec = DisorderSpec(strengths=strengths,
                            seed=_get_int(sec, "seed", "disorder", 12345),
                            realizations=_get_int(sec, "realizations", "disorder", 20))
    except ValueError as err:
        raise ConfigError(f"[disorder]: {err}") from err
    if spec.realizations * math.prod(ax.count() for ax in axes) > MAX_GRID_POINTS:  # one solve each, one result kept
        raise ConfigError(f"[disorder]: {spec.realizations} realizations over the [sweep] points exceed 1e6 solves")
    names = tuple(x.strip() for x in sec.get("observables", "zero_gap,zero_modes").split(","))
    for name in names:
        if name not in OBSERVABLES:
            raise ConfigError(f"unknown observable {name!r} in [disorder]; choose from {OBSERVABLES}")
        if names.count(name) > 1:
            raise ConfigError(f"observable {name!r} is listed twice in [disorder]")
        if axes and name not in _SCALAR_OBSERVABLES:
            raise ConfigError(f"observable {name!r} has no [sweep] output; choose from "
                              f"{_SCALAR_OBSERVABLES} or remove the [sweep] section")
    frac = _get_float(sec, "frac", "disorder", EDGE_FRAC)
    threshold = _get_float(sec, "threshold", "disorder", EDGE_THRESHOLD)
    zero_tol = _get_float(sec, "zero_tol", "disorder", ZERO_TOL)
    for name, value, ok, domain in (("frac", frac, 0 < frac <= 0.5, "(0, 0.5]"),
                                    ("threshold", threshold, 0 <= threshold <= 1, "[0, 1]"),
                                    ("zero_tol", zero_tol, 0 < zero_tol < math.inf, "(0, inf)")):
        if not ok:
            raise ConfigError(f"disorder.{name} must be in {domain}, got {value}")
    return dict(disorder=spec, observables=names, frac=frac, threshold=threshold, zero_tol=zero_tol)


def _parse_floquet(sec: dict) -> tuple:
    """One DriveSpec per drive strength in floquet.lambdas."""
    from .floquet import DriveSpec
    Jt1, Jt2 = (_get_float(sec, key, "floquet", 0.0) for key in ("Jt1", "Jt2"))
    try:
        return tuple(DriveSpec(lam=float(x), Jt1=Jt1, Jt2=Jt2)
                     for x in sec.get("lambdas", "0,0.25,0.5,0.75,1").split(","))
    except ValueError as err:
        raise ConfigError(f"[floquet]: {err}") from err


class _Table(NamedTuple):
    name: str                         # file name in the output directory
    header: tuple
    columns: tuple                    # one per header entry: an array, or a sequence of cells (`write_csv`)


class _Plot(NamedTuple):
    name: str
    writer: Callable                  # svgplot.scatter_svg, line_svg or heatmap_svg
    data: object                      # the writer's series list (arrays) or matrix
    labels: tuple                     # title, xlabel, ylabel


_COLORS = {BoundaryCondition.OBC: "crimson", BoundaryCondition.PBC: "royalblue"}


def _columns(rows) -> tuple:
    """The columns of ``rows``: a float array where every cell is a float, else the cells."""
    return tuple(np.array(col) if all(isinstance(v, float) for v in col) else col for col in zip(*rows))


def _spectrum(cfg, seed, threads):
    head = tuple(ax.name for ax in cfg.axes)
    out, series = [], []
    for b in cfg.bcs:
        solved = [(x, solve(p, b, vectors=False).eigenvalues) for x, p in grid_points(cfg.model, cfg.axes)]
        E = np.concatenate([e for _, e in solved])
        at = tuple(np.repeat([x for x, _ in solved], [len(e) for _, e in solved], axis=0).T)
        index = np.concatenate([np.arange(len(e)) for _, e in solved])
        out.append(_Table(f"{b.value}.csv", head + ("index", "re_E", "im_E"), at + (index, E.real, E.imag)))
        series.append((b.value, *((at[0], np.abs(E)) if head else (E.real, E.imag)), _COLORS[b]))
    labels = (head[0], "|E|") if head else ("Re E", "Im E")
    return out + [_Plot("spectrum.svg", svgplot.scatter_svg, series, ("excitation spectrum",) + labels)]


def _profiles(cfg, seed, threads):
    from .skin import profile_matrix
    out = []
    for b in cfg.bcs:
        s = solve(cfg.model, b)
        if s.base is None:
            raise RuntimeError(f"profiles unavailable: {s.source}")
        P = profile_matrix(s, cfg.model.N)
        header = ("state",) + tuple(f"b{a}" for a in range(P.shape[1]))
        out += [_Table(f"profiles_{b.value}.csv", header, (np.arange(len(P)),) + tuple(P.T)),
                _Plot(f"profiles_{b.value}.svg", svgplot.heatmap_svg, P,
                      ("eigenstate occupation probabilities", "flat basis index", "eigenstate"))]
    return out


def _winding(cfg, seed, threads):
    from .topology import GapClosedError, winding_analytic, winding_numeric
    from .transform import effective_ssh_params
    head = tuple(ax.name for ax in cfg.axes)
    rows = []
    for x, p in grid_points(cfg.model, cfg.axes):
        eff = effective_ssh_params(p)
        try:
            wn, wa = winding_numeric(eff, cfg.winding_grid), winding_analytic(eff)
            w = (wn.w_plus, wn.w_minus, wa.w_plus, wa.w_minus)
        except GapClosedError:
            w = (None,) * 4
        rows.append(x + (eff.dtilde1.real, eff.dtilde1.imag, eff.dtilde2.real, eff.dtilde2.imag) + w)
    cols = _columns(rows)
    out = [_Table("winding.csv", head + ("re_dtilde1", "im_dtilde1", "re_dtilde2", "im_dtilde2",
                                         "w_plus_numeric", "w_minus_numeric", "w_plus_analytic",
                                         "w_minus_analytic"), cols)]
    if head:  # a gap-closed point's None reads as NaN, which the plot leaves out
        out.append(_Plot("winding.svg", svgplot.line_svg,
                         [("w_plus", cols[0], np.array(cols[5], dtype=float), "crimson")],
                         ("winding number", head[0], "w_plus")))
    return out


def _phase_scan(cfg, seed, threads):
    from .topology import phase_scan
    head = tuple(ax.name for ax in cfg.axes)
    cols = _columns([pt.values + (pt.zero_gap, pt.zero_modes, pt.w_plus, pt.w_minus, pt.nhse_fraction, pt.error)
                     for pt in phase_scan(cfg.model, cfg.axes, threads=threads)])
    out = [_Table("phase_scan.csv", head + ("abs_E_min", "zero_modes", "w_plus", "w_minus",
                                            "nhse_fraction", "error"), cols)]
    if len(head) == 1:
        out.append(_Plot("phase_scan.svg", svgplot.line_svg, [("min |E|", cols[0], cols[1], "crimson")],
                         ("gap scan", head[0], "min |E|")))
    return out


def _kept(res) -> list:
    """Indices of the realizations that did not fail, in order: the rows of ``res.observables``."""
    failed = dict(res.failures)
    return [r for r in range(res.realizations) if r not in failed]


def _disorder(cfg, seed, threads):
    from .disorder import ensemble_observables
    spec = cfg.disorder if seed is None else dataclasses.replace(cfg.disorder, seed=seed)
    head = tuple(ax.name for ax in cfg.axes)
    results = [(x, ensemble_observables(p, spec, cfg.observables, bc=cfg.bcs[0], zero_tol=cfg.zero_tol,
                                        frac=cfg.frac, threshold=cfg.threshold, threads=threads))
               for x, p in grid_points(cfg.model, cfg.axes)]
    out = []
    for name in (n for n in cfg.observables if n in _SCALAR_OBSERVABLES):
        per = [x + (r, float(v)) for x, res in results for r, v in zip(_kept(res), res.observables[name])]
        if head:
            agg = [x + (float(res.mean[name]), float(res.std[name]), spec.realizations - len(res.failures))
                   for x, res in results]
            out += [_Table(f"{name}_aggregate.csv", head + ("mean", "std", "n"), _columns(agg)),
                    _Table(f"{name}_realizations.csv", head + ("realization", name), _columns(per))]
        else:
            res = results[0][1]
            out.append(_Table(f"{name}.csv", ("realization", name),
                              _columns(per + [("mean", float(res.mean[name])), ("std", float(res.std[name]))])))
    if head:  # every observable is scalar here: parse_config rejects the others with a [sweep]
        name = cfg.observables[0]
        return out + [_Plot("disorder_sweep.svg", svgplot.line_svg,
                            [(name, *_columns((x[0], float(res.mean[name])) for x, res in results), "crimson")],
                            (f"disorder-averaged {name}", head[0], name))]
    res = results[0][1]
    if "mean_profile" in cfg.observables:
        prof = np.asarray(res.mean["mean_profile"], dtype=float)
        out += [_Table("mean_profile.csv", ("flat_index", "probability"), (np.arange(len(prof)), prof)),
                _Plot("mean_profile.svg", svgplot.line_svg,
                      [("mean profile", np.arange(len(prof)), prof, "crimson")],
                      ("disorder-averaged profile", "flat basis index", "probability"))]
    if "abs_spectrum" in cfg.observables:
        arr = np.asarray(res.observables["abs_spectrum"], dtype=float)
        out.append(_Table("abs_spectrum_realizations.csv", ("realization", "index", "abs_E"),
                          (np.repeat(_kept(res), arr.shape[1]), np.tile(np.arange(arr.shape[1]), len(arr)),
                           arr.ravel())))
    return out


def _floquet(cfg, seed, threads):
    from .floquet import bessel_j0, effective_params
    rows = []
    for drive in cfg.drives:
        eff = effective_params(drive)
        rows.append((drive.lam, eff.J1.real, eff.J1.imag, eff.J2.real, eff.J2.imag,
                     abs(bessel_j0(math.pi * drive.lam / 2))))
    cols = _columns(rows)
    return [_Table("floquet.csv", ("lambda", "re_J1", "im_J1", "re_J2", "im_J2", "abs_bessel"), cols),
            _Plot("floquet.svg", svgplot.line_svg,
                  [("Re J1", cols[0], cols[1], "crimson"), ("Im J1", cols[0], cols[2], "royalblue")],
                  ("effective hopping vs drive strength", "lambda", "J1"))]


# command -> compute step: (cfg, seed, threads) -> ordered _Table and _Plot outputs; it writes no file
_STEPS = {
    "spectrum": _spectrum,
    "profiles": _profiles,
    "winding": _winding,
    "phase-scan": _phase_scan,
    "disorder": _disorder,
    "floquet": _floquet,
}


def run(cfg: RunConfig, out_dir: str, plots: bool, seed, threads: int) -> list:
    """Compute, then write the tables, the plots when ``plots`` is set and the manifest.

    Returns the written paths in write order.  ``seed`` overrides the
    disorder seed when not None.  A compute error raises before the output
    directory is created.
    """
    outputs = _STEPS[cfg.command](cfg, seed, threads)
    os.makedirs(out_dir, exist_ok=True)
    files = []
    for item in outputs:
        path = os.path.join(out_dir, item.name)
        if isinstance(item, _Table):
            files.append(write_csv(path, item.header, item.columns))
        elif plots:
            files.append(item.writer(path, item.data, *item.labels))
    return files + [write_manifest(os.path.join(out_dir, "manifest.cfg"), cfg.command,
                                   cfg.sections, seed, __version__, files)]


def keep_freed_heap() -> bool:
    """Keep freed arrays on glibc's heap for the next solve (``_HEAP_POLICY``); whether mallopt took it.

    glibc's dynamic thresholds hand them back, so each solve faults its pages in anew; no-op without mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no handle on the process's own symbols
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in _HEAP_POLICY])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bkchain", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="INI run configuration")
    parser.add_argument("--out", default=None, help="output directory (default: out)")
    parser.add_argument("--plots", action="store_true", help="also write SVG plots")
    parser.add_argument("--seed", type=int, default=None, help="override the disorder seed")
    parser.add_argument("--threads", type=int, default=None, help="worker threads (default 1)")
    args = parser.parse_args(argv)
    keep_freed_heap()

    try:
        cfg = parse_config(args.config, args.command)
        if args.seed is not None and not 0 <= args.seed <= MAX_SEED:
            raise ConfigError(f"--seed: seed must be in [0, 2**64), got {args.seed}")
        threads = args.threads
        if threads is None:
            env = os.environ.get("BKCHAIN_THREADS", "").strip()
            try:
                threads = int(env) if env else cfg.threads
            except ValueError:
                raise ConfigError(f"BKCHAIN_THREADS must be an integer, got {env!r}") from None
        _check_threads(threads, "thread count")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    try:
        files = run(cfg, args.out or cfg.out_dir, args.plots or cfg.plots, args.seed, threads)
    except Exception as err:
        print(f"compute error in {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
