"""Command-line driver.

    bkchain <command> --config <file> [--out <dir>] [--plots] [--seed <u64>] [--threads <n>]

Commands: spectrum, profiles, winding, phase-scan, disorder, floquet.  Run
configurations are INI-style files (key = value under nested sections, see
configs/ for one per reproduced figure).  Every run writes CSV files plus a
run manifest listing them; --plots adds self-contained SVG figures.  Exit
codes: 2 for configuration errors, 1 for compute errors.

Thread count: --threads beats the BKCHAIN_THREADS environment variable beats
the config; sweeps and disorder realizations are farmed out deterministically.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import math
import os
import sys

import numpy as np

from . import __version__
from .csvio import write_csv, write_manifest
from .disorder import OBSERVABLES, DisorderSpec, ensemble_observables
from .floquet import DriveSpec, bessel_j0, effective_params
from .model import BKCParams, BoundaryCondition, ModBKCParams
from .skin import profile_matrix
from .spectral import solve
from .topology import (
    MIN_WINDING_GRID,
    AxisSpec,
    GapClosedError,
    grid_size,
    phase_scan,
    winding_analytic,
    winding_numeric,
)
from .transform import effective_ssh_params
from . import svgplot

COMMANDS = ("spectrum", "profiles", "winding", "phase-scan", "disorder", "floquet")

_SCHEMA = {
    "model": {"kind", "J0", "Delta0", "J1", "J2", "Delta1", "Delta2", "omega", "N", "bc"},
    "sweep": {"parameter", "min", "max", "step", "parameter2", "min2", "max2", "step2"},
    "disorder": {"W_J1", "W_J2", "W_Delta1", "W_Delta2", "W_omega", "realizations", "seed",
                 "observables", "frac", "threshold", "zero_tol"},
    "winding": {"grid"},
    "floquet": {"lambdas", "T", "Jt1", "Jt2", "Dt1", "Dt2", "phi1", "phi2"},
    "output": {"dir", "plots", "threads"},
}
# keys of the second [sweep] axis, which only phase-scan reads
_SECOND_AXIS = {"parameter2", "min2", "max2", "step2"}


class ConfigError(ValueError):
    pass


class RunConfig:
    """Validated run configuration: command plus the parsed config sections."""

    def __init__(self, command: str, sections: dict):
        self.command = command
        self.sections = sections

    def section(self, name: str) -> dict:
        return self.sections.get(name, {})


def parse_config(path: str, command: str) -> RunConfig:
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    cp.optionxform = str  # preserve key case (parameters are case-sensitive)
    try:
        cp.read(path)
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
    cfg = RunConfig(command, sections)
    _validate(cfg)
    return cfg


def _get_float(sec: dict, name: str, section: str, default=None) -> float:
    if name not in sec:
        if default is None:
            raise ConfigError(f"missing required key {name!r} in section [{section}]")
        return default
    try:
        return float(sec[name])
    except ValueError as err:
        raise ConfigError(f"key {name!r} in [{section}] must be a number, got {sec[name]!r}") from err


def _get_int(sec: dict, name: str, section: str, default=None) -> int:
    v = _get_float(sec, name, section, default)
    if v != int(v):
        raise ConfigError(f"key {name!r} in [{section}] must be an integer, got {v}")
    return int(v)


def _model_params(cfg: RunConfig):
    sec = cfg.section("model")
    kind = sec.get("kind")
    if kind not in ("bkc", "modbkc"):
        raise ConfigError("model.kind must be 'bkc' or 'modbkc'")
    n = _get_int(sec, "N", "model")
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
    return p, bc


def _validate(cfg: RunConfig):
    """Every configuration check, so that a bad config exits 2 before any output exists."""
    if cfg.command in ("spectrum", "profiles", "winding", "phase-scan", "disorder"):
        if "model" not in cfg.sections:
            raise ConfigError("missing required section [model]")
        p, bc = _model_params(cfg)
        if cfg.command in ("winding", "phase-scan", "disorder") and not isinstance(p, ModBKCParams):
            raise ConfigError(f"{cfg.command} requires model.kind = modbkc")
        if cfg.command == "phase-scan" and bc != "obc":
            raise ConfigError("phase-scan scans open chains only; set model.bc = obc")
        if cfg.command == "disorder" and bc == "both":
            raise ConfigError("disorder runs one boundary condition; set model.bc to obc or pbc")
        if "sweep" in cfg.sections:
            if cfg.command == "profiles":
                raise ConfigError("profiles solves one point and takes no [sweep] section")
            second = sorted(_SECOND_AXIS & set(cfg.section("sweep")))
            if second and cfg.command != "phase-scan":
                raise ConfigError(f"{cfg.command} sweeps one parameter; remove {', '.join(second)} "
                                  "from [sweep]")
            _axes(cfg)
    if cfg.command == "phase-scan" and "sweep" not in cfg.sections:
        raise ConfigError("phase-scan requires a [sweep] section")
    if cfg.command == "disorder":
        if "disorder" not in cfg.sections:
            raise ConfigError("disorder command requires a [disorder] section")
        _disorder_spec(cfg, seed_override=None)
        _disorder_options(cfg)
    if cfg.command == "winding":
        _winding_grid(cfg)
    if cfg.command == "floquet":
        if "floquet" not in cfg.sections:
            raise ConfigError("floquet command requires a [floquet] section")
        if {"model", "sweep"} & set(cfg.sections):
            raise ConfigError("floquet reads no [model] or [sweep] section; remove them")
        _floquet_drives(cfg)


def _disorder_spec(cfg: RunConfig, seed_override) -> DisorderSpec:
    sec = cfg.section("disorder")
    strengths = {}
    for key in sec:
        if key.startswith("W_"):
            strengths[key[2:]] = _get_float(sec, key, "disorder")
    seed = seed_override if seed_override is not None else _get_int(sec, "seed", "disorder", 12345)
    realizations = _get_int(sec, "realizations", "disorder", 20)
    try:
        return DisorderSpec(strengths=strengths, seed=seed, realizations=realizations)
    except ValueError as err:
        raise ConfigError(f"[disorder]: {err}") from err


def _disorder_options(cfg: RunConfig):
    """Observable names, frac, threshold and zero_tol of the [disorder] section."""
    sec = cfg.section("disorder")
    names = tuple(x.strip() for x in sec.get("observables", "zero_gap,zero_modes").split(","))
    for name in names:
        if name not in OBSERVABLES:
            raise ConfigError(f"unknown observable {name!r} in [disorder]; choose from {OBSERVABLES}")
    return (names, _get_float(sec, "frac", "disorder", 0.1),
            _get_float(sec, "threshold", "disorder", 0.9),
            _get_float(sec, "zero_tol", "disorder", 1e-6))


def _winding_grid(cfg: RunConfig) -> int:
    grid = _get_int(cfg.section("winding"), "grid", "winding", 1024)
    if grid < MIN_WINDING_GRID:
        raise ConfigError(f"winding.grid must be >= {MIN_WINDING_GRID}, got {grid}")
    return grid


def _floquet_drives(cfg: RunConfig) -> list:
    """One DriveSpec per drive strength in floquet.lambdas."""
    sec = cfg.section("floquet")
    base = {key: _get_float(sec, key, "floquet", default)
            for key, default in (("T", 1.0), ("Jt1", 0.0), ("Jt2", 0.0), ("Dt1", 0.0),
                                 ("Dt2", 0.0), ("phi1", 0.0), ("phi2", 0.0))}
    try:
        return [DriveSpec(lam=float(x), **base)
                for x in sec.get("lambdas", "0,0.25,0.5,0.75,1").split(",")]
    except ValueError as err:
        raise ConfigError(f"[floquet]: {err}") from err


def _axes(cfg: RunConfig):
    """[sweep] axes, checked against the model and the grid-size cap.

    Only phase-scan has a second axis; `_validate` rejects one elsewhere.
    """
    sec = cfg.section("sweep")
    axes = [AxisSpec(name=sec.get("parameter") or _missing("parameter", "sweep"),
                     start=_get_float(sec, "min", "sweep"),
                     stop=_get_float(sec, "max", "sweep"),
                     step=_get_float(sec, "step", "sweep"))]
    if "parameter2" in sec:
        axes.append(AxisSpec(name=sec["parameter2"], start=_get_float(sec, "min2", "sweep"),
                             stop=_get_float(sec, "max2", "sweep"), step=_get_float(sec, "step2", "sweep")))
    p, _ = _model_params(cfg)
    fields = {f.name for f in dataclasses.fields(p)}
    for ax in axes:
        if ax.name not in fields:
            raise ConfigError(f"sweep parameter {ax.name!r} does not exist on this model")
    try:
        grid_size(axes)
    except ValueError as err:
        raise ConfigError(f"[sweep]: {err}") from err
    return axes


def _missing(key, section):
    raise ConfigError(f"missing required key {key!r} in section [{section}]")


def _sweep_values(p, axis: AxisSpec):
    for v in axis.values():
        yield float(v), dataclasses.replace(p, **{axis.name: float(v)})


def _bcs(bc: str):
    if bc == "both":
        return [BoundaryCondition.OBC, BoundaryCondition.PBC]
    return [BoundaryCondition(bc)]


def _run_spectrum(cfg, out, plots, threads):
    p, bc = _model_params(cfg)
    files = []
    series = []
    sweep = _axes(cfg) if "sweep" in cfg.sections else None
    for b in _bcs(bc):
        rows = []
        if sweep:
            for value, pv in _sweep_values(p, sweep[0]):
                s = solve(pv, b)
                rows += [(value, i, e.real, e.imag) for i, e in enumerate(s.eigenvalues)]
            header = (sweep[0].name, "index", "re_E", "im_E")
        else:
            s = solve(p, b)
            rows = [(i, e.real, e.imag) for i, e in enumerate(s.eigenvalues)]
            header = ("index", "re_E", "im_E")
        path = os.path.join(out, f"{b.value}.csv")
        files.append(write_csv(path, header, rows))
        if sweep:
            series.append((b.value, [r[0] for r in rows], [abs(complex(r[2], r[3])) for r in rows],
                           "crimson" if b is BoundaryCondition.OBC else "royalblue"))
        else:
            series.append((b.value, [r[1] for r in rows], [r[2] for r in rows],
                           "crimson" if b is BoundaryCondition.OBC else "royalblue"))
    if plots:
        svg = os.path.join(out, "spectrum.svg")
        if sweep:
            svgplot.scatter_svg(svg, series, title="excitation spectrum",
                                xlabel=sweep[0].name, ylabel="|E|")
        else:
            svgplot.scatter_svg(svg, series, title="excitation spectrum", xlabel="Re E", ylabel="Im E")
        files.append(svg)
    return files


def _run_profiles(cfg, out, plots, threads):
    p, bc = _model_params(cfg)
    files = []
    for b in _bcs(bc):
        s = solve(p, b)
        if s.eigenvectors is None:
            raise RuntimeError("profiles unavailable: gauge is singular at these parameters")
        P = profile_matrix(s, p.N)
        header = ["state"] + [f"b{a}" for a in range(P.shape[1])]
        rows = [[m] + list(P[m]) for m in range(P.shape[0])]
        files.append(write_csv(os.path.join(out, f"profiles_{b.value}.csv"), header, rows))
        if plots:
            svg = os.path.join(out, f"profiles_{b.value}.svg")
            svgplot.heatmap_svg(svg, P, title="eigenstate occupation probabilities",
                                xlabel="flat basis index", ylabel="eigenstate")
            files.append(svg)
    return files


def _run_winding(cfg, out, plots, threads):
    p, _ = _model_params(cfg)
    grid = _winding_grid(cfg)
    sweep = _axes(cfg) if "sweep" in cfg.sections else None
    rows = []
    pairs = [(None, p)] if sweep is None else list(_sweep_values(p, sweep[0]))
    for value, pv in pairs:
        eff = effective_ssh_params(pv)
        try:
            wn = winding_numeric(eff, grid)
            wa = winding_analytic(pv)
            row = (wn.w_plus, wn.w_minus, wa.w_plus, wa.w_minus)
        except GapClosedError:
            row = ("", "", "", "")
        prefix = () if value is None else (value,)
        rows.append(prefix + (eff.dtilde1.real, eff.dtilde1.imag, eff.dtilde2.real, eff.dtilde2.imag) + row)
    header = (() if sweep is None else (sweep[0].name,)) + (
        "re_dtilde1", "im_dtilde1", "re_dtilde2", "im_dtilde2",
        "w_plus_numeric", "w_minus_numeric", "w_plus_analytic", "w_minus_analytic")
    files = [write_csv(os.path.join(out, "winding.csv"), header, rows)]
    if plots and sweep is not None:
        xs = [r[0] for r in rows]
        ys = [r[5] if r[5] != "" else float("nan") for r in rows]
        svg = os.path.join(out, "winding.svg")
        svgplot.line_svg(svg, [("w_plus", xs, ys, "crimson")], title="winding number",
                         xlabel=sweep[0].name, ylabel="w_plus")
        files.append(svg)
    return files


def _run_phase_scan(cfg, out, plots, threads):
    p, _ = _model_params(cfg)
    axes = _axes(cfg)
    diagram = phase_scan(p, axes, threads=threads)
    header = tuple(ax.name for ax in axes) + ("abs_E_min", "zero_modes", "w_plus", "w_minus",
                                              "nhse_fraction", "error")
    rows = []
    for pt in diagram.points:
        rows.append(tuple(pt.values) + (
            pt.zero_gap,
            "" if pt.zero_modes is None else pt.zero_modes,
            "" if pt.w_plus is None else pt.w_plus,
            "" if pt.w_minus is None else pt.w_minus,
            "" if pt.nhse_fraction is None else pt.nhse_fraction,
            pt.error or ""))
    files = [write_csv(os.path.join(out, "phase_scan.csv"), header, rows)]
    if plots and len(axes) == 1:
        xs = [pt.values[0] for pt in diagram.points]
        ys = [pt.zero_gap for pt in diagram.points]
        svg = os.path.join(out, "phase_scan.svg")
        svgplot.line_svg(svg, [("min |E|", xs, ys, "crimson")], title="gap scan",
                         xlabel=axes[0].name, ylabel="min |E|")
        files.append(svg)
    return files


def _run_disorder(cfg, out, plots, threads, seed_override):
    p, bc = _model_params(cfg)
    spec = _disorder_spec(cfg, seed_override)
    names, frac, threshold, zero_tol = _disorder_options(cfg)
    b = BoundaryCondition(bc)
    files = []
    sweep = _axes(cfg) if "sweep" in cfg.sections else None
    scalar_names = [n for n in names if n in ("zero_gap", "zero_modes", "nhse_fraction")]
    if sweep:
        agg_rows = {name: [] for name in scalar_names}
        per_rows = {name: [] for name in scalar_names}
        for value, pv in _sweep_values(p, sweep[0]):
            res = ensemble_observables(pv, spec, scalar_names, bc=b, zero_tol=zero_tol,
                                       frac=frac, threshold=threshold, threads=threads)
            for name in scalar_names:
                agg_rows[name].append((value, float(res.mean[name]), float(res.std[name]),
                                       spec.realizations - len(res.failures)))
                for r, v in enumerate(res.observables[name]):
                    per_rows[name].append((value, r, float(v)))
        for name in scalar_names:
            files.append(write_csv(os.path.join(out, f"{name}_aggregate.csv"),
                                   (sweep[0].name, "mean", "std", "n"), agg_rows[name]))
            files.append(write_csv(os.path.join(out, f"{name}_realizations.csv"),
                                   (sweep[0].name, "realization", name), per_rows[name]))
        if plots and scalar_names:
            name = scalar_names[0]
            xs = [r[0] for r in agg_rows[name]]
            ys = [r[1] for r in agg_rows[name]]
            svg = os.path.join(out, "disorder_sweep.svg")
            svgplot.line_svg(svg, [(name, xs, ys, "crimson")],
                             title=f"disorder-averaged {name}", xlabel=sweep[0].name, ylabel=name)
            files.append(svg)
    else:
        res = ensemble_observables(p, spec, names, bc=b, zero_tol=zero_tol,
                                   frac=frac, threshold=threshold, threads=threads)
        for name in scalar_names:
            rows = [(r, float(v)) for r, v in enumerate(res.observables[name])]
            rows.append(("mean", float(res.mean[name])))
            rows.append(("std", float(res.std[name])))
            files.append(write_csv(os.path.join(out, f"{name}.csv"), ("realization", name), rows))
        if "mean_profile" in names:
            prof = res.mean["mean_profile"]
            files.append(write_csv(os.path.join(out, "mean_profile.csv"),
                                   ("flat_index", "probability"),
                                   [(a, float(v)) for a, v in enumerate(prof)]))
            if plots:
                svg = os.path.join(out, "mean_profile.svg")
                svgplot.line_svg(svg, [("mean profile", np.arange(len(prof)), prof, "crimson")],
                                 title="disorder-averaged profile", xlabel="flat basis index",
                                 ylabel="probability")
                files.append(svg)
        if "abs_spectrum" in names:
            arr = res.observables["abs_spectrum"]
            rows = [(r, i, float(v)) for r in range(arr.shape[0]) for i, v in enumerate(arr[r])]
            files.append(write_csv(os.path.join(out, "abs_spectrum_realizations.csv"),
                                   ("realization", "index", "abs_E"), rows))
    return files


def _run_floquet(cfg, out, plots, threads):
    rows = []
    for drive in _floquet_drives(cfg):
        eff = effective_params(drive)
        rows.append((drive.lam, eff.J1.real, eff.J1.imag, eff.J2.real, eff.J2.imag,
                     abs(bessel_j0(math.pi * drive.lam / 2))))
    files = [write_csv(os.path.join(out, "floquet.csv"),
                       ("lambda", "re_J1", "im_J1", "re_J2", "im_J2", "abs_bessel"), rows)]
    if plots:
        svg = os.path.join(out, "floquet.svg")
        svgplot.line_svg(svg, [("Re J1", [r[0] for r in rows], [r[1] for r in rows], "crimson"),
                               ("Im J1", [r[0] for r in rows], [r[2] for r in rows], "royalblue")],
                         title="effective hopping vs drive strength", xlabel="lambda", ylabel="J1")
        files.append(svg)
    return files


_RUNNERS = {
    "spectrum": _run_spectrum,
    "profiles": _run_profiles,
    "winding": _run_winding,
    "phase-scan": _run_phase_scan,
    "floquet": _run_floquet,
}


def run(cfg: RunConfig, out_dir: str, plots: bool, seed, threads: int) -> list:
    os.makedirs(out_dir, exist_ok=True)
    if cfg.command == "disorder":
        files = _run_disorder(cfg, out_dir, plots, threads, seed)
    else:
        files = _RUNNERS[cfg.command](cfg, out_dir, plots, threads)
    manifest = write_manifest(os.path.join(out_dir, "manifest.cfg"), cfg.command,
                              cfg.sections, seed, __version__, files)
    return files + [manifest]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bkchain", description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="INI run configuration")
    parser.add_argument("--out", default=None, help="output directory (default: out)")
    parser.add_argument("--plots", action="store_true", help="also write SVG plots")
    parser.add_argument("--seed", type=int, default=None, help="override the disorder seed")
    parser.add_argument("--threads", type=int, default=None, help="worker threads (default 1)")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config, args.command)
        threads = args.threads
        if threads is None:
            env = os.environ.get("BKCHAIN_THREADS", "").strip()
            try:
                threads = int(env) if env else None
            except ValueError:
                raise ConfigError(f"BKCHAIN_THREADS must be an integer, got {env!r}") from None
        if threads is None:
            threads = _get_int(cfg.section("output"), "threads", "output", 1)
        out_dir = args.out or cfg.section("output").get("dir") or "out"
        plots = args.plots or cfg.section("output").get("plots", "").lower() in ("1", "true", "yes")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    try:
        files = run(cfg, out_dir, plots, args.seed, threads)
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"compute error in {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
