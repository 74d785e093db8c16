#!/usr/bin/env python3
"""Benchmark of the bkchain CLI: end-to-end metrics per workload and a traced run.

    python3 bench/run.py [--workload scan|sweep|ensemble|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run it from the root of a checkout; it runs the program from ``src/``.  Each
workload's config is generated from the seed into ``.bench_work/`` and the
CLI (`bkchain.cli.main`, plots on) runs it in a fresh child process again
and again for about S seconds, with BLAS pinned to one thread and the CLI's
``--threads`` at its default of 1.  Closed loop: one run at a time.

``--trace 0`` reports
  wall_s           mean wall time of one CLI run, process start to exit;
  units_per_s      units done over the wall time of all runs (a unit is one
                   sweep point and boundary condition, or one realization);
  setup_unscaled_s median time from process start to the first call into
                   `bkchain.cli.run` (interpreter start, ``import bkchain``,
                   `parse_config`);
  calib_s          mean time of the calibration kernel run before each run;
  wall_ref_s       wall_s scaled by CALIB_REF_S / calib_s (see end_to_end);
  units_per_ref_s  units_per_s scaled the same way;
  peak_rss_mb      median peak resident set size of the child;
  setup_s          median set-up time, each scaled by CALIB_REF_S over the
                   calibration timed just before it.
The last four are the gated end-to-end metrics of BENCHMARK.json.
It also prints fail_frac, failed units over attempted units.  A unit fails
when the CLI exits non-zero, when its row is missing or carries an error,
when it fails the workload's output check (see workloads.py), or when the
run's outputs differ from the first run's, byte for byte.

``--trace 1`` cycles an untraced run, a traced run (tracer.py) and a run at
``--threads 2`` and reports per-layer calls and self times, eigensolve
counters, the tracing overhead, the wall time no span covers, and the
``--threads 2`` to ``--threads 1`` wall ratio (information only).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Each run also writes a record with
the seed, git sha, Python, NumPy and BLAS build, nproc, the thread settings
and every sample to ``.bench_work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)   # before NumPy loads: the calibration runs in this process too

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Check  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
PROGRAM = ROOT / "src" / "bkchain" / "cli.py"

CHILD_TIMEOUT_S = 120
RUN_CAP_S = 150          # no new cycle starts past this, whatever --seconds says
MODES = {0: ("plain",), 1: ("plain", "traced", "threads2")}
MIN_CYCLES = {0: 3, 1: 1}

# Gated metrics; the UNSCALED ones are printed next to them.
END_TO_END = (("wall_ref_s", "s"), ("units_per_ref_s", "1/s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
UNSCALED = (("wall_s", "s"), ("units_per_s", "1/s"), ("setup_unscaled_s", "s"), ("calib_s", "s"))
CALIB_REF_S = 0.25       # a calibration this long leaves a time unscaled
PER_LAYER = (
    ("spectral.eigendecompose.calls", "count"),
    ("spectral.eigendecompose.self_s", "s"),
    ("spectral.modbkc_spectrum_zero_omega.calls", "count"),
    ("spectral.modbkc_spectrum_zero_omega.self_s", "s"),
    ("topology.edge_mode_count.calls", "count"),
    ("topology.edge_mode_count.self_s", "s"),
    ("spectral.solved_dim3", "count"),
    ("linalg.solved_dim3", "count"),
    ("transform.effective_ssh_matrix.self_s", "s"),
    ("transform.a_combined.self_s", "s"),
    ("transform.lift.self_s", "s"),
    ("skin.self_s", "s"),
    ("skin.spatial_profile.calls", "count"),
    ("model.build.calls", "count"),
    ("model.build.self_s", "s"),
    ("disorder.sample_site_fields.self_s", "s"),
    ("disorder.failures", "count"),
    ("topology.phase_scan.self_s", "s"),
    ("csvio.write.self_s", "s"),
    ("csvio.write.bytes", "B"),
    ("svgplot.self_s", "s"),
    ("cli.parse_config.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.unattributed_s", "s"),
    ("threads2.wall_ratio", "ratio"),
)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BKCHAIN_THREADS", None)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def environment() -> dict:
    import numpy as np

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_sha": sha, "python": sys.version, "numpy": np.__version__,
            "blas": np.show_config(mode="dicts").get("Build Dependencies"),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "thread_env": BLAS_ENV, "cli_threads": 1}


def output_digest(out: Path):
    """sha256 of every output file, and the bytes of the CSVs and manifest."""
    digests, written = {}, 0
    for path in sorted(out.iterdir()) if out.is_dir() else ():
        data = path.read_bytes()
        digests[path.name] = hashlib.sha256(data).hexdigest()
        if path.suffix in (".csv", ".cfg"):
            written += len(data)
    return digests, written


def calibrate() -> float:
    """Seconds for a fixed mix of the program's kinds of work: one dense
    300 x 300 complex eigensolve and a pure-Python loop."""
    import numpy as np

    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
    t0 = time.perf_counter()
    np.linalg.eig(matrix)
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - t0


def run_child(work: Path, index: int, cli_args: list, mode: str) -> dict:
    out, record, errlog = work / f"out{index}", work / f"rep{index}.json", work / f"rep{index}.err"
    args = [*cli_args, "--out", str(out)] + (["--threads", "2"] if mode == "threads2" else [])
    cmd = [sys.executable, str(BENCH / "child.py"), str(record), "1" if mode == "traced" else "0",
           "--", *args]
    with open(errlog, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=err)
        # a blocking wait: Popen.wait(timeout) polls, which rounds the end up by up to 50 ms
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        wall = time.monotonic() - t0
    rep = {"mode": mode, "exit": code, "wall_s": wall, "ok": False}
    try:
        rec = json.loads(record.read_text())
    except (OSError, ValueError):
        rec = None
    if code == 0 and rec is not None:
        rep.update(ok=True, setup_s=rec["first_layer_call"] - t0, peak_rss_mb=rec["maxrss_kb"] / 1024,
                   trace=rec.get("trace"), missing_layers=rec.get("missing_layers"))
    else:
        tail = errlog.read_text()[-2000:]
        print(f"  run {index} ({mode}) failed, exit {code}:\n{tail}", file=sys.stderr)
    rep["digests"], rep["bytes"] = output_digest(out)
    return rep


def measure(work: Path, cli_args: list, seconds: float, trace: int):
    """Runs until the next cycle would end past `seconds`; returns the runs and
    the index of the first successful one, whose outputs are kept for the check.

    The calibration before each run and the single-threaded runs share one
    CPU, so that the calibration sees the speed the run got; the --threads 2
    runs get every CPU.
    """
    every_cpu = os.sched_getaffinity(0)
    one_cpu = {max(every_cpu)}
    os.sched_setaffinity(0, one_cpu)
    try:
        subprocess.run([sys.executable, "-c", "import bkchain.cli"], cwd=ROOT, env=child_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        calibrate()
        reps, ref, cycles, start = [], None, 0, time.monotonic()
        while True:
            for mode in MODES[trace]:
                index = len(reps)
                os.sched_setaffinity(0, one_cpu)
                calib = calibrate()
                if mode == "threads2":
                    os.sched_setaffinity(0, every_cpu)
                reps.append(dict(run_child(work, index, cli_args, mode), calib_s=calib))
                if ref is None and reps[-1]["ok"]:
                    ref = index
                else:
                    shutil.rmtree(work / f"out{index}", ignore_errors=True)
            cycles += 1
            elapsed = time.monotonic() - start
            next_end = elapsed * (cycles + 1) / cycles
            if next_end > RUN_CAP_S or (cycles >= MIN_CYCLES[trace] and next_end > seconds):
                return reps, ref
    finally:
        os.sched_setaffinity(0, every_cpu)


def count_failures(wl, reps: list, ref, work: Path, seed: int):
    """Failed units per run, the check of the reference run and the runs whose
    outputs differ from it."""
    if ref is None:
        return [wl.units] * len(reps), None, []
    try:
        check = wl.check(work / f"out{ref}", seed)
    except (OSError, ValueError, IndexError, KeyError) as err:
        check = Check()
        for unit in range(wl.units):
            check.fail(unit, f"unreadable output: {type(err).__name__}: {err}")
    failed, mismatched = [], []
    for i, r in enumerate(reps):
        if not r["ok"]:
            failed.append(wl.units)
        elif r["digests"] != reps[ref]["digests"]:
            failed.append(wl.units)
            mismatched.append(i)
        else:
            failed.append(len(check.failures))
    return failed, check, mismatched


def end_to_end(wl, reps: list) -> dict:
    """Unscaled and calibration-scaled wall time and throughput, RSS, set-up.

    On a shared 2-vCPU VM a run is either fast or about 40% slower, in spells
    of 10-30 s, and the whole machine drifts by 20% over minutes.  Over ten
    seeds of 40 s runs the mean wall time spread by 0.13-0.21 (interquartile
    range over median; the median of a run's ~16 CLI runs did worse still,
    jumping between the two speeds).  So the gated times are scaled by the
    calibration timed before each run on the same CPU, which brought the
    spread to 0.03-0.12 over two sets of ten seeds:
    wall_ref_s = CALIB_REF_S * sum(wall) / sum(calibration).  Set-up time
    drifts with the machine too, so each set-up is scaled by the calibration
    just before it (spread 0.12-0.29 unscaled, 0.04-0.15 scaled).
    """
    plain = [r for r in reps if r["ok"] and r["mode"] == "plain"]
    wall = sum(r["wall_s"] for r in plain)
    calib = sum(r["calib_s"] for r in plain)
    wall_ref = CALIB_REF_S * wall / calib
    return {"wall_s": wall / len(plain),
            "units_per_s": wl.units * len(plain) / wall,
            "setup_unscaled_s": median([r["setup_s"] for r in plain]),
            "calib_s": calib / len(plain),
            "wall_ref_s": wall_ref,
            "units_per_ref_s": wl.units / wall_ref,
            "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
            "setup_s": median([CALIB_REF_S * r["setup_s"] / r["calib_s"] for r in plain])}


def per_layer(reps: list) -> dict:
    ok = [r for r in reps if r["ok"]]
    traced = [r for r in ok if r["mode"] == "traced"]
    layers = [layer_metrics(r["trace"]) for r in traced]

    def scaled_wall(mode):   # calibration-scaled, as in end_to_end
        runs = [r for r in ok if r["mode"] == mode]
        return sum(r["wall_s"] for r in runs) / sum(r["calib_s"] for r in runs)

    measured = {
        "csvio.write.bytes": ok[0]["bytes"],
        "trace.overhead_frac": scaled_wall("traced") / scaled_wall("plain") - 1,
        "trace.unattributed_s": median([r["wall_s"] - r["trace"]["root_s"] for r in traced]),
        "threads2.wall_ratio": scaled_wall("threads2") / scaled_wall("plain"),
    }
    return {name: measured[name] if name in measured else median([m[name] for m in layers])
            for name, _ in PER_LAYER}


def run_workload(wl, seed: int, seconds: float, trace: int, env: dict) -> dict:
    work = WORK / f"{wl.name}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = wl.config(seed)
        (work / "config.cfg").write_text(config)
        cli_args = [wl.command, "--config", str(work / "config.cfg"), "--plots"]
        reps, ref = measure(work, cli_args, seconds, trace)
        failed, check, mismatched = count_failures(wl, reps, ref, work, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = wl.units * len(reps)
    print(f"[{wl.name}] seed {seed}: {len(reps)} runs x {wl.units} units "
          f"({', '.join(sorted(set(r['mode'] for r in reps)))}), BLAS 1 thread, --threads 1")
    if not all(any(r["ok"] and r["mode"] == mode for r in reps) for mode in MODES[trace]):
        return {"name": wl.name, "attempted": attempted, "failed": attempted, "metrics": None}
    if trace:
        metrics, units = per_layer(reps), dict(PER_LAYER)
        missing = sorted({m for r in reps if r["ok"] and r["missing_layers"] for m in r["missing_layers"]})
        if missing:
            print(f"  WARNING: layers not found in bkchain: {', '.join(missing)}", file=sys.stderr)
    else:
        metrics, units = end_to_end(wl, reps), dict(UNSCALED + END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"  {'fail_frac':44s} {sum(failed) / attempted:14.6g} ({sum(failed)} of {attempted} units)")
    for note in check.notes:
        print(f"  check: {note}")
    for unit, reason in list(check.failures.items())[:10]:
        print(f"  check failed: unit {unit}: {reason}")
    if mismatched:
        print(f"  determinism: runs {mismatched} differ from the first run's outputs")
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    path = records / f"{wl.name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace, "why": wl.__doc__,
        "environment": env, "config": config, "units": wl.units, "failed_per_run": failed,
        "check_failures": check.failures, "check_notes": check.notes,
        "runs": reps, "metrics": metrics}, indent=1, default=str))
    print(f"  record: {path.relative_to(ROOT)}")
    gated = PER_LAYER if trace else END_TO_END
    return {"name": wl.name, "attempted": attempted, "failed": sum(failed),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in gated}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not PROGRAM.is_file():
        print(f"bkchain sources not found at {PROGRAM.relative_to(ROOT)}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, args.trace, env) for n in names]
    if any(r["metrics"] is None for r in results):
        print("no successful run of " + ", ".join(r["name"] for r in results if r["metrics"] is None),
              file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['name']}.{k}": v for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
