#!/usr/bin/env python3
"""Run every bundled figure config through the CLI.

Usage: python scripts/reproduce_figures.py [outdir] > hashes.txt

Each config lands in its own subdirectory of outdir (default: figures/),
with CSV data, SVG plots and a run manifest.  Standard output carries one
``<sha256>  <config>/<file>`` line per written file (the format of
``sha256sum``), so ``diff`` of two runs' standard output shows whether any
output changed.  Progress, timings and the CLI's own file list go to
standard error.
"""

import contextlib
import hashlib
import pathlib
import sys
import time

from bkchain.cli import main as bkchain_main

COMMAND_FOR = {
    "fig1_hatano_nelson_spectrum": "spectrum",
    "fig1cd_hatano_nelson_omega": "spectrum",
    "fig2_spectrum_vs_delta1": "spectrum",
    "fig3_nhse_census": "profiles",
    "fig3b_census_broken": "profiles",
    "fig4_zero_modes_vs_j1": "phase-scan",
    "fig5_zero_modes_vs_j2": "phase-scan",
    "fig6_case3_profiles": "profiles",
    "fig7_intracell_dominant": "spectrum",
    "fig8_disorder_robustness": "disorder",
    "fig9_disorder_recovered_skin": "disorder",
    "floquet_drive_table": "floquet",
}


def main():
    here = pathlib.Path(__file__).resolve().parent.parent
    outroot = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else here / "figures"
    failures = 0
    for cfg in sorted((here / "configs").glob("*.cfg")):
        command = COMMAND_FOR.get(cfg.stem)
        if command is None:
            print(f"skipping {cfg.name}: no command mapping", file=sys.stderr)
            continue
        out = outroot / cfg.stem
        t0 = time.time()
        with contextlib.redirect_stdout(sys.stderr):
            code = bkchain_main([command, "--config", str(cfg), "--out", str(out), "--plots"])
        status = "ok" if code == 0 else f"exit {code}"
        print(f"{cfg.stem}: {status} ({time.time() - t0:.1f} s)", file=sys.stderr)
        failures += code != 0
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(outroot).as_posix()}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
