import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import bkchain
from bkchain import disorder
from bkchain.cli import ConfigError, main, parse_config
from bkchain.topology import MAX_THREADS


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


MINIMAL_SPECTRUM = """
[model]
kind = bkc
J0 = 0.5
Delta0 = 1
omega = 0
N = 100
bc = both
"""


class TestConfigParsing:
    def test_minimal_spectrum_config(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL_SPECTRUM), "spectrum")
        assert cfg.command == "spectrum"
        assert cfg.section("model")["N"] == "100"

    def test_missing_n_names_the_key(self, tmp_path):
        text = MINIMAL_SPECTRUM.replace("N = 100\n", "")
        with pytest.raises(ConfigError, match="'N'"):
            parse_config(write(tmp_path, text), "spectrum")

    def test_unknown_key_rejected_by_name(self, tmp_path):
        text = MINIMAL_SPECTRUM + "J3 = 1\n"
        with pytest.raises(ConfigError, match="J3"):
            parse_config(write(tmp_path, text), "spectrum")

    def test_unknown_disorder_parameter_rejected(self, tmp_path):
        text = """
[model]
kind = modbkc
J1 = 1
J2 = 0.5
Delta1 = 1.5
Delta2 = 2.1
omega = 0
N = 20
bc = obc

[disorder]
W_J3 = 0.1
"""
        with pytest.raises(ConfigError, match="W_J3"):
            parse_config(write(tmp_path, text), "disorder")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "nope.cfg"), "spectrum")

    def test_parse_errors_exit_code_2(self, tmp_path, capsys):
        text = MINIMAL_SPECTRUM.replace("N = 100\n", "")
        code = main(["spectrum", "--config", write(tmp_path, text), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "N" in capsys.readouterr().err


MODBKC_MODEL = """
[model]
kind = modbkc
J1 = 1
J2 = 0.5
Delta1 = 1.5
Delta2 = 2.1
omega = 0
N = 8
bc = {bc}
"""
BKC_MODEL = """
[model]
kind = bkc
J0 = 0.5
Delta0 = 1
omega = 0
N = {n}
bc = obc
"""
SWEEP = """
[sweep]
parameter = {name}
min = 0
max = 1
step = {step}
"""
DISORDER = """
[disorder]
W_J1 = 0.1
realizations = 2
observables = {obs}
"""
SECOND_AXIS = "parameter2 = J2\nmin2 = 0\nmax2 = 1\nstep2 = 0.5\n"


@pytest.mark.parametrize("command,text", [
    ("spectrum", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J3", step=0.5)),
    ("spectrum", BKC_MODEL.format(n=8) + SWEEP.format(name="J1", step=0.5)),
    ("spectrum", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=0)),
    ("spectrum", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=1e-8)),
    ("phase-scan", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=0.001)
     + "parameter2 = J2\nmin2 = 0\nmax2 = 1\nstep2 = 0.001\n"),
    ("phase-scan", MODBKC_MODEL.format(bc="pbc") + SWEEP.format(name="J1", step=0.5)),
    ("phase-scan", MODBKC_MODEL.format(bc="both") + SWEEP.format(name="J1", step=0.5)),
    ("phase-scan", BKC_MODEL.format(n=8) + SWEEP.format(name="omega", step=0.5)),
    ("winding", BKC_MODEL.format(n=8)),
    ("disorder", BKC_MODEL.format(n=8) + DISORDER.format(obs="zero_gap")),
    ("disorder", MODBKC_MODEL.format(bc="both") + DISORDER.format(obs="zero_gap")),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap,gap_ratio")),
    ("spectrum", BKC_MODEL.format(n=1)),
    ("winding", MODBKC_MODEL.format(bc="obc") + "[winding]\ngrid = 10\n"),
    ("floquet", "[floquet]\nlambdas = 0,x\n"),
    ("floquet", "[floquet]\nT = 0\n"),
    ("spectrum", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=0.5) + SECOND_AXIS),
    ("winding", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=0.5) + SECOND_AXIS),
    ("disorder", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=0.5) + SECOND_AXIS
     + DISORDER.format(obs="zero_gap")),
    ("profiles", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=0.5)),
    ("spectrum", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J0", step=0.5)),
    ("floquet", "[floquet]\nlambdas = 0,1\n" + MODBKC_MODEL.format(bc="obc")),
    ("floquet", "[floquet]\nlambdas = 0,1\n" + SWEEP.format(name="J1", step=0.5)),
    ("spectrum", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap")),
    ("disorder", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J2", step=0.5)
     + DISORDER.format(obs="nhse_fraction,mean_profile,abs_spectrum")),
    ("disorder", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J2", step=0.5)
     + DISORDER.format(obs="mean_profile")),
    ("spectrum", BKC_MODEL.format(n="nan")),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap") + "seed = 18446744073709551616\n"),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap") + "seed = -1\n"),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap") + "seed = 1e3\n"),
    ("disorder", MODBKC_MODEL.format(bc="obc").replace("N = 8", "N = 1e300") + DISORDER.format(obs="zero_gap")),
    ("spectrum", BKC_MODEL.format(n=2501)),
    ("spectrum", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=1e-320)),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_modes") + "zero_tol = 0\n"),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_modes") + "zero_tol = inf\n"),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="nhse_fraction") + "frac = 0\n"),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="nhse_fraction") + "frac = 0.6\n"),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="nhse_fraction") + "threshold = nan\n"),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="nhse_fraction") + "threshold = 1.5\n"),
    ("spectrum", MINIMAL_SPECTRUM + "[output]\nthreads = 0\n"),
    ("spectrum", MINIMAL_SPECTRUM + "[output]\nthreads = -3\n"),
    ("spectrum", MINIMAL_SPECTRUM + f"[output]\nthreads = {MAX_THREADS + 1}\n"),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap").replace("W_J1 = 0.1", "W_J1 = nan")),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap").replace("W_J1 = 0.1", "W_J1 = inf")),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap").replace("W_J1 = 0.1", "W_J1 = 1e400")),
    ("floquet", "[floquet]\nlambdas = 0,nan\n"),
    ("floquet", "[floquet]\nT = nan\n"),
    ("floquet", "[floquet]\nJt1 = inf\n"),
    ("floquet", "[floquet]\nlambdas = 20\n"),
], ids=["unknown-sweep-parameter", "sweep-parameter-not-on-model", "zero-step",
        "oversized-sweep", "oversized-scan-grid", "phase-scan-pbc", "phase-scan-both",
        "phase-scan-bkc", "winding-bkc", "disorder-bkc", "disorder-both",
        "unknown-observable", "chain-too-short", "winding-grid-too-coarse",
        "floquet-lambda-not-a-number", "floquet-zero-period", "spectrum-second-axis",
        "winding-second-axis", "disorder-second-axis", "profiles-sweep",
        "bkc-parameter-on-modbkc", "floquet-model", "floquet-sweep", "spectrum-disorder-section",
        "disorder-sweep-array-observables", "disorder-sweep-mean-profile", "chain-length-nan",
        "seed-2-to-the-64", "seed-negative", "seed-float-literal", "chain-length-1e300",
        "chain-length-above-cap", "subnormal-sweep-step", "zero-tol-zero", "zero-tol-inf", "frac-zero",
        "frac-above-half", "threshold-nan", "threshold-above-one", "threads-zero", "threads-negative",
        "threads-above-cap", "disorder-strength-nan", "disorder-strength-inf", "disorder-strength-1e400",
        "floquet-lambda-nan", "floquet-period-nan", "floquet-hopping-inf", "floquet-lambda-beyond-series"])
def test_config_errors_exit_2_before_output(tmp_path, capsys, command, text):
    out = tmp_path / "out"
    assert main([command, "--config", write(tmp_path, text), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_flag_out_of_range_exits_2(tmp_path, capsys, seed):
    out = tmp_path / "out"
    text = MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap")
    assert main(["disorder", "--config", write(tmp_path, text), "--out", str(out), f"--seed={seed}"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


def test_largest_seed_is_parsed_exactly(tmp_path):
    text = MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap") + "seed = 18446744073709551615\n"
    assert parse_config(write(tmp_path, text), "disorder").disorder.seed == 2 ** 64 - 1


@pytest.mark.parametrize("source,value", [("env", "two"), ("env", "0"), ("env", "-3"),
                                          ("env", str(MAX_THREADS + 1)), ("flag", "0"), ("flag", "-3"),
                                          ("flag", str(MAX_THREADS + 1))])
def test_malformed_threads_env_exits_2(tmp_path, monkeypatch, source, value):
    # every value is rejected while parsing, so no test starts that many threads
    flags = []
    if source == "env":
        monkeypatch.setenv("BKCHAIN_THREADS", value)
    else:
        flags = [f"--threads={value}"]
    out = tmp_path / "out"
    assert main(["spectrum", "--config", write(tmp_path, MINIMAL_SPECTRUM), "--out", str(out)] + flags) == 2
    assert not out.exists()


# One small run per command (two for disorder, with and without a [sweep]):
# command, config, the files it writes with --plots in write order, and the
# header of the first.
RUNS = [
    ("spectrum", MINIMAL_SPECTRUM.replace("N = 100", "N = 8"),
     ["obc.csv", "pbc.csv", "spectrum.svg"], "index,re_E,im_E"),
    ("profiles", MODBKC_MODEL.format(bc="both").replace("N = 8", "N = 2"),
     ["profiles_obc.csv", "profiles_obc.svg", "profiles_pbc.csv", "profiles_pbc.svg"],
     ",".join(["state"] + [f"b{a}" for a in range(8)])),
    ("winding", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=0.5),
     ["winding.csv", "winding.svg"],
     "J1,re_dtilde1,im_dtilde1,re_dtilde2,im_dtilde2,"
     "w_plus_numeric,w_minus_numeric,w_plus_analytic,w_minus_analytic"),
    ("phase-scan", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=0.5),
     ["phase_scan.csv", "phase_scan.svg"], "J1,abs_E_min,zero_modes,w_plus,w_minus,nhse_fraction,error"),
    ("disorder", MODBKC_MODEL.format(bc="obc").replace("N = 8", "N = 16") + """
[disorder]
W_J1 = 0.1
W_omega = 2
realizations = 3
seed = 99
observables = zero_gap,zero_modes,nhse_fraction,mean_profile,abs_spectrum
""", ["zero_gap.csv", "zero_modes.csv", "nhse_fraction.csv", "mean_profile.csv", "mean_profile.svg",
      "abs_spectrum_realizations.csv"], "realization,zero_gap"),
    ("disorder", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J2", step=0.5)
     + DISORDER.format(obs="zero_gap,zero_modes"),
     ["zero_gap_aggregate.csv", "zero_gap_realizations.csv", "zero_modes_aggregate.csv",
      "zero_modes_realizations.csv", "disorder_sweep.svg"], "J2,mean,std,n"),
    ("floquet", "[floquet]\nlambdas = 0,0.5,1\nJt1 = 0.4\nJt2 = 0.1\n",
     ["floquet.csv", "floquet.svg"], "lambda,re_J1,im_J1,re_J2,im_J2,abs_bessel"),
]
RUN_IDS = ["spectrum", "profiles", "winding", "phase-scan", "disorder", "disorder-sweep", "floquet"]


class TestRuns:
    @pytest.mark.parametrize("command,text,files,header", RUNS, ids=RUN_IDS)
    def test_spectrum_outputs_and_manifest(self, tmp_path, capsys, command, text, files, header):
        cfg = write(tmp_path, text)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out), "--plots"]) == 0
        printed = [os.path.basename(line) for line in capsys.readouterr().out.splitlines()]
        assert printed == files + ["manifest.cfg"]
        assert (out / files[0]).read_text().splitlines()[0] == header
        manifest = (out / "manifest.cfg").read_text()
        # the manifest lists exactly the files written, in write order: no orphan outputs
        listed = [line.split("= ")[1] for line in manifest.splitlines() if line.startswith("file")]
        assert listed == files
        assert {p.name for p in out.iterdir()} == set(files) | {"manifest.cfg"}

    @pytest.mark.parametrize("command,text,files,header", RUNS, ids=RUN_IDS)
    def test_byte_identical_reruns(self, tmp_path, command, text, files, header):
        cfg = write(tmp_path, text)
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main([command, "--config", cfg, "--out", str(out), "--plots"]) == 0
            outs.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert sorted(outs[0]) == sorted(files + ["manifest.cfg"])
        assert outs[0] == outs[1]

    def test_winding_plot_of_gap_closed_sweep(self, tmp_path):
        # J1 = J2 and Delta1 = Delta2 close the gap at every omega: no point has a
        # winding number, so the plotted series is empty
        text = MODBKC_MODEL.format(bc="obc").replace("J1 = 1\n", "J1 = 0.5\n")
        text = text.replace("Delta1 = 1.5", "Delta1 = 1").replace("Delta2 = 2.1", "Delta2 = 1")
        cfg = write(tmp_path, text + SWEEP.format(name="omega", step=0.5))
        out = tmp_path / "w"
        assert main(["winding", "--config", cfg, "--out", str(out), "--plots"]) == 0
        rows = (out / "winding.csv").read_text().splitlines()[1:]
        assert len(rows) == 3 and all(row.endswith(",,,,") for row in rows)
        assert '<polyline points=""' in (out / "winding.svg").read_text()

    def test_seed_override_changes_output(self, tmp_path):
        text = """
[model]
kind = modbkc
J1 = 1
J2 = 0.5
Delta1 = 1.5
Delta2 = 2.1
omega = 0
N = 16
bc = obc

[disorder]
W_J1 = 0.1
realizations = 2
seed = 1
observables = zero_gap
"""
        cfg = write(tmp_path, text)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["disorder", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["disorder", "--config", cfg, "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "zero_gap.csv").read_bytes() != (out2 / "zero_gap.csv").read_bytes()

    @pytest.mark.parametrize("sweep,obs,table,column", [
        ("", "zero_gap,abs_spectrum", "zero_gap.csv", 0),
        ("", "zero_gap,abs_spectrum", "abs_spectrum_realizations.csv", 0),
        (SWEEP.format(name="J2", step=0.5), "zero_gap", "zero_gap_realizations.csv", 1),
    ], ids=["zero-gap", "abs-spectrum", "sweep"])
    def test_rows_keep_their_realization_after_a_failure(self, tmp_path, monkeypatch, sweep, obs, table, column):
        # realization 1 of 4 fails: every other row keeps the index and value of its own realization
        disorder_section = DISORDER.format(obs=obs).replace("realizations = 2", "realizations = 4")
        text = MODBKC_MODEL.format(bc="obc") + sweep + disorder_section
        cfg = write(tmp_path, text)
        assert main(["disorder", "--config", cfg, "--out", str(tmp_path / "all")]) == 0
        draw = disorder.sample_site_fields

        def failing(base, spec, realization):
            if realization == 1:
                raise ValueError("forced failure")
            return draw(base, spec, realization)

        monkeypatch.setattr(disorder, "sample_site_fields", failing)
        assert main(["disorder", "--config", cfg, "--out", str(tmp_path / "cut")]) == 0

        def labelled(sub):
            rows = (tmp_path / sub / table).read_text().splitlines()[1:]
            return [row for row in rows if row.split(",")[column].isdigit()]  # not the mean and std rows

        assert labelled("cut") == [row for row in labelled("all") if row.split(",")[column] != "1"]
        assert {row.split(",")[column] for row in labelled("cut")} == {"0", "2", "3"}

    def test_phase_scan_csv_schema(self, tmp_path):
        text = """
[model]
kind = modbkc
J1 = 0
J2 = 0
Delta1 = 1
Delta2 = 1.5
omega = 0
N = 20
bc = obc

[sweep]
parameter = J1
min = 0
max = 0.2
step = 0.1
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "scan"
        assert main(["phase-scan", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "phase_scan.csv").read_text().splitlines()
        assert lines[0] == "J1,abs_E_min,zero_modes,w_plus,w_minus,nhse_fraction,error"
        assert len(lines) == 4

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_phase_scan_error_cells_are_quoted(self, tmp_path):
        # Delta2 = 1e200 overflows Qp Qx: each point fails with a message that holds a comma
        text = """
[model]
kind = modbkc
J1 = 0
J2 = 0.5
Delta1 = 1
Delta2 = 1e200
omega = 0.1
N = 4
bc = obc

[sweep]
parameter = J1
min = 0
max = 0.5
step = 0.5
"""
        out = tmp_path / "scan"
        assert main(["phase-scan", "--config", write(tmp_path, text), "--out", str(out)]) == 0
        with open(out / "phase_scan.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert len(header) == 7 and len(rows) == 2
        for row in rows:
            assert len(row) == 7
            assert row[-1] == "SolverError: half-size eigensolver failed, dim=4: Array must not contain infs or NaNs"

    def test_bkc_sweep_over_j0(self, tmp_path):
        cfg = write(tmp_path, BKC_MODEL.format(n=8) + SWEEP.format(name="J0", step=0.5))
        out = tmp_path / "j0"
        assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "obc.csv").read_text().splitlines()
        assert lines[0] == "J0,index,re_E,im_E"
        values = [float(line.split(",")[0]) for line in lines[1:]]
        assert sorted(set(values)) == [0.0, 0.5, 1.0]
        assert all(values.count(v) == 2 * 8 for v in set(values))

    def test_bkc_sweep_through_one_ulp_of_the_sweet_spot(self, tmp_path):
        # the fig2-shaped grid holds Delta0 = 1.4000000000000001, 2.2e-16 from
        # J0: the gauge exists there and the sweep runs through
        text = BKC_MODEL.format(n=100).replace("J0 = 0.5", "J0 = 1.4")
        cfg = write(tmp_path, text + SWEEP.format(name="Delta0", step=0.05).replace("max = 1", "max = 3"))
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "d0")]) == 0

    def test_profiles_csv_row_count(self, tmp_path):
        text = """
[model]
kind = modbkc
J1 = 0.4
J2 = 0.1
Delta1 = 1
Delta2 = 0.5
omega = 0
N = 12
bc = obc
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "prof"
        assert main(["profiles", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "profiles_obc.csv").read_text().splitlines()
        assert len(lines) == 1 + 48  # header + 4N states
        row = np.array([float(x) for x in lines[1].split(",")[1:]])
        assert row.sum() == pytest.approx(1.0, abs=1e-9)

    def test_profiles_inside_the_topological_window(self, tmp_path):
        # fig4 at J1 = 1.2: the open chain's edge pair is ~7e-36 from zero
        text = """
[model]
kind = modbkc
J1 = 1.2
J2 = 0
Delta1 = 1
Delta2 = 1.5
omega = 0
N = 100
bc = obc
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "prof"
        assert main(["profiles", "--config", cfg, "--out", str(out)]) == 0
        assert len((out / "profiles_obc.csv").read_text().splitlines()) == 1 + 400

    def test_floquet_csv(self, tmp_path):
        text = """
[floquet]
lambdas = 0,1
T = 1
Jt1 = 0.4
Jt2 = 0.1
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "flo"
        assert main(["floquet", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "floquet.csv").read_text().splitlines()
        assert lines[0] == "lambda,re_J1,im_J1,re_J2,im_J2,abs_bessel"
        assert len(lines) == 3

    def test_winding_command(self, tmp_path):
        text = """
[model]
kind = modbkc
J1 = 0.5
J2 = 0
Delta1 = 1
Delta2 = 1.5
omega = 0
N = 8
bc = obc
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "w"
        assert main(["winding", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "winding.csv").read_text().splitlines()
        assert len(lines) == 2
        vals = lines[1].split(",")
        assert vals[-4:] == ["1", "-1", "1", "-1"]

    def test_compute_error_exit_code_1(self, tmp_path, capsys):
        # profiles at a singular gauge point: eigenvectors unavailable
        text = """
[model]
kind = modbkc
J1 = 1.5
J2 = 0.5
Delta1 = 1.5
Delta2 = 2.1
omega = 0
N = 10
bc = obc
"""
        cfg = write(tmp_path, text)
        out = tmp_path / "e"
        code = main(["profiles", "--config", cfg, "--out", str(out), "--plots"])
        assert code == 1
        assert "profiles" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BKCHAIN_THREADS", "2")
        cfg = write(tmp_path, MINIMAL_SPECTRUM)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "t")]) == 0


@pytest.mark.parametrize("command,text,flags,loaded", [
    ("spectrum", MINIMAL_SPECTRUM, [], []),
    ("phase-scan", MODBKC_MODEL.format(bc="obc") + SWEEP.format(name="J1", step=0.5), [], []),
    ("spectrum", MODBKC_MODEL.format(bc="obc"), ["--seed", "3"], ["bkchain.disorder"]),
    ("disorder", MODBKC_MODEL.format(bc="obc") + DISORDER.format(obs="zero_gap"), [], ["bkchain.disorder"]),
    ("floquet", "[floquet]\nlambdas = 0,0.5\n", [], ["bkchain.floquet"]),
], ids=["spectrum", "phase-scan", "spectrum-seed", "disorder", "floquet"])
def test_commands_import_disorder_and_floquet_only_where_used(tmp_path, command, text, flags, loaded):
    # a fresh interpreter runs the command; [disorder], [floquet] and --seed import their modules
    argv = [command, "--config", write(tmp_path, text), "--out", str(tmp_path / "out"), *flags]
    script = ("import sys\nfrom bkchain.cli import main\ncode = main(sys.argv[1:])\n"
              "print(code, [m for m in ('bkchain.disorder', 'bkchain.floquet') if m in sys.modules])")
    src = os.path.dirname(os.path.dirname(bkchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == f"0 {loaded}"
