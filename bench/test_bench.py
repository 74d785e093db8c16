"""Self-tests of the benchmark: run with ``python3 -m pytest bench`` from the repo root.

The layer test runs each workload once, traced, and checks that every layer
group is called on exactly the workloads predicted below.  A refactor that
moves or renames a traced function then fails here as a missing layer
instead of reporting a silent zero.
"""

import json
import sys

import numpy as np
import pytest

import run
from tracer import LAYERS, layer_metrics
from workloads import WORKLOADS, Scan, bloch_eigenvalues, grid_offset

ALL = {"scan", "sweep", "ensemble"}
PREDICTED_CALLS = {
    "cli.parse_config": ALL,
    "model.build": {"sweep", "ensemble"},
    "spectral.eigendecompose": {"sweep", "ensemble"},
    "spectral.modbkc_spectrum_zero_omega": {"scan"},
    "transform.effective_ssh_matrix": {"scan"},
    "transform.a_combined": {"scan"},
    "transform.lift": {"scan"},
    "topology.edge_mode_count": {"scan"},
    "topology.phase_scan": {"scan"},
    "skin": {"scan", "ensemble"},
    "skin.spatial_profile": {"scan", "ensemble"},
    "disorder.sample_site_fields": {"ensemble"},
    "disorder.ensemble_observables": {"ensemble"},
    "csvio.write": ALL,
    "svgplot": ALL,
}


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert set(PREDICTED_CALLS) == set(LAYERS)


def test_bloch_copy_matches_model():
    sys.path.insert(0, str(run.ROOT / "src"))
    from bkchain.model import ModBKCParams, bloch_matrix

    p = ModBKCParams(J1=1.4, J2=1.2, Delta1=0.7, Delta2=1.0, omega=0.3, N=12)
    ours = bloch_eigenvalues(p.J1, p.J2, p.Delta1, p.Delta2, p.omega, p.N)
    ref = np.concatenate([np.linalg.eigvals(bloch_matrix(p, 2 * np.pi * m / p.N))
                          for m in range(p.N)])
    assert np.allclose(ours, ref, rtol=0, atol=1e-13)


def test_seeded_grids_keep_point_count():
    assert grid_offset(0) == 0.0
    for seed in range(1, 6):
        assert 0 < grid_offset(seed) < 1
    for wl in (WORKLOADS["scan"], WORKLOADS["sweep"]):
        text = wl.config(7)
        lo, hi, step = (float(line.split("=")[1]) for line in text.splitlines()
                        if line.split(" ")[0] in ("min", "max", "step"))
        assert round((hi - lo) / step) + 1 == wl.points


def test_scan_skip_window_on_fig4_grid():
    # fig4 grid J1 = 0, 0.02, ..., 2.5: the zero-mode check skips the 12
    # topological points whose edge splitting is >= 1e-9.
    grid = [0.02 * i for i in range(126)]
    skipped = [J1 for J1 in grid if Scan().expected_modes(J1) is None]
    assert len(skipped) == 12
    assert 1.57 < min(skipped) and max(skipped) < 1.803   # below the transition at sqrt(3.25)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_layers_called_where_predicted(name, tmp_path):
    wl = WORKLOADS[name]
    (tmp_path / "config.cfg").write_text(wl.config(0))
    rep = run.run_child(tmp_path, 0, [wl.command, "--config", str(tmp_path / "config.cfg"), "--plots"],
                        "traced")
    assert rep["ok"], f"traced {name} run failed"
    assert rep["missing_layers"] == []
    metrics = layer_metrics(rep["trace"])
    for group, where in PREDICTED_CALLS.items():
        calls = metrics[f"{group}.calls"]
        assert (calls > 0) == (name in where), f"{group}: {calls} calls on {name}"
    assert metrics["spectral.solved_dim3"] > 0
    check = wl.check(tmp_path / "out0", 0)
    assert check.failures == {}
