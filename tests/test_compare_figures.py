"""`scripts/compare_figures.py`, loaded by path: it is a script, not part of the package."""

import importlib.util
import pathlib

import numpy as np

_PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "compare_figures.py"
_SPEC = importlib.util.spec_from_file_location("compare_figures", _PATH)
compare_figures = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_figures)


def test_pairing_is_not_greedy():
    # nearest-first would pair 1 with 0.6 and leave 0 with 1.5
    assert compare_figures._paired_distance(np.array([0.0, 1.0]), np.array([0.6, 1.5])) == 0.6


def test_spectrum_report_gives_the_paired_distance(tmp_path):
    rows = {"a": [(0, 0.0), (1, 1.0)], "b": [(0, 0.6), (1, 1.5)]}
    for name, values in rows.items():
        lines = ["index,re_E,im_E"] + [f"{i},{re},0" for i, re in values]
        (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n")
    report = compare_figures.compare_csv(tmp_path / "a.csv", tmp_path / "b.csv")
    assert "max paired |dE| 6.00e-01" in report
    assert "max |dE| / max|E| 6.00e-01" in report
