#!/usr/bin/env python3
"""Compare two output trees of scripts/reproduce_figures.py file by file.

Usage: python scripts/compare_figures.py DIR_A DIR_B

Every file is reported as identical (byte for byte), changed, or present on
one side only.  For a changed CSV the report gives, per numeric column, the
largest absolute difference and the number of rows that differ, with cells
that became empty or were filled counted apart; when at most ten rows
differ, their keys (the first column) are listed, and when more than ten
columns differ, one line sums them up.  Eigenvalue tables
(columns ``re_E`` and ``im_E``) are compared as sets per sweep value instead,
because the row order follows a sort on real parts that round-off can
reorder: the two sets are paired one to one with the least total distance,
and the report gives the largest paired distance, absolute and relative to
max|E| of the sweep value.  The exit status is 0 when every file is
identical.  Needs SciPy (the ``test`` extra).
"""

import csv
import pathlib
import sys

import numpy as np
from scipy.optimize import linear_sum_assignment

MAX_LISTED = 10  # rows or columns listed by name


def _read(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _paired_distance(a, b):
    """Largest distance of the one-to-one pairing of two equal-size sets with the least total distance.

    A nearest-first greedy pairing can leave a far pair for last, and so
    overstate a change.
    """
    d = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].max())


def _compare_spectra(header, rows_a, rows_b):
    re_col, im_col = header.index("re_E"), header.index("im_E")
    key_cols = [c for c, name in enumerate(header) if name not in ("index", "re_E", "im_E")]

    def groups(rows):
        out = {}
        for row in rows:
            key = tuple(row[c] for c in key_cols)
            out.setdefault(key, []).append(complex(float(row[re_col]), float(row[im_col])))
        return {k: np.array(v) for k, v in out.items()}

    ga, gb = groups(rows_a), groups(rows_b)
    if ga.keys() != gb.keys() or any(len(ga[k]) != len(gb[k]) for k in ga):
        return "sweep values or spectrum sizes differ"
    worst_abs = worst_rel = 0.0
    for key in ga:
        dist = _paired_distance(ga[key], gb[key])
        worst_abs = max(worst_abs, dist)
        worst_rel = max(worst_rel, dist / max(np.abs(ga[key]).max(), np.finfo(float).tiny))
    return (f"spectra as sets over {len(ga)} sweep value(s): max paired |dE| {worst_abs:.2e}, "
            f"max |dE| / max|E| {worst_rel:.2e}")


def _compare_columns(header, rows_a, rows_b):
    if len(rows_a) != len(rows_b):
        return f"row counts differ: {len(rows_a)} vs {len(rows_b)}"
    parts = []  # (max |diff| or None, column name, differing row keys, emptied, filled)
    for c, name in enumerate(header):
        diffs, keys, emptied, filled = [], [], 0, 0
        for row_a, row_b in zip(rows_a, rows_b):
            if row_a[c] == row_b[c]:
                continue
            keys.append(row_a[0])
            if not row_b[c]:
                emptied += 1
            elif not row_a[c]:
                filled += 1
            else:
                x, y = _number(row_a[c]), _number(row_b[c])
                diffs.append(abs(x - y) if x is not None and y is not None else float("nan"))
        if keys:
            parts.append((max(diffs) if diffs else None, name, keys, emptied, filled))
    if not parts:
        return "cells equal, bytes differ"
    if len(parts) > MAX_LISTED:
        # wide tables (profiles): one line for all columns
        cells = sum(len(part[2]) for part in parts)
        text = f"{len(parts)} of {len(header)} columns differ in {cells} cell(s)"
        numeric = [(part[0], part[1]) for part in parts if part[0] is not None]
        if numeric:
            worst, name = max(numeric)
            text += f"; max |diff| {worst:.2e} (column {name})"
        return text
    out = []
    for worst, name, keys, emptied, filled in parts:
        counts = [f"{n} cell(s) {what}" for n, what in ((emptied, "emptied"), (filled, "filled")) if n]
        if worst is not None:
            counts.append(f"max |diff| {worst:.2e} in {len(keys) - emptied - filled} row(s)")
        text = f"{name}: {', '.join(counts)}"
        if len(keys) <= MAX_LISTED:
            text += f" at {header[0]} = {', '.join(keys)}"
        out.append(text)
    return "; ".join(out)


def compare_csv(path_a, path_b) -> str:
    header, rows_a = _read(path_a)
    header_b, rows_b = _read(path_b)
    if header != header_b:
        return "headers differ"
    if "re_E" in header and "im_E" in header:
        return _compare_spectra(header, rows_a, rows_b)
    return _compare_columns(header, rows_a, rows_b)


def _files(root):
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    root_a, root_b = pathlib.Path(argv[1]), pathlib.Path(argv[2])
    names_a, names_b = _files(root_a), _files(root_b)
    changed = 0
    for name in sorted(names_a | names_b):
        if name not in names_b or name not in names_a:
            print(f"only in {argv[1] if name in names_a else argv[2]}: {name}")
            changed += 1
            continue
        a, b = root_a / name, root_b / name
        if a.read_bytes() == b.read_bytes():
            print(f"identical  {name}")
            continue
        changed += 1
        detail = f"  {compare_csv(a, b)}" if name.endswith(".csv") else ""
        print(f"changed    {name}{detail}")
    print(f"{len(names_a | names_b) - changed} identical, {changed} changed or unmatched")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
