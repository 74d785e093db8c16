"""CSV and run-manifest writers.

A table is one column per header name.  A float NumPy array is written as
'%.17g', which round-trips doubles bit-exactly, and an integer NumPy array
as '%d', by one row format string applied with a single '%' per row.  Any
other column goes cell by cell through `format_number`: None as an empty
cell, a bool as 1 or 0, a Python int exactly, a str as it is and any other
number as '%.17g'.  A str that holds ',', '"', LF or CR is quoted as
`csv.writer` quotes it (QUOTE_MINIMAL): wrapped in '"', each '"' doubled.
(Python 3.11's `csv.writer` with ``lineterminator="\n"`` leaves a CR bare,
where `csv.reader` would end the row.)  Lines end in LF, after a header row.
"""

from __future__ import annotations

import os
from typing import Sequence

__all__ = ["format_number", "write_csv", "write_manifest"]


def format_number(x) -> str:
    if isinstance(x, str):
        return '"' + x.replace('"', '""') + '"' if any(c in x for c in ',"\r\n') else x
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, complex):
        raise TypeError("split complex values into re/im columns")
    return f"{float(x):.17g}"


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> str:
    """The table with ``columns[k]`` under ``header[k]``; every column has one cell per row."""
    if len(columns) != len(header) or len({len(col) for col in columns}) > 1:
        raise ValueError(f"columns of lengths {[len(col) for col in columns]} under {len(header)} names")
    kinds = [getattr(getattr(col, "dtype", None), "kind", "O") for col in columns]
    line = ",".join("%.17g" if k == "f" else "%d" if k in "iu" else "%s" for k in kinds) + "\n"
    cells = [col.tolist() if k in "fiu" else [format_number(x) for x in col] for col, k in zip(columns, kinds)]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n" + "".join([line % row for row in zip(*cells)]))
    return path


def write_manifest(path: str, command: str, config_items: dict, seed, version: str,
                   files: Sequence[str]) -> str:
    """Key = value manifest mirroring the config format; lists every output."""
    lines = ["[manifest]", f"command = {command}", f"version = {version}",
             f"seed = {'' if seed is None else seed}", "", "[config]"]
    lines += [f"{section}.{key} = {val}" for section, values in config_items.items() for key, val in values.items()]
    lines += ["", "[files]"] + [f"file{i} = {os.path.basename(f)}" for i, f in enumerate(files)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
