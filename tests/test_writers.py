"""The columnar CSV writer and the array SVG writers against their per-cell loop versions.

The references below are the writers as they were before they formatted
whole arrays: `format_number` called once per cell, and one f-string per
point, polyline vertex or heat-map cell.  The property tests require the
same bytes from both.
"""

import csv
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bkchain import svgplot
from bkchain.csvio import write_csv


def _format_number_reference(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, complex):
        raise TypeError("split complex values into re/im columns")
    return f"{float(x):.17g}"


def _write_csv_reference(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row width {len(row)} != header width {len(header)}")
        lines.append(",".join(_format_number_reference(x) for x in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def _series_reference(path, series, title, xlabel, ylabel, line):
    series = [(label, *svgplot._finite(xs, ys), color) for label, xs, ys, color in series]
    allx = np.concatenate([np.empty(0)] + [xs for _, xs, _, _ in series])
    ally = np.concatenate([np.empty(0)] + [ys for _, _, ys, _ in series])
    if not len(allx):
        allx = ally = np.array([0.0])
    xlo, xhi = svgplot._limits(allx)
    ylo, yhi = svgplot._limits(ally)
    parts = svgplot._axes(xlo, xhi, ylo, yhi, title, xlabel, ylabel)
    for i, (label, xs, ys, color) in enumerate(series):
        px, py = svgplot._proj(xs, ys, xlo, xhi, ylo, yhi)
        if line:
            order = np.argsort(xs)
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px[order], py[order]))
            parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        else:
            parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.2" fill="{color}" fill-opacity="0.7"/>'
                      for x, y in zip(px, py)]
        parts.append(f'<text x="{svgplot._W-svgplot._MR-8}" y="{svgplot._MT+16+14*i}" text-anchor="end" '
                     f'font-size="11" fill="{color}">{label}</text>')
    return svgplot._write(path, parts)


def _viridis_reference(v):
    anchors = [(68, 1, 84), (59, 82, 139), (33, 145, 140), (94, 201, 98), (253, 231, 37), (253, 231, 37)]
    v = min(max(v, 0.0), 1.0) * (len(anchors) - 2)
    i = int(v)
    t = v - i
    a, b = anchors[i], anchors[i + 1]
    rgb = tuple(round(a[c] + t * (b[c] - a[c])) for c in range(3))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def _heatmap_reference(path, matrix, title="", xlabel="", ylabel="", log_floor=1e-12):
    W, H, ML, MR, MT, MB = svgplot._W, svgplot._H, svgplot._ML, svgplot._MR, svgplot._MT, svgplot._MB
    Z = np.asarray(matrix, dtype=float)
    Z = np.where(np.isfinite(Z), Z, 0.0)
    Z = svgplot._downsample(Z)
    logz = np.log10(np.maximum(Z, log_floor))
    lo, hi = logz.min(), logz.max()
    if hi == lo:
        hi = lo + 1
    nrows, ncols = Z.shape
    cw = (W - ML - MR) / ncols
    ch = (H - MT - MB) / nrows
    parts = svgplot._axes(0, ncols, 0, nrows, title, xlabel, ylabel)
    for i in range(nrows):
        for j in range(ncols):
            v = (logz[i, j] - lo) / (hi - lo)
            x = ML + j * cw
            y = H - MB - (i + 1) * ch
            parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{math.ceil(cw*100)/100:.2f}" '
                         f'height="{math.ceil(ch*100)/100:.2f}" fill="{_viridis_reference(v)}"/>')
    return svgplot._write(path, parts)


def _written(writer, *args) -> bytes:
    """The bytes ``writer(path, *args)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out")
        writer(path, *args)
        with open(path, "rb") as fh:
            return fh.read()


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.225073858507201e-308,
                  math.inf, -math.inf, math.nan, 1e308, -1e308, 1e-308, -1e-308, 1.7976931348623157e308,
                  0.1, 1 / 3, 1e16, 1e17, 123456789012345678.0]
FLOATS = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats())
# the per-cell writer formats a NumPy integer through float, which is exact up to 2**53
EXACT_INTS = st.integers(-2 ** 53, 2 ** 53)
PLAIN_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters=',"'))
CELLS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, FLOATS.map(np.float64),
                  EXACT_INTS.map(np.int64), st.booleans().map(np.bool_), PLAIN_TEXT)


def _column(n):
    def sized(cells):
        return st.lists(cells, min_size=n, max_size=n)
    return st.one_of(
        sized(FLOATS).map(lambda v: np.array(v, dtype=float)),
        sized(st.floats(width=32)).map(lambda v: np.array(v, dtype=np.float32)),
        sized(EXACT_INTS).map(lambda v: np.array(v, dtype=np.int64)),
        sized(st.integers(0, 255)).map(lambda v: np.array(v, dtype=np.uint8)),
        sized(st.booleans()).map(lambda v: np.array(v, dtype=bool)),
        sized(CELLS),
        sized(CELLS).map(tuple),
    )


@st.composite
def tables(draw):
    n = draw(st.integers(0, 12))
    columns = draw(st.lists(_column(n), min_size=1, max_size=5))
    header = draw(st.lists(PLAIN_TEXT, min_size=len(columns), max_size=len(columns)))
    return header, columns


class TestCsv:
    @settings(max_examples=300, deadline=None)
    @given(table=tables())
    def test_columns_match_the_per_cell_writer(self, table):
        header, columns = table
        assert _written(write_csv, header, columns) == \
            _written(_write_csv_reference, header, list(zip(*columns)))

    def test_integer_arrays_are_written_exactly(self):
        ints = np.array([2 ** 53 + 1, -2 ** 63, 2 ** 63 - 1, 10 ** 17 + 3])
        assert _written(write_csv, ("n",), (ints,)).decode().splitlines()[1:] == [str(n) for n in ints.tolist()]

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.text(st.characters(min_codepoint=1, max_codepoint=126)), max_size=8))
    @example(cells=["SolverError: failed, dim=4", 'say "hi"', "a\nb", "a\rb", "", '"'])
    def test_str_cells_are_quoted(self, cells):
        x = np.arange(len(cells), dtype=float) / 3
        rows = [("x", "error")] + [("%.17g" % v, cell) for v, cell in zip(x.tolist(), cells)]
        text = _written(write_csv, rows[0], (x, cells)).decode()
        assert [tuple(row) for row in csv.reader(io.StringIO(text, newline=""))] == rows
        if not any("\r" in cell for cell in cells):  # the one cell csv.writer leaves bare
            expected = io.StringIO()
            csv.writer(expected, lineterminator="\n").writerows(rows)
            assert text == expected.getvalue()

    def test_mismatched_columns_are_rejected(self):
        with pytest.raises(ValueError, match=r"lengths \[2\] under 2 names"):
            _written(write_csv, ("a", "b"), (np.zeros(2),))
        with pytest.raises(ValueError, match=r"lengths \[2, 3\] under 2 names"):
            _written(write_csv, ("a", "b"), (np.zeros(2), np.zeros(3)))
        with pytest.raises(TypeError, match="complex"):
            _written(write_csv, ("a",), (np.zeros(2, dtype=complex),))


COLORS = st.sampled_from(["crimson", "royalblue", "rgb(10%,20%,30%)"])
COORDS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0]))


@st.composite
def series_lists(draw, coords=COORDS):
    out = []
    for i in range(draw(st.integers(0, 3))):
        n = draw(st.integers(0, 40))
        xs, ys = (np.array(draw(st.lists(coords, min_size=n, max_size=n)), dtype=float) for _ in range(2))
        out.append((f"s{i}", xs, ys, draw(COLORS)))
    return out


SERIES_WRITERS = [(svgplot.scatter_svg, False), (svgplot.line_svg, True)]


class TestSeriesPlots:
    @pytest.mark.parametrize("writer, line", SERIES_WRITERS)
    @settings(max_examples=150, deadline=None)
    @given(series=series_lists())
    def test_matches_the_loop_writer(self, writer, line, series):
        labels = ("title", "x", "y")
        assert _written(writer, series, *labels) == \
            _written(lambda path, *args: _series_reference(path, *args, line=line), series, *labels)

    @pytest.mark.parametrize("writer, line", SERIES_WRITERS)
    @settings(max_examples=100, deadline=None)
    @given(series=series_lists(st.integers(-8 * 700, 8 * 700).map(lambda k: k / 8)))
    def test_ties_round_as_the_loop_writer_rounds(self, writer, line, series):
        # with the projection the identity, eighths reach '%.2f' as exact ties, e.g. 105.625 -> 105.62
        with mock.patch.object(svgplot, "_proj", lambda xs, ys, *limits: (xs, ys)):
            assert _written(writer, series) == \
                _written(lambda path, s: _series_reference(path, s, "", "", "", line=line), series)

    def test_ties_round_half_to_even(self):
        with mock.patch.object(svgplot, "_proj", lambda xs, ys, *limits: (xs, ys)):
            text = _written(svgplot.scatter_svg, [("s", np.array([105.625, 0.125]), np.array([2.375, 3.875]),
                                                   "crimson")]).decode()
        assert 'cx="105.62" cy="2.38"' in text and 'cx="0.12" cy="3.88"' in text


def _heatmaps():
    rng = np.random.default_rng(19)
    rough = 10.0 ** rng.uniform(-20, 3, (300, 257))
    rough[rng.random(rough.shape) < 0.05] = np.nan
    rough[rng.random(rough.shape) < 0.05] = np.inf
    rough[rng.random(rough.shape) < 0.05] = -1.0
    return {
        "one_cell": np.ones((1, 1)),
        "constant": np.full((40, 30), 0.25),
        "constant_zero": np.zeros((130, 7)),
        "decades": (10.0 ** np.arange(-8, 1)).reshape(3, 3),
        "sixteenths": 10.0 ** np.arange(-16, 1)[None, :],
        "ties_128x16": rng.random((128, 16)),
        "rough_300x257": rough,
        "square_400": rng.random((400, 400)) ** 8,
        "all_non_finite": np.full((5, 129), np.nan),
    }


HEATMAPS = _heatmaps()


class TestHeatmap:
    @pytest.mark.parametrize("name", sorted(HEATMAPS))
    def test_matches_the_loop_writer(self, name):
        assert _written(svgplot.heatmap_svg, HEATMAPS[name], "t", "x", "y") == \
            _written(_heatmap_reference, HEATMAPS[name], "t", "x", "y")

    def test_ties_are_written(self):
        # 16 columns are 34.375 wide and 128 rows 3.125 high: x = 173.125 and y = 426.875 are ties
        text = _written(svgplot.heatmap_svg, np.ones((128, 16))).decode()
        assert '<rect x="173.12" y="426.88"' in text

    def test_colour_ties_round_half_to_even(self):
        # log10 of 1e-11 over [-16, 0] sits at 5/16 of the scale: red is 59 + 0.25 (33 - 59) = 52.5
        args = (HEATMAPS["sixteenths"], "", "", "", 1e-16)
        text = _written(svgplot.heatmap_svg, *args)
        assert 'fill="rgb(52,98,139)"' in text.decode()
        assert text == _written(_heatmap_reference, *args)

    @settings(max_examples=30, deadline=None)
    @given(shape=st.tuples(st.integers(1, 300), st.integers(1, 300)), seed=st.integers(0, 2 ** 32 - 1),
           spread=st.floats(0, 30), holes=st.floats(0, 0.5), floor=st.sampled_from([1e-12, 1e-3, 1.0]))
    def test_random_maps_match_the_loop_writer(self, shape, seed, spread, holes, floor):
        rng = np.random.default_rng(seed)
        Z = 10.0 ** (spread * (rng.random(shape) - 0.5))
        Z[rng.random(shape) < holes] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -2.0])
        assert _written(svgplot.heatmap_svg, Z, "", "", "", floor) == \
            _written(_heatmap_reference, Z, "", "", "", floor)
