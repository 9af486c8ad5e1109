"""The batched table formatter against the per-cell formatting it replaced,
and JSON reports built from dataclass fields."""

import math
import re
from dataclasses import dataclass

import numpy as np
import pytest

from seqdisc import reporting
from seqdisc.reporting import csv_text, dumps_json, fmt, format_rows
from seqdisc.strategies import curve_svg, make_curve

# Cells at the edges of %.12g: signed zeros, the smallest subnormal, huge
# and exact-integer values past 2**53, an int, and the non-finite values.
EDGE_CELLS = [-0.0, 0.0, 5e-324, 1e-300, 1 / 3, 1e16, 2**53 + 1, 7,
              math.nan, math.inf, -math.inf]
HEADER = [f"c{j}" for j in range(len(EDGE_CELLS))]


def reference_csv_text(header, rows) -> str:
    """The per-cell csv_text body that format_rows replaced."""
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else fmt(c) for c in row))
    return "\n".join(lines) + "\n"


def first_difference(got: str, want: str, sep: str = "\n"):
    """None when the texts are equal, else the first differing piece of
    each; pytest's own diff of two long texts can take minutes."""
    if got == want:
        return None
    got, want = got.split(sep), want.split(sep)
    i = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    return i, got[i:i + 1], want[i:i + 1]


def edge_rows(count: int) -> list:
    """`count` rows, each a rotation of EDGE_CELLS, so every cell value
    meets every column."""
    k = len(EDGE_CELLS)
    return [[EDGE_CELLS[(i + j) % k] for j in range(k)] for i in range(count)]


@pytest.mark.parametrize("count", [
    1, 37, reporting.FORMAT_BLOCK_ROWS - 1, reporting.FORMAT_BLOCK_ROWS,
    reporting.FORMAT_BLOCK_ROWS + 1])
def test_csv_text_matches_per_cell_reference(count):
    rows = edge_rows(count)
    assert first_difference(csv_text(HEADER, rows), reference_csv_text(HEADER, rows)) is None


def test_csv_text_matches_reference_across_magnitudes():
    rng = np.random.default_rng(5)
    values = rng.choice([-1.0, 1.0], 3000) * 10.0 ** rng.uniform(-320, 308, 3000)
    rows = values.reshape(500, 6)
    assert first_difference(csv_text(HEADER[:6], rows), reference_csv_text(HEADER[:6], rows)) is None


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_format_rows_does_not_depend_on_the_block_size(monkeypatch, block):
    rows = np.array(edge_rows(100), dtype=float)
    monkeypatch.setattr(reporting, "FORMAT_BLOCK_ROWS", block)
    want = "|".join(";".join(fmt(c) for c in r) for r in rows)
    assert first_difference(format_rows(rows, ";", "|"), want, "|") is None


def reference_points(curve, attr, width=640, height=480) -> str:
    """curve_svg's per-point polyline join before format_rows, with the
    same plot geometry."""
    left, right, top, bottom = 56.0, 16.0, 16.0, 44.0
    pw = width - left - right
    ph = height - top - bottom
    s_lo, s_hi = float(curve.s[0]), float(curve.s[-1])

    def x(s):
        return left + (s - s_lo) / (s_hi - s_lo) * pw

    def y(p):
        return top + (1.0 - p) * ph

    return " ".join(f"{fmt(x(sv))},{fmt(y(pv))}" for sv, pv in zip(curve.s, getattr(curve, attr)))


@pytest.mark.parametrize("curve", [
    make_curve(0.0, 1.0, reporting.FORMAT_BLOCK_ROWS + 1),
    make_curve(0.3, 0.3000001, 9),
], ids=["full", "narrow"])
def test_svg_points_match_per_point_reference(curve):
    points = re.findall(r'<polyline points="([^"]*)"', curve_svg(curve))
    assert len(points) == 4
    for got, attr in zip(points, ("p_seq", "p1", "p2", "p3")):
        assert first_difference(got, reference_points(curve, attr), " ") is None, attr


@dataclass(frozen=True)
class _Inner:
    rate: float


@dataclass(frozen=True)
class _Report:
    counts: dict
    pair: tuple
    count: np.int64
    share: np.float64
    inner: _Inner


def test_dumps_json_serializes_dataclass_fields():
    report = _Report(counts={2: np.int64(5), 1: 7}, pair=(1, 0.5), count=np.int64(3),
                     share=np.float64(1 / 3), inner=_Inner(rate=2 / 3))
    assert dumps_json(report) == """\
{
  "count": 3,
  "counts": {
    "1": 7,
    "2": 5
  },
  "inner": {
    "rate": 0.666666666667
  },
  "pair": [
    1,
    0.5
  ],
  "share": 0.333333333333
}
"""
