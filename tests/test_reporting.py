"""The batched table formatter against the per-cell formatting it replaced,
and JSON reports built from record (NamedTuple) fields."""

import functools
import math
import re
from decimal import Decimal
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from seqdisc import b92, neumark, povm, reporting, sequential, strategies
from seqdisc.reporting import csv_text, dumps_json, fmt, format_rows
from seqdisc.strategies import KINDS, curve_svg, make_curve, simulate_strategy

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


@pytest.fixture
def kernel_cells(monkeypatch):
    """The sizes of the blocks format_rows renders through its numpy kernel
    rather than the `%.12g` template."""
    sizes = []
    slots = reporting._slots

    def spy(x, sep):
        sizes.append(x.size)
        return slots(x, sep)

    monkeypatch.setattr(reporting, "_slots", spy)
    return sizes


def assert_kernel_matches_fmt(values, kernel_cells, cols=5):
    """The values, both signs of each, in rows of `cols` cells: format_rows
    gives fmt()'s bytes, and its kernel rendered every cell."""
    values = np.concatenate([np.ravel(v) for v in values]).astype(float)
    values = np.concatenate([values, -values])
    rows = np.resize(values, (-(-len(values) // cols), cols))
    want = "\n".join(",".join(fmt(c) for c in row) for row in rows)
    assert first_difference(format_rows(rows, ",", "\n"), want) is None
    assert sum(kernel_cells) == rows.size


@pytest.mark.parametrize("k", range(-11, 11))
def test_kernel_near_ties_at_the_twelfth_digit(k, kernel_cells):
    """(m + 0.5) * 10**(k - 11) and its neighbouring floats round to the
    twelfth digit as fmt() does, on either side of the tie."""
    m = np.random.default_rng(k + 11).integers(10**11, 10**12, 400).astype(float)
    ties = (m + 0.5) * 10.0 ** (k - 11)
    assert_kernel_matches_fmt([ties, np.nextafter(ties, 0), np.nextafter(ties, np.inf)],
                              kernel_cells)


@pytest.mark.parametrize("e", range(-6, 11))
def test_kernel_exact_ties_round_half_even(e, kernel_cells):
    """j / 2**(12 - e) with j odd has exactly 13 significant digits, the last
    a 5: an exact tie, which fmt() rounds to the even twelfth digit."""
    t = 12 - e
    lo, hi = math.ceil(10.0**e * 2**t), math.floor(10.0 ** (e + 1) * 2**t)
    j = np.random.default_rng(e + 20).integers(lo // 2, hi // 2, 400) * 2 + 1
    ties = j / 2.0**t
    for x in ties[:20]:
        digits = Decimal(float(x)).as_tuple().digits
        assert len(digits) == 13 and digits[-1] == 5, x
    assert_kernel_matches_fmt(ties, kernel_cells)


def test_kernel_powers_of_ten_and_their_neighbours(kernel_cells):
    powers = np.array([float(f"1e{k}") for k in range(-11, 11)])
    neighbours = [np.nextafter(powers[1:], 0), np.nextafter(powers, np.inf)]
    assert_kernel_matches_fmt([powers, *neighbours], kernel_cells)


def test_kernel_rounding_into_the_next_decade(kernel_cells):
    """A twelfth-digit carry that makes the next power of ten moves the
    exponent, here across the fixed/exponent switch at 1e-4 and up to 1e11."""
    below = (1e12 - 0.5) * 10.0 ** (np.arange(-10, 12) - 12)
    assert_kernel_matches_fmt([9.9999999999995e-3, 99999999999.95, 99999999999.99998,
                               9.9999999999995e-5, 9.99999999999949e-5, below,
                               np.nextafter(below, 0), np.nextafter(below, np.inf)],
                              kernel_cells)


def test_kernel_covers_every_exponent_and_signed_zero(kernel_cells):
    """Every decade from 1e-11 to 1e11 in fixed and exponent notation,
    trailing zeros that %g drops, and both zeros printed as 0."""
    exponents = 10.0 ** np.arange(-11, 11)
    mantissas = np.array([1.0, 1.5, 1.23456789012, 9.87654321098765, 3.0000000000001])
    assert_kernel_matches_fmt([np.outer(exponents, mantissas), 0.0, -0.0, 1e-4, 1e-5],
                              kernel_cells)


def test_template_renders_blocks_outside_the_kernel_domain(monkeypatch, kernel_cells):
    """A block holding nan, infinities, 1e300 or a subnormal goes through
    the template whole; the in-domain block before it through the kernel."""
    monkeypatch.setattr(reporting, "FORMAT_BLOCK_ROWS", 2)
    rows = np.array([[0.25, -3.5, 1e10], [7.0, 0.0, -1e-11],
                     [math.nan, math.inf, 0.5], [-math.inf, 1e300, 5e-324]])
    want = "|".join(";".join(fmt(c) for c in row) for row in rows)
    assert first_difference(format_rows(rows, ";", "|"), want, "|") is None
    assert kernel_cells == [6]


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=8),
                  elements=hst.floats() | hst.floats(-1e11, 1e11, exclude_max=True)))
def test_format_rows_matches_fmt_on_arbitrary_arrays(rows):
    want = "\n".join(",".join(fmt(c) for c in row) for row in rows)
    assert format_rows(rows, ",", "\n") == want


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


class _Inner(NamedTuple):
    rate: float


class _Report(NamedTuple):
    counts: dict
    pair: tuple
    count: int
    share: float
    inner: _Inner


def test_dumps_json_writes_bools_as_json_booleans():
    # bool is a subclass of int, and it must stay a JSON boolean
    assert dumps_json({"a": True, "b": False}) == '{\n  "a": true,\n  "b": false\n}\n'


def test_dumps_json_serializes_record_fields():
    report = _Report(counts={2: 5, 1: 7}, pair=(1, 0.5), count=3, share=1 / 3,
                     inner=_Inner(rate=2 / 3))
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


def _leaves(obj):
    """Every dict key and non-container value of a report, depth first."""
    if hasattr(obj, "_fields"):
        obj = obj._asdict()
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield key
            yield from _leaves(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _leaves(value)
    else:
        yield obj


REPORTS = {
    **{f"simulate-{kind}": functools.partial(simulate_strategy, kind, 0.3, 5000, 7)
       for kind in KINDS},
    **{f"b92-{mode}-{eve}": functools.partial(
        b92.run_session, b92.SessionConfig(0.3, 5000, mode, eve, 7))
       for mode in b92.MODES for eve in b92.EVE_POLICIES},
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_hold_plain_python_numbers(name):
    leaves = list(_leaves(REPORTS[name]()))
    assert leaves and all(type(x) in (int, float, bool, str) for x in leaves), \
        sorted({type(x).__name__ for x in leaves})


RECORDS = {
    "SessionConfig": lambda: b92.session_config_from_dict(
        {"s": 0.3, "rounds": 100, "mode": b92.MODE_ONE_QUBIT}),
    "KeyReport": lambda: b92.run_session(b92.SessionConfig(0.3, 100, b92.MODE_TWO_QUBIT)),
    "DilationUnitary": lambda: neumark.build_dilation(0.3),
    "UDMeasurement": lambda: povm.build_intermediate_ud(0.3, 0.5),
    "ChainSpec": lambda: sequential.build_chain(0.3, 3),
    "TallyReport": lambda: sequential.simulate_chain(sequential.build_chain(0.3, 3), 100, 7),
    "OptimizationResult": lambda: sequential.optimize_two_observer(0.3),
    "StrategyCurve": lambda: make_curve(steps=5),
}


def test_records_cover_every_record_class():
    classes = {name for mod in (b92, neumark, povm, sequential, strategies)
               for name, obj in vars(mod).items()
               if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == mod.__name__}
    assert classes == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = record._fields[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    changed = record._replace(**{field: None})
    assert type(changed) is type(record) and getattr(changed, field) is None
    assert getattr(record, field) is before
    assert all(getattr(changed, f) is getattr(record, f) for f in record._fields[1:])
