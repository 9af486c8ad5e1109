"""Tests for the four-strategy comparison."""

import math
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction
from xml.etree import ElementTree

import numpy as np
import pytest

from seqdisc.reporting import round_sig
from seqdisc.sequential import build_chain, simulate_chain
from seqdisc.strategies import (
    StrategyCurve,
    curve_csv,
    curve_svg,
    make_curve,
    simulate_strategy,
    strategy1,
    strategy2,
    strategy3,
    strategy_seq,
)

SVG = "{http://www.w3.org/2000/svg}"


def test_closed_forms_at_quarter_overlap():
    # all four rates at s = 0.25, by direct arithmetic
    assert strategy1(0.25) == pytest.approx(0.75)
    assert strategy2(0.25) == pytest.approx(0.5625)
    assert strategy3(0.25) == pytest.approx(0.45)
    assert strategy_seq(0.25) == pytest.approx(0.25)


def test_closed_forms_at_endpoints():
    for f in (strategy1, strategy2, strategy3, strategy_seq):
        assert f(0.0) == 1.0
        assert f(1.0) == 0.0
        with pytest.raises(ValueError):
            f(-0.1)
        with pytest.raises(ValueError):
            f(1.1)


def test_rates_take_arrays_elementwise():
    """A rate takes an array of an integer or float dtype, checked through
    its least and greatest values by the scalar rule, and refuses any other
    array by name."""
    grid = np.array([0.0, 1e-300, 0.25, 0.3, 0.999999999999, 1.0])
    for f in (strategy1, strategy2, strategy3, strategy_seq):
        assert f(grid).tolist() == [f(float(s)) for s in grid]
        for array in (np.array([], dtype=float), np.array([], dtype=np.uint8)):
            got = f(array)
            assert got.dtype == np.float64 and got.shape == (0,)
        got = f(np.array([[0, 1], [1, 0]], dtype=np.uint8))
        assert got.dtype == np.float64 and got.tolist() == [[f(0.0), f(1.0)], [f(1.0), f(0.0)]]
        for bad, message in ((np.array([0.5, 1.1]), "s=1.1 outside [0, 1]"),
                             (np.array([-0.5, 0.5]), "s=-0.5 outside [0, 1]"),
                             (np.array([0.5, math.nan]), "s=nan outside [0, 1]"),
                             (np.array([math.inf]), "s=inf outside [0, 1]"),
                             (np.array([0, 2], dtype=np.uint8), "s=2 outside [0, 1]"),
                             (np.array([0, 2**63], dtype=np.uint64), f"s={2**63} outside [0, 1]"),
                             (math.nan, "s=nan outside [0, 1]"),
                             (np.array([0.5, True], dtype=object),
                              "s=array([0.5, True], dtype=object) is not a number"),
                             (np.array([0.5], dtype=complex),
                              "s=array([0.5+0.j]) is not a number")):
            with pytest.raises(ValueError) as refused:
                f(bad)
            assert str(refused.value) == message


@pytest.mark.parametrize("s", [1e-300, 0.25, 0.7, 1 - 1e-6, 1 - 1e-12, 0.9999999999999999])
def test_strategy_seq_does_not_cancel_near_one(s):
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (1 - Decimal(s).sqrt()) ** 2
    assert abs(Decimal(strategy_seq(s)) - exact) <= Decimal("1e-15") * exact


def test_strict_ordering_on_the_open_interval():
    grid = np.linspace(0.0, 1.0, 1000)
    curve = make_curve(steps=1000)
    assert np.allclose(curve.s, grid)
    inner = slice(1, -1)
    assert np.all(curve.p1[inner] > curve.p2[inner])
    assert np.all(curve.p2[inner] > curve.p3[inner])
    assert np.all(curve.p3[inner] > curve.p_seq[inner])
    assert np.allclose(curve.at_least_one, 1.0 - grid)
    # make_curve does not check the ordering, so check it where it is
    # tightest: the 1e5 doubles just above 2**-53, the largest overlap it
    # refuses, and the 1e5 just below 1
    k = np.arange(1, 100_001)
    edges = np.concatenate((2.0**-53 + k * 2.0**-105, 1.0 - k * 2.0**-53))
    p1, p2, p3, p_seq = strategy1(edges), strategy2(edges), strategy3(edges), strategy_seq(edges)
    assert np.all(p1 > p2) and np.all(p2 > p3) and np.all(p3 > p_seq)


def test_make_curve_validation():
    with pytest.raises(ValueError):
        make_curve(0.5, 0.5)
    with pytest.raises(ValueError):
        make_curve(0.0, 1.0, steps=1)
    # a bound that is a bool or a string is refused by name, not converted
    for args, message in ((("0.1", "0.9", 3), "s_min='0.1' is not a number"),
                          ((False, True, 3), "s_min=False is not a number"),
                          ((0.1, True, 3), "s_max=True is not a number"),
                          ((0.1, None, 3), "s_max=None is not a number"),
                          ((-0.1, 1.0, 3), "s_min=-0.1 outside [0, 1]"),
                          ((0.1, 2**64, 3), f"s_max={2**64} outside [0, 1]"),
                          # a bound is one number: a list or an array is refused, not
                          # broadcast into a grid of several columns
                          (([0.1], 0.9, 3), "s_min=[0.1] is not a number"),
                          ((np.array([0.1, 0.2]), 0.9, 3),
                           "s_min=array([0.1, 0.2]) is not a number"),
                          ((0.1, np.array(0.9), 3), "s_max=array(0.9) is not a number")):
        with pytest.raises(ValueError) as refused:
            make_curve(*args)
        assert str(refused.value) == message
    # 1 + s rounds to 1 at the grid point 2**-53, so p2 == p3 there
    with pytest.raises(ValueError, match=r"s_min=0\.0, s_max=2\.2"):
        make_curve(0.0, 2.0**-52, steps=3)
    make_curve(2.0**-52, 2.0**-51, steps=3)
    # a real bound of any type is read as its float
    exact = make_curve(Fraction(1, 4), np.float32(0.5), 3)
    assert all(np.array_equal(a, b) for a, b in zip(exact, make_curve(0.25, 0.5, 3)))
    assert all(np.array_equal(a, b) for a, b in zip(make_curve(0, 1, 3), make_curve(0.0, 1.0, 3)))


def test_curve_csv_schema_and_round_trip():
    curve = make_curve(steps=11)
    text = curve_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(StrategyCurve._fields)
    assert len(lines) == 12
    # parsing the table back reproduces the values at output precision
    for idx, line in enumerate(lines[1:]):
        cells = [float(c) for c in line.split(",")]
        assert cells[0] == round_sig(curve.s[idx])
        assert cells[1] == round_sig(curve.p_seq[idx])
        assert cells[5] == round_sig(curve.at_least_one[idx])


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize(
    "kind,closed",
    [("1", strategy1), ("2", strategy2), ("3", strategy3), ("seq", strategy_seq)],
)
def test_simulated_rates_match_closed_forms(kind, closed, s):
    trials = 200_000
    report = simulate_strategy(kind, s, trials, seed=12)
    p = closed(s)
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(report.estimated_joint_probability - p) < 4 * se
    p_any = 1.0 - s
    se_any = math.sqrt(p_any * (1.0 - p_any) / trials)
    assert abs(report.at_least_one_success_count / trials - p_any) < 4 * se_any
    assert report.error_count == 0
    assert sum(report.per_branch_success_counts.values()) == report.all_observers_success_count


def test_sequential_kind_delegates_to_the_chain():
    report = simulate_strategy("seq", 0.36, 50_000, seed=3)
    direct = simulate_chain(build_chain(0.36, 2), 50_000, seed=3)
    assert report == direct
    for n in (1, 3, 16):
        report = simulate_strategy("seq", 0.36, 20_000, 3, n)
        assert report == simulate_chain(build_chain(0.36, n), 20_000, 3)


@pytest.mark.parametrize("kind", ["1", "2", "3"])
@pytest.mark.parametrize("s,trials,seed", [(0.5, 100, 1), (1.0, 100, 1), (0.5, 0, 1),
                                           (float("nan"), -5, -1)])
def test_other_kinds_refuse_n_before_any_other_check(kind, s, trials, seed):
    with pytest.raises(ValueError, match=r"^--n applies only to kind 'seq', got n=3$"):
        simulate_strategy(kind, s, trials, seed, n=3)


def test_simulate_strategy_accepts_integer_kinds():
    assert simulate_strategy(2, 0.5, 1000, seed=1) == simulate_strategy("2", 0.5, 1000, seed=1)


def test_simulate_strategy_validation():
    with pytest.raises(ValueError, match="kind"):
        simulate_strategy("4", 0.5, 100, seed=1)
    with pytest.raises(ValueError):
        simulate_strategy("1", 0.5, 0, seed=1)
    with pytest.raises(ValueError):
        simulate_strategy("1", 1.0, 100, seed=1)


def test_svg_output_is_self_contained_and_deterministic():
    # a 2-point grid, the default grid and a grid 1e-7 wide
    for s_min, s_max, steps in ((0.0, 1.0, 2), (0.0, 1.0, 101), (0.3, 0.3000001, 9)):
        curve = make_curve(s_min, s_max, steps)
        svg = curve_svg(curve)
        assert svg == curve_svg(curve)
        # no external fetches: the only URL is the SVG namespace itself
        assert svg.count("http") == svg.count("http://www.w3.org/2000/svg")
        root = ElementTree.fromstring(svg)
        assert root.tag == f"{SVG}svg"
        counts = Counter(element.tag.removeprefix(SVG) for element in root.iter())
        # lines: 12 ticks and 4 legend keys; texts: 12 tick labels, the axis
        # label and 4 legend labels
        assert [counts[tag] for tag in ("rect", "line", "text", "polyline")] == [1, 16, 17, 4]
        for polyline in root.iter(f"{SVG}polyline"):
            points = polyline.get("points").split(" ")
            coords = [float(v) for point in points for v in point.split(",")]
            assert len(points) == steps and len(coords) == 2 * steps
        labels = [text.text for text in root.iter(f"{SVG}text")]
        assert labels[-4:] == ["sequential", "broadcast", "resend", "clone"]
