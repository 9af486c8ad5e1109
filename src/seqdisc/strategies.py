"""Ways for two receivers to both learn which state was sent, compared.

All four strategies act on a single prepared qubit (equal priors, overlap
s) and are scored by the probability that both receivers identify the
state with certainty:

    1  measure-and-broadcast: the first receiver runs the minimum-failure
       measurement (a one-observer chain) and announces it.  p1 = 1 - s
    2  measure-and-resend: the first receiver measures, and on success
       prepares a fresh copy for the second to measure independently.
                                                      p2 = (1 - s)^2
    3  clone-then-measure: an optimal probabilistic cloner (success
       1/(1+s)) makes two perfect copies, each measured independently.
                                                      p3 = (1-s)^2/(1+s)
    seq  sequential: both measure the same qubit in turn with intermediate
       failure probabilities.                         p_seq = (1-sqrt(s))^2

For every strategy the chance that at least one receiver learns the state
is the same, 1 - s.  Strategies 1-3 all consume the state or communicate
classically; the sequential chain is the only one that does neither, and
it pays for that with the strictly smallest joint rate.

Each rate function takes one overlap or an array of them, and make_curve
tabulates the rates through those functions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .povm import sampling_boundaries
from .reporting import csv_text, fmt, format_rows
from .sequential import TallyReport, build_chain, simulate_chain, tally_trials
from .states import check_integer, check_overlap, check_unit_interval

KINDS = ("1", "2", "3", "seq")

# Grid points make_curve accepts; a `curves` command of 10**6 rows takes 0.9 s and
# 300 MB peak RSS as CSV, 2.0 s and 430 MB with SVG, on one pinned CPU of a 2-vCPU VM.
MAX_STEPS = 10**6


def strategy1(s):
    """Both learn the state iff the broadcast measurement succeeds."""
    return 1.0 - check_unit_interval(s)


def strategy2(s):
    """Two independent minimum-failure measurements must both succeed."""
    return (1.0 - check_unit_interval(s)) ** 2


def strategy3(s):
    """Cloning succeeds with 1/(1+s), then two independent measurements."""
    s = check_unit_interval(s)
    return (1.0 - s) ** 2 / (1.0 + s)


def strategy_seq(s):
    """Optimal two-observer sequential rate, written as
    ((1 - s) / (1 + sqrt(s)))^2 so that it does not cancel near s = 1."""
    s = check_unit_interval(s)
    return ((1.0 - s) / (1.0 + np.sqrt(s))) ** 2


class StrategyCurve(NamedTuple):
    """Tabulated joint-success rates on a common overlap grid."""

    s: np.ndarray
    p_seq: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    p3: np.ndarray
    at_least_one: np.ndarray


def make_curve(s_min: float = 0.0, s_max: float = 1.0, steps: int = 101) -> StrategyCurve:
    """Evaluate all strategies on a uniform grid of overlaps.

    A grid with a point in (0, 2**-53], where 1 + s rounds to 1 and
    p2 == p3, raises ValueError.  At every other interior point the strict
    ordering p1 > p2 > p3 > p_seq holds as doubles: a**2 < a, dividing by
    1 + s >= 1 + 2**-52 lowers a value by more than half an ulp, and
    p_seq / p3 = (1 + s) / (1 + sqrt(s))**2 is at most 1 - 2e-8.  Each
    bound passes check_unit_interval() and steps check_integer() in [2, MAX_STEPS]."""
    s_min, s_max = check_unit_interval(s_min, "s_min"), check_unit_interval(s_max, "s_max")
    if not s_min < s_max:
        raise ValueError(f"need 0 <= s_min < s_max <= 1, got [{s_min}, {s_max}]")
    check_integer(steps, "steps", 2, MAX_STEPS)
    grid = np.linspace(s_min, s_max, steps)
    tiny = grid[(grid > 0.0) & (1.0 + grid == 1.0)]
    if tiny.size:
        raise ValueError(
            f"s_min={s_min}, s_max={s_max}: grid point s={tiny[0]} is in (0, 2**-53], "
            "where 1 + s rounds to 1 and p2 = p3 as doubles")
    # every strategy's at-least-one rate is 1 - s, strategy 1's joint rate
    return StrategyCurve(s=grid, p_seq=strategy_seq(grid), p1=strategy1(grid), p2=strategy2(grid),
                         p3=strategy3(grid), at_least_one=strategy1(grid))


def curve_csv(curve: StrategyCurve) -> str:
    """The curve as CSV, one column per StrategyCurve field, in field order."""
    return csv_text(curve._fields, np.column_stack(curve))


def simulate_strategy(kind, s: float, trials: int, seed: int, n: int = 2) -> TallyReport:
    """Monte Carlo of one strategy at the event level: the one call that
    `simulate` makes, for every kind.

    Draw layout per trial: run_trials()'s, draw 0 picking the prepared
    state and draw k sampling observer k of the threshold tuple below.

        kind 1:  the one-observer chain
        kind 2:  (first receiver, second receiver)
        kind 3:  (cloner, first receiver, second receiver)
        seq:     the n-observer chain, simulate_chain(build_chain(s, n))

    Kinds 1-3 refuse n != 2 before any check of s, trials or seed.  Their
    receivers run the minimum-failure measurement (q = s) on a perfect
    copy of the prepared state, so each succeeds below the one threshold
    1 - s, whichever state was sent; the cloner succeeds below 1 / (1 + s).
    Every draw is consumed whether or not its observer acts, so a given
    trial index always sees the same numbers.  None can name the wrong
    state, and `error_count` is 0 by construction (see tally_trials).
    """
    kind = str(kind)
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if kind != "seq" and n != 2:
        raise ValueError(f"--n applies only to kind 'seq', got n={n}")
    if kind in ("1", "seq"):
        return simulate_chain(build_chain(s, 1 if kind == "1" else n), trials, seed)
    s = check_overlap(s)
    threshold = sampling_boundaries(s)
    thresholds = (threshold,) * 2 if kind == "2" else (1.0 / (1.0 + s), threshold, threshold)

    def outcome(masks):
        *cloned, ok_b, ok_c = masks
        if kind == "2":
            # the second receiver only gets a qubit if the first succeeded,
            # and then it is a perfect copy of the prepared state
            return ok_b & ok_c, ok_b
        ok_b &= cloned[0]
        ok_c &= cloned[0]
        return ok_b & ok_c, ok_b | ok_c

    return tally_trials(seed, trials, thresholds, outcome)


_SVG_SERIES = (
    # (attribute, label, dash pattern; empty string means solid)
    ("p_seq", "sequential", ""),
    ("p1", "broadcast", "2,4"),
    ("p2", "resend", "10,4,2,4"),
    ("p3", "clone", "8,6"),
)


def _tag(name, body=None, **attrs):
    """One SVG element, each keyword an attribute with `_` written as `-`;
    the element closes itself when it has no body.  It is joined once, so a
    polyline's long `points` string is copied only into the element."""
    pieces = [f"<{name}"]
    for key, value in attrs.items():
        pieces += [f' {key.replace("_", "-")}="', str(value), '"']
    pieces += ["/>"] if body is None else [">", body, f"</{name}>"]
    return "".join(pieces)


def curve_svg(curve: StrategyCurve) -> str:
    """Line plot of the four joint rates against the overlap, 640 by 480.

    Self-contained SVG with no external references; identical input yields
    identical bytes."""
    width, height = 640, 480
    left, right, top, bottom = 56.0, 16.0, 16.0, 44.0
    pw = width - left - right
    ph = height - top - bottom
    s_lo, s_hi = float(curve.s[0]), float(curve.s[-1])

    def x(s):
        return left + (s - s_lo) / (s_hi - s_lo) * pw

    def y(p):
        return top + (1.0 - p) * ph

    base = top + ph  # the y of the s axis
    axes = f"M {fmt(left)} {fmt(top)} L {fmt(left)} {fmt(base)} L {fmt(left + pw)} {fmt(base)}"
    parts = [
        _tag("rect", width=width, height=height, fill="white"),
        _tag("g", _tag("path", d=axes), stroke="black", stroke_width="1", fill="none"),
    ]
    tick_labels = []
    for k in range(6):
        frac = k / 5.0
        s_tick = s_lo + frac * (s_hi - s_lo)
        sx, py = x(s_tick), y(frac)
        parts += [
            _tag("line", x1=fmt(sx), y1=fmt(base), x2=fmt(sx), y2=fmt(base + 5), stroke="black"),
            _tag("line", x1=fmt(left - 5), y1=fmt(py), x2=fmt(left), y2=fmt(py), stroke="black"),
        ]
        tick_labels += [
            _tag("text", fmt(s_tick), x=fmt(sx), y=fmt(base + 18), text_anchor="middle"),
            _tag("text", fmt(frac), x=fmt(left - 8), y=fmt(py + 4), text_anchor="end"),
        ]
    parts.append(_tag("g", "".join(tick_labels), font_family="sans-serif", font_size="11"))
    parts.append(_tag("text", "overlap s", x=fmt(left + pw / 2), y=fmt(height - 8),
                      text_anchor="middle", font_family="sans-serif", font_size="13"))
    xs = x(curve.s)
    for idx, (attr, label, dash) in enumerate(_SVG_SERIES):
        stroke = {"stroke": "black", "stroke_width": "1.5"}
        if dash:
            stroke["stroke_dasharray"] = dash
        points = format_rows(np.column_stack([xs, y(getattr(curve, attr))]), " ")
        lx, ly = left + pw - 150, top + 18 + 18 * idx
        parts += [
            _tag("polyline", points=points, fill="none", **stroke),
            _tag("line", x1=fmt(lx), y1=fmt(ly - 4), x2=fmt(lx + 36), y2=fmt(ly - 4), **stroke),
            _tag("text", label, x=fmt(lx + 42), y=fmt(ly), font_family="sans-serif",
                 font_size="12"),
        ]
    # the root, split around its body so that the document is joined only once
    head, tail = _tag("svg", "\n", xmlns="http://www.w3.org/2000/svg", width=width,
                      height=height, viewBox=f"0 0 {width} {height}").split("\n")
    return "\n".join([head, *parts, tail, ""])
