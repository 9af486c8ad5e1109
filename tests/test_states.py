"""Tests for the canonical state-pair embedding."""

import math
import re
import sys

import numpy as np
import pytest

from seqdisc.states import check_integer, make_state_pair
from seqdisc.strategies import strategy1, strategy2, strategy3, strategy_seq

S_GRID = [0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999]


@pytest.mark.parametrize("s", S_GRID)
def test_pair_overlap_and_norms(s):
    psi1, psi2 = make_state_pair(s)
    assert np.vdot(psi1, psi2).real == pytest.approx(s, abs=1e-12)
    assert np.vdot(psi1, psi2).imag == 0.0
    for v in (psi1, psi2):
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_invariants_hold_on_dense_grid():
    # one sweep over 100 interior overlaps, every pair invariant at once
    for s in np.linspace(0.005, 0.995, 100):
        psi1, psi2 = make_state_pair(float(s))
        assert abs(np.vdot(psi1, psi2) - s) < 1e-12
        for v in (psi1, psi2):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_degenerate_endpoints():
    assert abs(np.vdot(*make_state_pair(0.0))) < 1e-15
    psi1, psi2 = make_state_pair(1.0)
    assert np.allclose(psi1, psi2, atol=0)
    assert np.allclose(psi1, [1.0, 0.0], atol=0)


def test_overlap_range_is_enforced():
    """The state pair and every strategy rate refuse an overlap outside the
    closed [0, 1] with one message, and a bool, a string or None, rather
    than converting it, with another."""
    for bad in (-0.1, 1.1, 2.0, float("nan")):
        for check in (make_state_pair, strategy1, strategy2, strategy3, strategy_seq):
            with pytest.raises(ValueError, match=rf"^s={re.escape(str(bad))} outside \[0, 1\]$"):
                check(bad)
    for bad in (True, False, "0.5", None, np.array([0.5, True], dtype=object)):
        for check in (make_state_pair, strategy1, strategy2, strategy3, strategy_seq):
            with pytest.raises(ValueError, match=rf"^s={re.escape(repr(bad))} is not a number$"):
                check(bad)


def test_check_integer_is_the_one_integer_rule():
    """Both bounds are inclusive, the upper one is infinite by default, and
    only an int that is not a bool passes."""
    for n, lo, hi in ((1, 1, 2), (2, 1, 2), (-3, -3, -3), (0, 0, math.inf), (2**1100, 1, math.inf)):
        assert check_integer(n, "n", lo, hi) is None
    assert check_integer(2**1100, "n", 1) is None
    for n, lo, hi, message in (
        (0, 1, 2, "n=0 outside [1, 2]"),
        (3, 1, 2, "n=3 outside [1, 2]"),
        (-1, 0, math.inf, "n=-1 outside [0, inf]"),
        (2**1100, 1, sys.float_info.max, f"n={2**1100} outside [1, 1.7976931348623157e+308]"),
        (True, 0, 2, "n=True is not an int (bool)"),
        (1.0, 0, 2, "n=1.0 is not an int (float)"),
        ("1", 0, 2, "n='1' is not an int (str)"),
        (None, 0, 2, "n=None is not an int (NoneType)"),
    ):
        with pytest.raises(ValueError) as refused:
            check_integer(n, "n", lo, hi)
        assert str(refused.value) == message
    # numpy 1.24 shows np.int64(3) as 3, numpy 2 as np.int64(3)
    with pytest.raises(ValueError) as refused:
        check_integer(np.int64(3), "n", 0)
    assert str(refused.value) in ("n=np.int64(3) is not an int (int64)", "n=3 is not an int (int64)")


def test_states_are_read_only():
    psi1, psi2 = make_state_pair(0.5)
    for v in (psi1, psi2):
        with pytest.raises(ValueError):
            v[0] = 2.0
