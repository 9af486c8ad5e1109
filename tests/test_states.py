"""Tests for the canonical state-pair embedding."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from seqdisc.b92 import MODE_TWO_QUBIT, session_config_from_dict
from seqdisc.states import check_integer, check_real, make_state_pair
from seqdisc.strategies import simulate_strategy, strategy1, strategy2, strategy3, strategy_seq

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
    closed [0, 1] with one message, and a bool, a string, None, a list or an
    array that is not of an integer or float dtype, rather than converting
    it, with another.  An int too large for a float is out of range."""
    checks = (make_state_pair, strategy1, strategy2, strategy3, strategy_seq)
    for bad in (-0.1, 1.1, 2.0, float("nan"), 2, 2**63, 2**64, 10**400, -(2**1100)):
        for check in checks:
            with pytest.raises(ValueError) as refused:
                check(bad)
            assert str(refused.value) == f"s={bad} outside [0, 1]"
    for bad in (True, False, "0.5", None, [0.5, True], [0.3], np.array([0.5, True], dtype=object),
                np.array([True, False])):
        for check in checks:
            with pytest.raises(ValueError) as refused:
                check(bad)
            assert str(refused.value) == f"s={bad!r} is not a number"
    # only the rates take an array; the state pair is one pair, so a 0-d
    # array is refused too
    for bad in (np.array([0.3, 0.4]), np.array(0.3)):
        with pytest.raises(ValueError) as refused:
            make_state_pair(bad)
        assert str(refused.value) == f"s={bad!r} is not a number"
    # a real number of any type passes, exact or not
    for s in (Fraction(1, 3), np.float32(0.25), np.uint8(1), 0, 1):
        assert np.array_equal(make_state_pair(s), make_state_pair(float(s)))


OPEN, HALF_OPEN, CLOSED = "(0, 1)", "(0, 1]", "[0, 1]"


# each value with the domains that hold it
@pytest.mark.parametrize("x, holding", [
    (0, (CLOSED,)), (0.0, (CLOSED,)), (-0.0, (CLOSED,)),
    (5e-324, (OPEN, HALF_OPEN, CLOSED)), (1 - 2**-53, (OPEN, HALF_OPEN, CLOSED)),
    (1, (HALF_OPEN, CLOSED)), (1.0, (HALF_OPEN, CLOSED)),
    *((x, ()) for x in (-5e-324, 1 + 2**-52, math.nan, math.inf, -math.inf)),
    pytest.param(10**400, (), id="10**400"),
])
def test_check_real_reads_each_domain_from_its_brackets(x, holding):
    for domain in (OPEN, HALF_OPEN, CLOSED):
        if domain in holding:
            value = check_real(x, "x", domain)
            assert type(value) is float and value == x
        else:
            with pytest.raises(ValueError) as refused:
                check_real(x, "x", domain)
            assert str(refused.value) == f"x={x} outside {domain}"


def test_check_real_is_the_one_real_rule():
    """Only a real number that is not a bool passes; an int too large for a
    float is out of range and named with its value, and one of more than
    4300 digits is shown by its bit length."""
    assert check_real(Fraction(1, 3), "s", "[0, 1]") == check_real(Fraction(1, 3)) == 1 / 3
    assert check_real(np.float64(0.5)) == 0.5 and check_real(np.int64(1), "q", "(0, 1]") == 1.0
    for x, domain, message in (
        (2**1100, "(0, 1)", f"s={2**1100} outside (0, 1)"),
        (-(10**400), "[0, 1]", f"s={-(10**400)} outside [0, 1]"),
        (10**5000, "(0, 1]", "s=<int of 16610 bits> outside (0, 1]"),
        (Fraction(10**400, 3), "(0, 1)", f"s={10**400}/3 outside (0, 1)"),
        (True, "[0, 1]", "s=True is not a number"),
        (b"0.5", "(0, 1)", "s=b'0.5' is not a number"),
        (1j, "(0, 1)", "s=1j is not a number"),
    ):
        with pytest.raises(ValueError) as refused:
            check_real(x, "s", domain)
        assert str(refused.value) == message


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
        # an int of more than 4300 digits, Python's default str() limit, by
        # its bit length, and one of 4300 digits in full
        (10**5000, 1, 10, "n=<int of 16610 bits> outside [1, 10]"),
        (-(10**4300), 0, 1, "n=<int of 14285 bits> outside [0, 1]"),
        (10**4300 - 1, 0, 1, f"n={10**4300 - 1} outside [0, 1]"),
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


def test_a_refused_value_that_cannot_be_printed_is_named_by_its_type():
    """Showing the refused value never raises in place of the refusal, in
    states or in the refusals of the other modules: a value that str() or
    repr() cannot print, a Fraction or a container holding an int of more
    than 4300 digits, Python's default str() limit, is named by its type,
    such an int itself by its bit length, and a config field name that is
    not a str by its str()."""
    good = {"s": 0.3, "rounds": 10, "mode": MODE_TWO_QUBIT}
    for call, args, message in (
        (check_real, (Fraction(10**5000, 3),), "s=<unprintable Fraction> outside (0, 1)"),
        (check_real, ([10**5000],), "s=<unprintable list> is not a number"),
        (check_real, ((10**5000,), "q", "(0, 1]"), "q=<unprintable tuple> is not a number"),
        (check_integer, ([10**5000], "n", 1), "n=<unprintable list> is not an int (list)"),
        (strategy1, ([10**5000],), "s=<unprintable list> is not a number"),
        (make_state_pair, (Fraction(-(10**5000), 7),), "s=<unprintable Fraction> outside [0, 1]"),
        (simulate_strategy, (10**5000, 0.3, 10, 1),
         "kind must be one of ('1', '2', '3', 'seq'), got '<int of 16610 bits>'"),
        (simulate_strategy, ("2", 0.3, 10, 1, 10**5000),
         "--n applies only to kind 'seq', got n=<int of 16610 bits>"),
        (session_config_from_dict, ({**good, "mode": [10**5000]},),
         "config field 'mode'=<unprintable list> must be one of ('two_qubit', 'one_qubit_sequential')"),
        (session_config_from_dict, ({**good, "eve": (10**5000,)},),
         "config field 'eve'=<unprintable tuple> must be one of ('none', 'intercept_ud')"),
        (session_config_from_dict, ({1: 2},), "unknown config field(s): 1"),
    ):
        with pytest.raises(ValueError) as refused:
            call(*args)
        assert str(refused.value) == message


def test_states_are_read_only():
    psi1, psi2 = make_state_pair(0.5)
    for v in (psi1, psi2):
        with pytest.raises(ValueError):
            v[0] = 2.0
