"""Tests for the canonical state-pair embedding."""

import re

import numpy as np
import pytest

from seqdisc.states import make_state_pair
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
    closed [0, 1] with one message."""
    for bad in (-0.1, 1.1, 2.0, float("nan")):
        for check in (make_state_pair, strategy1, strategy2, strategy3, strategy_seq):
            with pytest.raises(ValueError, match=rf"^s={re.escape(str(bad))} outside \[0, 1\]$"):
                check(bad)


def test_states_are_read_only():
    psi1, psi2 = make_state_pair(0.5)
    for v in (psi1, psi2):
        with pytest.raises(ValueError):
            v[0] = 2.0
