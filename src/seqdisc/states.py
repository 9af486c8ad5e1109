"""Qubit state pairs with a known real overlap.

The two states are embedded in a fixed real plane:

    psi_1 = cos(theta)|0> + sin(theta)|1>
    psi_2 = cos(theta)|0> - sin(theta)|1>

with theta = arccos(s)/2, so that <psi_1|psi_2> = cos(2 theta) = s.  All
probabilities downstream depend only on s, so this embedding is a pure
convention, but fixing it once keeps every matrix in the package concrete
and comparable.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def freeze(array) -> np.ndarray:
    """Return a read-only float64 copy of `array`."""
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


def _shown(x, show=str) -> str:
    """show(x); an int of over 4300 digits (str()'s default limit) by its bit length."""
    if isinstance(x, int) and abs(x) >= 10**4300:
        return f"<int of {x.bit_length()} bits>"
    try:
        return show(x)
    except ValueError:  # str()'s limit, met inside a list or Fraction: show the type instead
        return f"<unprintable {type(x).__name__}>"


def check_real(x, name: str = "s", domain: str = "(0, 1)") -> float:
    """`x` as a float, if it is a real number, not a bool, in `domain`: "(0, 1)",
    "(0, 1]" or "[0, 1]", its ends closed where its brackets are.  Anything else,
    an int too large for a float too, raises a ValueError naming `name` and `x`."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name}={_shown(x, repr)} is not a number")
    try:
        value = float(x)
    except OverflowError:
        value = math.nan  # outside every domain
    closed_end = value == 0.0 and domain[0] == "[" or value == 1.0 and domain[-1] == "]"
    if not (0.0 < value < 1.0 or closed_end):
        raise ValueError(f"{name}={_shown(x)} outside {domain}")
    return value


def check_integer(n, name: str, lo: int, hi=math.inf) -> None:
    """Check that `n` is an int, not a bool, in [lo, hi]: the one rule for
    every count, seed and size here.  A numpy integer or a float is refused,
    not converted; the ValueError names `name` and the value."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"{name}={_shown(n, repr)} is not an int ({type(n).__name__})")
    if not lo <= n <= hi:
        raise ValueError(f"{name}={_shown(n)} outside [{lo}, {hi}]")


def make_state_pair(s: float) -> tuple:
    """The canonical pair (psi_1, psi_2) = ((c, d), (c, -d)) as read-only arrays,
    state i at [i - 1], with overlap `s` = c^2 - d^2, which check_real() holds to [0, 1]."""
    s = check_real(s, "s", "[0, 1]")
    theta = 0.5 * math.acos(s)
    c, d = math.cos(theta), math.sin(theta)
    return freeze([c, d]), freeze([c, -d])
