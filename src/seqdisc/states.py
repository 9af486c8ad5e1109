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


def check_overlap(s, name: str = "s") -> float:
    """`s` as a float, after checking the open domain 0 < s < 1 of every
    discrimination problem here; the ValueError names `name` and the value.

    Only real numbers pass: a bool, a string or None is refused rather than
    converted, and an int too large for a float is out of range."""
    if isinstance(s, bool) or not isinstance(s, numbers.Real):
        raise ValueError(f"{name}={s!r} is not a number")
    try:
        s = float(s)
    except OverflowError as exc:
        raise ValueError(f"{name} outside (0, 1): {exc}") from None
    if not 0.0 < s < 1.0:
        raise ValueError(f"{name}={s} outside (0, 1)")
    return s


def check_unit_interval(s):
    """`s` as a float, or a float array for array input, every value in the
    closed range [0, 1] of a pair's overlap; the ValueError names the value."""
    a = np.asarray(s, dtype=float)
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError(f"s={s} outside [0, 1]")
    return float(a) if a.ndim == 0 else a


def make_state_pair(s: float) -> tuple:
    """The canonical pair (psi_1, psi_2) = ((c, d), (c, -d)) with overlap
    `s` = c^2 - d^2, 0 <= s <= 1, as read-only arrays: state i is at
    [i - 1]."""
    s = check_unit_interval(s)
    theta = 0.5 * math.acos(s)
    c, d = math.cos(theta), math.sin(theta)
    return freeze([c, d]), freeze([c, -d])
