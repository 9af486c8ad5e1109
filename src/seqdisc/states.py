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
from dataclasses import dataclass

import numpy as np


def freeze(array) -> np.ndarray:
    """Return a read-only complex copy of `array`."""
    out = np.array(array, dtype=complex)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class StatePair:
    """Two unit-norm qubit states psi_1 = (c, d) and psi_2 = (c, -d) with
    real overlap `s` = c^2 - d^2."""

    s: float
    psi1: np.ndarray
    psi2: np.ndarray


def check_overlap(s, name: str = "s") -> float:
    """`s` as a float, after checking the open domain 0 < s < 1 of every
    discrimination problem here; the ValueError names `name` and the value.

    Only real numbers pass: a bool, a string or None is refused rather than
    converted, and an int too large for a float is out of range.  A float
    skips the slower numbers.Real test: build_chain checks every stage."""
    if type(s) is not float and (isinstance(s, bool) or not isinstance(s, numbers.Real)):
        raise ValueError(f"{name}={s!r} is not a number")
    try:
        s = float(s)
    except OverflowError as exc:
        raise ValueError(f"{name} outside (0, 1): {exc}") from None
    if not 0.0 < s < 1.0:
        raise ValueError(f"{name}={s} outside (0, 1)")
    return s


def make_state_pair(s: float) -> StatePair:
    """Build the canonical pair with overlap `s`, 0 <= s <= 1."""
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"overlap s={s} outside [0, 1]")
    theta = 0.5 * math.acos(s)
    c, d = math.cos(theta), math.sin(theta)
    return StatePair(s=s, psi1=freeze([c, d]), psi2=freeze([c, -d]))
