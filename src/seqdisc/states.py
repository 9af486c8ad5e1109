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

from .linalg import DEFAULT_TOL, freeze


@dataclass(frozen=True)
class StatePair:
    """Two unit-norm qubit states with real overlap `s`, plus the unit
    vectors orthogonal to each.

    The complements are phased so that <psi2_perp|psi1> and <psi1_perp|psi2>
    are both real and equal to +sqrt(1 - s^2) (for s < 1).
    """

    s: float
    psi1: np.ndarray
    psi2: np.ndarray
    psi1_perp: np.ndarray
    psi2_perp: np.ndarray


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


def orthogonal_complement(v) -> np.ndarray:
    """Unit vector orthogonal to the qubit state `v`.

    For v = (a, b) the complement is (conj(b), -conj(a)), with an overall
    sign flip applied when the first component comes out with negative real
    part.  The sign convention makes the map deterministic and, for the
    real embedding used by make_state_pair, gives complements whose overlap
    with the opposite state is positive.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (2,):
        raise ValueError(f"expected a qubit state of shape (2,), got {v.shape}")
    if abs(np.linalg.norm(v) - 1.0) > DEFAULT_TOL:
        raise ValueError("input state must be unit norm")
    w = np.array([np.conj(v[1]), -np.conj(v[0])])
    if w[0].real < 0.0:
        w = -w
    return freeze(w)


def make_state_pair(s: float) -> StatePair:
    """Build the canonical pair with overlap `s`, 0 <= s <= 1."""
    s = float(s)
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"overlap s={s} outside [0, 1]")
    theta = 0.5 * math.acos(s)
    c, d = math.cos(theta), math.sin(theta)
    psi1 = np.array([c, d], dtype=complex)
    psi2 = np.array([c, -d], dtype=complex)
    return StatePair(
        s=s,
        psi1=freeze(psi1),
        psi2=freeze(psi2),
        psi1_perp=orthogonal_complement(psi1),
        psi2_perp=orthogonal_complement(psi2),
    )
