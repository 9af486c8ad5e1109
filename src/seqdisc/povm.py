"""Three-outcome measurements that identify one of two qubit states
without error, failing with the same probability q on either state.

Outcome labels: 1 means "state 1 identified", 2 means "state 2 identified",
0 means the inconclusive result; outcome m has Kraus operator A_m, element
Pi_m and, in the dilation, ancilla state |m>, and every table lists the
outcomes in the order (0, 1, 2).  In the angle form s = cos 2 theta, with
psi_1, psi_2 = (c, +-d) for c, d = cos theta, sin theta, the dual vectors
w_1, w_2 = (1/2c, +-1/2d) satisfy <w_i|psi_j> = [i == j].  For failure
probability q the Kraus operators are

    A_1 = sqrt(1 - q) |phi_1><w_1|
    A_2 = sqrt(1 - q) |phi_2><w_2|
    A_0 = sqrt(q) (|phi_1><w_1| + |phi_2><w_2|)
        = diag(sqrt((q + s)/(1 + s)), sqrt((q - s)/(1 - s)))

where q - s is exact near s = 1, and each POVM element is
Pi_i = A_i^dag A_i.  The conditional states phi_1, phi_2 form a pair with
overlap t = s / q.  Both the identifying and the failure branch leave the
qubit in the same phi_i, so the only information lost to the next observer
is the increase of the overlap from s to t.  Requiring t <= 1 gives the
admissibility condition q >= s.  The outcome probabilities are
(1 - q, 0, q) for psi_1 and (0, 1 - q, q) for psi_2, so whether the
measurement succeeds does not depend on the input, and one threshold
1 - q samples it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .states import check_integer, check_overlap, freeze, make_state_pair

# A wrong-state outcome probability below this floor is rounded to exactly
# zero by outcome_table(), so in the Kraus form and the dilation alike; it
# carries only float noise (~1e-32).  neumark skips outcomes at or below it
# when comparing conditional states and prints a residual at or below it
# as 0.  The sampler's threshold 1 - q does not use it.
PROB_FLOOR = 1e-12


class UDMeasurement(NamedTuple):
    """An unambiguous discrimination measurement of the pair with overlap
    `s`, failing with probability `q` on either state, which leaves the
    pair with overlap `t`.

    `kraus` holds (A0, A1, A2), the only stored form of the measurement;
    each POVM element Pi_m = A_m^dag A_m is Hermitian and positive by
    construction.  The states themselves are make_state_pair(s) and
    make_state_pair(t).
    """

    s: float
    t: float
    q: float
    kraus: tuple


def output_overlap(s: float, q: float) -> float:
    """Overlap t = s / q of the pair that failure probability q in (0, 1]
    leaves of input overlap s, exactly 1 at q = s.  It does not square,
    so admissibility, q >= s, is checked on t even where s^2 underflows;
    t up to 1e-12 above 1, from a q up to a relative 1e-12 below s, is
    capped at 1.  ValueError names the bad s, q or bound."""
    s = check_overlap(s, "input overlap s")
    q = check_overlap(q, "q", one=True)
    t = s / q
    if t > 1.0 + 1e-12:
        raise ValueError(
            f"output overlap s/q = {t} > 1: q={q} violates the admissibility "
            f"bound q >= s for s={s}"
        )
    return min(t, 1.0)


def build_intermediate_ud(s: float, q: float) -> UDMeasurement:
    """Measurement of the pair with overlap `s` that fails with
    probability q in (0, 1] on either state.

    Requires q >= s; at equality the output states coincide (t is then 1)
    and the measurement extracts everything: q = s is the minimum-failure
    measurement for equal priors, and q = 1 never identifies a state.
    The output overlap t, and every check, comes from output_overlap().
    A q that it accepts below s, where t is capped at 1, is raised to s, so
    the measurement built is the minimum-failure one.
    """
    t = output_overlap(s, q)
    s = float(s)
    q = max(float(q), s)
    c, d = make_state_pair(s)[0]
    phi1, phi2 = make_state_pair(t)
    A1 = math.sqrt(1.0 - q) * np.outer(phi1, [0.5 / c, 0.5 / d])
    A2 = math.sqrt(1.0 - q) * np.outer(phi2, [0.5 / c, -0.5 / d])
    A0 = np.diag([math.sqrt((q + s) / (1.0 + s)), math.sqrt((q - s) / (1.0 - s))])
    return UDMeasurement(s=s, t=t, q=q, kraus=tuple(freeze(A) for A in (A0, A1, A2)))


def outcome_table(s: float, input_index: int, kets_of) -> tuple:
    """The outcome table when state `input_index`, the int 1 or 2, of the pair
    with overlap `s` is sent; `kets_of(psi)` gives the three unnormalized
    states A_m psi it leaves, in the order (0, 1, 2).

    Returns (probs, posts): probs[m] = |A_m psi|^2 and posts[m] the
    normalized A_m psi.  The wrong-state outcome's probability is rounded
    to exactly zero when it is below PROB_FLOOR; the other two are returned
    as computed.  A state whose probability is 0 is returned unnormalized
    (it is never observed).
    """
    check_integer(input_index, "input_index", 1, 2)
    kets = kets_of(make_state_pair(s)[input_index - 1])
    probs = [float(v @ v) for v in kets]
    wrong = 3 - input_index
    if probs[wrong] < PROB_FLOOR:
        probs[wrong] = 0.0
    posts = tuple(freeze(v / math.sqrt(p) if p else v) for p, v in zip(probs, kets))
    return tuple(probs), posts


def outcome_statistics(meas: UDMeasurement, input_index: int) -> tuple:
    """The outcome table of outcome_table() for the Kraus form: the kets
    are A_m psi."""
    return outcome_table(meas.s, input_index, lambda psi: [A @ psi for A in meas.kraus])


def sampling_boundaries(q: float) -> float:
    """Success threshold 1 - q for uniform draws against a measurement
    that fails with probability q on either input: a draw below it
    identifies the state and any other fails."""
    return 1.0 - q


def classify_uniforms(threshold, u: np.ndarray) -> np.ndarray:
    """Vectorized success sampling against sampling_boundaries().

    `threshold` is a scalar; returns the bool mask u < threshold: True
    where the observer identifies the state and False where it fails.
    run_trials() passes raw Philox words and each threshold's word bound,
    so the mask is the one their doubles give against the threshold.  The
    wrong-state outcome has no cell, so a mask is all an observer's
    outcome holds.
    """
    return u < threshold
