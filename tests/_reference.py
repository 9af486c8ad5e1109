"""One-draw references that the vectorized sampler is compared with.

apply() measures one prepared state with one uniform double, reading the
measurement's own outcome table rather than the sampler's threshold, and
doubles() turns the raw Philox words sampling.trial_uniforms returns into
the doubles Generator.random makes of them.
"""

import numpy as np

from seqdisc.povm import outcome_statistics


def doubles(words):
    """The double (w >> 11) * 2**-53 of each raw 64-bit word w."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53


def apply(meas, input_index: int, rand: float):
    """Apply the measurement to one prepared state using a uniform draw.

    Returns (outcome, post), post the state the outcome leaves.  The draw
    is classified against the cells [0, P(1)), [P(1), P(1)+P(2)),
    [P(1)+P(2), 1); the cells and post come from outcome_statistics().
    """
    if not 0.0 <= rand < 1.0:
        raise ValueError(f"rand={rand} outside [0, 1)")
    (_, p1, p2), posts = outcome_statistics(meas, input_index)
    outcome = 1 if rand < p1 else 2 if rand < p1 + p2 else 0
    return outcome, posts[outcome]
