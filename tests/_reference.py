"""References that the package's fast paths and records are checked with.

apply() measures one prepared state with one uniform double, reading the
measurement's own outcome table rather than the sampler's threshold, and
doubles() turns the raw Philox words sampling.trial_uniforms returns into
the doubles Generator.random makes of them.  completeness_residual() and
zero_error_residuals() read a measurement's health from its Kraus
operators, a UDMeasurement's or a DilationUnitary's alike, and stages()
builds the measurements of a chain's schedule.  chain_classes() sends a
prepared state through those measurements by their Kraus operators, so
the whole chain's rates rest on the operators, not on the sampler's
thresholds.  pair_rate() is the paper's joint rate P for explicit failure
pairs.
"""

import numpy as np

from seqdisc import povm
from seqdisc.povm import outcome_statistics
from seqdisc.states import make_state_pair

# Overlaps the Kraus-operator references are read at, log-spaced toward 0 and toward 1
CHAIN_OVERLAPS = (1e-300, 1e-30, 1e-6, 0.01, 0.3, 1.0 - 1e-2, 1.0 - 1e-6, 1.0 - 1e-9)


def doubles(words):
    """The double (w >> 11) * 2**-53 of each raw 64-bit word w."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53


def apply(meas, input_index: int, rand: float):
    """Apply the measurement, any record with `s` and `kraus`, to one
    prepared state using a uniform draw.

    Returns (outcome, post), post the state the outcome leaves.  The draw
    is classified against the cells [0, P(1)), [P(1), P(1)+P(2)),
    [P(1)+P(2), 1); the cells and post come from outcome_statistics().
    """
    if not 0.0 <= rand < 1.0:
        raise ValueError(f"rand={rand} outside [0, 1)")
    (_, p1, p2), posts = outcome_statistics(meas, input_index)
    outcome = 1 if rand < p1 else 2 if rand < p1 + p2 else 0
    return outcome, posts[outcome]


def completeness_residual(meas) -> float:
    """||sum_m A_m^T A_m - I||: how far the POVM elements sit from the identity."""
    return float(np.linalg.norm(sum(A.T @ A for A in meas.kraus) - np.eye(2)))


def zero_error_residuals(meas) -> tuple:
    """(|A_1 psi_2|^2, |A_2 psi_1|^2), the wrong-state probabilities before
    outcome_statistics()'s floor."""
    _, A1, A2 = meas.kraus
    psi1, psi2 = make_state_pair(meas.s)
    return tuple(float(v @ v) for v in (A1 @ psi2, A2 @ psi1))


def stages(chain) -> tuple:
    """Observer k+1's measurement at [k].  build_intermediate_ud is looked
    up on povm at each call, so a test can replace it there."""
    return tuple(povm.build_intermediate_ud(a, q) for a, q in zip(chain.overlaps, chain.failures))


def _factor(parts):
    """One 2 x k factor L with L L^T the sum of P P^T over `parts`: their
    columns side by side, or the transposed R of its QR when they are more
    than two."""
    merged = np.hstack(parts)
    return merged if merged.shape[1] <= 2 else np.linalg.qr(merged.T, mode="r").T


def chain_classes(meases, input_index: int) -> tuple:
    """Send state `input_index` of the pair with overlap meases[0].s through
    each measurement in turn, rho -> A_m rho A_m^T for its stored Kraus
    operators A_m, and return (every, some, none, wrong): the probability
    that every observer identified the state, that some but not every one
    did, that none did, each with no wrong outcome, and that some observer
    named the wrong state.

    Each of the first three classes holds the sum of rho over its outcome
    records, which is sound because distinct records are orthogonal, as a
    factor L with rho = L L^T, so that a probability is a sum of squares
    of amplitudes and rounding cannot cancel a wrong outcome's zero into
    +-1e-16 per stage.  A wrong outcome's mass is taken where it arises.
    """
    psi = make_state_pair(meases[0].s)[input_index - 1]
    classes, wrong = {(True, False): psi[:, None]}, 0.0
    for meas in meases:
        parts = {}
        for (every, some), L in classes.items():
            for m, A in enumerate(meas.kraus):
                if m == 3 - input_index:
                    wrong += float(np.sum((A @ L) ** 2))
                else:
                    parts.setdefault((every and m > 0, some or m > 0), []).append(A @ L)
        classes = {key: _factor(p) for key, p in parts.items()}
    mass = {key: float(np.sum(L**2)) for key, L in classes.items()}
    return mass.get((True, True), 0.0), mass.get((False, True), 0.0), mass.get((False, False), 0.0), wrong


def pair_rate(q_bob, q_charlie) -> float:
    """P = ((1 - q1_b)(1 - q1_c) + (1 - q2_b)(1 - q2_c)) / 2 for the (q1, q2)
    failure pairs of two observers in turn; the caller makes them admissible."""
    return ((1 - q_bob[0]) * (1 - q_charlie[0]) + (1 - q_bob[1]) * (1 - q_charlie[1])) / 2
