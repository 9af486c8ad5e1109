"""Two-receiver key distribution sessions built on the two-state protocol.

Alice encodes a random bit in one of two non-orthogonal states (overlap s)
and both Bob and Charlie should end up with the bit.  Two transports are
modeled:

    two_qubit             Alice sends each receiver his own qubit; both run
                          the minimum-failure measurement.  A round is
                          doubly sifted with probability (1 - s)^2.
    one_qubit_sequential  Alice sends a single qubit through Bob to
                          Charlie; they run the optimal two-observer chain
                          (failure sqrt(s) each), doubly sifted with
                          probability (1 - sqrt(s))^2.

The optional eavesdropper intercepts every link she can reach, runs her own
minimum-failure measurement, and forwards her best guess: the identified
state when conclusive, otherwise a coin flip between the two.  On the
single-qubit path she touches one link, so she knows the bit in a fraction
1 - s of rounds; on the two-qubit path she touches both links and knows it
in 1 - s^2.  Her tampering shows up as conclusive wrong bits at the
receivers, which never happen on a clean line.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .povm import classify_uniforms  # noqa: F401  perfbench's tracer test reads this binding
from .povm import sampling_boundaries
from .sampling import SEED_LIMIT, binomial_rate, run_trials
from .sequential import build_chain
from .states import check_integer, check_overlap

MODE_TWO_QUBIT = "two_qubit"
MODE_ONE_QUBIT = "one_qubit_sequential"
MODES = (MODE_TWO_QUBIT, MODE_ONE_QUBIT)

EVE_NONE = "none"
EVE_INTERCEPT = "intercept_ud"
EVE_POLICIES = (EVE_NONE, EVE_INTERCEPT)


class SessionConfig(NamedTuple):
    s: float
    rounds: int
    mode: str
    eve: str = EVE_NONE
    seed: int = 0


class KeyReport(NamedTuple):
    """Counts over a session; `rates` maps each count's name to
    {"rate": its fraction of rounds, "stderr": that rate's binomial
    standard error}."""

    rounds: int
    both_sifted: int
    bob_sifted: int
    charlie_sifted: int
    eve_known: int
    errors_bob: int
    errors_charlie: int
    rates: dict


def session_config_from_dict(raw: dict) -> SessionConfig:
    """Validate a configuration mapping, naming the offending field; a field
    it leaves out takes SessionConfig's default, if the field has one.
    check_integer() refuses rounds below 1 and a seed outside [0, 2**128)."""
    unknown = sorted(set(raw) - set(SessionConfig._fields))
    if unknown:
        raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
    for field in SessionConfig._fields:
        if field not in raw and field not in SessionConfig._field_defaults:
            raise ValueError(f"config field '{field}' is required")
    config = SessionConfig(**raw)
    s, rounds, mode, eve, seed = config
    s = check_overlap(s, "config field 's'")
    check_integer(rounds, "config field 'rounds'", 1)
    if mode not in MODES:
        raise ValueError(f"config field 'mode'={mode!r} must be one of {MODES}")
    if eve not in EVE_POLICIES:
        raise ValueError(f"config field 'eve'={eve!r} must be one of {EVE_POLICIES}")
    check_integer(seed, "config field 'seed'", 0, SEED_LIMIT - 1)
    return config._replace(s=s)


def run_session(config: SessionConfig) -> KeyReport:
    """Simulate a whole session round by round, once `config` passes
    session_config_from_dict(), which names a bad field.

    Draw layout per round: run_trials()'s, draw 0 picking Alice's bit and
    draw k sampling observer k of the threshold tuple: with an
    eavesdropper, her one or two measurements and her guessing coin (a 0.5
    threshold, the equal-prior choice of draw 0), then Bob's and Charlie's
    measurements.  Each measurement fails equally on both states, so a
    receiver is sifted when his draw is below one threshold, whatever
    state arrived.  His outcome is then the state he received: an error
    exactly when Eve forwarded a wrong guess.
    """
    config = session_config_from_dict(config._asdict())
    eve_threshold = sampling_boundaries(config.s)
    two_qubit = config.mode == MODE_TWO_QUBIT
    receivers = (eve_threshold,) * 2 if two_qubit else build_chain(config.s, 2).thresholds
    # her measurement of each link she reaches, then her guessing coin
    eve = () if config.eve == EVE_NONE else (eve_threshold,) * (2 if two_qubit else 1) + (0.5,)

    def kernel(masks, sent1):
        *seen, sift_b, sift_c = masks
        sifted = (sift_b & sift_c, sift_b, sift_c)
        if not seen:
            return sifted
        *seen, coin = seen
        # she forwards what she identified, else her coin's guess
        known = np.logical_or.reduce(seen)
        wrong = ~known & (coin != sent1)
        return sifted + (known, sift_b & wrong, sift_c & wrong)

    names = ("both_sifted", "bob_sifted", "charlie_sifted", "eve_known",
             "errors_bob", "errors_charlie")
    n = config.rounds
    counts = dict.fromkeys(names, 0)
    counts.update(zip(names, run_trials(config.seed, n, eve + receivers, kernel,
                                        "config field 'rounds'")))
    return KeyReport(rounds=n, **counts,
                     rates={name: dict(zip(("rate", "stderr"), binomial_rate(c, n)))
                            for name, c in counts.items()})
