"""Every count of the Monte Carlo goldens, from the paper's closed forms and
an independent Philox4x64-10.

The generator follows its specification: Salmon, Moraes, Dror and Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC11,
https://doi.org/10.1145/2063384.2063405.  It is written in numpy uint64
array arithmetic and checked against the known-answer vectors published with
the authors' Random123 library.  Nothing here imports seqdisc or a numpy
random generator: a golden's counts follow from its echoed inputs, the
stream layout and the thresholds below.

Stream layout.  The key is the seed as two 64-bit words, low word first.
Stream block b (0-based) is philox(counter = b + 1, key): the counter is
incremented before each block.  A trial of d draws owns the B = ceil(d / 4)
blocks [i B, (i + 1) B), and its draws are the first d of their 4 B words.
Draw 0 picks the prepared state, state 1 below 0.5, and draw k samples
observer k, which succeeds below its threshold whichever state was sent.

Thresholds.  A measurement that fails with probability q on either state
succeeds below 1 - q.  The minimum-failure measurement has q = s, and the
optimal cloner makes its two copies with probability 1 / (1 + s).  In a
chain of n observers, every observer but the last fails with q = s**(1/n);
observer 1 receives overlap t_1 = s and hands on t_(k+1) = min(t_k / q, 1),
and the last fails with the overlap t_n it receives.
"""

import json
import math
import pathlib

import numpy as np
import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

MASK64 = (1 << 64) - 1
# the round multipliers and the Weyl key increments of Philox4x64
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
# Constants stay np.uint64: a Python int against a uint64 array is
# promoted to float64 on numpy 1.24.  Arrays wrap silently, scalars warn.
LOW32 = np.uint64(0xFFFFFFFF)
SHIFT32 = np.uint64(32)
SHIFT11 = np.uint64(11)
# blocks generated per array pass: the working set stays in cache
CHUNK_BLOCKS = 1 << 14


def mulhilo(a: int, b):
    """(hi, lo) words of the 128-bit product of the 64-bit constant a and each
    word of the uint64 array b, the high word summed from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, b_hi = b & LOW32, b >> SHIFT32
    low = a_lo * b_lo
    mid = a_hi * b_lo + (low >> SHIFT32)  # below 2**64: (2**32 - 1)**2 + 2**32 - 1
    cross = a_lo * b_hi + (mid & LOW32)
    return a_hi * b_hi + (mid >> SHIFT32) + (cross >> SHIFT32), b * np.uint64(a)


def philox4x64_10(counter, key) -> np.ndarray:
    """The (m, 4) output words of Philox4x64 with 10 rounds for the m
    counters given as four uint64 word arrays, low word first, under the
    key's two words (Python ints).  The key is bumped between rounds."""
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for r in range(10):
        if r:
            k0, k1 = (k0 + WEYL[0]) & MASK64, (k1 + WEYL[1]) & MASK64
        hi0, lo0 = mulhilo(MULTIPLIERS[0], x0)
        hi1, lo1 = mulhilo(MULTIPLIERS[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ np.uint64(k0), lo1, hi0 ^ x3 ^ np.uint64(k1), lo0
    return np.stack([x0, x1, x2, x3], axis=-1)


def stream(seed: int, trials: int, draws: int) -> np.ndarray:
    """The (trials, draws) words of the stream layout in the module docstring."""
    blocks = trials * -(-draws // 4)
    out = np.empty((blocks, 4), dtype=np.uint64)
    key = (seed & MASK64, seed >> 64)
    for start in range(0, blocks, CHUNK_BLOCKS):
        counter = np.arange(start + 1, min(start + CHUNK_BLOCKS, blocks) + 1, dtype=np.uint64)
        zero = np.zeros_like(counter)
        out[start:start + counter.size] = philox4x64_10((counter, zero, zero, zero), key)
    return out.reshape(trials, -1)[:, :draws]


def word_bound(x: float) -> int:
    """The words w whose double (w >> 11) * 2**-53 is below x in [0, 1]
    are those below this bound.  m = w >> 11 is an integer below 2**53, and
    m * 2**-53 < x  <=>  m < x * 2**53, a product scaled exactly by a power
    of two,  <=>  m < ceil(x * 2**53)  <=>  w < ceil(x * 2**53) << 11, since
    w's low 11 bits are below 2**11.  At x = 1 the bound is 2**64: every
    word."""
    return math.ceil(x * 2.0**53) << 11


def below(words, x: float) -> np.ndarray:
    """Mask of the words whose draw is below x."""
    bound = word_bound(x)
    return np.ones(words.shape, dtype=bool) if bound > MASK64 else words < np.uint64(bound)


def sampled(seed: int, trials: int, thresholds: tuple):
    """(sent1, successes): the trials that sent state 1, and one success
    mask per observer of the threshold tuple."""
    w = stream(seed, trials, 1 + len(thresholds))
    return below(w[:, 0], 0.5), [below(w[:, k], x) for k, x in enumerate(thresholds, 1)]


def chain_thresholds(s: float, n: int) -> tuple:
    q = s ** (1 / n)
    t = s
    for _ in range(n - 1):
        t = min(t / q, 1.0)
    return (1 - q,) * (n - 1) + (1 - t,)


def count(mask) -> int:
    return int(np.count_nonzero(mask))


def simulate_counts(params: dict) -> dict:
    kind, s = params["kind"], params["s"]
    if kind in ("1", "seq"):
        thresholds = chain_thresholds(s, 1 if kind == "1" else params["n"])
    elif kind == "2":
        thresholds = (1 - s, 1 - s)
    else:
        thresholds = (1 / (1 + s), 1 - s, 1 - s)
    sent1, ok = sampled(params["seed"], params["trials"], thresholds)
    if kind == "2":
        # the second receiver gets a fresh copy only if the first identified the state
        both, one = ok[0] & ok[1], ok[0]
    elif kind == "3":
        # both receivers measure a copy only if the cloner succeeded
        both, one = ok[0] & ok[1] & ok[2], ok[0] & (ok[1] | ok[2])
    else:
        both, one = np.logical_and.reduce(ok), np.logical_or.reduce(ok)
    return {"trials": params["trials"], "all_observers_success_count": count(both),
            "at_least_one_success_count": count(one), "error_count": 0,
            "per_branch_success_counts": {"1": count(both & sent1), "2": count(both & ~sent1)}}


def b92_counts(config: dict) -> dict:
    s, two_qubit = config["s"], config["mode"] == "two_qubit"
    receivers = (1 - s, 1 - s) if two_qubit else chain_thresholds(s, 2)
    # Eve measures each link she reaches, then holds a coin for her guess
    eve = () if config["eve"] == "none" else (1 - s,) * (2 if two_qubit else 1) + (0.5,)
    sent1, ok = sampled(config["seed"], config["rounds"], eve + receivers)
    *eve_ok, bob, charlie = ok
    out = {"rounds": config["rounds"], "both_sifted": count(bob & charlie),
           "bob_sifted": count(bob), "charlie_sifted": count(charlie),
           "eve_known": 0, "errors_bob": 0, "errors_charlie": 0}
    if eve_ok:
        *seen, guess1 = eve_ok
        known = np.logical_or.reduce(seen)
        # she forwards what she identified, else the state her coin names;
        # a sifted receiver errs exactly when that state was not sent
        wrong = ~known & (guess1 != sent1)
        out.update(eve_known=count(known), errors_bob=count(bob & wrong),
                   errors_charlie=count(charlie & wrong))
    return out


def test_philox_matches_the_known_answer_vectors():
    """philox4x64 10 lines of Random123's kat_vectors: counter, key, output."""
    vectors = [
        ([0] * 4, [0] * 2,
         [0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B]),
        ([MASK64] * 4, [MASK64] * 2,
         [0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0]),
        ([0x243F6A8885A308D3, 0x13198A2E03707344, 0xA4093822299F31D0, 0x082EFA98EC4E6C89],
         [0x452821E638D01377, 0xBE5466CF34E90C6C],
         [0xA528F45403E61D95, 0x38C72DBD566E9788, 0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6]),
    ]
    for counter, key, expected in vectors:
        words = philox4x64_10([np.array([c], dtype=np.uint64) for c in counter], key)
        assert words[0].tolist() == expected


def test_word_rule_is_the_double_rule():
    words = stream(1, 4096, 4).ravel()
    for x in (0.0, 2.0**-53, 1e-300 + 2.0**-40, 0.3, 0.5, 1 / 1.3, 0.7, 1 - 2.0**-53, 1.0):
        bound = word_bound(x)
        edges = [w for w in (0, bound - 2**11, bound - 1, bound, bound + 1, MASK64) if 0 <= w <= MASK64]
        w = np.concatenate([words, np.array(edges, dtype=np.uint64)])
        assert (below(w, x) == ((w >> SHIFT11) * 2.0**-53 < x)).all(), x


SAMPLED = sorted(p.name for pattern in ("simulate-*.json", "b92-*.json")
                 for p in GOLDEN.glob(pattern))


@pytest.mark.parametrize("name", SAMPLED)
def test_golden_counts_follow_from_the_stream_and_the_closed_forms(name):
    golden = json.loads((GOLDEN / name).read_text())
    if "tally" in golden:
        expected, report = simulate_counts(golden["params"]), golden["tally"]
    else:
        expected, report = b92_counts(golden["config"]), golden["report"]
    assert {key: report[key] for key in expected} == expected


def test_every_sampled_golden_is_checked():
    assert len(SAMPLED) == 27
