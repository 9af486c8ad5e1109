"""Reproducible per-trial uniform draws and the Monte Carlo driver.

All Monte Carlo code in this package draws from a counter-based Philox
stream keyed by the user seed.  Each trial owns a fixed window of the
stream: trial i uses counter blocks [i*B, (i+1)*B) where B is the number of
256-bit blocks needed for its draws (Philox emits 4 64-bit words per block).
Because the window depends only on the trial index, any chunking of a run
produces bit-identical draws, and results are reproducible across runs and
machines for a given seed.  A draw is a raw word of the bit generator's
stream, which numpy's RNG policy (NEP 19) keeps stable across releases.

run_trials() is the one chunk loop behind every simulator: it fills each
chunk's draws, reads from draw 0 which state was sent, classifies every
other draw against its observer's threshold, and counts the trials in
each mask a simulator-specific kernel combines from those masks.
"""

from __future__ import annotations

import math

import numpy as np

from .povm import classify_uniforms
from .states import check_integer

# 64-bit words produced per Philox counter increment
_BLOCK = 4

# Words per run_trials() chunk (1 MB), in cache while each observer reads its column:
# they and their masks are a run's whole working set, and nothing else grows with trials.
CHUNK_WORDS = 1 << 17

# Philox keys are 128-bit integers.
SEED_LIMIT = 1 << 128

# Uniforms run_trials() draws at most in one run, trials * (1 + observers):
# 20 s to 9 minutes at the 5-9 ns a draw takes for n <= 16 observers and the
# 125 ns at n = 10**4, on one pinned CPU of a 2-vCPU VM, so every accepted run ends.
MAX_DRAWS = 1 << 32


def blocks_per_trial(draws_per_trial: int) -> int:
    return -(-draws_per_trial // _BLOCK)


def trial_uniforms(seed: int, n_trials: int, draws_per_trial: int, start_trial: int = 0) -> np.ndarray:
    """Uniform draws for trials [start_trial, start_trial + n_trials).

    Returns an (n_trials, draws_per_trial) view, of raw uint64 words, of
    the (n_trials, 4 * blocks_per_trial) block Philox generates.  Column j
    is draw j of each trial; the words do not depend on how a run is split
    into chunks.  Generator.random's double of a word w is (w >> 11) * 2**-53.
    check_integer() refuses a seed outside [0, 2**128) and a count below its bound.
    """
    check_integer(seed, "seed", 0, SEED_LIMIT - 1)
    check_integer(n_trials, "n_trials", 0)
    check_integer(start_trial, "start_trial", 0)
    check_integer(draws_per_trial, "draws_per_trial", 1)
    blocks = blocks_per_trial(draws_per_trial)
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start_trial * blocks)
    return bitgen.random_raw((n_trials, blocks * _BLOCK))[:, :draws_per_trial]


def _word_bound(threshold: float):
    """Word bound of a threshold in [0, 1]: the double (w >> 11) * 2**-53 of
    a raw word w is below it exactly where w < ceil(threshold * 2**53) << 11
    (the product is exact), a np.uint64 below 2**64 for thresholds below 1.
    At 1 every word succeeds, and the bound is infinity."""
    if threshold >= 1.0:
        return math.inf
    return np.uint64(math.ceil(threshold * 2.0**53) << 11)


def chunk_ranges(n_trials: int, chunk_size: int):
    """Yield (start, count) pairs covering range(n_trials) in chunks."""
    check_integer(chunk_size, "chunk_size", 1)
    for start in range(0, n_trials, chunk_size):
        yield start, min(chunk_size, n_trials - start)


def run_trials(seed: int, trials: int, thresholds: tuple, kernel, name: str = "trials") -> tuple:
    """Count, for each mask `kernel` returns, the seeded trials where it holds.

    A trial draws 1 + len(thresholds) uniforms: draw 0 picks the prepared
    state, and observer k succeeds where draw k is below thresholds[k - 1],
    whichever state was sent.  Each chunk gets its draws from
    trial_uniforms, at most CHUNK_WORDS generated words or one trial,
    and kernel(masks, sent1) returns a tuple of the chunk's bool masks, where
    masks[k - 1] = classify_uniforms(bound k, draw k), bound k being the
    word bound of thresholds[k - 1], and sent1 = draw 0 < 0.5, the
    equal-prior choice, marks the trials that sent state 1.
    The counts, Python ints, do not depend on the chunk size, because
    neither the draws nor the per-trial kernel do.  A count outside
    [1, MAX_DRAWS // draws], the most trials whose draws stay within
    MAX_DRAWS, is refused by check_integer() before any draw, called `name`.
    """
    draws = 1 + len(thresholds)
    check_integer(trials, name, 1, MAX_DRAWS // draws)
    half, *bounds = map(_word_bound, (0.5, *thresholds))
    chunk = max(1, CHUNK_WORDS // (blocks_per_trial(draws) * _BLOCK))
    totals = 0
    for start, count in chunk_ranges(trials, chunk):
        w = trial_uniforms(seed, count, draws, start)
        masks = [classify_uniforms(b, w[:, k]) for k, b in enumerate(bounds, 1)]
        sent1 = w[:, 0] < half
        del w  # the kernel reads only the masks
        totals += np.array([np.count_nonzero(m) for m in kernel(masks, sent1)])
        del masks, sent1  # and the next fill holds nothing of this chunk
    return tuple(totals.tolist())


def binomial_rate(count: int, n: int) -> tuple:
    """(count / n, binomial standard error of that fraction)."""
    rate = count / n
    return rate, math.sqrt(max(rate * (1.0 - rate), 0.0) / n)
