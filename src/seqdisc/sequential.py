"""Chains of observers measuring the same qubit in turn.

A sender prepares one of two states with overlap s (equal priors).  Each
observer applies an unambiguous measurement with a tunable failure
probability and passes the qubit on; because both branches of such a
measurement leave the qubit in the same conditional state, later observers
see a fresh discrimination problem with a larger overlap and need no
knowledge of earlier outcomes.

For two observers with failure pairs (q1_b, q2_b) and (q1_c, q2_c), writing
t = sqrt(q1_c q2_c), admissibility forces q1_b q2_b = s^2 / t^2 with
s <= t <= 1, and the probability that both identify the state is

    P = ((1 - q1_b)(1 - q1_c) + (1 - q2_b)(1 - q2_c)) / 2.

On the symmetric slice q1 = q2 per observer, the measurements this
package builds, this is (1 - s/t)(1 - t), maximized at t = sqrt(s) with
value (1 - sqrt(s))^2.  For n observers the same geometric splitting gives
(1 - s**(1/n))**n.  Off the slice P can be larger: the one-sided pairs
q_b = q_c = (s, 1) give (1 - s)^2 / 2, above (1 - sqrt(s))^2 for every
s > 3 - 2 sqrt(2) (about 0.1716).
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

import numpy as np

from .povm import output_overlap, sampling_boundaries
from .povm import classify_uniforms  # noqa: F401  perfbench's tracer test reads this binding
from .sampling import binomial_rate, run_trials
from .states import check_integer, check_overlap

# Observers build_chain accepts; a sampled trial of the chain draws n + 1 uniforms.
MAX_CHAIN_LENGTH = 10**4


class ChainSpec(NamedTuple):
    """The optimal n-observer chain as its overlap schedule.

    overlaps[k] (0-based) is the overlap observer k+1 of n = len(overlaps) - 1
    receives, about s**((n-k)/n), and overlaps[n] = 1 the one the last leaves.
    All but the last fail with per-state probability q = s**(1/n), the last
    with its input overlap.  Samplers read only the thresholds: no measurement is built."""

    q: float
    overlaps: tuple

    @property
    def failures(self) -> tuple:
        """Each observer's failure probability, the same on both states."""
        return (self.q,) * (len(self.overlaps) - 2) + (self.overlaps[-2],)

    @property
    def thresholds(self) -> tuple:
        """Each observer's sampling_boundaries(): it succeeds on a draw below it."""
        return tuple(map(sampling_boundaries, self.failures))


class TallyReport(NamedTuple):
    """Counts from a Monte Carlo run over prepared-state trials."""

    trials: int
    per_branch_success_counts: dict
    all_observers_success_count: int
    at_least_one_success_count: int
    error_count: int
    estimated_joint_probability: float
    standard_error: float


def tally_trials(seed: int, trials: int, thresholds: tuple, outcome) -> TallyReport:
    """Tally run_trials() over the masks outcome(masks) -> (joint, at_least_one).

    Joint successes are split by prepared state, and the joint estimate is
    their count / trials with its binomial standard error.  error_count is
    0 by construction: a sampled observer names the prepared state or
    fails.  The evidence that the measurements never misidentify lies in
    their wrong-state probabilities, which the tests read from the Kraus operators."""

    def kernel(masks, sent1):
        joint, at_least_one = outcome(masks)
        return joint & sent1, joint, at_least_one

    branch1, all_count, any_count = run_trials(seed, trials, thresholds, kernel)
    return TallyReport(trials, {1: branch1, 2: all_count - branch1}, all_count, any_count, 0,
                       *binomial_rate(all_count, trials))


class OptimizationResult(NamedTuple):
    t_star: float
    q_star: float
    p_star: float
    p_star_closed_form: float


def optimize_two_observer(s: float) -> OptimizationResult:
    """Maximize the joint success over measurements that fail equally on
    both states, t in [s, 1].  Above s = 3 - 2 sqrt(2) one-sided pairs do
    better (see the module docstring).

    f(t) = (1 - s/t)(1 - t) has f'(t) = s/t^2 - 1, so the maximum sits at
    t_star = sqrt(s), which is also the common failure probability q_star;
    it holds for every s in (0, 1), however small.  p_star is f(t_star)
    written as ((1 - s) / (1 + t_star))^2, which does not cancel as s -> 1;
    the closed form (1 - sqrt(s))^2 is reported beside it.
    """
    s = check_overlap(s)
    t_star = math.sqrt(s)
    return OptimizationResult(t_star=t_star, q_star=t_star,
                              p_star=((1.0 - s) / (1.0 + t_star)) ** 2,
                              p_star_closed_form=(1.0 - t_star) ** 2)


def optimal_n_observer(s: float, n: int) -> float:
    """Best probability that all n observers identify the state, each failing equally on both."""
    s = check_overlap(s)
    check_integer(n, "n", 1, sys.float_info.max)
    return (1.0 - s ** (1.0 / n)) ** n


def build_chain(s: float, n: int) -> ChainSpec:
    """The overlap schedule of the optimal n-observer chain.

    Stage k's output_overlap() is stage k+1's input.  Every stage but the
    last fails with q = s**(1/n); the last fails with the overlap it
    receives, so q = s, on the admissibility bound, and it outputs 1.
    An s so close to 1 that q rounds to 1, or that an earlier stage's
    output does, raises ValueError naming s and n: no observer but the last
    could then succeed.  check_integer() refuses n outside [1, MAX_CHAIN_LENGTH].
    """
    s = check_overlap(s)
    check_integer(n, "n", 1, MAX_CHAIN_LENGTH)
    q = s ** (1.0 / n)
    if q == 1.0:
        raise ValueError(f"no chain of n={n} observers for s={s}: q = s**(1/n) rounds to 1")
    overlaps = [s]
    for k in range(n):
        a = overlaps[-1]
        try:
            overlaps.append(output_overlap(a, q) if k < n - 1 else output_overlap(a, a))
        except ValueError as exc:
            raise ValueError(f"no chain of n={n} observers for s={s}: stage {k + 1} {exc}") from exc
    return ChainSpec(q=q, overlaps=tuple(overlaps))


def simulate_chain(chain: ChainSpec, trials: int, seed: int) -> TallyReport:
    """Monte Carlo over prepared states run through every stage.

    Draw layout per trial: run_trials()'s, with chain.thresholds as the
    observers, so draw 0 picks the prepared state and draw k samples
    stage k.  Every stage is applied whatever the earlier outcomes were;
    this is sound because each stage leaves the qubit in the same
    conditional state on all of its branches, and fails with the same
    probability on both inputs.
    """
    return tally_trials(seed, trials, chain.thresholds,
                        lambda masks: (np.logical_and.reduce(masks), np.logical_or.reduce(masks)))
