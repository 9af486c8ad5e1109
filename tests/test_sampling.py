"""Tests for the counter-based per-trial draw layout."""

import tracemalloc

import numpy as np
import pytest
from _reference import doubles

from seqdisc import b92, sampling, sequential
from seqdisc.b92 import (
    EVE_INTERCEPT,
    EVE_POLICIES,
    MODE_ONE_QUBIT,
    MODES,
    SessionConfig,
    run_session,
    session_config_from_dict,
)
from seqdisc.povm import outcome_table
from seqdisc.sampling import blocks_per_trial, chunk_ranges, run_trials, trial_uniforms
from seqdisc.sequential import build_chain, optimal_n_observer, simulate_chain
from seqdisc.strategies import make_curve, simulate_strategy


@pytest.mark.parametrize("draws", [1, 2, 3, 4, 5, 6, 8, 9])
def test_chunking_never_changes_the_draws(draws):
    seed = 1234
    full = trial_uniforms(seed, 100, draws)
    for chunk in (1, 7, 32, 100):
        pieces = [
            trial_uniforms(seed, count, draws, start)
            for start, count in chunk_ranges(100, chunk)
        ]
        assert np.array_equal(np.concatenate(pieces), full)


def test_single_trial_window_matches_batch():
    full = trial_uniforms(9, 50, 5)
    for i in (0, 1, 17, 49):
        row = trial_uniforms(9, 1, 5, start_trial=i)[0]
        assert np.array_equal(row, full[i])


def test_draws_are_uniform_in_unit_interval():
    u = doubles(trial_uniforms(2024, 2000, 3))
    assert u.shape == (2000, 3)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    # crude sanity on the mean, 4 sigma of a uniform's mean over 6000 draws
    assert abs(u.mean() - 0.5) < 4 * (1.0 / np.sqrt(12 * 6000))


# one key of 127 bits; each is read from its start and after an advance
@pytest.mark.parametrize("key", [0, 2024, (1 << 126) + 0x9E3779B97F4A7C15])
@pytest.mark.parametrize("advance", [0, 123_457])
def test_philox_doubles_are_the_top_53_bits_of_the_raw_stream(key, advance):
    """NumPy's RNG policy (NEP 19) keeps only the bit generators' raw
    streams stable across releases, not Generator.random; pinning each
    double to its raw word w as (w >> 11) * 2**-53 catches a numpy release
    that changes the conversion before it moves every Monte Carlo golden."""
    drawn, raw = np.random.Philox(key=key), np.random.Philox(key=key)
    drawn.advance(advance)
    raw.advance(advance)
    drawn_doubles = np.random.Generator(drawn).random(1001)
    words = raw.random_raw(1001)
    assert words.dtype == np.uint64
    assert np.array_equal(drawn_doubles, doubles(words))


def test_different_seeds_differ():
    assert not np.array_equal(trial_uniforms(1, 10, 4), trial_uniforms(2, 10, 4))


def test_blocks_per_trial():
    assert [blocks_per_trial(k) for k in (1, 4, 5, 8, 9)] == [1, 1, 2, 2, 3]


def refusal(call, *args) -> str:
    """The message of the ValueError that call(*args) raises."""
    with pytest.raises(ValueError) as refused:
        call(*args)
    return str(refused.value)


def test_argument_validation():
    assert refusal(trial_uniforms, -1, 10, 2) == f"seed=-1 outside [0, {2**128 - 1}]"
    assert refusal(trial_uniforms, 2**128, 10, 2) == f"seed={2**128} outside [0, {2**128 - 1}]"
    assert refusal(trial_uniforms, 1, -5, 2) == "n_trials=-5 outside [0, inf]"
    assert refusal(trial_uniforms, 1, 10, 2, -1) == "start_trial=-1 outside [0, inf]"
    assert refusal(trial_uniforms, 1, 10, 0) == "draws_per_trial=0 outside [1, inf]"
    assert refusal(lambda: list(chunk_ranges(10, 0))) == "chunk_size=0 outside [1, inf]"


# numpy 1.24 shows np.int64(3) as 3, numpy 2 as np.int64(3): the message
# holds the value's repr and its type's name
@pytest.mark.parametrize("bad", [True, 1.5, 3.0, np.int64(3), "3"], ids=repr)
def test_a_bool_or_non_int_seed_or_count_is_refused(bad):
    """Each entry point refuses the value by name, with its type, rather
    than converting it or raising a TypeError."""
    def message(name):
        return f"{name}={bad!r} is not an int ({type(bad).__name__})"

    good = {"s": 0.3, "rounds": 10, "mode": MODES[0]}
    for name, call, args in (
        ("seed", simulate_strategy, ("2", 0.3, 10, bad)),
        ("trials", simulate_chain, (build_chain(0.3, 2), bad, 0)),
        ("steps", make_curve, (0, 1, bad)),
        ("n", build_chain, (0.3, bad)),
        ("n", optimal_n_observer, (0.3, bad)),
        ("input_index", outcome_table, (0.3, bad, None)),
        ("config field 'rounds'", session_config_from_dict, ({**good, "rounds": bad},)),
        ("config field 'seed'", session_config_from_dict, ({**good, "seed": bad},)),
        ("n_trials", trial_uniforms, (1, bad, 2)),
        ("draws_per_trial", trial_uniforms, (1, 10, bad)),
        ("start_trial", trial_uniforms, (1, 10, 2, bad)),
    ):
        assert refusal(call, *args) == message(name), call


def test_run_trials_refuses_counts_outside_the_draw_cap_before_any_draw(monkeypatch):
    def refuse(*args):
        raise AssertionError("a draw was made")

    monkeypatch.setattr(sampling, "trial_uniforms", refuse)
    limit = sampling.MAX_DRAWS // 3
    for trials, name in ((0, "trials"), (limit + 1, "trials"), (2**128, "rounds")):
        assert refusal(run_trials, SEED, trials, (0.5, 0.5), refuse, name) == (
            f"{name}={trials} outside [1, {limit}]")
    with pytest.raises(AssertionError, match="a draw was made"):
        run_trials(SEED, limit, (0.5, 0.5), refuse)


def test_chunk_ranges_cover_exactly():
    ranges = list(chunk_ranges(10, 4))
    assert ranges == [(0, 4), (4, 4), (8, 2)]
    assert list(chunk_ranges(0, 4)) == []


def test_reports_do_not_depend_on_the_chunk_size(monkeypatch):
    trials = 300
    # (draws per trial, run)
    runs = [(4, lambda: simulate_chain(build_chain(0.4, 3), trials, 5))]
    runs += [(d, lambda k=k: simulate_strategy(k, 0.4, trials, 5))
             for k, d in (("1", 2), ("2", 3), ("3", 4))]
    b92_draws = {("two_qubit", "none"): 3, ("one_qubit_sequential", "none"): 3,
                 ("two_qubit", "intercept_ud"): 6, ("one_qubit_sequential", "intercept_ud"): 5}
    runs += [(b92_draws[m, e], lambda m=m, e=e: run_session(SessionConfig(0.4, trials, m, e, seed=5)))
             for m in MODES for e in EVE_POLICIES]
    calls = []
    original = sampling.trial_uniforms

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(sampling, "trial_uniforms", counting)
    reports = []
    # a 1-trial floor for every run, chunks of 3 or 7 trials, one chunk per run
    for budget in (1, 28, 1 << 17):
        monkeypatch.setattr(sampling, "CHUNK_WORDS", budget)
        reports.append([])
        for draws, run in runs:
            calls.clear()
            reports[-1].append(run())
            doubles = blocks_per_trial(draws) * 4
            assert len(calls) == -(-trials // max(1, budget // doubles))
            assert all(args[2] == draws for args in calls)
            assert all(args[1] == 1 or args[1] * doubles <= budget for args in calls)
    assert reports[0] == reports[1] == reports[2]


def test_a_run_holds_one_chunk_of_draws_at_a_time(monkeypatch):
    """run_trials' traced peak stays within 1.25 chunks of words, however
    many chunks a run takes: it releases each chunk's words before the
    kernel runs and the chunk's masks before the next fill, so one chunk
    of words and its masks are all it holds (1.10-1.11 MiB with numpy 2.4, 2.06-2.10
    MiB when the previous chunk stayed alive through the next fill).  The
    span traced is run_trials alone, in a chain of 2 and of 16 observers
    and an intercepted one-qubit session, each of four chunks."""
    peaks = []

    def traced(*args):
        tracemalloc.start()
        try:
            counts = run_trials(*args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return counts

    monkeypatch.setattr(sequential, "run_trials", traced)
    monkeypatch.setattr(b92, "run_trials", traced)
    trial_uniforms(SEED, 1, 1)  # numpy imports numpy.random at its first use, not in a span
    # (draws per trial, trials, run)
    runs = [(3, 100_000, lambda: simulate_chain(build_chain(0.3, 2), 100_000, SEED)),
            (17, 20_000, lambda: simulate_chain(build_chain(0.3, 16), 20_000, SEED)),
            (5, 50_000, lambda: run_session(SessionConfig(0.3, 50_000, MODE_ONE_QUBIT,
                                                          EVE_INTERCEPT, SEED)))]
    for draws, trials, run in runs:
        chunk = sampling.CHUNK_WORDS // (blocks_per_trial(draws) * 4)
        assert -(-trials // chunk) == 4
        run()
    assert len(peaks) == 3
    assert max(peaks) <= 1.25 * sampling.CHUNK_WORDS * 8, peaks


SEED, TRIALS = 31, 300
# draw 4 of trial 123 under a two-block window, which every layout of 5-8
# draws shares; the thresholds next to it are its nextafter neighbours
DRAWN = float(doubles(trial_uniforms(SEED, TRIALS, 8)[123, 4]))
EDGES = (np.nextafter(DRAWN, 0.0), DRAWN, np.nextafter(DRAWN, 1.0))


@pytest.mark.parametrize("thresholds", [(), (0.5,), (1.0, 0.0, 0.5)]
                         + [(0.0, 0.5, 1.0, edge) for edge in EDGES])
def test_run_trials_hands_the_kernel_every_draw_classified(monkeypatch, thresholds):
    draws = 1 + len(thresholds)
    sums = []
    for budget in (1, 28, 1 << 17):
        monkeypatch.setattr(sampling, "CHUNK_WORDS", budget)
        start = 0

        def kernel(masks, sent1):
            nonlocal start
            u = doubles(trial_uniforms(SEED, len(sent1), draws, start))
            assert np.array_equal(sent1, u[:, 0] < 0.5)
            assert len(masks) == len(thresholds)
            for k, (mask, threshold) in enumerate(zip(masks, thresholds), 1):
                assert mask.dtype == bool and np.array_equal(mask, u[:, k] < threshold)
            start += len(sent1)
            return (sent1, *masks)

        sums.append(run_trials(SEED, TRIALS, thresholds, kernel))
        assert start == TRIALS
    assert sums[0] == sums[1] == sums[2]
    u = doubles(trial_uniforms(SEED, TRIALS, draws))
    assert sums[0] == (np.count_nonzero(u[:, 0] < 0.5),
                       *(np.count_nonzero(u[:, k] < t) for k, t in enumerate(thresholds, 1)))
    if thresholds and thresholds[-1] in EDGES:  # only the neighbour above holds the draw
        assert (u[123, 4] < thresholds[-1]) == (thresholds[-1] == EDGES[2])


def test_word_classification_equals_double_classification_at_every_edge(monkeypatch):
    """run_trials classifies raw words against integer bounds.  Each mask it
    hands the kernel must be the one the words' doubles give against the
    float thresholds: at 0, 1, 0.5, the cloner's 1 / (1 + s) and a chain's
    1 - q, and at each one's nextafter neighbours, on the words that sit on
    either side of every threshold and at both ends of the word range."""
    s = 0.3
    centres = (0.0, 1.0, 0.5, 1.0 / (1.0 + s), build_chain(s, 3).thresholds[0])
    thresholds = tuple(float(np.nextafter(t, d)) for t in centres for d in (-1.0, t, 2.0))
    draws = 1 + len(thresholds)
    # the doubles m * 2**-53 next to t, each from its lowest and highest word
    grid = {m for t in thresholds for m in range(int(t * 2**53) - 1, int(t * 2**53) + 3)
            if 0 <= m < 2**53}
    edges = [word for m in grid for word in (m << 11, (m << 11) | 0x7FF)]
    edges += [0, 2**63 - 1, 2**63, 2**64 - 1]
    drawn = np.random.default_rng(8).integers(0, 2**64, 200, dtype=np.uint64, endpoint=False)
    words = np.concatenate([np.array(sorted(set(edges)), dtype=np.uint64), drawn])
    table = np.repeat(words[:, None], draws, axis=1)
    monkeypatch.setattr(sampling, "trial_uniforms",
                        lambda seed, n, d, start: table[start:start + n, :d])
    u = doubles(table)
    expected = (np.count_nonzero(u[:, 0] < 0.5),
                *(np.count_nonzero(u[:, k] < t) for k, t in enumerate(thresholds, 1)))
    for budget in (1, 28, 1 << 17):
        monkeypatch.setattr(sampling, "CHUNK_WORDS", budget)
        start = 0

        def kernel(masks, sent1):
            nonlocal start
            rows = u[start:start + len(sent1)]
            assert np.array_equal(sent1, rows[:, 0] < 0.5)
            for k, (mask, threshold) in enumerate(zip(masks, thresholds), 1):
                assert np.array_equal(mask, rows[:, k] < threshold), threshold
            start += len(sent1)
            return (sent1, *masks)

        assert run_trials(SEED, len(words), thresholds, kernel) == expected
        assert start == len(words)
