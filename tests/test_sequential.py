"""Tests for chain rates, the optimizer, and the chain simulator."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from _reference import (
    apply,
    completeness_residual,
    doubles,
    pair_rate,
    stages,
    zero_error_residuals,
)
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from seqdisc import povm, sequential
from seqdisc.b92 import EVE_INTERCEPT, MODE_ONE_QUBIT, SessionConfig, run_session
from seqdisc.povm import build_intermediate_ud, sampling_boundaries
from seqdisc.reporting import jsonable
from seqdisc.sampling import trial_uniforms
from seqdisc.sequential import (
    build_chain,
    optimal_n_observer,
    optimize_two_observer,
    simulate_chain,
)
from seqdisc.states import check_overlap
from seqdisc.strategies import simulate_strategy

# Bound on a built stage's completeness and zero-error residuals
TOL = 1e-10


def test_joint_success_worked_examples():
    # symmetric optimal point at s = 0.25: both fail with probability 0.5
    assert pair_rate((0.5, 0.5), (0.5, 0.5)) == pytest.approx(0.25)
    # both endpoints t = s and t = 1 of the symmetric slice, where the
    # observers fail with s/t and t, are worthless
    for t in (0.3, 1.0):
        assert pair_rate((0.3 / t,) * 2, (t,) * 2) == 0.0
    # asymmetric second observer: q_charlie = (0.25, 1.0) gives t = 0.5,
    # so q_bob must satisfy q1*q2 = s^2/t^2 = 0.25
    assert pair_rate((0.5, 0.5), (0.25, 1.0)) == pytest.approx(0.1875)
    # small s: t = 1e-6 and q1_bob*q2_bob = s^2/t^2 = 1e-12 exactly
    assert pair_rate((1e-6, 1e-6), (1e-6, 1e-6)) == (1.0 - 1e-6) ** 2


# where the one-sided pairs q_bob = q_charlie = (s, 1) start to beat the
# symmetric optimum: (1 - s)^2 / 2 = (1 - sqrt(s))^2 at sqrt(s) = sqrt(2) - 1
CROSSOVER = 3.0 - 2.0 * math.sqrt(2.0)


def _admissible_pairs(s, ts=21, splits=11):
    """A deterministic grid of admissible (q_bob, q_charlie) pairs: t over
    [s, 1] plus sqrt(s), and each observer's failure product (t^2 for
    Charlie, s^2/t^2 for Bob) split between the two states in every ratio
    of the grid, one-sided splits included."""
    shares = np.linspace(0.0, 1.0, splits)
    for t in [*np.linspace(s, 1.0, ts), math.sqrt(s)]:
        for x in shares:
            for y in shares:
                q_bob = ((s / t) ** (2 * y), (s / t) ** (2 * (1 - y)))
                yield q_bob, (t ** (2 * x), t ** (2 * (1 - x)))


def test_symmetric_optimum_is_optimal_only_below_the_crossover():
    """optimize_two_observer's p_star is the optimum over measurements that
    fail equally on both states; above 3 - 2 sqrt(2) the one-sided pair
    does better, and below it no pair of the grid does."""
    assert 0.17 < CROSSOVER < 0.175
    for s in (0.175, 0.2, 0.3, 0.5, 0.9, 1.0 - 1e-6):
        one_sided = pair_rate((s, 1.0), (s, 1.0))
        assert one_sided == pytest.approx((1.0 - s) ** 2 / 2, rel=1e-12)
        assert one_sided > optimize_two_observer(s).p_star, s
    for s in (1e-12, 0.01, 0.1, 0.15, 0.17):
        p_star = optimize_two_observer(s).p_star
        assert pair_rate((s, 1.0), (s, 1.0)) < p_star, s
        best = max(pair_rate(b, c) for b, c in _admissible_pairs(s))
        assert best <= p_star * (1.0 + 1e-12), s


@pytest.mark.parametrize("s", [0.04, 0.1, 0.25, 0.5, 0.729, 0.9])
def test_optimizer_beats_exhaustive_grid(s):
    result = optimize_two_observer(s)
    # independent oracle: exhaustive scan over the admissible interval
    ts = np.linspace(s + 1e-9, 1.0 - 1e-9, 100_000)
    grid_best = float(np.max((1.0 - s / ts) * (1.0 - ts)))
    assert result.p_star >= grid_best - 1e-9
    assert result.t_star == pytest.approx(math.sqrt(s), abs=1e-8)
    assert result.q_star == pytest.approx(math.sqrt(s), abs=1e-8)
    assert result.p_star == pytest.approx((1.0 - math.sqrt(s)) ** 2, abs=1e-12)


# log-spaced overlaps over the whole domain: s = 10**e toward 0 and
# s = 1 - 10**e toward 1
LOG_SPACED_S = hst.one_of(
    hst.floats(min_value=-300.0, max_value=-1e-3).map(lambda e: 10.0**e),
    hst.floats(min_value=-12.0, max_value=-1e-3).map(lambda e: 1.0 - 10.0**e),
)


@settings(max_examples=300, deadline=None)
@given(LOG_SPACED_S)
def test_optimizer_holds_across_the_domain(s):
    result = optimize_two_observer(s)
    assert result.t_star == result.q_star == math.sqrt(s)
    assert s <= result.t_star <= 1.0
    assert 0.0 <= result.p_star <= 1.0
    assert result.p_star == pytest.approx((1.0 - math.sqrt(s)) ** 2, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(hst.one_of(
    hst.floats(min_value=-300.0, max_value=-1e-3).map(lambda e: 10.0**e),
    hst.floats(min_value=-15.0, max_value=-1e-3).map(lambda e: 1.0 - 10.0**e),
))
@example(0.999999999999)
@example(1.0 - 2.0**-52)
@example(5e-324)
def test_optimizer_p_star_is_accurate_to_the_last_digits(s):
    with localcontext() as ctx:
        ctx.prec = 50
        exact = (1 - Decimal(s).sqrt()) ** 2
    p_star = optimize_two_observer(s).p_star
    assert abs(Decimal(p_star) - exact) <= Decimal("1e-14") * exact


def test_optimizer_domain():
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            optimize_two_observer(bad)


def test_n_observer_closed_form():
    s = 0.25
    assert optimal_n_observer(s, 1) == pytest.approx(1.0 - s)
    assert optimal_n_observer(s, 2) == pytest.approx((1.0 - 0.5) ** 2)
    assert optimal_n_observer(0.729, 3) == pytest.approx(0.001, abs=1e-15)
    # rates shrink as the chain grows
    values = [optimal_n_observer(s, n) for n in range(1, 8)]
    assert all(a > b for a, b in zip(values, values[1:]))
    # any int n up to the largest float is taken, so 1 / n is a float
    assert optimal_n_observer(s, 2**1000) == optimal_n_observer(s, int(sys.float_info.max)) == 0.0
    for n, message in ((0, "n=0 outside [1, 1.7976931348623157e+308]"),
                       (2**1100, f"n={2**1100} outside [1, 1.7976931348623157e+308]"),
                       (2.5, "n=2.5 is not an int (float)"), (True, "n=True is not an int (bool)")):
        with pytest.raises(ValueError) as refused:
            optimal_n_observer(s, n)
        assert str(refused.value) == message


def test_n_observer_rate_decreases_with_overlap():
    grid = np.linspace(0.01, 0.99, 200)
    for n in (1, 2, 3, 4):
        values = [optimal_n_observer(float(s), n) for s in grid]
        assert all(a > b for a, b in zip(values, values[1:])), n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_simulate_chain_matches_closed_form_for_small_chains(n):
    s = 0.4
    trials = 200_000
    report = simulate_chain(build_chain(s, n), trials, seed=900 + n)
    p = optimal_n_observer(s, n)
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(report.estimated_joint_probability - p) < 4 * se
    p_any = 1.0 - s
    se_any = math.sqrt(p_any * (1.0 - p_any) / trials)
    assert abs(report.at_least_one_success_count / trials - p_any) < 4 * se_any
    assert report.error_count == 0


@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1000])
def test_build_chain_schedule(n):
    # relative only (pytest's 1e-12 absolute default would pass any pair of
    # overlaps at s = 1e-300 or 1e-12)
    for s in (0.4, 1e-12, 1e-300):
        chain = build_chain(s, n)
        assert chain.q == pytest.approx(s ** (1.0 / n), rel=1e-12, abs=0)
        assert len(chain.overlaps) == n + 1 and chain.overlaps[-1] == 1.0
        built = stages(chain)
        assert len(built) == n
        for k, stage in enumerate(built):
            assert stage.s == chain.overlaps[k]
            assert stage.s == pytest.approx(s ** ((n - k) / n), rel=1e-12, abs=0)
            assert stage.q == pytest.approx(chain.q, rel=1e-12, abs=0)
        for prev, nxt in zip(built, built[1:]):
            assert prev.t == pytest.approx(nxt.s, rel=1e-12, abs=0)
        assert built[-1].t == 1.0
    # the sampler's thresholds come from the failure probabilities the
    # stages are built with
    for s in (1e-300, 1e-12, 0.3, 1.0 - 1e-6, 1.0 - 1e-12):
        chain = build_chain(s, n)
        assert tuple(stage.q for stage in stages(chain)) == chain.failures, s


@pytest.mark.parametrize("s, n", [(1.0 - 1e-15, 1000), (0.9999999999999999, 2)])
def test_build_chain_refuses_a_failure_probability_that_rounds_to_one(s, n):
    """q = s**(1/n) == 1 would give every observer but the last threshold
    0, so that none of them could succeed."""
    assert s ** (1.0 / n) == 1.0
    with pytest.raises(ValueError) as refused:
        build_chain(s, n)
    assert str(refused.value) == f"no chain of n={n} observers for s={s}: q = s**(1/n) rounds to 1"


def test_build_chain_validation():
    with pytest.raises(ValueError):
        build_chain(0.0, 2)
    # refused by message alone: a chain this long is never built
    for n, message in ((0, "n=0 outside [1, 10000]"), (True, "n=True is not an int (bool)"),
                       *((n, f"n={n} outside [1, 10000]") for n in (10001, 10**300, 2**1100))):
        with pytest.raises(ValueError) as refused:
            build_chain(0.3, n)
        assert str(refused.value) == message


@settings(max_examples=300, deadline=None)
@given(hst.floats(min_value=-16.0, max_value=-3.0), hst.integers(min_value=1, max_value=64))
@example(-12.0, 2)
@example(-11.0, 64)
@example(-16.0, 2)  # q = s**(1/2) rounds to 1
def test_build_chain_near_overlap_one(log_gap, n):
    """The last stage saturates on the overlap it is handed and outputs
    exactly 1, and every earlier stage can succeed; an s whose q or earlier
    stages round to overlap 1 is refused with the caller's s and n."""
    s = 1.0 - 10.0**log_gap
    try:
        chain = build_chain(s, n)
    except ValueError as exc:
        assert f"s={s}" in str(exc) and f"n={n}" in str(exc)
        assert 1.0 - s < 1e-12
        return
    built = stages(chain)
    assert chain.q == s ** (1.0 / n) < 1.0 and len(built) == n
    assert built[0].s == s
    for prev, nxt in zip(built, built[1:]):
        assert prev.t == nxt.s < 1.0
    last = built[-1]
    assert last.q == last.s
    assert last.t == 1.0
    for stage in built:
        assert completeness_residual(stage) <= TOL and max(zero_error_residuals(stage)) <= TOL


@pytest.mark.parametrize("s, n", [(1.0 - 1e-10, 64), (0.999999999999, 2)])
def test_near_one_chain_stages_are_positive(s, n):
    """Every stage of these chains is complete and zero-error within TOL;
    positive, since each element is A_m^T A_m."""
    for stage in stages(build_chain(s, n)):
        assert completeness_residual(stage) <= TOL and max(zero_error_residuals(stage)) <= TOL


def test_near_one_chain_pi0_determinants_are_nonnegative():
    """Every stage is complete and zero-error within TOL, and fails with
    q >= s, which is det Pi0 >= 0, for 1 - s log-spaced in [1e-12, 1e-1]."""
    for gap in np.logspace(-12, -1, 60):
        for n in (2, 64):
            for stage in stages(build_chain(1.0 - gap, n)):
                assert completeness_residual(stage) <= TOL, (gap, n)
                assert max(zero_error_residuals(stage)) <= TOL, (gap, n)
                assert stage.q >= stage.s, (gap, n)


def test_simulate_chain_matches_scalar_application():
    """The vectorized sampler must agree, trial by trial, with walking the
    chain through apply() on the same draw windows."""
    chain = build_chain(0.36, 2)
    built = stages(chain)
    trials, seed = 3000, 17
    report = simulate_chain(chain, trials, seed)
    joint = any_ok = errors = 0
    branch = {1: 0, 2: 0}
    for i in range(trials):
        u = doubles(trial_uniforms(seed, 1, 3, start_trial=i)[0])
        prep = 1 if u[0] < 0.5 else 2
        ok = []
        for k, stage in enumerate(built):
            outcome, _ = apply(stage, prep, float(u[k + 1]))
            ok.append(outcome == prep)
            errors += outcome == 3 - prep
        joint += all(ok)
        any_ok += any(ok)
        branch[prep] += all(ok)
    assert report.all_observers_success_count == joint
    assert report.at_least_one_success_count == any_ok
    assert report.error_count == errors == 0
    assert report.per_branch_success_counts == branch


def test_simulate_chain_statistics():
    s = 0.25
    chain = build_chain(s, 2)
    trials = 400_000
    report = simulate_chain(chain, trials, seed=42)
    p = (1.0 - math.sqrt(s)) ** 2
    se = math.sqrt(p * (1.0 - p) / trials)
    assert abs(report.estimated_joint_probability - p) < 4 * se
    p_any = 1.0 - s
    se_any = math.sqrt(p_any * (1.0 - p_any) / trials)
    assert abs(report.at_least_one_success_count / trials - p_any) < 4 * se_any
    assert report.error_count == 0
    total = sum(report.per_branch_success_counts.values())
    assert total == report.all_observers_success_count
    assert report.standard_error == pytest.approx(
        math.sqrt(report.estimated_joint_probability
                  * (1.0 - report.estimated_joint_probability) / trials)
    )


def test_simulate_chain_is_deterministic():
    chain = build_chain(0.5, 3)
    a = simulate_chain(chain, 20_000, seed=5)
    b = simulate_chain(chain, 20_000, seed=5)
    assert a == b
    c = simulate_chain(chain, 20_000, seed=6)
    assert c != a


def test_simulate_chain_validation():
    chain = build_chain(0.5, 2)
    with pytest.raises(ValueError):
        simulate_chain(chain, 0, seed=1)


def _chained_stages(s, n):
    """The reference chain: each stage a measurement built on the overlap
    the previous one leaves, the last the minimum-failure measurement.  A
    failure probability q that rounds to 1 is refused."""
    s = check_overlap(s)
    q = s ** (1.0 / n)
    if q == 1.0:
        raise ValueError(f"no chain of n={n} observers for s={s}: q = s**(1/n) rounds to 1")
    stages, a = [], s
    for k in range(n):
        try:
            stage = build_intermediate_ud(a, q) if k < n - 1 else build_intermediate_ud(a, a)
        except ValueError as exc:
            raise ValueError(f"no chain of n={n} observers for s={s}: stage {k + 1} {exc}") from None
        stages.append(stage)
        a = stage.t
    return stages


@settings(max_examples=100, deadline=None)
@given(hst.one_of(
    hst.floats(min_value=-323.3, max_value=-1e-3).map(lambda e: 10.0**e),
    hst.floats(min_value=-16.0, max_value=-1e-3).map(lambda e: 1.0 - 10.0**e),
), hst.integers(min_value=1, max_value=1000))
@example(5e-324, 1000)
@example(5e-324, 1)
@example(0.3, 1000)
@example(1.0 - 2.0**-52, 2)
@example(1.0 - 1e-13, 1000)  # refused at stage 902
@example(1.0 - 1e-15, 16)  # refused at stage 10
@example(1.0 - 1e-15, 1000)  # refused: q rounds to 1
@example(0.9999999999999999, 2)  # refused: q rounds to 1
def test_schedule_matches_the_chained_stages(s, n):
    """The overlap schedule gives, bit for bit, the thresholds and overlaps
    of the stages a chain of measurements leaves, and refuses the same
    (s, n) with the same message."""
    try:
        stages = _chained_stages(s, n)
    except ValueError as exc:
        with pytest.raises(ValueError) as refused:
            build_chain(s, n)
        assert str(refused.value) == str(exc)
        return
    chain = build_chain(s, n)
    assert chain.thresholds == tuple(sampling_boundaries(st.q) for st in stages)
    assert chain.overlaps == (*(st.s for st in stages), stages[-1].t)
    assert chain.overlaps[-1] == 1.0


def test_no_sampling_path_builds_a_measurement(monkeypatch):
    """Samplers read a chain's thresholds; sequential cannot build a
    measurement, and the tests' stages() builds one per observer."""
    def refuse(*args, **kwargs):
        raise AssertionError("a measurement was built")

    assert not hasattr(sequential, "build_intermediate_ud")
    monkeypatch.setattr(povm, "build_intermediate_ud", refuse)
    monkeypatch.setattr(povm.UDMeasurement, "__init__", refuse)
    assert len(build_chain(0.3, 10**4).overlaps) == 10**4 + 1
    assert simulate_chain(build_chain(0.3, 64), 10, 1).trials == 10
    for kind in ("1", "seq"):
        assert simulate_strategy(kind, 0.3, 10, 1).trials == 10
    config = SessionConfig(s=0.3, rounds=100, mode=MODE_ONE_QUBIT, eve=EVE_INTERCEPT, seed=1)
    assert run_session(config).rounds == 100
    with pytest.raises(AssertionError, match="a measurement was built"):
        stages(build_chain(0.3, 2))


def test_tally_report_as_dict_round_trip():
    chain = build_chain(0.25, 2)
    report = simulate_chain(chain, 1000, seed=1)
    d = jsonable(report)
    assert d["trials"] == 1000
    assert set(d["per_branch_success_counts"]) == {"1", "2"}
    assert d["all_observers_success_count"] == report.all_observers_success_count
