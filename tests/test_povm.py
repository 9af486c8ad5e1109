"""Tests for the three-outcome discrimination measurements."""

import math

import numpy as np
import pytest
from _reference import apply, completeness_residual, stages, zero_error_residuals

from seqdisc.povm import (
    build_intermediate_ud,
    classify_uniforms,
    outcome_statistics,
    output_overlap,
    sampling_boundaries,
)
from seqdisc.sequential import build_chain
from seqdisc.states import make_state_pair

S_GRID = [0.04, 0.25, 0.5, 0.75, 0.9]

# Bound on a built measurement's completeness and zero-error residuals
TOL = 1e-10


def _q_grid(s, count=8):
    """Admissible failure probabilities for overlap s, sweeping [s, 1]."""
    return [s + (1.0 - s) * u for u in np.linspace(0.0, 1.0, count)]


@pytest.mark.parametrize("s", S_GRID + [1.0 - 1e-8])
def test_optimal_measurement_is_valid_and_exhausting(s):
    meas = build_intermediate_ud(s, s)
    assert meas.q == s
    assert meas.t == 1.0
    assert completeness_residual(meas) <= TOL and max(zero_error_residuals(meas)) <= TOL
    pi0 = meas.kraus[0].T @ meas.kraus[0]
    assert abs(np.linalg.det(pi0)) < 1e-12


@pytest.mark.parametrize("s", S_GRID)
def test_intermediate_measurements_validate_on_a_grid(s):
    for q in _q_grid(s):
        meas = build_intermediate_ud(s, q)
        assert completeness_residual(meas) <= TOL, (s, q)
        assert max(zero_error_residuals(meas)) <= TOL, (s, q)
        want_t = min(1.0, s / q)
        assert meas.t == pytest.approx(want_t, abs=1e-10)


@pytest.mark.parametrize("s", S_GRID)
def test_branch_probabilities_match_failure_targets(s):
    for q in _q_grid(s):
        meas = build_intermediate_ud(s, q)
        (fail1, p1, wrong1), _ = outcome_statistics(meas, 1)
        (fail2, wrong2, p2), _ = outcome_statistics(meas, 2)
        assert p1 == pytest.approx(1.0 - q, abs=1e-12)
        assert p2 == pytest.approx(1.0 - q, abs=1e-12)
        assert fail1 == pytest.approx(q, abs=1e-12)
        assert fail2 == pytest.approx(q, abs=1e-12)
        assert wrong1 == 0.0
        assert wrong2 == 0.0


def test_outcome_statistics_keep_tiny_success_probabilities():
    # at s = 1 - 1e-12 the first of two observers succeeds with probability
    # 1 - s**0.5 = 5.0e-13, below PROB_FLOOR; only the wrong outcome is floored
    stage = stages(build_chain(1.0 - 1e-12, 2))[0]
    (p0, p1, wrong), posts = outcome_statistics(stage, 1)
    assert p1 == pytest.approx(1.0 - stage.q, rel=1e-12, abs=0)
    assert p1 > 4e-13 and wrong == 0.0
    assert p0 == pytest.approx(stage.q, rel=1e-15)
    # the tiny identified branch still leaves a normalized state
    assert np.linalg.norm(posts[1]) == pytest.approx(1.0, abs=1e-15)
    assert apply(stage, 1, 1e-13)[0] == 1
    assert apply(stage, 2, 1e-13)[0] == 2


def test_cumulative_outcome_statistics_match_sampling_boundaries():
    # the sampler's closed-form success thresholds against the measurement's
    # own probabilities, and its pre-floor wrong-outcome mass, over chain
    # stages and the whole admissible range of q, near s = 1 too
    gaps = np.logspace(-12, -1, 60)
    built = [stage for gap in gaps for n in (2, 64) for stage in stages(build_chain(1.0 - gap, n))]
    built += [build_intermediate_ud(s, q) for s in [*S_GRID, *(1.0 - gaps)] for q in _q_grid(s)]
    for stage in built:
        assert completeness_residual(stage) <= TOL, stage
        for i in (1, 2):
            identified = outcome_statistics(stage, i)[0][i]
            assert abs(identified - sampling_boundaries(stage.q)) <= 1e-15
        assert max(zero_error_residuals(stage)) <= 1e-15


def test_output_overlap_is_the_measurements_output_overlap():
    for s in S_GRID:
        for q in _q_grid(s):
            assert output_overlap(s, q) == build_intermediate_ud(s, q).t
    assert output_overlap(0.3, 0.3) == 1.0
    for args, needle in (((1.0, 0.5), r"^input overlap s=1\.0 outside \(0, 1\)$"),
                         ((0.5, 0.0), r"^q=0\.0 outside \(0, 1\]$"),
                         ((0.5, 0.49), r"admissibility bound q >= s for s=0\.5$")):
        with pytest.raises(ValueError, match=needle):
            output_overlap(*args)


def test_validate_formulas_match_direct_matrix_values():
    # Pi0 = A0^T A0 has trace 2 (q - s^2) / (1 - s^2) and determinant
    # (q - s)(q + s) / (1 - s^2), both nonnegative exactly when q >= s
    s, q = 0.3, 0.7
    meas = build_intermediate_ud(s, q)
    pi0 = meas.kraus[0].T @ meas.kraus[0]
    one_minus_s2 = (1.0 - s) * (1.0 + s)
    assert 2.0 * (q - s * s) / one_minus_s2 == pytest.approx(np.trace(pi0), abs=1e-12)
    assert (q - s) * (q + s) / one_minus_s2 == pytest.approx(np.linalg.det(pi0), abs=1e-12)
    assert completeness_residual(meas) < 1e-15


def test_validate_flags_a_tampered_failure_operator():
    # scale A0: Pi0 grows by 2% and the elements no longer sum to the
    # identity
    meas = build_intermediate_ud(0.3, 0.6)
    bad_A0 = 1.01 * meas.kraus[0]
    tampered = meas._replace(kraus=(bad_A0, *meas.kraus[1:]))
    assert completeness_residual(tampered) > 1e-4


def test_sampled_outcome_rates_match_branch_probabilities():
    # classify_uniforms's success mask shares apply()'s cells exactly
    # (checked below), so a vectorized run stands in for a million scalar
    # applications per input
    meas = build_intermediate_ud(0.3, 0.6)
    n = 1_000_000
    rng = np.random.default_rng(2024)
    q = meas.q
    for i in (1, 2):
        assert outcome_statistics(meas, i)[0][0] == pytest.approx(q, abs=1e-15)
        u = rng.random(n)
        ok = classify_uniforms(sampling_boundaries(q), u)
        assert ok.dtype == bool and ok.shape == (n,)
        identified = int(np.count_nonzero(ok))
        failed = n - identified
        p = 1.0 - q
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(identified / n - p) <= 4.0 * se
        assert abs(failed / n - q) <= 4.0 * se


def test_kraus_operators_resolve_the_identity():
    meas = build_intermediate_ud(0.6, 0.8)
    total = sum(np.conj(a).T @ a for a in meas.kraus)
    assert np.linalg.norm(total - np.eye(2)) < 1e-12


def test_admissibility_bound_is_enforced():
    with pytest.raises(ValueError, match="admissibility"):
        build_intermediate_ud(0.5, 0.49)
    # the boundary itself is accepted, and so is q up to 1e-12 below it
    for q in (0.5, 0.5 - 1e-14):
        meas = build_intermediate_ud(0.5, q)
        assert meas.t == 1.0
        assert completeness_residual(meas) <= TOL and max(zero_error_residuals(meas)) <= TOL


@pytest.mark.parametrize("s", [0.5, 1.0 - 1e-8, 1.0 - 1e-12, 1.0 - 1e-15])
def test_a_failure_probability_just_below_s_builds_the_minimum_failure_measurement(s):
    # output_overlap caps t = s / q at 1 for q up to a relative 1e-12
    # below s; the measurement built must then fail with q = s, not with
    # the q asked for, or its identified branches outweigh 1 - s
    for r in (0.0, 1e-16, 1e-13, 9e-13):
        meas = build_intermediate_ud(s, s * (1.0 - r))
        assert meas.q == s and meas.t == 1.0, r
        for i in (1, 2):
            identified = outcome_statistics(meas, i)[0][i]
            assert identified == pytest.approx(1.0 - s, rel=1e-12, abs=0), (r, i)
        assert completeness_residual(meas) <= 1e-15, r


def test_admissibility_holds_where_the_products_underflow():
    # at s = 1e-170 both s^2 and q^2 round to 0, so only the output
    # overlap can tell admissible failure probabilities from the rest
    for q in (1e-200, 9.9e-171):
        with pytest.raises(ValueError, match="admissibility"):
            build_intermediate_ud(1e-170, q)
    for q, t in ((1e-170, 1.0), (2e-170, 0.5)):
        meas = build_intermediate_ud(1e-170, q)
        assert meas.t == t
        assert completeness_residual(meas) <= TOL and max(zero_error_residuals(meas)) <= TOL


def test_failure_probability_range_is_enforced():
    for q in (0.0, 1.2, -0.1, math.nan):
        with pytest.raises(ValueError, match=f"^q={q} outside"):
            build_intermediate_ud(0.5, q)
    # a bool, a string or None is refused by name, not read as 0 or 1
    for q in (True, False, "0.5", None):
        for build in (output_overlap, build_intermediate_ud):
            with pytest.raises(ValueError) as refused:
                build(0.3, q)
            assert str(refused.value) == f"q={q!r} is not a number"
    assert output_overlap(0.3, 1) == 0.3
    # unit failure probability is a legal extreme point: nothing is learned.
    # Each identified branch has probability exactly 0, and its state comes
    # back as the zero vector, unnormalized, not as 0 / 0
    meas = build_intermediate_ud(0.5, 1.0)
    assert meas.t == 0.5
    phi = make_state_pair(meas.t)
    for i in (1, 2):
        with np.errstate(all="raise"):
            probs, posts = outcome_statistics(meas, i)
        assert probs[i] == 0.0 and probs[0] == pytest.approx(1.0, abs=1e-15)
        assert all(np.all(np.isfinite(post)) for post in posts)
        assert not np.any(posts[i])
        assert abs(np.vdot(posts[0], phi[i - 1])) == pytest.approx(1.0, abs=1e-12)
        assert apply(meas, i, 0.0)[0] == 0


def test_degenerate_pairs_are_rejected():
    for s in (0.0, 1.0):
        with pytest.raises(ValueError):
            build_intermediate_ud(s, 0.5)


def test_apply_cells_and_post_states():
    s = 0.25
    meas = build_intermediate_ud(s, s)
    phi1, phi2 = make_state_pair(meas.t)
    # input 1: identify cell [0, 0.75), failure [0.75, 1)
    for rand, want in ((0.0, 1), (0.74, 1), (0.75, 0), (0.99, 0)):
        outcome, post = apply(meas, 1, rand)
        assert outcome == want
        # either way the qubit ends in the same conditional state
        overlap = abs(np.vdot(post, phi1))
        assert overlap == pytest.approx(1.0, abs=1e-12)
    outcome, post = apply(meas, 2, 0.5)
    assert outcome == 2
    assert abs(np.vdot(post, phi2)) == pytest.approx(1.0, abs=1e-12)


def test_apply_on_intermediate_measurement_keeps_branches_aligned():
    meas = build_intermediate_ud(0.25, 0.5)
    _, post_id = apply(meas, 1, 0.0)  # identify outcome
    _, post_fail = apply(meas, 1, 0.99)  # failure outcome
    assert abs(np.vdot(post_id, post_fail)) == pytest.approx(1.0, abs=1e-12)


def test_apply_validates_arguments():
    meas = build_intermediate_ud(0.5, 0.5)
    with pytest.raises(ValueError):
        apply(meas, 3, 0.5)
    with pytest.raises(ValueError):
        apply(meas, 1, 1.0)
    with pytest.raises(ValueError):
        apply(meas, 1, -0.01)
    with pytest.raises(ValueError):
        outcome_statistics(meas, 0)


def test_classify_uniforms_agrees_with_apply():
    meas = build_intermediate_ud(0.3, 0.6)
    rng = np.random.default_rng(99)
    u = rng.random(500)
    prep = rng.integers(1, 3, size=500).astype(np.int8)
    fast = classify_uniforms(sampling_boundaries(meas.q), u)
    for j in range(500):
        outcome, _ = apply(meas, int(prep[j]), float(u[j]))
        # apply() names the prepared state or fails, as the mask says
        assert outcome == (prep[j] if fast[j] else 0)


def _classify_reference(boundaries, prep, u):
    """The gather-and-masked-store classifier, kept as the reference: it
    returns outcome labels, which the tests turn into success masks."""
    b = boundaries[prep - 1]
    out = np.zeros(u.shape, dtype=np.int8)
    out[u < b[:, 1]] = 2
    out[u < b[:, 0]] = 1
    return out


@pytest.mark.parametrize("prep_dtype", [np.int8, np.int64])
def test_classify_uniforms_matches_masked_store_reference(prep_dtype):
    q = math.sqrt(0.3)  # both observers' failure probability at the s = 0.3 optimum
    optimal = sampling_boundaries(q)
    assert optimal == 1.0 - q
    # the reference reads thresholds (t1, t2) as the cell table
    # ((t1, t1), (0, t2)): input 1 has an empty outcome-2 cell (lo == hi),
    # input 2 an empty outcome-1 cell (lo == 0)
    levels = [0.0, 0.25, 0.3, 0.4, 0.6, 0.7, 1.0]
    pairs = [(t1, t2) for t1 in levels for t2 in levels] + [(optimal, optimal)]
    rng = np.random.default_rng(7)
    for t1, t2 in pairs:
        edges = np.array([0.0, 0.5, t1, t2])
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        values = np.concatenate([near, rng.random(64)])
        u = np.repeat(values, 2)
        prep = np.tile(np.array([1, 2], dtype=prep_dtype), len(values))
        thresholds = np.array((t1, t2))
        labels = _classify_reference(np.array(((t1, t1), (0.0, t2))), prep, u)
        # the table has no wrong-state cell, so a label is prep or 0
        want = labels == prep
        per_trial = np.take(thresholds, prep - 1)
        got = classify_uniforms(per_trial, u)
        assert got.dtype == bool
        assert np.array_equal(got, want)
        # simulators pass strided columns of the per-trial draw array
        strided = np.stack([u, u], axis=1)[:, 1]
        assert np.array_equal(classify_uniforms(per_trial, strided), want)


def test_measurement_matrices_are_read_only():
    meas = build_intermediate_ud(0.5, 0.5)
    with pytest.raises(ValueError):
        meas.kraus[0][0, 0] = 9.0
