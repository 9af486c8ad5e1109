"""Tests for the qubit-qutrit unitary realization."""

import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from _reference import CHAIN_OVERLAPS, chain_classes, completeness_residual, stages, zero_error_residuals
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

from seqdisc.cli import main
from seqdisc.neumark import (
    TOTAL_DIM,
    build_dilation,
    dilation_report,
    dilation_statistics,
    povm_equivalence,
)
from seqdisc.povm import build_intermediate_ud, outcome_statistics
from seqdisc.reporting import dumps_json
from seqdisc.sequential import build_chain
from seqdisc.states import make_state_pair

S_GRID = [0.04, 0.25, 0.5, 0.75, 0.9]
# the smallest double, and overlaps 1e-12 from either end of (0, 1)
S_EXTREMES = [5e-324, 1e-12, 1 - 1e-12]
# the overlaps of the neumark golden reports
S_GOLDEN = [0.42, 1e-6, 0.999999, 0.803606]


def _sin2_theta_prime(s):
    """sin(theta_prime)^2 = (1 - sqrt(s)) / 2, exactly to double precision."""
    with localcontext() as ctx:
        ctx.prec = 60
        return float((1 - Decimal(s).sqrt()) / 2)


def _dilation_columns(s):
    """The six columns of U, as lists of 60-digit Decimals, at the double s
    itself (not at a decimal literal near it, which moves 1 - sqrt(s) by up
    to 5e-17 / (1 - s) relative)."""
    with localcontext() as ctx:
        ctx.prec = 60
        s = Decimal(s)
        rs, q, two = s.sqrt(), s.sqrt().sqrt(), Decimal(2)
        gap, norm = 1 - rs, (1 + rs).sqrt()
        v1 = [two.sqrt() * q / norm, (gap / 2).sqrt() / norm, (gap / 2).sqrt() / norm]
        v2 = [Decimal(0), 1 / two.sqrt(), -1 / two.sqrt()]
        v3 = [gap.sqrt() / norm, -q / norm, -q / norm]
        norm = (2 * (1 + s)).sqrt()

        def col(a, top, b, bottom):  # a|0>top + b|1>bottom
            return [a * x for x in top] + [b * x for x in bottom]

        return [col((1 + rs) / norm, v1, gap / norm, v2),
                col(gap / norm, v1, -(1 + rs) / norm, v2),
                col(1 / two.sqrt(), v2, -1 / two.sqrt(), v1),
                col(1 / two.sqrt(), v2, 1 / two.sqrt(), v1),
                col(1, v3, 0, v3),
                col(0, v3, 1, v3)]


@pytest.mark.parametrize("s", S_GRID + S_EXTREMES)
def test_dilation_is_unitary(s):
    """U is unitary, and each entry is its closed form to a relative 2e-15,
    with exact zeros where the closed form is zero."""
    d = build_dilation(s)
    assert d.u.shape == (TOTAL_DIM, TOTAL_DIM)
    assert np.linalg.norm(d.u.T @ d.u - np.eye(TOTAL_DIM)) < 1e-12
    for j, column in enumerate(_dilation_columns(s)):
        for i, want in enumerate(column):
            got = Decimal(float(d.u[i, j]))
            assert abs(got - want) <= Decimal("2e-15") * abs(want), (i, j, got, want)
    assert d.theta == pytest.approx(0.5 * math.acos(s), abs=0)  # 7e-7 at s = 1 - 1e-12
    assert math.sin(d.theta_prime) ** 2 == pytest.approx(_sin2_theta_prime(s), rel=1e-14, abs=0.0)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hst.one_of(
    hst.floats(min_value=math.log10(5e-324), max_value=math.log10(0.5)).map(
        lambda e: max(10.0**e, 5e-324)),
    hst.floats(min_value=-15.0, max_value=math.log10(0.5)).map(lambda e: 1.0 - 10.0**e),
))
@example(5e-324)
@example(1.0 - 1e-15)
def test_printed_unitary_holds_across_the_domain(tmp_path, capsys, s):
    """The `neumark` command's 12-digit matrix is unitary and gives the
    optimal stage's ancilla statistics, and its theta_prime is exact to
    the printed digits: 12 digits leave a relative error of up to 5e-12,
    which sin^2 doubles."""
    matrix = tmp_path / "u.csv"
    assert main(["neumark", "--s", repr(s), "--matrix", str(matrix)]) == 0
    report = json.loads(capsys.readouterr().out)
    cells = np.loadtxt(matrix, delimiter=",", skiprows=1)
    assert not np.any(cells[:, 1::2])
    u = cells[:, 0::2]
    assert np.linalg.norm(u.T @ u - np.eye(TOTAL_DIM)) < 1e-11
    rs = math.sqrt(s)
    for i, psi in enumerate(make_state_pair(s), 1):
        amp = u @ np.kron(psi, [1.0, 0.0, 0.0])
        probs = amp[:3] ** 2 + amp[3:] ** 2
        want = {0: rs, i: 1.0 - rs, 3 - i: 0.0}
        assert all(abs(probs[m] - want[m]) < 1e-11 for m in range(3)), (i, probs)
    sin2 = math.sin(report["theta_prime"]) ** 2
    assert sin2 == pytest.approx(_sin2_theta_prime(s), rel=1e-11, abs=0.0)


@pytest.mark.parametrize("s", S_GRID + S_EXTREMES)
def test_dilation_reproduces_measurement_branches(s):
    """Evolving psi_i with the ancilla in |0> must put amplitude
    sqrt(1 - sqrt(s)) on ancilla outcome i and s**0.25 on outcome 0, with
    the qubit left in the conditional state phi_i on both branches (a post
    state of probability 0 comes back unnormalized, so it is normalized
    here)."""
    d = build_dilation(s)
    rs = math.sqrt(s)
    for i, phi in enumerate(make_state_pair(rs), 1):
        probs, posts = dilation_statistics(d, i)
        assert probs[i] == pytest.approx(1.0 - rs, abs=1e-12)
        assert probs[0] == pytest.approx(rs, abs=1e-12)
        assert probs[3 - i] < 1e-12
        for post in (posts[i], posts[0]):
            assert abs(post @ phi) / np.linalg.norm(post) == pytest.approx(1.0, abs=1e-12)


def test_dilation_worked_example():
    probs, _ = dilation_statistics(build_dilation(0.25), 1)
    assert probs[0] == pytest.approx(0.5, abs=1e-12)
    assert probs[1] == pytest.approx(0.5, abs=1e-12)
    assert probs[2] == pytest.approx(0.0, abs=1e-20)


@pytest.mark.parametrize("s", S_GRID + S_EXTREMES + [1e-30])
def test_povm_equivalence_residual_is_tiny(s):
    assert povm_equivalence(build_dilation(s)) < 1e-10


@pytest.mark.parametrize("s", CHAIN_OVERLAPS)
def test_the_dilation_kraus_operators_pass_the_reference_checks(s):
    """U's own Kraus operators, not the Kraus form it is compared with,
    complete to the identity, never name the wrong state on their canonical
    input, and leave the second observer of the two-observer chain a state
    it never misidentifies either (seen: at most 3.1e-16, 2.5e-32 and
    3.9e-25)."""
    d = build_dilation(s)
    assert completeness_residual(d) <= 1e-15
    assert max(zero_error_residuals(d)) <= 1e-30
    second = stages(build_chain(s, 2))[1]
    for i in (1, 2):
        assert chain_classes((d, second), i)[3] <= 1e-14


@pytest.mark.parametrize("s", [0.04, 0.3, 0.9])
def test_povm_equivalence_sees_a_wrong_conditional_state(s):
    """Negating row 3 of U (qubit 1, ancilla 0) keeps U unitary and every
    outcome probability, but leaves the mirror image of phi_i on outcome 0,
    phi_{3-i}, whose fidelity with phi_i is t^2 = s: the residual is 1 - s,
    which a comparison of the probabilities alone would miss.  Its own
    zero-error residuals stay at float noise, but the chain's second
    observer, measuring what it left, names the wrong state with
    probability 0.160, 0.248 and 0.0487 at s = 0.04, 0.3 and 0.9."""
    d = build_dilation(s)
    # negation is exact, so U @ psi rounds alike in every other entry
    tampered = d._replace(u=d.u * np.array([1, 1, 1, -1, 1, 1])[:, None])
    assert np.linalg.norm(tampered.u.T @ tampered.u - np.eye(TOTAL_DIM)) < 1e-15
    for i in (1, 2):
        assert dilation_statistics(tampered, i)[0] == dilation_statistics(d, i)[0]
    assert povm_equivalence(d) < 1e-10
    assert povm_equivalence(tampered) > 0.5 * (1.0 - s)
    # and the report's floor at PROB_FLOOR lets it through
    assert dilation_report(tampered)["equivalence_residual"] > 0.5 * (1.0 - s)
    assert max(zero_error_residuals(tampered)) < 1e-31
    second = stages(build_chain(s, 2))[1]
    for i in (1, 2):
        assert chain_classes((tampered, second), i)[3] > 0.1 * (1.0 - s)


@pytest.mark.parametrize("s", S_GRID + S_EXTREMES + S_GOLDEN)
def test_report_bytes_do_not_depend_on_the_memory_order_of_u(s):
    """The report prints each residual at or below PROB_FLOOR as 0.0, so
    its bytes are the same for U stored row-major and column-major, even
    though U @ psi and U^T U round differently in the two."""
    d = build_dilation(s)
    want = dumps_json(dilation_report(d))
    for order in "CF":
        copy = d._replace(u=np.array(d.u, order=order))
        assert copy.u.flags[f"{order}_CONTIGUOUS"]
        assert dumps_json(dilation_report(copy)) == want


@pytest.mark.parametrize("s", [0.04, 0.42, 0.9])
def test_report_floor_hides_no_fault(s):
    """One entry of U off by 1e-8 leaves a unitarity residual between
    sqrt(2) and 2 times 1e-8, far above PROB_FLOOR, and the report prints
    it."""
    d = build_dilation(s)
    assert dilation_report(d)["unitarity_residual"] == 0.0
    u = np.array(d.u)
    u[1, 2] += 1e-8
    residual = dilation_report(d._replace(u=u))["unitarity_residual"]
    assert 1.4e-8 < residual < 2.1e-8


@pytest.mark.parametrize("s", S_GRID + S_EXTREMES + S_GOLDEN)
def test_the_kraus_form_and_the_dilation_round_the_wrong_state_to_zero(s):
    """The Kraus form and the dilation read their outcome tables through
    one rule, so each gives the wrong-state outcome a probability of
    exactly 0.0, not float noise."""
    d = build_dilation(s)
    meas = build_intermediate_ud(s, math.sqrt(s))
    for i in (1, 2):
        assert dilation_statistics(d, i)[0][3 - i] == 0.0
        assert outcome_statistics(meas, i)[0][3 - i] == 0.0


def test_states_measurements_and_dilation_are_real():
    s = 0.42
    meas = build_intermediate_ud(s, math.sqrt(s))
    arrays = [*make_state_pair(s), *meas.kraus, build_dilation(s).u]
    assert all(a.dtype == np.float64 and not a.flags.writeable for a in arrays)


def test_build_dilation_domain():
    for bad in (0.0, 1.0, -0.2, 1.2):
        with pytest.raises(ValueError):
            build_dilation(bad)
    with pytest.raises(ValueError):
        dilation_statistics(build_dilation(0.5), 0)


def test_build_dilation_is_deterministic():
    assert build_dilation(0.3).u.tobytes() == build_dilation(0.3).u.tobytes()
