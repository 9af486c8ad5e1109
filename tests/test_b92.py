"""Tests for the two-receiver key distribution sessions."""

import math

import numpy as np
import pytest
from _oracles import session_rate_oracle
from _reference import CHAIN_OVERLAPS, stages

from seqdisc.b92 import (
    EVE_INTERCEPT,
    EVE_NONE,
    MODE_ONE_QUBIT,
    MODE_TWO_QUBIT,
    MODES,
    SessionConfig,
    run_session,
    session_config_from_dict,
)
from seqdisc.povm import build_intermediate_ud
from seqdisc.reporting import jsonable
from seqdisc.sequential import build_chain
from seqdisc.states import make_state_pair


def _assert_within_4_sigma(report, oracle):
    n = report.rounds
    for name, want in oracle.items():
        got = report.rates[name]["rate"]
        se = math.sqrt(want * (1.0 - want) / n)
        assert abs(got - want) <= 4 * se + 1e-12, (name, got, want)


def test_config_validation_names_the_field():
    good = {"s": 0.25, "rounds": 10, "mode": MODE_TWO_QUBIT}
    assert session_config_from_dict(good) == SessionConfig(0.25, 10, MODE_TWO_QUBIT)
    cases = [
        ({}, "field 's'"),
        ({"s": 0.25}, "field 'rounds'"),
        ({"s": 0.25, "rounds": 10}, "field 'mode'"),
        ({**good, "s": 1.5}, "field 's'"),
        ({**good, "rounds": 0}, "field 'rounds'"),
        ({**good, "rounds": 1.5}, "field 'rounds'"),
        ({**good, "mode": "carrier_pigeon"}, "field 'mode'"),
        ({**good, "eve": "peek"}, "field 'eve'"),
        ({**good, "seed": -1}, "field 'seed'"),
        ({**good, "seed": 2**128}, "field 'seed'"),
        ({**good, "tirals": 5}, "tirals"),
    ]
    for raw, needle in cases:
        with pytest.raises(ValueError, match=needle):
            session_config_from_dict(raw)


@pytest.mark.parametrize("field, value", [
    ("s", 1.5), ("rounds", True), ("rounds", 2.0), ("mode", "bogus"), ("eve", "bogus"),
    ("seed", 1.7), ("seed", True)])
def test_run_session_checks_its_config(field, value):
    """A config built in code meets session_config_from_dict()'s rules, the
    ones the CLI applies: each bad field is refused by name."""
    config = SessionConfig(0.3, 1000, MODE_ONE_QUBIT, EVE_INTERCEPT, 1)._replace(**{field: value})
    with pytest.raises(ValueError, match=f"^config field '{field}'={value!r} "):
        run_session(config)


def test_single_qubit_leaks_less_than_two_qubits():
    for k in range(1, 100):
        s = k / 100.0
        one = session_rate_oracle(s, MODE_ONE_QUBIT, EVE_INTERCEPT)["eve_known"]
        two = session_rate_oracle(s, MODE_TWO_QUBIT, EVE_INTERCEPT)["eve_known"]
        assert one < two


def test_tampering_error_rates_are_positive_across_overlaps():
    # the enumeration oracle shows strictly positive conclusive error
    # rates whenever the interceptor is active, for either transport
    for s in (0.05, 0.1, 0.36, 0.5, 0.75, 0.95):
        for mode in (MODE_ONE_QUBIT, MODE_TWO_QUBIT):
            oracle = session_rate_oracle(s, mode, EVE_INTERCEPT)
            assert oracle["errors_bob"] > 0, (s, mode)
            assert oracle["errors_charlie"] > 0, (s, mode)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75])
@pytest.mark.parametrize("mode", [MODE_TWO_QUBIT, MODE_ONE_QUBIT])
def test_clean_sessions_have_no_errors(mode, s):
    config = SessionConfig(s=s, rounds=200_000, mode=mode, seed=8)
    report = run_session(config)
    assert report.errors_bob == 0
    assert report.errors_charlie == 0
    assert report.eve_known == 0
    _assert_within_4_sigma(report, session_rate_oracle(s, mode, EVE_NONE))
    # headline sift rates
    q = s if mode == MODE_TWO_QUBIT else math.sqrt(s)
    assert report.rates["both_sifted"]["rate"] == pytest.approx((1.0 - q) ** 2, abs=0.01)


def _receiver_records(s, mode, input_index) -> dict:
    """{(Bob's outcome, Charlie's outcome): probability} when Alice sends
    state `input_index` on a clean line, from the receivers' stored Kraus
    operators: in two_qubit mode each measures a copy of the state with
    build_intermediate_ud(s, s), and in one_qubit_sequential mode Bob then
    Charlie measure the one qubit with the stages of build_chain(s, 2).
    Each record leaves a pure state, so its probability is the squared
    norm of the ket the record's operators make of the sent state."""
    psi = make_state_pair(s)[input_index - 1]
    if mode == MODE_TWO_QUBIT:
        kraus = build_intermediate_ud(s, s).kraus
        return {(b, c): float(np.sum((B @ psi) ** 2) * np.sum((C @ psi) ** 2))
                for b, B in enumerate(kraus) for c, C in enumerate(kraus)}
    bob, charlie = stages(build_chain(s, 2))
    return {(b, c): float(np.sum((C @ (B @ psi)) ** 2))
            for b, B in enumerate(bob.kraus) for c, C in enumerate(charlie.kraus)}


@pytest.mark.parametrize("mode", MODES)
def test_clean_session_rates_follow_from_the_kraus_operators(mode):
    """Without an eavesdropper, the sift rates that each prepared state
    gives through the receivers' Kraus operators are the oracle's, and
    neither receiver ever names the wrong state.  Outcome m names state m,
    0 is the failure.

    In one_qubit_sequential mode Charlie fails with the probability the
    schedule stores, the double nearest s/q, and the oracle's Charlie with
    sqrt(s); the two are at most 2**-52 apart, so Charlie's rates may
    differ by that times the rate of Bob's part of the event.  Near s = 1,
    where 1 - sqrt(s) is 5e-10, that is 2e-7 of Charlie's rate; elsewhere,
    and in two_qubit mode, where both receivers fail with s itself, every
    rate holds to 1e-12."""
    for s in CHAIN_OVERLAPS:
        rates = dict.fromkeys(("both_sifted", "bob_sifted", "charlie_sifted"), 0.0)
        wrong = 0.0
        for i in (1, 2):
            for (b, c), p in _receiver_records(s, mode, i).items():
                rates["both_sifted"] += p / 2 * (b == c == i)
                rates["bob_sifted"] += p / 2 * (b == i)
                rates["charlie_sifted"] += p / 2 * (c == i)
                wrong += p / 2 * (3 - i in (b, c))
        oracle = session_rate_oracle(s, mode, EVE_NONE)
        slack = {"both_sifted": 2**-52 * oracle["bob_sifted"], "bob_sifted": 0.0,
                 "charlie_sifted": 2**-52}
        for name, rate in rates.items():
            allowed = slack[name] if mode == MODE_ONE_QUBIT else 0.0
            assert rate == pytest.approx(oracle[name], rel=1e-12, abs=allowed), (s, name)
        assert 0.0 <= wrong <= 1e-14, s


@pytest.mark.parametrize("mode", [MODE_TWO_QUBIT, MODE_ONE_QUBIT])
def test_intercepted_sessions_match_the_oracle(mode):
    config = SessionConfig(s=0.36, rounds=200_000, mode=mode, eve=EVE_INTERCEPT, seed=21)
    report = run_session(config)
    # every rate, eve_known included, within 4 sigma of the oracle
    oracle = session_rate_oracle(0.36, mode, EVE_INTERCEPT)
    _assert_within_4_sigma(report, oracle)
    # tampering must be visible: strictly positive conclusive error rates
    assert oracle["errors_bob"] > 0
    assert report.errors_bob > 0
    assert report.errors_charlie > 0


def test_oracle_closed_forms():
    # spot-check the enumeration against hand arithmetic at s = 0.36
    s = 0.36
    seq = session_rate_oracle(s, MODE_ONE_QUBIT, EVE_INTERCEPT)
    rs = math.sqrt(s)
    assert seq["errors_bob"] == pytest.approx(s * (1.0 - rs) / 2)
    assert seq["errors_charlie"] == pytest.approx(s * (1.0 - rs) / 2)
    assert seq["both_sifted"] == pytest.approx((1.0 - rs) ** 2)
    assert seq["eve_known"] == pytest.approx(1.0 - s)
    two = session_rate_oracle(s, MODE_TWO_QUBIT, EVE_INTERCEPT)
    assert two["errors_bob"] == pytest.approx(s * s * (1.0 - s) / 2)
    assert two["eve_known"] == pytest.approx(1.0 - s * s)
    assert two["both_sifted"] == pytest.approx((1.0 - s) ** 2)


def test_sessions_are_deterministic():
    config = SessionConfig(s=0.5, rounds=30_000, mode=MODE_ONE_QUBIT, eve=EVE_INTERCEPT, seed=4)
    assert run_session(config) == run_session(config)


def test_report_consistency():
    config = SessionConfig(s=0.5, rounds=50_000, mode=MODE_TWO_QUBIT, eve=EVE_INTERCEPT, seed=2)
    r = run_session(config)
    assert r.both_sifted <= min(r.bob_sifted, r.charlie_sifted)
    assert r.errors_bob <= r.bob_sifted
    d = jsonable(r)
    assert d["rates"]["both_sifted"]["rate"] == pytest.approx(r.both_sifted / r.rounds)
