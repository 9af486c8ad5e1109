"""Acceptance gate: the eight headline checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they pass; `pytest -v` shows the same information through the test names.

The zero-error criterion is cumulative: every Monte Carlo run in this
module registers its trial count in a module ledger, together with the
largest wrong-state probability |A_i psi_j|^2 (i != j) that
_reference.zero_error_residuals() reads from the Kraus operators of the
measurements the run samples.  The sampler cannot name the wrong state, so
a misidentification count would be zero by construction; the residuals
are the evidence that can fail.  The final test demands at
least ten million registered trials and a largest residual of at most
ZERO_ERROR_BOUND.
"""

import json
import math
import time

import numpy as np
import pytest
from _oracles import session_rate_oracle
from _reference import completeness_residual, stages, zero_error_residuals

from seqdisc.b92 import (
    EVE_INTERCEPT,
    MODE_ONE_QUBIT,
    MODE_TWO_QUBIT,
    SessionConfig,
    run_session,
)
from seqdisc.cli import main as cli_main
from seqdisc.neumark import build_dilation, dilation_statistics, povm_equivalence
from seqdisc.povm import build_intermediate_ud
from seqdisc.sequential import build_chain, optimize_two_observer, simulate_chain
from seqdisc.states import make_state_pair
from seqdisc.strategies import (
    make_curve,
    simulate_strategy,
    strategy1,
    strategy2,
    strategy3,
    strategy_seq,
)

LEDGER = {"trials": 0, "residual": 0.0}

# Largest wrong-state probability allowed in a sampled or grid-built
# measurement; the same bound as test_povm's sweep of chain stages near s = 1.
ZERO_ERROR_BOUND = 1e-15

# Bound on a measurement's completeness residual, and a zero-error bound
# far looser than the ledger's
TOL = 1e-10


def _zero_error_residual(measurements):
    """Largest zero_error_residuals() entry over `measurements`."""
    return max(max(zero_error_residuals(m)) for m in measurements)


def _sampled(s, sequential):
    """The measurements a run at overlap s samples: the two-observer chain's
    stages, or the minimum-failure measurement (also Eve's)."""
    return stages(build_chain(s, 2)) if sequential else (build_intermediate_ud(s, s),)


def _register(trials, measurements):
    LEDGER["trials"] += trials
    LEDGER["residual"] = max(LEDGER["residual"], _zero_error_residual(measurements))


def _verdict(label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def test_criterion_1_two_observer_optimum():
    started = time.perf_counter()
    ok = True
    for s in np.linspace(0.011, 0.989, 100):
        result = optimize_two_observer(float(s))
        ok &= abs(result.p_star - (1.0 - math.sqrt(s)) ** 2) <= 1e-8
    trials = 1_000_000
    for s in (0.1, 0.25, 0.5, 0.75):
        chain = build_chain(s, 2)
        report = simulate_chain(chain, trials, seed=101)
        _register(report.trials, stages(chain))
        p = (1.0 - math.sqrt(s)) ** 2
        se = math.sqrt(p * (1.0 - p) / trials)
        ok &= abs(report.estimated_joint_probability - p) <= 4 * se
    elapsed = time.perf_counter() - started
    ok &= elapsed < 30.0
    _verdict(
        f"criterion 1: optimizer matches (1-sqrt(s))^2 on 100 overlaps and "
        f"10^6-trial runs land within 4 sigma ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_2_measurement_grid():
    ok = True
    for s in np.linspace(0.02, 0.98, 50):
        for u in np.linspace(0.0, 1.0, 50):
            q = s + (1.0 - s) * u
            meas = build_intermediate_ud(float(s), float(q))
            ok &= completeness_residual(meas) <= TOL
            ok &= _zero_error_residual([meas]) <= ZERO_ERROR_BOUND
            got_t = float(np.vdot(*make_state_pair(meas.t)).real)
            ok &= abs(got_t - s / q) <= 1e-10
    for s, q in ((0.5, 0.49), (0.9, 0.89), (0.2, 0.1)):
        try:
            build_intermediate_ud(s, q)
            ok = False
        except ValueError:
            pass
    _verdict(
        "criterion 2: 50x50 (s, q) grid of builds is complete, with wrong-state residuals "
        f"<= {ZERO_ERROR_BOUND:g} and output overlap s/q; inadmissible builds rejected",
        ok,
    )


def test_criterion_4_strategy_comparison():
    curve = make_curve(steps=1000)
    inner = slice(1, -1)
    ok = bool(
        np.all(curve.p1[inner] > curve.p2[inner])
        and np.all(curve.p2[inner] > curve.p3[inner])
        and np.all(curve.p3[inner] > curve.p_seq[inner])
    )
    ok &= abs(strategy1(0.25) - 0.75) < 1e-12
    ok &= abs(strategy2(0.25) - 0.5625) < 1e-12
    ok &= abs(strategy3(0.25) - 0.45) < 1e-12
    ok &= abs(strategy_seq(0.25) - 0.25) < 1e-12
    ok &= bool(np.all(curve.at_least_one == 1.0 - curve.s))
    trials, s = 1_000_000, 0.25
    p_any = 1.0 - s
    se = math.sqrt(p_any * (1.0 - p_any) / trials)
    for kind in ("1", "2", "3", "seq"):
        report = simulate_strategy(kind, s, trials, seed=77)
        _register(report.trials, _sampled(s, kind == "seq"))
        ok &= abs(report.at_least_one_success_count / trials - p_any) <= 4 * se
    _verdict(
        "criterion 4: strict ordering p1 > p2 > p3 > p_seq at 1000 points, "
        "closed forms 0.75/0.5625/0.45/0.25 at s=0.25, tabulated at-least-one "
        "column 1-s, and at-least-one rate 1-s for all four strategies",
        ok,
    )


def test_criterion_5_three_observer_law():
    s, trials = 0.729, 1_000_000
    chain = build_chain(s, 3)
    report = simulate_chain(chain, trials, seed=55)
    _register(report.trials, stages(chain))
    p = 0.001
    se = math.sqrt(p * (1.0 - p) / trials)
    ok = abs(report.estimated_joint_probability - p) <= 4 * se
    # exhaustive scan of equal-failure schedules: overlaps s <= r1 <= r2 <= 1
    r1, r2 = np.meshgrid(np.linspace(s, 1.0, 600), np.linspace(s, 1.0, 600))
    joint = (1.0 - s / r1) * (1.0 - r1 / r2) * (1.0 - r2)
    joint[r1 > r2] = -1.0
    ok &= float(joint.max()) <= (1.0 - s ** (1.0 / 3.0)) ** 3 + 1e-6
    _verdict(
        "criterion 5: n=3 chain at s=0.729 estimates 0.001 within 4 sigma and "
        "no equal-failure two-parameter schedule beats (1-s^(1/3))^3",
        ok,
    )


def test_criterion_6_unitary_realization():
    ok = True
    for s in np.linspace(0.02, 0.98, 50):
        d = build_dilation(float(s))
        ok &= float(np.linalg.norm(d.u.conj().T @ d.u - np.eye(6))) < 1e-10
        ok &= povm_equivalence(d) < 1e-10
        probs1, _ = dilation_statistics(d, 1)
        probs2, _ = dilation_statistics(d, 2)
        ok &= probs1[2] < 1e-12 and probs2[1] < 1e-12
    _verdict(
        "criterion 6: unitarity and measurement-equivalence residuals below "
        "1e-10 for 50 overlaps, wrong-outcome probability below 1e-12",
        ok,
    )


def test_criterion_7_key_distribution():
    s, rounds = 0.36, 1_000_000
    ok = True
    # clean lines: sift rates and exact zero errors
    for mode, want_both in (
        (MODE_TWO_QUBIT, (1.0 - s) ** 2),
        (MODE_ONE_QUBIT, (1.0 - math.sqrt(s)) ** 2),
    ):
        report = run_session(SessionConfig(s=s, rounds=rounds, mode=mode, seed=303))
        _register(report.rounds, _sampled(s, mode == MODE_ONE_QUBIT))
        se = math.sqrt(want_both * (1.0 - want_both) / rounds)
        ok &= abs(report.rates["both_sifted"]["rate"] - want_both) <= 4 * se
        ok &= report.errors_bob == 0 and report.errors_charlie == 0
    # intercepted lines: knowledge and error rates against the enumeration oracle
    for mode in (MODE_TWO_QUBIT, MODE_ONE_QUBIT):
        config = SessionConfig(s=s, rounds=rounds, mode=mode, eve=EVE_INTERCEPT, seed=404)
        report = run_session(config)
        _register(report.rounds, _sampled(s, mode == MODE_ONE_QUBIT))
        oracle = session_rate_oracle(s, mode, EVE_INTERCEPT)
        for name in ("eve_known", "errors_bob", "errors_charlie", "both_sifted"):
            want = oracle[name]
            se = math.sqrt(want * (1.0 - want) / rounds)
            ok &= abs(report.rates[name]["rate"] - want) <= 4 * se
        ok &= report.errors_bob > 0 and report.errors_charlie > 0
    _verdict(
        "criterion 7: sift rates (1-s)^2 and (1-sqrt(s))^2 within 4 sigma; "
        "intercept knowledge 1-s^2 / 1-s and error rates match the "
        "enumeration oracle",
        ok,
    )


def test_criterion_8_cli_determinism(tmp_path, capsys):
    commands = [
        ["optimize", "--s", "0.49", "--n", "4"],
        ["curves", "--steps", "41"],
        ["simulate", "--kind", "seq", "--s", "0.25", "--trials", "40000", "--seed", "9"],
        ["simulate", "--kind", "3", "--s", "0.7", "--trials", "40000", "--seed", "9"],
        ["neumark", "--s", "0.81"],
        ["b92", "--s", "0.36", "--rounds", "40000", "--mode", "one_qubit_sequential",
         "--eve", "intercept_ud", "--seed", "13"],
    ]
    ok = True
    for idx, argv in enumerate(commands):
        outputs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{idx}{rep}.txt"
            extra = ["--out", str(out)]
            if argv[0] == "curves":
                extra += ["--svg", str(tmp_path / f"{idx}{rep}.svg")]
            if argv[0] == "neumark":
                extra += ["--matrix", str(tmp_path / f"{idx}{rep}.csv")]
            code = cli_main(argv + extra)
            capsys.readouterr()
            ok &= code == 0
            blob = out.read_bytes()
            for suffix in (".svg", ".csv"):
                side = tmp_path / f"{idx}{rep}{suffix}"
                if side.exists():
                    blob += side.read_bytes()
            outputs.append(blob)
        ok &= outputs[0] == outputs[1]
    # determinism must not come from constant output: a different seed moves it
    code = cli_main(["simulate", "--kind", "seq", "--s", "0.25", "--trials",
                     "40000", "--seed", "10", "--out", str(tmp_path / "alt.json")])
    capsys.readouterr()
    ok &= code == 0
    first = json.loads((tmp_path / "2a.txt").read_text())
    alt = json.loads((tmp_path / "alt.json").read_text())
    ok &= first["tally"] != alt["tally"]
    _verdict(
        "criterion 8: every CLI command repeated with the same seed writes "
        "byte-identical files",
        ok,
    )


def test_zero_error_ledger_flags_a_tampered_measurement():
    meas = build_intermediate_ud(0.36, 0.36)
    assert _zero_error_residual([meas]) <= ZERO_ERROR_BOUND
    # rotate A1 into A0 so that Pi1 answers psi2 with probability
    # sin^2(e) |A0 psi2|^2 = 1e-12; the rotation keeps completeness, so
    # both residuals stay within TOL, but the ledger's bound does not
    A0, A1, A2 = meas.kraus
    e = math.asin(math.sqrt(1e-12 / meas.q))
    rotated = (math.cos(e) * A0 - math.sin(e) * A1, math.cos(e) * A1 + math.sin(e) * A0, A2)
    tampered = meas._replace(kraus=rotated)
    assert completeness_residual(tampered) <= TOL
    assert max(zero_error_residuals(tampered)) <= TOL
    assert _zero_error_residual([tampered]) > ZERO_ERROR_BOUND


def test_criterion_3_zero_errors_overall():
    if LEDGER["trials"] == 0:
        pytest.skip("cumulative check; run the whole acceptance module")
    ok = LEDGER["trials"] >= 10_000_000 and LEDGER["residual"] <= ZERO_ERROR_BOUND
    _verdict(
        f"criterion 3: {LEDGER['trials']:,} registered Monte Carlo trials sampled "
        f"measurements whose largest wrong-state probability is {LEDGER['residual']:.3g}",
        ok,
    )
