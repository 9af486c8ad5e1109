"""Correctness checks for every benchmark command.

Expected values come from the paper's closed forms written out here, never
from the package under test:

    chain of n observers     (1 - s^(1/n))^n
    broadcast (kind 1)       1 - s
    resend (kind 2)          (1 - s)^2
    clone (kind 3)           (1 - s)^2 / (1 + s)
    at least one succeeds    1 - s                 (every strategy)

Monte Carlo counts must lie within Z_MAX binomial standard errors of the
expectation, computed from the closed form and not from the report.
`check_command` returns a list of problems; an empty list means correct.
"""

from __future__ import annotations

import io
import json
import math
import xml.etree.ElementTree as ET

import numpy as np

Z_MAX = 5.0
# 12 significant digits in every report
REL_FMT = 1e-11
# documented accuracy of the numerically optimized p_star
P_STAR_TOL = 1e-9
RESIDUAL_TOL = 1e-9
WRONG_OUTCOME_TOL = 1e-12
CURVE_HEADER = "s,p_seq,p1,p2,p3,at_least_one"


def strategy_rate(kind: str, s: float, n: int = 2) -> float:
    """Joint success probability of one strategy."""
    if kind == "seq":
        return (1.0 - s ** (1.0 / n)) ** n
    return {"1": 1.0 - s, "2": (1.0 - s) ** 2, "3": (1.0 - s) ** 2 / (1.0 + s)}[kind]


def session_rates(s: float, mode: str, eve: str) -> dict:
    """Expected key-session rates.

    A receiver is conclusive with probability 1 - q, q = s for two qubits
    and sqrt(s) on the sequential chain, and always names the state that
    entered the measurement.  The interceptor learns the bit with
    probability 1 - s^2 (two links) or 1 - s (one link) and otherwise
    forwards a coin-flip guess, wrong half the time."""
    q = s if mode == "two_qubit" else math.sqrt(s)
    if eve == "none":
        known, wrong = 0.0, 0.0
    elif mode == "two_qubit":
        known = 1.0 - s * s
        wrong = s * s / 2.0
    else:
        known = 1.0 - s
        wrong = s / 2.0
    return {
        "both_sifted": (1.0 - q) ** 2,
        "bob_sifted": 1.0 - q,
        "charlie_sifted": 1.0 - q,
        "eve_known": known,
        "errors_bob": (1.0 - q) * wrong,
        "errors_charlie": (1.0 - q) * wrong,
    }


def _close(got, want, rel=REL_FMT, abs_tol=0.0) -> bool:
    return abs(float(got) - want) <= rel * abs(want) + abs_tol


def _count_ok(count: int, trials: int, p: float) -> bool:
    sigma = math.sqrt(trials * p * (1.0 - p))
    return abs(count - trials * p) <= Z_MAX * sigma + 1.0


def _check_simulate(cmd, text, problems):
    report = json.loads(text)
    s = float(cmd.arg("--s"))
    kind = cmd.arg("--kind")
    n = int(cmd.arg("--n", "2")) if kind == "seq" else 2
    trials = int(cmd.arg("--trials"))
    params, tally = report["params"], report["tally"]
    want_params = {"kind": kind, "n": n, "trials": trials, "seed": int(cmd.arg("--seed", "0"))}
    if {k: params.get(k) for k in want_params} != want_params or not _close(params["s"], s):
        problems.append(f"params echo {params} does not match argv")
    if tally["trials"] != trials:
        problems.append(f"tally.trials {tally['trials']} != {trials}")
    if tally["error_count"] != 0:
        problems.append(f"error_count {tally['error_count']} != 0")
    joint = tally["all_observers_success_count"]
    branch = tally["per_branch_success_counts"]
    if branch.get("1", 0) + branch.get("2", 0) != joint:
        problems.append(f"branch counts {branch} do not add up to {joint}")
    p = strategy_rate(kind, s, n)
    if not _count_ok(joint, trials, p):
        z = (joint - trials * p) / math.sqrt(trials * p * (1.0 - p))
        problems.append(f"joint count {joint} is {z:+.1f} sigma from {trials} * {p}")
    for label in ("1", "2"):
        if not _count_ok(branch.get(label, 0), trials, p / 2.0):
            problems.append(f"branch {label} count {branch.get(label)} off expectation {trials * p / 2}")
    if not _count_ok(tally["at_least_one_success_count"], trials, 1.0 - s):
        problems.append(f"at-least-one count {tally['at_least_one_success_count']} off {trials * (1 - s)}")
    p_hat = joint / trials
    if not _close(tally["estimated_joint_probability"], p_hat, abs_tol=1e-300):
        problems.append("estimated_joint_probability is not count / trials")
    if not _close(tally["standard_error"], math.sqrt(p_hat * (1.0 - p_hat) / trials), rel=1e-9, abs_tol=1e-300):
        problems.append("standard_error does not match the estimate")


def _check_b92(cmd, text, problems):
    payload = json.loads(text)
    s = float(cmd.arg("--s"))
    rounds = int(cmd.arg("--rounds"))
    mode, eve = cmd.arg("--mode"), cmd.arg("--eve", "none")
    config, report = payload["config"], payload["report"]
    if (config["mode"], config["eve"], config["rounds"]) != (mode, eve, rounds) or not _close(config["s"], s):
        problems.append(f"config echo {config} does not match argv")
    if report["rounds"] != rounds:
        problems.append(f"report.rounds {report['rounds']} != {rounds}")
    for name, p in session_rates(s, mode, eve).items():
        count = report[name]
        if not _count_ok(count, rounds, p):
            problems.append(f"{name} count {count} off expectation {rounds * p}")
        if not _close(report["rates"][name]["rate"], count / rounds, abs_tol=1e-300):
            problems.append(f"rates.{name}.rate is not {name} / rounds")
    errors = report["errors_bob"] + report["errors_charlie"]
    if eve == "none" and errors != 0:
        problems.append(f"clean line shows {errors} errors")
    if eve != "none" and (report["errors_bob"] == 0 or report["errors_charlie"] == 0):
        problems.append("interceptor left no errors at a receiver")


def _check_optimize(cmd, text, problems):
    if cmd.arg("--format") == "csv":
        header, row = text.splitlines()
        report = dict(zip(header.split(","), (float(v) for v in row.split(","))))
    else:
        report = json.loads(text)
    s = float(cmd.arg("--s"))
    n = int(cmd.arg("--n", "2"))
    closed = (1.0 - math.sqrt(s)) ** 2
    if int(report["n"]) != n or not _close(report["s"], s):
        problems.append(f"s/n echo {report['s']}/{report['n']} does not match argv")
    if not _close(report["p_star_closed_form"], closed, abs_tol=1e-300):
        problems.append(f"p_star_closed_form {report['p_star_closed_form']} != {closed}")
    if abs(report["p_star"] - closed) > P_STAR_TOL:
        problems.append(f"p_star {report['p_star']} differs from (1 - sqrt(s))^2 = {closed}")
    p_all = (1.0 - s ** (1.0 / n)) ** n
    if not _close(report["p_all_n"], p_all, abs_tol=1e-300):
        problems.append(f"p_all_n {report['p_all_n']} != {p_all}")
    if report["t_star"] != report["q_star"] or not s <= report["t_star"] <= 1.0:
        problems.append(f"t_star {report['t_star']} / q_star {report['q_star']} not equal inside [s, 1]")


def _check_unitary_csv(text, s, problems):
    lines = text.splitlines()
    want_header = ",".join(f"re{j},im{j}" for j in range(6))
    if lines[0] != want_header or len(lines) != 7:
        problems.append("unitary CSV does not have the 12-column header and 6 rows")
        return
    cells = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    if cells.shape != (6, 12):
        problems.append(f"unitary CSV has shape {cells.shape}, want (6, 12)")
        return
    u = cells[:, 0::2] + 1j * cells[:, 1::2]
    if np.linalg.norm(u.conj().T @ u - np.eye(6)) > RESIDUAL_TOL:
        problems.append("unitary CSV is not unitary")
    theta = 0.5 * math.acos(s)
    rs = math.sqrt(s)
    for i, sign in ((1, 1.0), (2, -1.0)):
        # composite index 3 * qubit + ancilla, ancilla starts in |0>
        psi = np.zeros(6, dtype=complex)
        psi[0], psi[3] = math.cos(theta), sign * math.sin(theta)
        amp = u @ psi
        probs = [abs(amp[m]) ** 2 + abs(amp[3 + m]) ** 2 for m in range(3)]
        want = {0: rs, i: 1.0 - rs, 3 - i: 0.0}
        if any(abs(probs[m] - want[m]) > RESIDUAL_TOL for m in range(3)):
            problems.append(f"unitary CSV gives ancilla statistics {probs} for state {i}")


def _check_neumark(cmd, text, files, problems):
    report = json.loads(text)
    s = float(cmd.arg("--s"))
    if not _close(report["s"], s):
        problems.append("s echo does not match argv")
    if not _close(report["theta"], 0.5 * math.acos(s)):
        problems.append(f"theta {report['theta']} != acos(s)/2")
    if not _close(report["theta_prime"], 0.5 * math.acos(math.sqrt(s))):
        problems.append(f"theta_prime {report['theta_prime']} != acos(sqrt(s))/2")
    for key in ("unitarity_residual", "equivalence_residual"):
        if not 0.0 <= report[key] <= RESIDUAL_TOL:
            problems.append(f"{key} {report[key]} above {RESIDUAL_TOL}")
    if not 0.0 <= report["max_wrong_outcome_probability"] <= WRONG_OUTCOME_TOL:
        problems.append(f"max_wrong_outcome_probability {report['max_wrong_outcome_probability']}")
    if "--matrix" in files:
        _check_unitary_csv(files["--matrix"], s, problems)


def _check_curve_csv(cmd, text, problems):
    header, _, body = text.partition("\n")
    steps = int(cmd.arg("--steps", "101"))
    if header != CURVE_HEADER:
        problems.append(f"curve CSV header {header!r}")
        return
    table = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    if table.shape != (steps, 6):
        problems.append(f"curve CSV has shape {table.shape}, want ({steps}, 6)")
        return
    s = np.linspace(float(cmd.arg("--s-min", "0")), float(cmd.arg("--s-max", "1")), steps)
    want = np.column_stack([s, (1.0 - np.sqrt(s)) ** 2, 1.0 - s, (1.0 - s) ** 2,
                            (1.0 - s) ** 2 / (1.0 + s), 1.0 - s])
    bad = np.abs(table - want) > REL_FMT * np.abs(want) + 1e-15
    if bad.any():
        row, col = np.argwhere(bad)[0]
        problems.append(f"{int(bad.sum())} curve cells off the closed forms, first at row {row} "
                        f"column {CURVE_HEADER.split(',')[col]}: {float(table[row, col])!r} vs {float(want[row, col])!r}")


def _check_curve_svg(svg, steps, problems):
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        problems.append(f"SVG does not parse: {exc}")
        return
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    counts = [len(line.get("points", "").split()) for line in lines]
    if counts != [steps] * 4:
        problems.append(f"SVG polylines have {counts} points, want 4 x {steps}")


def check_command(cmd, stdout: str, files: dict) -> list:
    """Problems with one command's stdout and output files (text keyed by
    flag).  A report that cannot be parsed is a problem, not a crash."""
    problems = []
    if cmd.files.get("--out") is not None and files.get("--out") != stdout:
        problems.append("--out file differs from stdout")
    try:
        if cmd.command == "simulate":
            _check_simulate(cmd, stdout, problems)
        elif cmd.command == "b92":
            _check_b92(cmd, stdout, problems)
        elif cmd.command == "optimize":
            _check_optimize(cmd, stdout, problems)
        elif cmd.command == "neumark":
            _check_neumark(cmd, stdout, files, problems)
        elif cmd.command == "curves":
            _check_curve_csv(cmd, stdout, problems)
            if "--svg" in cmd.files:
                _check_curve_svg(files.get("--svg", ""), int(cmd.arg("--steps", "101")), problems)
        else:
            problems.append(f"no check for command {cmd.command!r}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems
