"""Tests of the benchmark itself: `python3 -m pytest perfbench`."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from checks import check_command
from spans import Tracer, summarize
from workloads import WORKLOADS, Command, make_commands

SRC = Path(__file__).resolve().parent.parent / "src"


def _run(argv, tmp_path):
    """Run one command in process; returns (Command, stdout, files by flag)."""
    sys.path.insert(0, str(SRC))
    from seqdisc.cli import main

    files = {flag: str(tmp_path / name) for flag, name in
             (("--svg", "c.svg"), ("--matrix", "u.csv"), ("--out", "o.txt")) if flag in argv}
    argv = [a for a in argv if a not in files]
    for flag, path in files.items():
        argv += [flag, path]
    cmd = Command(tuple(argv), files)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    texts = {flag: Path(path).read_text() for flag, path in files.items()}
    return cmd, out.getvalue(), texts


CASES = [
    ["simulate", "--kind", "seq", "--s", "0.3", "--n", "3", "--trials", "20000", "--seed", "4"],
    ["simulate", "--kind", "3", "--s", "0.4", "--trials", "20000", "--seed", "2"],
    ["b92", "--s", "0.3", "--rounds", "20000", "--mode", "one_qubit_sequential", "--eve", "intercept_ud"],
    ["b92", "--s", "0.3", "--rounds", "20000", "--mode", "two_qubit", "--eve", "none"],
    ["optimize", "--s", "0.25", "--n", "5", "--format", "csv", "--out"],
    ["neumark", "--s", "0.3", "--matrix"],
    ["curves", "--s-min", "0.1", "--s-max", "0.9", "--steps", "50", "--svg"],
]


@pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
def test_checker_accepts_real_reports(argv, tmp_path):
    cmd, stdout, files = _run(argv, tmp_path)
    assert check_command(cmd, stdout, files) == []


def _corrupt_json(path, value):
    def edit(text):
        data = json.loads(text)
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value(node[path[-1]])
        return json.dumps(data)
    return edit


CORRUPTIONS = [
    (0, "stdout", _corrupt_json(["tally", "all_observers_success_count"], lambda v: v + 500)),
    (0, "stdout", _corrupt_json(["tally", "error_count"], lambda v: 1)),
    (1, "stdout", _corrupt_json(["params", "kind"], lambda v: "2")),
    (2, "stdout", _corrupt_json(["report", "errors_bob"], lambda v: 0)),
    (3, "stdout", _corrupt_json(["report", "both_sifted"], lambda v: v - 800)),
    (4, "stdout", lambda t: t.replace(",0.25,", ",0.2500001,", 1)),
    (4, "--out", lambda t: t + "\n"),
    (5, "stdout", _corrupt_json(["equivalence_residual"], lambda v: 1e-6)),
    (5, "--matrix", lambda t: t.replace("0.", "0.1", 1)),
    (6, "stdout", lambda t: t.replace("\n0.5", "\n0.5000001", 1)),
    (6, "stdout", lambda t: t.rsplit("\n", 2)[0] + "\n"),
    (6, "--svg", lambda t: t.replace("<polyline", "<polygon", 1)),
    (6, "--svg", lambda t: t[:-20]),
]


@pytest.mark.parametrize("case, target, edit", CORRUPTIONS)
def test_checker_flags_corrupted_reports(case, target, edit, tmp_path):
    cmd, stdout, files = _run(CASES[case], tmp_path)
    if target == "stdout":
        corrupted = edit(stdout)
        assert corrupted != stdout
        files = {flag: corrupted if flag == "--out" else text for flag, text in files.items()}
        stdout = corrupted
    else:
        files[target] = edit(files[target])
    assert check_command(cmd, stdout, files), "corruption went unnoticed"


def test_checker_reports_unparsable_output():
    cmd = Command(("simulate", "--kind", "1", "--s", "0.5", "--trials", "10"))
    assert check_command(cmd, "Traceback (most recent call last):\n", {})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workloads_are_deterministic_per_seed(workload):
    first = make_commands(workload, 7, "w")
    assert first == make_commands(workload, 7, "w")
    assert first != make_commands(workload, 8, "w")
    other = make_commands(workload, 8, "w")
    # sizes and the command mix do not depend on the seed
    assert [(c.command, c.trials, c.rows, sorted(c.files)) for c in first] == \
        [(c.command, c.trials, c.rows, sorted(c.files)) for c in other]


def test_known_defect_inputs_are_a_fixed_share():
    for seed in range(20):
        overlaps = [float(c.arg("--s")) for c in make_commands("analytic_cli", seed, "w")
                    if c.command == "optimize"]
        assert sum(s <= 1e-19 for s in overlaps) == 2
        assert all(0.0 < s < 1.0 for s in overlaps)
        assert not any(1e-19 < s < 1e-18 for s in overlaps)


def test_self_time_is_busy_minus_children():
    # a(0..100) -> b(10..40) -> c(15..25); a -> d(50..90); e(200..230) alone
    spans = [
        ("a", 0, 100, -1, 0, {}),
        ("b", 10, 40, 0, 0, {"cells": 3}),
        ("c", 15, 25, 1, 0, {}),
        ("d", 50, 90, 0, 0, {}),
        ("e", 200, 230, -1, 1, {}),
        ("b", 300, 305, -1, 1, {"cells": 4}),
    ]
    s = summarize(spans)
    assert s["a"]["busy_ns"] == 100 and s["a"]["self_ns"] == 100 - 30 - 40
    assert s["b"]["calls"] == 2
    assert s["b"]["busy_ns"] == 35 and s["b"]["self_ns"] == (30 - 10) + 5
    assert s["b"]["cells"] == 7
    assert s["c"]["self_ns"] == 10 and s["d"]["self_ns"] == 40 and s["e"]["self_ns"] == 30
    only_1 = summarize(spans, {1})
    assert set(only_1) == {"e", "b"} and only_1["b"]["busy_ns"] == 5


def test_tracer_wraps_where_callers_bind_and_restores(tmp_path):
    sys.path.insert(0, str(SRC))
    import seqdisc.b92 as b92
    import seqdisc.cli as cli
    import seqdisc.sequential as sequential

    original = sequential.classify_uniforms
    tracer = Tracer()
    tracer.install()
    try:
        assert sequential.classify_uniforms is not original
        assert b92.classify_uniforms is sequential.classify_uniforms
        tracer.command = 0
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["simulate", "--kind", "seq", "--s", "0.3", "--n", "3", "--trials", "1000"])
    finally:
        tracer.uninstall()
    assert sequential.classify_uniforms is original and b92.classify_uniforms is original
    s = summarize(tracer.spans)
    assert s["povm.classify_uniforms"]["calls"] == 3
    assert s["povm.classify_uniforms"]["elements"] == 3000
    assert s["sampling.trial_uniforms"]["draws"] == 4000
    assert s["sampling.trial_uniforms"]["generated"] == 4000
    assert s["sampling.chunk_ranges"]["chunks"] == 1
    assert s["cli.main"]["calls"] == 1 and s["cli.main"]["exit_2"] == 0
    chain = s["sequential.simulate_chain"]
    assert 0 <= chain["self_ns"] < chain["busy_ns"]


def test_judge_keeps_documented_exit_2_correct_but_failed():
    from run import Outcome, _judge

    cmd = Command(("optimize", "--s", "1e-30"))
    exit2 = Outcome(2, 0.1, stderr="error: optimizer drifted\n", digest="a")
    verdicts, correct = _judge([cmd], [[exit2], [exit2]])
    assert correct and all(row[0].startswith("exit 2:") for row in verdicts)

    crash = Outcome(1, 0.1, stderr="Traceback (most recent call last):\n", digest="a")
    assert _judge([cmd], [[crash]]) == ([["exit 1: Traceback (most recent call last):"]], False)

    wrong = Outcome(0, 0.1, digest="a", texts={"stdout": b'{"s": 0.5}'})
    verdicts, correct = _judge([Command(("optimize", "--s", "0.5"))], [[wrong]])
    assert not correct and verdicts[0][0]

    changed = Outcome(2, 0.1, stderr="error: optimizer drifted\n", digest="b")
    verdicts, correct = _judge([cmd], [[exit2], [changed]])
    assert not correct and verdicts[1][0] == "output differs from the first pass"
