"""End-to-end tests of the command line interface."""

import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as hst

import seqdisc
from seqdisc import sampling, sequential
from seqdisc.b92 import EVE_POLICIES, MODES
from seqdisc.cli import main
from seqdisc.reporting import round_sig
from seqdisc.sampling import MAX_DRAWS
from seqdisc.sequential import optimal_n_observer, optimize_two_observer
from seqdisc.strategies import KINDS, StrategyCurve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_optimize_json_report(capsys):
    code, out, err = run_cli(capsys, "optimize", "--s", "0.25", "--n", "3")
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["t_star"] == pytest.approx(0.5, abs=1e-8)
    assert report["q_star"] == pytest.approx(0.5, abs=1e-8)
    assert report["p_star"] == pytest.approx(0.25, abs=1e-8)
    assert report["p_star_closed_form"] == pytest.approx(0.25)
    assert report["p_all_n"] == pytest.approx((1.0 - 0.25 ** (1 / 3)) ** 3)


def test_optimize_csv_format(capsys):
    code, out, _ = run_cli(capsys, "optimize", "--s", "0.25", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 2
    header = lines[0].split(",")
    values = lines[1].split(",")
    row = dict(zip(header, values))
    assert float(row["p_star"]) == pytest.approx(0.25)


@pytest.mark.parametrize("s", ["1e-300", "1e-19", "1e-18"])
def test_optimize_accepts_tiny_overlaps(capsys, s):
    code, out, err = run_cli(capsys, "optimize", "--s", s)
    assert code == 0, err
    report = json.loads(out)
    assert report["t_star"] == report["q_star"] == round_sig(math.sqrt(float(s)))
    assert report["p_star"] == report["p_star_closed_form"]


def test_written_report_round_trips_at_output_precision(tmp_path, capsys):
    # re-reading the file reproduces the in-memory values at 12 significant
    # digits, the precision every emitter rounds to before serializing
    path = tmp_path / "opt.json"
    code, _, _ = run_cli(capsys, "optimize", "--s", "0.37", "--n", "4", "--out", str(path))
    assert code == 0
    report = json.loads(path.read_text())
    result = optimize_two_observer(0.37)
    assert report["t_star"] == round_sig(result.t_star)
    assert report["q_star"] == round_sig(result.q_star)
    assert report["p_star"] == round_sig(result.p_star)
    assert report["p_all_n"] == round_sig(optimal_n_observer(0.37, 4))


def test_simulate_rejects_zero_trials(capsys):
    code, out, err = run_cli(capsys, "simulate", "--kind", "1", "--s", "0.5",
                             "--trials", "0")
    assert code == 2
    assert out == ""
    assert "trials" in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--kind", "seq", "--s", "0.5", "--trials", "10"),
    ("simulate", "--kind", "3", "--s", "0.5", "--trials", "10"),
    ("b92", "--s", "0.5", "--rounds", "10", "--mode", "two_qubit"),
])
def test_seed_beyond_128_bits_is_named(capsys, argv):
    name = "seed" if argv[0] == "simulate" else "config field 'seed'"
    message = f"{name}={2**128} outside [0, {2**128 - 1}]"
    assert run_cli(capsys, *argv, "--seed", str(2**128)) == (2, "", f"error: {message}\n")


def test_optimize_rejects_bad_overlap(capsys):
    code, out, err = run_cli(capsys, "optimize", "--s", "1.5")
    assert code == 2
    assert out == ""
    assert "outside (0, 1)" in err


# every command that takes an overlap; b92 reads it as config field 's'
OVERLAP_COMMANDS = {
    "optimize": ["optimize", "--s", "{s}"],
    **{f"simulate-{kind}": ["simulate", "--kind", kind, "--s", "{s}", "--trials", "10"]
       for kind in ("1", "2", "3", "seq")},
    "neumark": ["neumark", "--s", "{s}"],
    "b92-flag": ["b92", "--s", "{s}", "--rounds", "10", "--mode", "two_qubit"],
    "b92-config": ["b92", "--config", "{config}"],
}


# overlaps only a config file can carry, each with how its message goes on
# after the field's name: JSON values that are no real number, and an int
# too large for a float
CONFIG_ONLY_OVERLAPS = {
    "null": (None, "=None"),
    "list": ([0.3], "=[0.3]"),
    "string": ("0.3", "='0.3'"),
    "true": (True, "=True"),
    "huge-int": (10**400, " outside (0, 1)"),
}


@pytest.mark.parametrize("s, command", [
    *((s, c) for s in ("0", "1", "-0.5", "1.5", "nan", "inf") for c in sorted(OVERLAP_COMMANDS)),
    *((s, "b92-config") for s in CONFIG_ONLY_OVERLAPS)])
def test_overlap_outside_the_open_interval_is_named(tmp_path, capsys, s, command):
    if s in CONFIG_ONLY_OVERLAPS:
        value, tail = CONFIG_ONLY_OVERLAPS[s]
    else:
        value, tail = float(s), f"={float(s)}"
    config = tmp_path / "session.json"
    config.write_text(json.dumps({"s": value, "rounds": 10, "mode": "two_qubit"}))
    argv = [a.format(s=s, config=config) for a in OVERLAP_COMMANDS[command]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    name = "config field 's'" if argv[0] == "b92" else "s"
    assert err.startswith("error: ") and err.count("\n") == 1 and name + tail in err, err


# every output file of every command; {bad} lies in a missing directory
UNWRITABLE_OUTPUTS = {
    "optimize": ["optimize", "--s", "0.3", "--out", "{bad}"],
    "optimize-csv": ["optimize", "--s", "0.3", "--format", "csv", "--out", "{bad}"],
    "curves": ["curves", "--steps", "3", "--out", "{bad}"],
    "curves-svg": ["curves", "--steps", "3", "--svg", "{bad}", "--out", "{good}"],
    "simulate": ["simulate", "--kind", "seq", "--s", "0.3", "--trials", "10", "--out", "{bad}"],
    "neumark": ["neumark", "--s", "0.3", "--out", "{bad}"],
    "neumark-matrix": ["neumark", "--s", "0.3", "--matrix", "{bad}", "--out", "{good}"],
    "b92": ["b92", "--s", "0.3", "--rounds", "10", "--mode", "two_qubit", "--out", "{bad}"],
    # an empty path is a path that cannot be opened, not an absent option
    "optimize-empty": ["optimize", "--s", "0.3", "--out", ""],
    "curves-svg-empty": ["curves", "--steps", "3", "--svg", "", "--out", "{good}"],
    "neumark-matrix-empty": ["neumark", "--s", "0.3", "--matrix", "", "--out", "{good}"],
    "b92-config-empty": ["b92", "--config", "", "--s", "0.3", "--rounds", "10",
                         "--mode", "two_qubit"],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_file_leaves_stdout_empty(tmp_path, capsys, command):
    good = tmp_path / "report.out"
    argv = [a.format(bad=tmp_path / "missing" / "x", good=good)
            for a in UNWRITABLE_OUTPUTS[command]]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("error: "), err
    assert not good.exists()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hst.floats(min_value=math.log10(5e-324), max_value=-150.0),
       hst.integers(min_value=1, max_value=64))
@example(math.log10(5e-324), 64)
@example(-163.0, 2)
def test_tiny_overlaps_give_error_free_reports(capsys, log_s, n):
    """Down to the smallest subnormal overlap every one-measurement command
    and short chain reports zero errors; a long chain may instead refuse s
    with a message naming s and n."""
    s = max(10.0**log_s, 5e-324)
    common = ["--s", repr(s), "--seed", "3"]
    for kind in ("1", "2", "3"):
        code, out, err = run_cli(capsys, "simulate", "--kind", kind, "--trials", "300", *common)
        assert code == 0, err
        assert json.loads(out)["tally"]["error_count"] == 0
    for mode in ("two_qubit", "one_qubit_sequential"):
        for eve in ("none", "intercept_ud"):
            code, out, err = run_cli(capsys, "b92", "--rounds", "300", "--mode", mode,
                                     "--eve", eve, *common)
            assert code == 0, err
            report = json.loads(out)["report"]
            assert report["errors_bob"] == report["errors_charlie"] == 0
    for chain_n in sorted({1, 2, n}):
        code, out, err = run_cli(capsys, "simulate", "--kind", "seq", "--n", str(chain_n),
                                 "--trials", "300", *common)
        if code == 0:
            assert json.loads(out)["tally"]["error_count"] == 0
        else:
            assert chain_n > 2 and code == 2
            assert f"s={s}" in err and f"n={chain_n}" in err, err


def test_curves_writes_csv_and_svg(tmp_path, capsys):
    csv_path = tmp_path / "curves.csv"
    svg_path = tmp_path / "curves.svg"
    code, out, _ = run_cli(
        capsys, "curves", "--steps", "11",
        "--out", str(csv_path), "--svg", str(svg_path),
    )
    assert code == 0
    text = csv_path.read_text()
    assert text == out
    lines = text.strip().split("\n")
    assert lines[0] == "s,p_seq,p1,p2,p3,at_least_one"
    assert len(lines) == 12
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and svg.count("<polyline") == 4


def test_curves_rejects_bad_range(capsys):
    for argv, message in (
        (["--s-min", "0.9", "--s-max", "0.1"], "need 0 <= s_min < s_max <= 1, got [0.9, 0.1]"),
        (["--s-min", "-0.5"], "s_min=-0.5 outside [0, 1]"),
        (["--s-max", "1.5"], "s_max=1.5 outside [0, 1]"),
        # refused before the grid is allocated
        (["--steps", "1000001"], "steps=1000001 outside [2, 1000000]"),
        (["--steps", str(10**13)], f"steps={10**13} outside [2, 1000000]"),
        (["--steps", "1"], "steps=1 outside [2, 1000000]"),
    ):
        assert run_cli(capsys, "curves", *argv) == (2, "", f"error: {message}\n")


def test_curves_refuses_grid_points_where_one_plus_s_rounds_to_one(tmp_path, capsys):
    out_path = tmp_path / "curves.csv"
    code, out, err = run_cli(capsys, "curves", "--s-min", "0", "--s-max", "1e-15",
                             "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "s_min=0.0" in err and "s_max=1e-15" in err and "s=1e-17" in err
    assert not out_path.exists()


def test_curves_near_one_keeps_the_strict_ordering(capsys):
    code, out, _ = run_cli(capsys, "curves", "--s-min", "0.99999999999999", "--s-max", "1")
    assert code == 0 and len(out.splitlines()) == 102


def test_simulate_is_byte_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run_cli(
            capsys, "simulate", "--kind", "seq", "--s", "0.25",
            "--trials", "50000", "--seed", "42", "--out", str(p),
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    report = json.loads(paths[0].read_text())
    assert report["params"]["seed"] == 42
    p = report["tally"]["estimated_joint_probability"]
    assert p == pytest.approx(0.25, abs=0.01)
    assert report["tally"]["error_count"] == 0


def test_simulate_seed_changes_output(capsys):
    _, out1, _ = run_cli(capsys, "simulate", "--kind", "1", "--s", "0.5",
                         "--trials", "10000", "--seed", "1")
    _, out2, _ = run_cli(capsys, "simulate", "--kind", "1", "--s", "0.5",
                         "--trials", "10000", "--seed", "2")
    assert out1 != out2


def test_simulate_rejects_n_for_non_chain_kinds(capsys):
    code, _, err = run_cli(capsys, "simulate", "--kind", "2", "--s", "0.5",
                           "--trials", "100", "--n", "3")
    assert code == 2
    assert "kind 'seq'" in err


def test_simulate_chain_length(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--kind", "seq", "--s", "0.729",
                           "--trials", "200000", "--n", "3", "--seed", "7")
    assert code == 0
    report = json.loads(out)
    se = math.sqrt(0.001 * 0.999 / 200000)
    assert abs(report["tally"]["estimated_joint_probability"] - 0.001) < 4 * se
    # refused by message, before any stage is built
    simulate = ["simulate", "--kind", "seq", "--s", "0.3", "--trials", "10"]
    # optimize takes any n whose 1 / n is a float
    for argv, n, message in (
        (simulate, 10001, "n=10001 outside [1, 10000]"),
        (simulate, 10**300, f"n={10**300} outside [1, 10000]"),
        (simulate, 2**1100, f"n={2**1100} outside [1, 10000]"),
        (simulate, 0, "n=0 outside [1, 10000]"),
        (["optimize", "--s", "0.3"], 2**1100, f"n={2**1100} outside [1, 1.7976931348623157e+308]"),
        (["optimize", "--s", "0.3", "--format", "csv"], 2**1100,
         f"n={2**1100} outside [1, 1.7976931348623157e+308]"),
    ):
        code, out, err = run_cli(capsys, *argv, "--n", str(n))
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "seq", "--n", "2", "--trials", "10"],
    ["b92", "--rounds", "10", "--mode", "one_qubit_sequential"],
])
def test_chain_whose_failure_probability_rounds_to_one_is_refused(capsys, argv):
    """At s = 1 - 2**-53, q = s**(1/2) rounds to 1: Bob could never succeed."""
    code, out, err = run_cli(capsys, *argv, "--s", "0.9999999999999999")
    assert (code, out) == (2, "")
    assert err == ("error: no chain of n=2 observers for s=0.9999999999999999: "
                   "q = s**(1/n) rounds to 1\n")


# reports whose echoed inputs need more than the 12 digits computed fields get
ROUND_TRIPS = [argv for s in ("0.9999999999999", "0.9999999999999999", "0.1234567890123")
               for argv in (["optimize", "--s", s, "--n", "3"],
                            ["optimize", "--s", s, "--n", "3", "--format", "csv"],
                            ["neumark", "--s", s],
                            ["simulate", "--kind", "1", "--s", s, "--trials", "1000", "--seed", "5"],
                            ["b92", "--s", s, "--rounds", "1000", "--mode", "two_qubit",
                             "--eve", "intercept_ud", "--seed", "5"])]
ROUND_TRIPS += [["optimize", "--s", "0.3", "--n", "10000000000000", *fmt]
                for fmt in ([], ["--format", "csv"])]
# spellings int() and float() accept: underscores, non-ASCII digits, spaces
ROUND_TRIPS += [["optimize", "--s", s, "--n", n, *fmt]
                for s, n in (("0.3", "1_0"), ("0.3", "\u0663"), ("0.3", " 4 "), ("0.3_0", "2"))
                for fmt in ([], ["--format", "csv"])]


@pytest.mark.parametrize("argv", ROUND_TRIPS, ids=" ".join)
def test_report_reruns_from_its_echoed_inputs(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    if "csv" in argv:
        header, row = out.splitlines()
        echoed = {**dict(zip(header.split(","), row.split(","))), "format": "csv"}
    else:
        report = json.loads(out)
        echoed = report.get("params") or report.get("config") or report
    # each flag of argv, with the value the report echoes for it
    rerun = [argv[0], *(x for flag in argv[1::2] for x in (flag, str(echoed[flag[2:]])))]
    assert run_cli(capsys, *rerun) == (0, out, "")


def _refuse_draws(*args):
    raise AssertionError("a draw was made")


@pytest.mark.parametrize("argv, count, draws", [
    (["simulate", "--kind", "1", "--s", "0.3", "--trials"], 2**128, 2),
    (["simulate", "--kind", "3", "--s", "0.3", "--trials"], MAX_DRAWS // 4 + 1, 4),
    (["simulate", "--kind", "seq", "--n", "10000", "--s", "0.3", "--trials"],
     MAX_DRAWS // 10001 + 1, 10001),
    (["b92", "--s", "0.3", "--mode", "two_qubit", "--rounds"], MAX_DRAWS // 3 + 1, 3),
    (["b92", "--s", "0.3", "--mode", "two_qubit", "--eve", "intercept_ud", "--rounds"],
     MAX_DRAWS // 6 + 1, 6),
    (["b92", "--s", "0.3", "--mode", "one_qubit_sequential", "--eve", "intercept_ud",
      "--rounds"], 2**128, 5),
])
def test_runs_beyond_the_draw_cap_are_refused_before_any_draw(monkeypatch, capsys, argv,
                                                              count, draws):
    monkeypatch.setattr(sampling, "trial_uniforms", _refuse_draws)
    name = "trials" if argv[0] == "simulate" else "config field 'rounds'"
    message = f"{name}={count} outside [1, {MAX_DRAWS // draws}]"
    assert run_cli(capsys, *argv, str(count)) == (2, "", f"error: {message}\n")


def test_config_file_rounds_beyond_the_draw_cap_are_refused(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sampling, "trial_uniforms", _refuse_draws)
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"s": 0.3, "rounds": 2**128, "mode": "two_qubit"}))
    code, out, err = run_cli(capsys, "b92", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: config field 'rounds'={2**128} outside [1, {MAX_DRAWS // 3}]\n"


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--s", "0.3", "--n=True"], "argument --n: invalid int value: 'True'"),
    (["simulate", "--kind", "1", "--s", "0.3", "--trials", "1e3"],
     "argument --trials: invalid int value: '1e3'"),
    (["curves", "--s-min="], "argument --s-min: invalid float value: ''"),
    (["neumark", "--s", "0x10"], "argument --s: invalid float value: '0x10'"),
    (["optimize"], "the following arguments are required: --s"),
    (["optimize", "--s", "0.3", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    (["simulate", "--kind", "4", "--s", "0.3", "--trials", "1"],
     "argument --kind: invalid choice: '4' (choose from '1', '2', '3', 'seq')"),
    ([], "the following arguments are required: command"),
])
def test_malformed_command_lines_give_one_error_line(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_internal_arithmetic_errors_are_not_reported_as_user_errors(monkeypatch, capsys):
    # exit 2 is for bad input; a ZeroDivisionError in the library is a bug
    def divide_by_zero(s):
        return s / 0

    monkeypatch.setattr(sequential, "optimize_two_observer", divide_by_zero)
    with pytest.raises(ZeroDivisionError):
        main(["optimize", "--s", "0.3"])
    assert capsys.readouterr() == ("", "")


# The CLI contract over every numeric flag: the edges of each domain,
# overlaps log-spaced toward 0 and toward 1, and strings no numeric flag
# takes.  A --trials or --rounds of 2**128 is refused by MAX_DRAWS before
# any draw, so it starts no long run.
_OVERLAPS = hst.one_of(
    hst.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.nextafter(0.0, 1.0),
                      math.nextafter(1.0, 0.0), 1.0, 1.5, -0.5, math.nan, math.inf, -math.inf]),
    hst.floats(min_value=-323.3, max_value=-1e-3).map(lambda e: 10.0**e),
    hst.floats(min_value=-16.0, max_value=-1e-3).map(lambda e: 1.0 - 10.0**e),
)
_COUNTS = [0, -1, 1, 2, 50]
# strings argparse refuses for every numeric flag; the int flags also
# refuse a float literal
_MALFORMED = ["True", "0x10", ""]
_FLOAT_FLAGS = {"--s", "--s-min", "--s-max"}
# each numeric flag: its values, the name an error message gives its
# parameter, and the domain a command that exits 0 must have accepted it from
CONTRACT_FLAGS = {
    "--s": (_OVERLAPS, r"\bs\b", lambda v: 0.0 < v < 1.0),
    "--s-min": (_OVERLAPS, r"\bs[_-]min\b", lambda v: 0.0 <= v < 1.0),
    "--s-max": (_OVERLAPS, r"\bs[_-]max\b", lambda v: 0.0 < v <= 1.0),
    "--n": (hst.sampled_from([0, -1, 1, 2, 64, 10001, 2**128, 2**1100]), r"\bn\b",
            lambda v: v >= 1),
    # a trial draws at least 2 uniforms, a round at least 3
    "--trials": (hst.sampled_from([*_COUNTS, 2**128]), r"\btrials\b",
                 lambda v: 1 <= v <= MAX_DRAWS // 2),
    "--rounds": (hst.sampled_from([*_COUNTS, 2**128]), r"\brounds\b",
                 lambda v: 1 <= v <= MAX_DRAWS // 3),
    "--steps": (hst.sampled_from([*_COUNTS, 1000001]), r"\bsteps\b", lambda v: 2 <= v <= 10**6),
    "--seed": (hst.sampled_from([0, -1, 2**128 - 1, 2**128]), r"\bseed\b",
               lambda v: 0 <= v < 2**128),
}
# per command: its required numeric flags, its optional ones, its choice
# flags, and the echoed inputs a rerun takes
CONTRACT_COMMANDS = {
    "optimize": (["--s"], ["--n"], {"--format": ("json", "csv")}, ("s", "n")),
    "curves": ([], ["--s-min", "--s-max", "--steps"], {}, ()),
    "simulate": (["--s", "--trials"], ["--n", "--seed"], {"--kind": KINDS},
                 ("kind", "s", "n", "trials", "seed")),
    "neumark": (["--s"], [], {}, ("s",)),
    "b92": (["--s", "--rounds"], ["--seed"], {"--mode": MODES, "--eve": EVE_POLICIES},
            ("s", "rounds", "mode", "eve", "seed")),
}


# b92 --config: each field of the file is absent, one of these JSON values
# or a string
_ABSENT = object()
_JSON_VALUES = [None, True, False, 0, -1, 1, 2, 2**128, 0.3, 1.0, math.nan, math.inf, -math.inf,
                "bogus", [0.3], {"a": 1}]
# each field: the values a valid file holds, and the strings drawn besides "bogus"
CONFIG_FIELDS = {
    "s": ([0.3], ["0.3"]),
    "rounds": ([1, 2], ["2"]),
    "mode": (list(MODES), list(MODES)),
    "eve": ([_ABSENT, *EVE_POLICIES], list(EVE_POLICIES)),
    "seed": ([_ABSENT, 0, 2**128 - 1], ["1"]),
}
# each entry of a drawn config: the name an error message gives it, and the
# domain a run that exits 0 must have read it from
CONFIG_ENTRIES = {
    "s": (r"config field 's'", lambda v: type(v) is float and 0.0 < v < 1.0),
    "rounds": (r"config field 'rounds'", lambda v: type(v) is int and 1 <= v <= MAX_DRAWS // 3),
    "mode": (r"config field 'mode'", lambda v: isinstance(v, str) and v in MODES),
    "eve": (r"config field 'eve'", lambda v: v is _ABSENT or isinstance(v, str) and v in EVE_POLICIES),
    "seed": (r"config field 'seed'", lambda v: v is _ABSENT or type(v) is int and 0 <= v < 2**128),
    "a": (r"unknown config field\(s\): a$", lambda v: False),
    "config file": (r"holds a JSON \w+, not a JSON object", lambda v: False),
}


@hst.composite
def contract_config(draw):
    """(["b92"], {config entry: drawn value}, file text) for a b92 run read
    from a config file: an object of valid fields, the same with one field
    drawn from anything or an unknown field added, or a JSON value that is
    not an object."""
    shape = draw(hst.sampled_from(("valid", "one entry off", "not an object")))
    if shape == "not an object":
        raw = draw(hst.sampled_from([v for v in _JSON_VALUES if not isinstance(v, dict)]))
        return ["b92"], {"config file": raw}, json.dumps(raw)
    off = draw(hst.sampled_from([*CONFIG_FIELDS, "a"])) if shape == "one entry off" else None
    values = {"a": 1} if off == "a" else {}
    for name, (valid, strings) in CONFIG_FIELDS.items():
        anything = [_ABSENT, *_JSON_VALUES, *strings]
        values[name] = draw(hst.sampled_from(anything if name == off else valid))
    return ["b92"], values, json.dumps({k: v for k, v in values.items() if v is not _ABSENT})


@hst.composite
def contract_argv(draw):
    """(argv, {numeric flag: drawn value}, None) for one of the five
    commands, with one flag malformed a quarter of the time, or, half the
    time, contract_config()'s draw."""
    if draw(hst.booleans()):
        return draw(contract_config())
    command = draw(hst.sampled_from(sorted(CONTRACT_COMMANDS)))
    required, optional, choices, _ = CONTRACT_COMMANDS[command]
    flags = required + [flag for flag in optional if draw(hst.booleans())]
    values = {flag: draw(CONTRACT_FLAGS[flag][0]) for flag in flags}
    if flags and draw(hst.integers(0, 3)) == 0:
        flag = draw(hst.sampled_from(flags))
        values[flag] = draw(hst.sampled_from(_MALFORMED + ["1e3"] * (flag not in _FLOAT_FLAGS)))
    picked = [f"{flag}={draw(hst.sampled_from(options))}" for flag, options in choices.items()]
    # --flag=value, so that argparse reads -inf and -5e-324 as values
    argv = [command, *picked, *(f"{flag}={value if isinstance(value, str) else repr(value)}"
                                for flag, value in values.items())]
    return argv, values, None


# about 300 examples of flags and 300 of config files
@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(contract_argv())
def test_every_numeric_input_gives_a_report_or_a_named_refusal(tmp_path, capsys, drawn):
    """Exit 0 with a parseable report on inputs from the documented domain,
    which reruns byte for byte from its echoed inputs, or exit 2 with one
    `error:` line naming a drawn parameter and nothing on stdout.  A b92
    run from a config file reruns from a file of its echoed config."""
    argv, values, config = drawn
    entries = CONTRACT_FLAGS if config is None else CONFIG_ENTRIES
    path = tmp_path / "session.json"
    if config is not None:
        path.write_text(config)
        argv = [*argv, f"--config={path}"]
    code, out, err = run_cli(capsys, *argv)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        # a config file's valid fields always run, so its refusal must name
        # an entry outside its domain
        assert any(re.search(entries[name][-2], err) and (config is None or not entries[name][-1](value))
                   for name, value in values.items()), err
        return
    assert (code, err) == (0, "")
    assert all(entries[name][-1](value) for name, value in values.items())
    if config is not None:
        echoed = json.loads(out)["config"]
        path.write_text(json.dumps(echoed))
        assert run_cli(capsys, "b92", f"--config={path}") == (0, out, "")
        return
    command = argv[0]
    if command == "curves":
        s_min, s_max = values.get("--s-min", 0.0), values.get("--s-max", 1.0)
        header, *rows = out.splitlines()
        grid = [float(row.split(",")[0]) for row in rows]
        assert header == ",".join(StrategyCurve._fields) and len(rows) == values.get("--steps", 101)
        assert s_min < s_max and (grid[0], grid[-1]) == (round_sig(s_min), round_sig(s_max))
        return
    if "--format=csv" in argv:
        header, row = out.splitlines()
        echoed = dict(zip(header.split(","), row.split(",")))
    else:
        report = json.loads(out)
        echoed = report.get("params") or report.get("config") or report
    assert 0.0 < float(echoed["s"]) < 1.0
    rerun = [command, *(f"--{name}={echoed[name]}" for name in CONTRACT_COMMANDS[command][3]),
             *(arg for arg in argv if arg.startswith("--format"))]
    assert run_cli(capsys, *rerun) == (0, out, "")


def test_neumark_report_and_matrix(tmp_path, capsys):
    matrix = tmp_path / "u.csv"
    code, out, _ = run_cli(capsys, "neumark", "--s", "0.5", "--matrix", str(matrix))
    assert code == 0
    report = json.loads(out)
    assert report["unitarity_residual"] < 1e-10
    assert report["equivalence_residual"] < 1e-10
    assert report["max_wrong_outcome_probability"] < 1e-12
    lines = matrix.read_text().strip().split("\n")
    assert len(lines) == 7  # header plus six rows
    assert len(lines[1].split(",")) == 12


def test_b92_config_file_with_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "session.json"
    cfg.write_text(json.dumps({"s": 0.25, "rounds": 20000, "mode": "two_qubit"}))
    code, out, _ = run_cli(capsys, "b92", "--config", str(cfg),
                           "--eve", "intercept_ud", "--seed", "5")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["eve"] == "intercept_ud"
    assert report["config"]["seed"] == 5
    assert report["config"]["s"] == 0.25
    assert report["report"]["errors_bob"] > 0


def test_b92_flags_alone_suffice(capsys):
    code, out, _ = run_cli(capsys, "b92", "--s", "0.25", "--rounds", "1000",
                           "--mode", "one_qubit_sequential")
    assert code == 0
    report = json.loads(out)
    assert report["report"]["eve_known"] == 0


def test_b92_missing_field_is_named(tmp_path, capsys):
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps({"s": 0.25, "mode": "two_qubit"}))
    code, _, err = run_cli(capsys, "b92", "--config", str(cfg))
    assert code == 2
    assert "field 'rounds'" in err


def test_b92_rejects_non_object_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("[1, 2, 3]")
    code, _, err = run_cli(capsys, "b92", "--config", str(cfg))
    assert code == 2
    assert err == f"error: config file {cfg}: holds a JSON array, not a JSON object\n"


# the long value is "s", not "rounds": where ints have no digit limit the
# file parses and still exits 2 on the overlap instead of running the rounds
UNREADABLE_CONFIGS = {
    "5001-digit-integer": b'{"s": 1' + b"0" * 5000 + b', "rounds": 10, "mode": "two_qubit"}',
    "truncated": b'{"s": 0.3, "rounds": 10, "mode": "two_qubit"',
    "not-utf-8": b'{"s": 0.3, "rounds": 10, "mode": "\xff"}',
    "nested-10**5-deep": b"[" * 10**5 + b"]" * 10**5,
    "nested-10**5-deep-in-s": b'{"s": ' + b"[" * 10**5 + b"]" * 10**5 + b"}",
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_CONFIGS))
def test_unreadable_config_file_is_named(tmp_path, capsys, case):
    cfg = tmp_path / "session.json"
    cfg.write_bytes(UNREADABLE_CONFIGS[case])
    code, out, err = run_cli(capsys, "b92", "--config", str(cfg))
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line.startswith("error: ") and str(cfg) in line


def test_missing_config_file_fails_cleanly(capsys):
    code, _, err = run_cli(capsys, "b92", "--config", "/nonexistent/nope.json")
    assert code == 2
    assert "error:" in err


def _run_module(*argv):
    """Run `python -m seqdisc.cli` in a child process, as the installed
    script does, with the package's source directory on PYTHONPATH."""
    src = str(pathlib.Path(seqdisc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "seqdisc.cli", *argv], env=env,
                          capture_output=True)


def test_module_entry_point_exit_status():
    golden = pathlib.Path(__file__).parent / "golden" / "optimize-s0.3-n2.json"
    done = _run_module("optimize", "--s", "0.3", "--n", "2")
    assert done.returncode == 0 and done.stderr == b""
    assert done.stdout == golden.read_bytes()
    done = _run_module("neumark", "--s", "1")
    assert done.returncode == 2 and done.stdout == b""
    lines = done.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: s=")
    # argparse's own refusals take the same one-line form
    done = _run_module("optimize", "--s", "0.3", "--n=True")
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr == b"error: argument --n: invalid int value: 'True'\n"
