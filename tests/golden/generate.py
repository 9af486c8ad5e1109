"""Write the golden CLI fixtures in this directory.

cases() maps every case name to its argv; it is the one case table, and
`tests/test_golden.py` and the CI entry-point step read it from here.
Each case runs `seqdisc.cli.main(argv)` in-process and stores its stdout,
byte for byte, as `<name>.json` (`<name>.csv` for `curves` and for
`--format csv`, whose stdout is a table).  A case can also pin the files a
command writes: in its argv, the value after `--out`, `--svg` or
`--matrix` is the name of the fixture that file is compared with, and the
command is run with that value replaced by a scratch path.  `--out`
writes the stdout bytes, so its value is the case's own stdout fixture.
The fixtures pin the exact report bytes of the Monte Carlo commands and
the table and plot bytes of the analytic ones, so a refactor of the
sampling, classification or formatting code can be checked against them.
Regenerate only from a commit whose output is known to be right:

    PYTHONPATH=src python tests/golden/generate.py

The tier-1 test `tests/test_golden.py` reads these files; it never writes
them.  check_entry_point() runs every case through an installed command
in a subprocess, as CI does from this directory:

    python -c 'import generate, sys; sys.exit(generate.check_entry_point(["seqdisc"], "/tmp"))'
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import subprocess
import sys
import tempfile

from seqdisc.cli import main

HERE = pathlib.Path(__file__).resolve().parent

# Two seeds, each with a trial count that is not a multiple of the chunk,
# so every case ends in a partial chunk.  A chunk holds CHUNK_WORDS =
# 2^17 generated words, so a trial of at most 4 draws (one Philox block)
# gets 32768-trial chunks: 262145 = 8 * 32768 + 1 ends in a one-trial
# chunk, and 300007 = 9 * 32768 + 5095 in a 5095-trial one.
RUNS = ((7, 262_145, "0.3"), (2024, 300_007, "0.45"))
# Long draw rows.  With chunks sized by generated words (blocks of 4 per
# trial) these runs split into many chunks whose trial count depends on the
# row length, and none of the trial counts is a multiple of the chunk.
CHUNKED_RUNS = (
    ("simulate-seq-n16-seed7", ["simulate", "--kind", "seq", "--n", "16", "--s", "0.3",
                                "--trials", "100003", "--seed", "7"]),
    ("simulate-seq-n64-seed2024", ["simulate", "--kind", "seq", "--n", "64", "--s", "0.45",
                                   "--trials", "30011", "--seed", "2024"]),
    ("simulate-seq-n1000-seed11", ["simulate", "--kind", "seq", "--n", "1000", "--s", "0.3",
                                   "--trials", "3001", "--seed", "11"]),
    ("b92-two_qubit-intercept_ud-seed99", ["b92", "--s", "0.3", "--rounds", "100003",
                                           "--mode", "two_qubit", "--eve", "intercept_ud",
                                           "--seed", "99"]),
)
B92_PAIRS = (
    ("two_qubit", "none"),
    ("two_qubit", "intercept_ud"),
    ("one_qubit_sequential", "none"),
    ("one_qubit_sequential", "intercept_ud"),
)
# Options whose value is a path the command writes to.
FILE_FLAGS = ("--out", "--svg", "--matrix")


def cases() -> dict:
    out = {}
    for seed, trials, s in RUNS:
        common = ["--s", s, "--trials", str(trials), "--seed", str(seed)]
        for kind in ("1", "2", "3"):
            out[f"simulate-kind{kind}-seed{seed}"] = ["simulate", "--kind", kind, *common]
        for n in (2, 3, 8):
            out[f"simulate-seq-n{n}-seed{seed}"] = [
                "simulate", "--kind", "seq", "--n", str(n), *common]
        for mode, eve in B92_PAIRS:
            out[f"b92-{mode}-{eve}-seed{seed}"] = [
                "b92", "--s", s, "--rounds", str(trials), "--mode", mode,
                "--eve", eve, "--seed", str(seed)]
    out.update(CHUNKED_RUNS)
    # an overlap so small that a threshold, 1 - s or the cloner's
    # 1 / (1 + s), rounds to 1.0, where every draw succeeds
    tiny = ["--s", "1e-300", "--seed", "7"]
    for kind in ("1", "3"):
        out[f"simulate-kind{kind}-s1e-300-seed7"] = [
            "simulate", "--kind", kind, "--trials", "100003", *tiny]
    out["b92-one_qubit_sequential-intercept_ud-s1e-300-seed7"] = [
        "b92", "--rounds", "100003", "--mode", "one_qubit_sequential",
        "--eve", "intercept_ud", *tiny]
    out["curves-default"] = ["curves", "--svg", "curves-default.svg"]
    out["curves-steps1001"] = [
        "curves", "--s-min", "0.123", "--s-max", "0.877", "--steps", "1001",
        "--out", "curves-steps1001.csv"]
    # a grid 1e-7 wide: the irrational cells need all 12 significant digits
    out["curves-narrow"] = [
        "curves", "--s-min", "0.3", "--s-max", "0.3000001", "--steps", "9",
        "--svg", "curves-narrow.svg"]
    # the imaginary parts of the real unitary print as literal 0, never -0,
    # and the three noise fields print as 0.0: each is 1e-15 or less, far
    # under PROB_FLOOR, so no report byte depends on how U was rounded
    for label, s in (("0.42", "0.42"), ("1e-6", "1e-6"), ("1-1e-6", "0.999999"),
                     ("0.803606", "0.803606")):
        out[f"neumark-s{label}"] = [
            "neumark", "--s", s, "--matrix", f"neumark-s{label}.matrix.csv"]
    # both ends of the domain and the middle, as JSON and as CSV also
    # written with --out
    for label, s in (("1e-300", "1e-300"), ("0.3", "0.3"), ("1-1e-12", "0.999999999999")):
        for n in ("1", "2", "64"):
            name = f"optimize-s{label}-n{n}"
            out[name] = ["optimize", "--s", s, "--n", n]
            out[f"{name}-csv"] = [*out[name], "--format", "csv", "--out", f"{name}-csv.csv"]
    return out


def stdout_fixture(name: str, argv: list) -> str:
    """File name of the fixture holding a case's stdout."""
    return f"{name}.{'csv' if argv[0] == 'curves' or 'csv' in argv else 'json'}"


def written_fixtures(argv: list) -> dict:
    """Map each file option in argv to the fixture its output is compared with."""
    return {flag: argv[i + 1] for i, flag in enumerate(argv) if flag in FILE_FLAGS}


def run(argv: list, workdir) -> tuple:
    """Run one case with its output files under `workdir`.

    Returns (stdout bytes, {fixture name: written bytes}) and raises
    RuntimeError if the command exits non-zero."""
    workdir = pathlib.Path(workdir)
    files = written_fixtures(argv)
    actual = [str(workdir / argv[i]) if i and argv[i - 1] in FILE_FLAGS else arg
              for i, arg in enumerate(argv)]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(actual)
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}")
    written = {f: (workdir / f).read_bytes() for f in files.values()}
    return buf.getvalue().encode("utf-8"), written


def fixture_names(table: dict) -> set:
    """Every fixture file the cases in `table` need."""
    names = set()
    for name, argv in table.items():
        names.add(stdout_fixture(name, argv))
        names.update(written_fixtures(argv).values())
    return names


def check_entry_point(command: list, workdir):
    """Run every case as `command + argv` in a subprocess, with the files it
    writes under `workdir`, and print one ok or FAIL line per case.  A case
    passes when it exits 0 with empty stderr and its stdout and files match
    the fixtures.  Returns None, or a message naming the cases that differ."""
    workdir = pathlib.Path(workdir)
    table = cases()
    failed = []
    for name, argv in sorted(table.items()):
        files = written_fixtures(argv)
        actual = [str(workdir / a) if i and argv[i - 1] in files else a
                  for i, a in enumerate(argv)]
        done = subprocess.run([*command, *actual], capture_output=True)
        ok = done.returncode == 0 and not done.stderr
        ok = ok and done.stdout == (HERE / stdout_fixture(name, argv)).read_bytes()
        for fixture in files.values():
            ok = ok and (workdir / fixture).read_bytes() == (HERE / fixture).read_bytes()
        print("ok  " if ok else "FAIL", name, flush=True)
        failed += [] if ok else [name]
    return f"{len(failed)} of {len(table)} cases differ: {failed}" if failed else None


def generate() -> None:
    table = cases()
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv in table.items():
            stdout, written = run(argv, workdir)
            (HERE / stdout_fixture(name, argv)).write_bytes(stdout)
            for fixture, data in written.items():
                (HERE / fixture).write_bytes(data)
    print(f"wrote {len(fixture_names(table))} fixtures to {HERE}", file=sys.stderr)


if __name__ == "__main__":
    generate()
