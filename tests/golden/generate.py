"""Write the golden CLI fixtures in this directory.

Each case runs `seqdisc.cli.main(argv)` in-process and stores its stdout,
byte for byte, as `<name>.json`; `cases.json` maps every name to its argv.
The fixtures pin the exact report bytes of the Monte Carlo commands, so a
refactor of the sampling or classification code can be checked against
them.  Regenerate only from a commit whose output is known to be right:

    PYTHONPATH=src python tests/golden/generate.py

The tier-1 test `tests/test_golden.py` reads these files; it never writes
them.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

from seqdisc.cli import main

HERE = pathlib.Path(__file__).resolve().parent

# Two seeds, each with a trial count that is not a multiple of the 2^18
# chunk size, so every case ends in a partial chunk.
RUNS = ((7, 262_145, "0.3"), (2024, 300_007, "0.45"))
B92_PAIRS = (
    ("two_qubit", "none"),
    ("two_qubit", "intercept_ud"),
    ("one_qubit_sequential", "none"),
    ("one_qubit_sequential", "intercept_ud"),
)


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
    return out


def run(argv: list) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return buf.getvalue().encode("utf-8")


def generate() -> None:
    table = cases()
    for name, argv in table.items():
        (HERE / f"{name}.json").write_bytes(run(argv))
    (HERE / "cases.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} fixtures to {HERE}", file=sys.stderr)


if __name__ == "__main__":
    generate()
