"""Byte-level regression of the Monte Carlo CLI reports.

The fixtures under tests/golden/ were written by tests/golden/generate.py
from known-good code; this test only reads them.
"""

import json
import pathlib

import pytest

from seqdisc.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(name, capsys):
    code = main(list(CASES[name]))
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.json").read_bytes()
