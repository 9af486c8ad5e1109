"""Byte-level regression of the CLI reports, tables, plots and matrices.

The fixtures under tests/golden/ were written by tests/golden/generate.py
from known-good code; these tests only read them.
"""

import importlib.util
import pathlib

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_generate", GOLDEN / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)
CASES = generate.cases()

WRITES_FILES = sorted(name for name, argv in CASES.items() if generate.written_fixtures(argv))


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden_bytes(name, tmp_path):
    argv = CASES[name]
    out, _ = generate.run(argv, tmp_path)
    assert out == (GOLDEN / generate.stdout_fixture(name, argv)).read_bytes()


@pytest.mark.parametrize("name", WRITES_FILES)
def test_written_files_match_golden_bytes(name, tmp_path):
    _, written = generate.run(CASES[name], tmp_path)
    assert written
    for fixture, data in written.items():
        assert data == (GOLDEN / fixture).read_bytes(), fixture


def test_fixtures_match_the_generator():
    expected = generate.fixture_names(CASES)
    present = {p.name for p in GOLDEN.iterdir() if p.is_file()} - {"generate.py"}
    assert sorted(expected - present) == [], "cases without a fixture file"
    assert sorted(present - expected) == [], "orphan fixture files"
