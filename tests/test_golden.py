"""Byte-level regression of the CLI reports, tables, plots and matrices.

The fixtures under tests/golden/ were written by tests/golden/generate.py
from known-good code; these tests only read them.  The same cases, cut
short, show that every def in the package runs under some command.
"""

import ast
import importlib.util
import pathlib
import sys

import pytest

import seqdisc
from seqdisc.cli import main

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


# Defs that no command runs yet, each with the reason it stays in the package
UNREACHED = {"sequential.joint_success_analytic":
             "ROADMAP item 6 makes it the schedule rate that optimize reports"}


def test_every_def_in_the_package_runs_under_some_command(tmp_path):
    """The cases, with trials and rounds cut to 50, and an argparse and a
    value refusal run every def in the package, methods and properties
    too, but those in UNREACHED: code that only tests run belongs in tests/."""
    modules = [importlib.import_module(f"seqdisc.{p.stem}")
               for p in pathlib.Path(seqdisc.__file__).parent.glob("*.py")]
    defined = {}
    for mod in modules:
        for node in ast.walk(ast.parse(pathlib.Path(mod.__file__).read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):  # the code of a decorated def starts at @
                line = min([node.lineno, *(d.lineno for d in node.decorator_list)])
                defined[mod.__file__, line] = f"{mod.__name__.split('.')[-1]}.{node.name}"
    for cached in (f for mod in modules for f in vars(mod).values() if hasattr(f, "cache_clear")):
        cached.cache_clear()  # so that a def an earlier test ran runs again here
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for argv in CASES.values():
            generate.run([("50" if i and argv[i - 1] in ("--trials", "--rounds") else arg)
                          for i, arg in enumerate(argv)], tmp_path)
        refused = [main(["optimize", "--s", "0.3", "--n=True"]), main(["neumark", "--s", "1"])]
    finally:
        sys.setprofile(previous)
    assert refused == [2, 2]
    assert sorted(name for key, name in defined.items() if key not in ran) == sorted(UNREACHED)
