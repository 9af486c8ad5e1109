"""Byte-level regression of the CLI reports, tables, plots and matrices.

The fixtures under tests/golden/ were written by tests/golden/generate.py
from known-good code; these tests only read them.  Every cell of a
`curves` table, and each angle a `neumark` report prints, is also
checked against its exact value in 60-digit decimal arithmetic.  The
same cases, cut short, show that every def in the package runs under
some command.
"""

import ast
import decimal
import importlib.util
import json
import math
import pathlib
import sys

import numpy as np
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


CURVES = sorted(name for name, argv in CASES.items() if argv[0] == "curves")


def exact_curve_row(s: float) -> list:
    """The `curves` columns s, p_seq, p1, p2, p3, at_least_one at the double
    s, from the paper's rates: (1 - sqrt(s))**2 sequentially, 1 - s for one
    broadcast measurement, (1 - s)**2 for two, and (1 - s)**2 / (1 + s)
    after cloning; at least one observer succeeds with 1 - s."""
    s = decimal.Decimal(s)
    return [s, (1 - s.sqrt()) ** 2, 1 - s, (1 - s) ** 2, (1 - s) ** 2 / (1 + s), 1 - s]


def within_half_a_unit(cell: str, exact) -> bool:
    """The printed cell is within half a unit of its 12th significant digit
    of the exact value, plus 1e-15 relative; a 0 only for an exact 0."""
    printed = decimal.Decimal(cell)
    half = decimal.Decimal(5).scaleb(printed.adjusted() - 12) if printed else 0
    return abs(printed - exact) <= half + abs(exact) * decimal.Decimal("1e-15")


@pytest.mark.parametrize("name", CURVES)
def test_curves_cells_match_the_rates_in_decimal(name):
    argv = CASES[name]
    flags = dict(zip(argv[1::2], argv[2::2]))
    # the grid make_curve tabulates, from the CLI's defaults 0, 1 and 101
    grid = np.linspace(float(flags.get("--s-min", 0.0)), float(flags.get("--s-max", 1.0)),
                       int(flags.get("--steps", 101)))
    header, *rows = (GOLDEN / generate.stdout_fixture(name, argv)).read_text().splitlines()
    assert header == "s,p_seq,p1,p2,p3,at_least_one" and len(rows) == len(grid)
    with decimal.localcontext(decimal.Context(prec=60)):
        for s, row in zip(grid.tolist(), rows):
            cells = row.split(",")
            exact = exact_curve_row(s)
            bad = [j for j, (c, x) in enumerate(zip(cells, exact)) if not within_half_a_unit(c, x)]
            assert len(cells) == 6 and not bad, (s, row, [exact[j] for j in bad])


NEUMARK = sorted(name for name, argv in CASES.items() if argv[0] == "neumark")


def sin_cos(x):
    """(sin x, cos x) of a Decimal x in [0, 2], summed from their Taylor series."""
    sin = cos = decimal.Decimal(0)
    term, k = decimal.Decimal(1), 0  # x**k / k!
    while term > decimal.Decimal("1e-70"):
        if k % 2:
            sin += term if k % 4 == 1 else -term
        else:
            cos += term if k % 4 == 0 else -term
        k += 1
        term = term * x / k
    return sin, cos


def exact_angle(c):
    """The theta in (0, pi/4] with cos 2 theta = c, for a Decimal c in (0, 1), by
    Newton's method from the double acos(c) / 2."""
    theta = decimal.Decimal(math.acos(float(c)) / 2)
    for _ in range(50):
        sin, cos = sin_cos(2 * theta)
        step = (cos - c) / (2 * sin)
        theta += step
        if abs(step) <= theta * decimal.Decimal("1e-55"):
            return theta
    raise AssertionError(f"no convergence for cos 2 theta = {c}")


@pytest.mark.parametrize("name", NEUMARK)
def test_neumark_angles_match_the_exact_angles_in_decimal(name):
    """theta and theta_prime, where cos 2 theta = s and cos 2 theta' = sqrt(s),
    within half a unit of their 12th digit.  s is the double the command ran
    with: the angles of its 15-digit echo are 4e-4 off at s = 1 - 1e-15."""
    text = (GOLDEN / generate.stdout_fixture(name, CASES[name])).read_text()
    report = json.loads(text, parse_float=str)
    with decimal.localcontext(decimal.Context(prec=60)):
        s = decimal.Decimal(float(report["s"]))
        for key, c in (("theta", s), ("theta_prime", s.sqrt())):
            exact = exact_angle(c)
            assert within_half_a_unit(report[key], exact), (key, report[key], exact)


def test_every_def_in_the_package_runs_under_some_command(tmp_path):
    """The cases, with trials and rounds cut to 50, and an argparse and a
    value refusal run every def in the package, methods and properties
    too: code that only tests run belongs in tests/."""
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
    assert sorted(name for key, name in defined.items() if key not in ran) == []
