"""The README's quick start and library tour against the commands and
modules they describe, and what `import seqdisc` and `import seqdisc.cli`
load."""

import importlib
import inspect
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import seqdisc
from seqdisc.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


def tour():
    """{module name: [backticked identifiers in its bullet]} from the
    README's "Library tour" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    bullets = {}
    for bullet in re.split(r"\n- ", section)[1:]:
        module, *names = re.findall(r"`([^`]*)`", bullet)
        bullets[module] = [name for name in names if IDENTIFIER.fullmatch(name)]
    return bullets


TOUR = tour()


def quick_start():
    """{command line: the JSON shown under it} for each `$ seqdisc` example
    in the README's "Quick start" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"```sh\n\$ seqdisc ([^\n]*)\n(.*?)```", section, re.S))


QUICK_START = quick_start()


def test_quick_start_shows_both_commands():
    assert [line.split()[0] for line in QUICK_START] == ["optimize", "simulate"]


@pytest.mark.parametrize("line", sorted(QUICK_START))
def test_quick_start_example_prints_the_json_shown(line, capsys):
    assert main(shlex.split(line)) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == json.loads(QUICK_START[line]) and err == ""


def test_tour_covers_every_module_but_the_cli():
    package = pathlib.Path(seqdisc.__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "cli"}
    assert set(TOUR) == modules


@pytest.mark.parametrize("module", sorted(TOUR))
def test_tour_lists_names_under_their_defining_module(module):
    mod = importlib.import_module(f"seqdisc.{module}")
    for name in TOUR[module]:
        assert hasattr(mod, name), f"seqdisc.{module} has no {name}"
        defined_in = getattr(getattr(mod, name), "__module__", mod.__name__)
        assert defined_in == mod.__name__, f"{name} is defined in {defined_in}, not {module}"


@pytest.mark.parametrize("module", sorted(TOUR))
def test_tour_lists_every_public_function_and_class(module):
    mod = importlib.import_module(f"seqdisc.{module}")
    public = {name for name, obj in vars(mod).items()
              if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == mod.__name__}
    missing = sorted(public - set(TOUR[module]))
    assert not missing, f"the README tour's {module} bullet does not name {missing}"


def fresh_stdout(code):
    """stdout of `code` run in a new interpreter that imports this seqdisc."""
    src = str(pathlib.Path(seqdisc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_package_import_loads_every_layer_but_the_cli():
    out = fresh_stdout("import sys, seqdisc; "
                       "print(' '.join(sorted(m for m in sys.modules if m.startswith('seqdisc'))), "
                       "'numpy' in sys.modules)").split()
    assert out[:-1] == ["seqdisc"] + [f"seqdisc.{m}" for m in sorted(TOUR)]
    assert out[-1] == "True"


def test_console_script_import_loads_no_dataclasses():
    # the records are NamedTuples, so no process pays for generating their methods
    assert fresh_stdout("import sys, seqdisc.cli; print('dataclasses' in sys.modules)") == "False\n"
