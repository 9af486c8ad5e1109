"""Seeded command lists for the three benchmark workloads.

A workload is a fixed list of `seqdisc` invocations.  The workload seed
draws every overlap `s`, chain length and program `--seed`; sizes (trials,
rounds, grid steps) are constants, so the work per pass is the same for
every seed and only the numbers fed to the program change.

- chain_mc: `simulate --kind seq` for n in {2, 4, 8, 16}, trials scaled as
  1/n so each command classifies about the same number of draws.  It drives
  the Monte Carlo hot path: Philox fill, classification, tally.
- key_mc: `b92` in every mode/eavesdropper combination plus
  `simulate --kind 1|2|3`.  The same sampling and classification layers
  with 2 to 6 draws per trial and the three other chunk loops.
- analytic_cli: short `optimize` commands over the whole domain 0 < s < 1,
  `neumark` with and without `--matrix`, and large `curves` runs.  No Monte
  Carlo: start-up, closed forms and text output.

The `optimize` inputs with s <= 1e-19 hit the known optimizer-drift defect
(exit status 2) and are kept on purpose, a fixed number per pass, so the
failure count is the same for every seed and can only go down.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("chain_mc", "key_mc", "analytic_cli")

# Classified draws per chain command: trials = CHAIN_ELEMENTS / n.
CHAIN_ELEMENTS = 8_000_000
CHAIN_NS = (2, 4, 8, 16)
# Rounds or trials per key_mc command, sized so every command takes about
# as long as the others: the per-command median then falls among commands
# of similar length instead of between two groups.
B92_ROUNDS = {
    ("two_qubit", "none"): 2_400_000,
    ("two_qubit", "intercept_ud"): 1_200_000,
    ("one_qubit_sequential", "none"): 2_400_000,
    ("one_qubit_sequential", "intercept_ud"): 1_500_000,
}
STRATEGY_TRIALS = {"1": 3_600_000, "2": 2_700_000, "3": 2_700_000}
CURVE_STEPS = (60_000, 40_000, 40_000)

# Optimizer inputs known to fail today (the search drifts from the closed
# form and the CLI exits 2): log-uniform in [DEFECT_LO, DEFECT_HI].  The
# ordinary strata start at ORDINARY_LO, above the band (1e-19, 4e-19) where
# the drift appears for some inputs only.
DEFECT_LO, DEFECT_HI = 1e-300, 1e-19
ORDINARY_LO = 1e-18


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what the checker and metrics need to know.

    `files` maps an output flag (`--out`, `--svg`, `--matrix`) to the path
    passed with it.  `trials` counts Monte Carlo trials or key rounds and
    `rows` curve grid rows rendered to CSV or SVG."""

    argv: tuple
    files: dict = field(default_factory=dict)
    trials: int = 0
    rows: int = 0

    @property
    def command(self) -> str:
        return self.argv[0]

    def arg(self, flag: str, default=None):
        """Value following `flag` in argv, or `default` when absent."""
        if flag in self.argv:
            return self.argv[self.argv.index(flag) + 1]
        return default


def _s(x: float) -> str:
    return f"{x:.6g}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _with_files(argv: list, workdir: str, files: dict) -> tuple:
    paths = {flag: f"{workdir}/{name}" for flag, name in files.items()}
    for flag, path in paths.items():
        argv += [flag, path]
    return tuple(argv), paths


def _chain_mc(rng: random.Random, workdir: str) -> list:
    cmds = []
    for n in CHAIN_NS:
        for _ in range(2):
            trials = CHAIN_ELEMENTS // n
            argv = ["simulate", "--kind", "seq", "--s", _s(rng.uniform(0.25, 0.55)),
                    "--n", str(n), "--trials", str(trials),
                    "--seed", str(rng.randrange(2**32))]
            cmds.append(Command(tuple(argv), trials=trials))
    return cmds


def _key_mc(rng: random.Random, workdir: str) -> list:
    cmds = []
    for (mode, eve), rounds in B92_ROUNDS.items():
        argv = ["b92", "--s", _s(rng.uniform(0.2, 0.5)), "--rounds", str(rounds),
                "--mode", mode, "--eve", eve, "--seed", str(rng.randrange(2**32))]
        cmds.append(Command(tuple(argv), trials=rounds))
    for kind, trials in STRATEGY_TRIALS.items():
        argv = ["simulate", "--kind", kind, "--s", _s(rng.uniform(0.2, 0.5)),
                "--trials", str(trials), "--seed", str(rng.randrange(2**32))]
        cmds.append(Command(tuple(argv), trials=trials))
    return cmds


def _optimize_overlaps(rng: random.Random) -> list:
    """Two known-defect inputs, seven log-spaced strata from 1e-18 to 0.5,
    and three close to 1 (1 - s log-spaced down to 1e-12)."""
    values = [_log_uniform(rng, DEFECT_LO, DEFECT_HI) for _ in range(2)]
    edges = [ORDINARY_LO * (0.5 / ORDINARY_LO) ** (k / 7) for k in range(8)]
    values += [_log_uniform(rng, lo, hi) for lo, hi in zip(edges, edges[1:])]
    values += [1.0 - _log_uniform(rng, lo, hi) for lo, hi in ((1e-4, 0.5), (1e-8, 1e-4), (1e-12, 1e-8))]
    return values


def _analytic_cli(rng: random.Random, workdir: str) -> list:
    cmds = []
    for i, s in enumerate(_optimize_overlaps(rng)):
        argv = ["optimize", "--s", repr(s), "--n", str(round(_log_uniform(rng, 2, 64)))]
        if i % 2:
            argv += ["--format", "csv"]
        files = {"--out": f"optimize{i}.txt"} if i % 4 == 3 else {}
        argv, paths = _with_files(argv, workdir, files)
        cmds.append(Command(argv, paths))
    for i in range(3):
        files = {"--matrix": f"unitary{i}.csv"} if i == 0 else {}
        argv, paths = _with_files(["neumark", "--s", _s(rng.uniform(0.02, 0.98))], workdir, files)
        cmds.append(Command(argv, paths))
    for i, steps in enumerate(CURVE_STEPS):
        if i == 0:
            lo, hi, files = 0.0, 1.0, {"--svg": "curves0.svg"}
        else:
            lo, hi = rng.uniform(0.0, 0.4), rng.uniform(0.6, 1.0)
            files = {"--out": f"curves{i}.csv"}
        argv = ["curves", "--s-min", _s(lo), "--s-max", _s(hi), "--steps", str(steps)]
        argv, paths = _with_files(argv, workdir, files)
        cmds.append(Command(argv, paths, rows=steps * (2 if "--svg" in paths else 1)))
    return cmds


def make_commands(workload: str, seed: int, workdir: str) -> list:
    """The command list of `workload` for workload seed `seed`; output files
    go under `workdir`.  The same arguments always give the same list."""
    builders = {"chain_mc": _chain_mc, "key_mc": _key_mc, "analytic_cli": _analytic_cli}
    if workload not in builders:
        raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return builders[workload](rng, workdir)
