"""Benchmark of the seqdisc command line program.

    python3 perfbench/run.py --workload chain_mc --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/` of that checkout.  One client drives a closed loop: it starts one
`seqdisc` process, waits for it to exit, and starts the next.  The client
and its children are pinned to one CPU, so the program never competes with
the client and its wall time does not depend on a second CPU.  Each pass runs
the workload's whole command list (see workloads.py); passes repeat until
`--seconds` is used up.  Every command's output is checked against closed
forms (checks.py) in the first pass, and later passes must reproduce it
byte for byte.

With `--trace 0` the end-to-end metrics come from the child processes
(wall clock around spawn and exit, CPU and peak RSS from `os.wait4`).
With `--trace 1` the same commands run in this process through
`seqdisc.cli.main(argv)`, alternating untraced and traced passes; the
traced passes give the per-layer metrics (spans.py) and the difference is
the tracing overhead.

A human-readable report goes to stdout, a full result file to
perfbench/out/, and the last stdout line is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import check_command
from spans import Tracer, summarize
from workloads import WORKLOADS, make_commands

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORK = OUT / "work"
# what the `seqdisc` console script runs
BOOT = "import sys; from seqdisc.cli import main; sys.exit(main())"
SETUP_PER_PASS = 2
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10


@dataclass
class Outcome:
    """One execution of one command."""

    rc: int
    wall_s: float
    cpu_s: float = 0.0
    rss_kb: int = 0
    stderr: str = ""
    digest: str = ""
    texts: dict = field(default_factory=dict)  # stdout and output files, first pass only


def _spawn(argv, env, stdout_path, stderr_path):
    """Run one child to completion; returns (exit code, wall s, rusage)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644)]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    return os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage


class SubprocessRunner:
    """Each command is a fresh `seqdisc` process."""

    def __init__(self, env):
        self.env = env

    def run(self, cmd, label):
        out, err = WORK / f"{label}.stdout", WORK / f"{label}.stderr"
        rc, wall, ru = _spawn(["-c", BOOT, *cmd.argv], self.env, out, err)
        return Outcome(rc, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
                       err.read_text(encoding="utf-8", errors="replace")), out.read_bytes()


class InProcessRunner:
    """Each command is a call of `seqdisc.cli.main(argv)` in this process."""

    def __init__(self, cli):
        self.cli = cli

    def run(self, cmd, label):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = self.cli.main(list(cmd.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed command, not a failed benchmark
                rc = 1
                traceback.print_exc()
            wall = time.perf_counter() - start
        return Outcome(rc, wall, stderr=stderr.getvalue()), stdout.getvalue().encode("utf-8")


def _run_pass(runner, cmds, keep_texts, tracer=None):
    outcomes = []
    for i, cmd in enumerate(cmds):
        if tracer is not None:
            tracer.command += 1
        outcome, stdout = runner.run(cmd, i)
        digest = hashlib.sha256(stdout)
        files = {}
        for flag, path in cmd.files.items():
            data = Path(path).read_bytes() if outcome.rc == 0 and Path(path).exists() else b""
            digest.update(data)
            files[flag] = data
        outcome.digest = digest.hexdigest()
        if keep_texts:
            outcome.texts = {"stdout": stdout, **files}
        outcomes.append(outcome)
    return outcomes


def _judge(cmds, passes):
    """Per command of each pass: None when it passed, else the reason.

    Also returns whether the run is correct: every failure is the CLI's
    documented one (exit status 2 with an `error:` message), never a wrong
    report, a crash, or an output that changes between passes."""
    first = passes[0]
    verdicts = []
    correct = True
    for cmd, o in zip(cmds, first):
        if o.rc == 0:
            texts = {k: v.decode("utf-8", errors="replace") for k, v in o.texts.items()}
            problems = check_command(cmd, texts.pop("stdout"), texts)
            verdicts.append("; ".join(problems) or None)
            correct &= not problems
        elif o.rc == 2 and o.stderr.startswith("error:"):
            verdicts.append(f"exit 2: {o.stderr.strip()}")
        else:
            verdicts.append(f"exit {o.rc}: {o.stderr.strip()[-300:]}")
            correct = False
    results = []
    for outcomes in passes:
        row = []
        for i, o in enumerate(outcomes):
            if o.digest != first[i].digest or o.rc != first[i].rc:
                row.append("output differs from the first pass")
                correct = False
            else:
                row.append(verdicts[i])
        results.append(row)
    return results, correct


def _repeat_passes(run_pass, seconds, min_passes=1):
    """Closed loop over passes until another pass would overrun `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(len(passes)))
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + 0.5 * elapsed / len(passes) > seconds:
            return passes


def _tail(samples):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    beyond it, or the maximum when there are too few samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _import_s(env):
    """Wall time of one fresh interpreter running `import seqdisc`."""
    rc, wall, _ = _spawn(["-c", "import seqdisc"], env, WORK / "setup.out", WORK / "setup.err")
    if rc != 0:
        raise RuntimeError(f"import seqdisc failed: {(WORK / 'setup.err').read_text()[-500:]}")
    return wall


def _import_times(env):
    """Median cumulative import time of numpy and seqdisc, in seconds, from
    `python -X importtime -c "import seqdisc"`."""
    found = {"numpy": [], "seqdisc": []}
    for i in range(IMPORTTIME_REPEATS + 1):
        err = WORK / "importtime.err"
        _spawn(["-X", "importtime", "-c", "import seqdisc"], env, WORK / "importtime.out", err)
        for line in err.read_text().splitlines() if i else ():  # the first run warms up
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) * 1e-6)
    return {k: statistics.median(v) for k, v in found.items()}


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _provenance(seed):
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }


def _end_to_end(cmds, passes, setup_samples):
    """End-to-end metrics and the facts behind them.

    Host speed drifts on a scale of seconds, so a pass's wall time is taken
    as the sum over its commands of each command's median across passes."""
    def typical(field, keep=lambda c: True):
        return sum(statistics.median(getattr(p[i], field) for p in passes)
                   for i, c in enumerate(cmds) if keep(c))

    wall = typical("wall_s")
    trials = sum(c.trials for c in cmds)
    rows = sum(c.rows for c in cmds)
    work = trials / wall if trials else rows / typical("wall_s", lambda c: c.rows)
    per_cmd = [o.wall_s for p in passes for o in p]
    tail, pct = _tail(per_cmd)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (typical("cpu_s"), "s"),
        "work_per_s": (work, "1/s"),
        "cmd_p50_s": (statistics.median(per_cmd), "s"),
        "cmd_tail_s": (tail, "s"),
        "peak_rss_mb": (max(o.rss_kb for p in passes for o in p) / 1024.0, "MB"),
    }
    facts = {
        "work_per_s": "trials_per_s" if trials else "rows_per_s",
        "trials_per_pass": trials,
        "curve_rows_per_pass": rows,
        "cmd_samples": len(per_cmd),
        "cmd_tail_percentile": pct,
        "setup_samples": len(setup_samples),
        "passes": len(passes),
        "pass_wall_s": [sum(o.wall_s for o in p) for p in passes],
        "pass_cpu_s": [sum(o.cpu_s for o in p) for p in passes],
    }
    return metrics, facts


# Per-layer metrics summed over the spans of one traced pass, named
# <span>.<measure>; busy_s and self_s come from busy_ns and self_ns.
LAYER_MEASURES = {
    "sampling.trial_uniforms": ("calls", "busy_s", "draws", "generated"),
    "sampling.chunk_ranges": ("chunks",),
    "povm.classify_uniforms": ("calls", "busy_s", "elements"),
    "povm.sampling_boundaries": ("calls", "busy_s"),
    "sequential.simulate_chain": ("calls", "busy_s", "self_s"),
    "sequential.build_chain": ("busy_s",),
    "sequential.optimize_two_observer": ("busy_s",),
    "strategies.simulate_strategy": ("self_s",),
    "b92.run_session": ("self_s",),
    "strategies.make_curve": ("busy_s",),
    "strategies.curve_csv": ("busy_s", "cells"),
    "strategies.curve_svg": ("busy_s", "points"),
    "reporting.csv_text": ("busy_s", "cells"),
    "reporting.dumps_json": ("busy_s", "bytes"),
    "reporting.write_text": ("busy_s", "bytes"),
    "neumark.build_dilation": ("busy_s",),
    "neumark.dilation_statistics": ("busy_s",),
    "neumark.povm_equivalence": ("busy_s",),
    "cli.main": ("calls", "busy_s", "self_s", "exit_2"),
}


def _unit(name):
    last = name.rsplit(".", 1)[1]
    if last.startswith("ns_per_"):
        return "ns"
    return {"bytes": "B", "useful_ratio": "ratio"}.get(last, "s" if last.endswith("_s") else "count")


def _layers_of_pass(spans, ids, cmds):
    summary = summarize(spans, set(ids))
    m = {}
    for span, measures in LAYER_MEASURES.items():
        for measure in measures:
            if measure.endswith("_s"):
                m[f"{span}.{measure}"] = summary.get(span, {}).get(measure[:-2] + "_ns", 0) * 1e-9
            else:
                m[f"{span}.{measure}"] = summary.get(span, {}).get(measure, 0)
    draws, gen = m["sampling.trial_uniforms.draws"], m["sampling.trial_uniforms.generated"]
    m["sampling.trial_uniforms.useful_ratio"] = draws / gen if gen else 0.0
    m["sampling.trial_uniforms.ns_per_draw"] = m["sampling.trial_uniforms.busy_s"] * 1e9 / draws if draws else 0.0
    elems = m["povm.classify_uniforms.elements"]
    m["povm.classify_uniforms.ns_per_element"] = m["povm.classify_uniforms.busy_s"] * 1e9 / elems if elems else 0.0
    curves = {cid for cid, cmd in zip(ids, cmds) if cmd.command == "curves"}
    m["cli.main.curves_busy_s"] = sum(
        (end - start) * 1e-9 for name, start, end, _, cid, _ in spans if name == "cli.main" and cid in curves)
    return m


def _trace_run(cmds, env, seconds, spans_path):
    """In-process passes, untraced and traced in turn; per-layer metrics."""
    sys.path.insert(0, str(SRC))
    import seqdisc.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"seqdisc imported from {cli.__file__}, not {SRC}")
    imports = _import_times(env)
    runner = InProcessRunner(cli)
    tracer = Tracer()
    pass_ids = {}

    def run_pass(k):
        if k % 2 == 0:  # pass 0 warms up and is not timed
            return _run_pass(runner, cmds, keep_texts=k == 0)
        first_id = tracer.command + 1
        tracer.install()
        try:
            return _run_pass(runner, cmds, keep_texts=False, tracer=tracer)
        finally:
            tracer.uninstall()
            pass_ids[k] = list(range(first_id, tracer.command + 1))

    passes = _repeat_passes(run_pass, seconds, min_passes=3)
    untraced = [sum(o.wall_s for o in p) for k, p in enumerate(passes) if k and k % 2 == 0]
    traced = [sum(o.wall_s for o in p) for k, p in enumerate(passes) if k % 2 == 1]
    per_pass = [_layers_of_pass(tracer.spans, ids, cmds) for ids in pass_ids.values()]
    metrics = {name: (statistics.median(p[name] for p in per_pass), _unit(name)) for name in per_pass[0]}
    metrics["import.numpy_s"] = (imports["numpy"], "s")
    metrics["import.seqdisc_s"] = (imports["seqdisc"], "s")
    # adjacent passes see nearly the same host speed, so compare in pairs
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.spans"] = (len(tracer.spans) / len(pass_ids), "count")
    tracer.write_csv(spans_path)
    facts = {
        "untraced_passes_s": untraced,
        "traced_passes_s": traced,
        "importtime_samples": IMPORTTIME_REPEATS,
        "passes": len(passes),
    }
    return passes, metrics, facts


def _report(workload, seed, trace, metrics, facts, fail_ratio, sha, prov, failures):
    print(f"seqdisc benchmark: workload {workload}, seed {seed}, trace {trace}, "
          f"{facts['passes']} passes, closed loop with 1 client")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    if not trace:
        print(f"  {facts['work_per_s'] + ' (= work_per_s)':44s} {metrics['work_per_s'][0]:>16.6g} 1/s")
        print(f"  cmd_tail_s is p{facts['cmd_tail_percentile']:.1f} of {facts['cmd_samples']} commands; "
              f"setup_s is the median of {facts['setup_samples']} imports")
    print(f"  {'fail_ratio':44s} {fail_ratio:>16.6g} ratio")
    print(f"  output_sha256 {sha}")
    print(f"  provenance {json.dumps(prov, sort_keys=True)}")
    for line in failures:
        print(f"  failed: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "seqdisc" / "__init__.py").is_file():
        print(f"error: no seqdisc package under {SRC}; run from a source checkout", file=sys.stderr)
        return 1

    # One CPU for this process and every child it starts.  numpy's BLAS
    # starts worker threads when it sees two CPUs, and the wall time of a
    # child then depends on whether the host runs the second vCPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    prov = _provenance(args.seed)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        cmds = make_commands(args.workload, args.seed, str(WORK))
        if args.trace:
            spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.csv"
            passes, metrics, facts = _trace_run(cmds, env, args.seconds, spans_path)
        else:
            runner = SubprocessRunner(env)
            _import_s(env)  # compiles bytecode and warms the file cache
            setup = []

            def run_pass(k):
                setup.extend(_import_s(env) for _ in range(SETUP_PER_PASS))
                return _run_pass(runner, cmds, keep_texts=k == 0)

            passes = _repeat_passes(run_pass, args.seconds)
            metrics, facts = _end_to_end(cmds, passes, setup)
        verdicts, correct = _judge(cmds, passes)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed = sum(v is not None for row in verdicts for v in row)
    sha = hashlib.sha256(b"".join(o.texts["stdout"] for o in passes[0])).hexdigest()
    failures = [f"{' '.join(cmds[i].argv)}: {v}" for i, v in enumerate(verdicts[0]) if v]
    _report(args.workload, args.seed, args.trace, metrics, facts, failed / attempted, sha, prov, failures)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, trace=args.trace, fail_ratio=failed / attempted,
                  output_sha256=sha, provenance=prov, facts=facts, failures=failures)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
