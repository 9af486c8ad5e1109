"""In-memory spans around the public functions of each seqdisc layer.

The tracer wraps a function object and installs the wrapper under every
module attribute that is bound to it, so `sequential.classify_uniforms`,
`b92.trial_uniforms` and `cli.strategies.curve_svg` all hit the same
wrapper.  Nothing in the package changes.  Each span is a tuple

    (name, start_ns, end_ns, parent_index, command_id, counts)

where `counts` holds work measured at the boundary (draws, elements, cells,
bytes) from arguments and return values, after the span's end time is
taken.  `reporting.fmt` is deliberately not wrapped: it runs once per
number, and a span per call would dominate `curve_svg`.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_BLOCK = 4  # doubles per Philox counter block


def _uniforms_counts(args, result):
    trials, draws = result.shape
    return {"draws": trials * draws, "generated": trials * -(-draws // _BLOCK) * _BLOCK}


# (module, function, counts from (args, result)); chunk_ranges is a
# generator and gets a chunk count instead of a span duration.
TARGETS = (
    ("sampling", "trial_uniforms", _uniforms_counts),
    ("sampling", "chunk_ranges", None),
    ("povm", "classify_uniforms", lambda a, r: {"elements": r.size}),
    ("povm", "sampling_boundaries", None),
    ("sequential", "simulate_chain", None),
    ("sequential", "build_chain", None),
    ("sequential", "optimize_two_observer", None),
    ("strategies", "simulate_strategy", None),
    ("b92", "run_session", None),
    ("strategies", "make_curve", None),
    ("strategies", "curve_csv", lambda a, r: {"cells": len(a[0].s) * 6}),
    ("strategies", "curve_svg", lambda a, r: {"points": len(a[0].s) * 4}),
    ("reporting", "csv_text", lambda a, r: {"cells": (r.count("\n") - 1) * len(a[0])}),
    ("reporting", "dumps_json", lambda a, r: {"bytes": len(r.encode("utf-8"))}),
    ("reporting", "write_text", lambda a, r: {"bytes": len(a[1].encode("utf-8"))}),
    ("neumark", "build_dilation", None),
    ("neumark", "dilation_statistics", None),
    ("neumark", "povm_equivalence", None),
    ("cli", "main", lambda a, r: {"exit_2": int(r == 2)}),
)

GENERATORS = {"sampling.chunk_ranges"}


class Tracer:
    """Collects spans; `command` tags every span with the current command id."""

    def __init__(self):
        self.spans = []
        self.command = -1
        self._stack = []
        self._restore = []

    def _parent(self):
        return self._stack[-1] if self._stack else -1

    def wrap(self, name, fn, counts=None):
        def traced(*args, **kwargs):
            idx, parent = len(self.spans), self._parent()
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.command, {})
            if counts is not None:
                self.spans[idx][5].update(counts(args, result))
            return result

        return traced

    def wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            chunks = 0
            for item in fn(*args, **kwargs):
                chunks += 1
                yield item
            now = time.perf_counter_ns()
            self.spans.append((name, now, now, self._parent(), self.command, {"chunks": chunks}))

        return traced

    def install(self):
        """Wrap every target wherever a seqdisc module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "seqdisc" or k.startswith("seqdisc."))]
        for module, func, counts in TARGETS:
            original = getattr(sys.modules[f"seqdisc.{module}"], func)
            name = f"{module}.{func}"
            if name in GENERATORS:
                wrapped = self.wrap_generator(name, original)
            else:
                wrapped = self.wrap(name, original, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_ns,end_ns,parent,command,counts\n")
            for i, (name, start, end, parent, cmd, counts) in enumerate(self.spans):
                extra = ";".join(f"{k}={v}" for k, v in sorted(counts.items()))
                fh.write(f"{i},{name},{start},{end},{parent},{cmd},{extra}\n")


def summarize(spans, commands=None) -> dict:
    """Per span name: calls, busy_ns, self_ns and summed counts.

    Only spans whose command id is in `commands` (all when None) count.
    Self time is a span's duration minus the durations of its direct
    children; spans run on one thread, so children never overlap."""
    child_ns = defaultdict(int)
    for name, start, end, parent, cmd, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out = {}
    for i, (name, start, end, parent, cmd, counts) in enumerate(spans):
        if commands is not None and cmd not in commands:
            continue
        agg = out.setdefault(name, defaultdict(int))
        agg["calls"] += 1
        agg["busy_ns"] += end - start
        agg["self_ns"] += end - start - child_ns[i]
        for key, value in counts.items():
            agg[key] += value
    return out
