"""In-memory span tracer for one CLI child process, and self-time arithmetic.

The tracer rebinds public names in the module that *calls* them (for example
``mlhjb.cli.solve_fractional``), so each span marks a boundary between two
modules of the package.  Spans live in a list while the process runs and are
written as JSON once, when the traced command returns.

A span is ``[id, parent_id, name, start, end, count]``; ``parent_id`` is -1
for a root span and ``count`` is the work size read from the call's
arguments (points for kernel calls, steps for rollouts, 0 otherwise).

The tracer also times itself: each wrapper's bookkeeping outside the
wrapped call and serialising the spans, plus whatever its owner adds to
``overhead_s`` (the child adds importing and installing the tracer).  That
sum is the ``overhead_s`` written next to the spans.
"""

from __future__ import annotations

import json
import time

import numpy as np


def _points(arg_index: int):
    def count(*args, **kwargs):
        return int(np.size(args[arg_index]))

    return count


def _rollout_steps(prob, spec, law, x0, cfg):
    return int(cfg.steps)


# (module, attribute, count function) for every traced cross-module call.
TRACED = [
    ("mlhjb.cli", "main", None),
    ("mlhjb.cli", "solve_fractional", None),
    ("mlhjb.cli", "evaluate_cost", _rollout_steps),
    ("mlhjb.cli", "delta_ml", None),
    ("mlhjb.cli", "kernel", _points(1)),
    ("mlhjb.hjb", "kernel", _points(1)),
    ("mlhjb.hjb", "rl_window_deriv", None),
    ("mlhjb.defect", "ml_two", _points(2)),
    ("mlhjb.defect", "kernel_deriv", _points(1)),
]


class Tracer:
    """Records nested spans around wrapped callables."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.overhead_s = 0.0
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        fn = getattr(module, attr)
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            entered = time.perf_counter()
            sid = len(spans)
            rec = [sid, stack[-1] if stack else -1, name, 0.0, 0.0, count(*args, **kwargs) if count else 0]
            spans.append(rec)
            stack.append(sid)
            rec[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
                self.overhead_s += (rec[3] - entered) + (time.perf_counter() - rec[4])

        setattr(module, attr, traced)

    def install(self) -> None:
        import importlib

        for modname, attr, count in TRACED:
            module = importlib.import_module(modname)
            self.wrap(module, attr, f"{modname.split('.')[-1]}.{attr}", count)

    def dump(self, path: str) -> None:
        """Write ``{"spans": [...], "overhead_s": ...}`` to ``path``."""
        t0 = time.perf_counter()
        body = json.dumps(self.spans)
        overhead = self.overhead_s + time.perf_counter() - t0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f'{{"overhead_s": {overhead!r}, "spans": {body}}}')


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _count in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, []))
        for sid, _parent, _name, start, end, _count in spans
    }


def totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: summed duration ``s``, self time ``self_s``, ``calls``, ``count``."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for sid, _parent, name, start, end, count in spans:
        agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0, "count": 0})
        agg["s"] += end - start
        agg["self_s"] += selfs[sid]
        agg["calls"] += 1
        agg["count"] += count
    return out
