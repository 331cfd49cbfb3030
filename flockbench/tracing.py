"""Span tracing of flocksim's layers from outside the package.

The tracer wraps public functions by replacing module attributes: every
flocksim module that binds the original function object (including
``from .core import ...`` re-bindings in other modules) gets the same
wrapper, so calls between layers are seen as well as calls from the
benchmark.  ``traced`` restores every replaced attribute on exit.

Spans are kept in flat in-memory arrays (name id, operation id, start,
end, parent index) and written out once, after the run.  The program is
single-threaded in the benchmark (``workers=1``), so one span stack
gives each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MARKER = "__flockbench_traced__"


def _count_edges(counts, args, kwargs, result):
    counts["neighbor_pairs"] += sum(nb.count for nb in result)


def _count_step(counts, args, kwargs, result):
    counts["steps"] += 1
    counts["agent_steps"] += result.config.n


def _count_obstacle_scan(counts, args, kwargs, result):
    counts["obstacle_hits"] += bool(result)


def _count_monitor(counts, args, kwargs, result):
    from flocksim import graph

    positions = args[0] if args else kwargs["positions"]
    counts["monitor_dense"] += np.shape(positions)[0] <= graph.DENSE_NODE_LIMIT


def _count_export(counts, args, kwargs, result):
    counts["export_bytes"] += sum(os.path.getsize(p) for p in result.values())


def _count_sweep(counts, args, kwargs, result):
    rows, failures = result
    counts["cells_attempted"] += len(rows) + len(failures)
    counts["cells_failed"] += len(failures)


# (module, function, counter hook run after each call)
TARGETS = (
    ("flocksim.core", "interaction_acceleration", None),
    ("flocksim.core", "all_neighborhoods", _count_edges),
    ("flocksim.core", "rate_limit", None),
    ("flocksim.core", "saturate_velocity", None),
    ("flocksim.engine", "initialize", None),
    ("flocksim.engine", "step", _count_step),
    ("flocksim.engine", "run", None),
    ("flocksim.metrics", "sample_metrics", None),
    ("flocksim.metrics", "pair_distances", None),
    ("flocksim.graph", "edge_errors", None),
    ("flocksim.graph", "lyapunov_monitor", _count_monitor),
    ("flocksim.cognition", "apply_adaptation", None),
    ("flocksim.environment", "extended_acceleration", None),
    ("flocksim.environment", "detected_obstacles", _count_obstacle_scan),
    ("flocksim.lab", "export_all", _count_export),
    ("flocksim.lab", "sweep", _count_sweep),
)


def _flocksim_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "flocksim" or name.startswith("flocksim."))]


def leftover_wrappers() -> list[str]:
    """Names of flocksim module attributes that still hold a tracing wrapper."""
    return [f"{mod.__name__}.{attr}"
            for mod in _flocksim_modules()
            for attr, value in vars(mod).items()
            if getattr(value, MARKER, False)]


class Tracer:
    """In-memory span store plus counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.op_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._wrappers: dict = {}

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.op_id.append(self.op)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        setattr(wrapper, MARKER, True)
        return wrapper

    @contextmanager
    def traced(self, op: int):
        """Install wrappers around TARGETS for one operation, then restore."""
        self.op = op
        patched = []
        try:
            modules = _flocksim_modules()
            for module_name, attr, hook in TARGETS:
                original = getattr(importlib.import_module(module_name), attr)
                layer = module_name.rsplit(".", 1)[-1]
                name = f"{layer}.{attr}"
                if name not in self._wrappers:
                    self._wrappers[name] = self.wrap(name, original, hook)
                wrapper = self._wrappers[name]
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            patched.append((mod, key, original))
            yield self
        finally:
            for mod, key, original in reversed(patched):
                setattr(mod, key, original)
            self.op = -1

    def spans(self) -> dict[str, np.ndarray]:
        # Copies, so the arrays can keep growing afterwards.
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "op_id": np.array(self.op_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans on one thread nest, so children never overlap.
        """
        s = self.spans()
        dur = s["end"] - s["start"]
        has_parent = s["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, s["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = s["name_id"] == nid
            out[name] = {
                "calls": int(np.count_nonzero(sel)),
                "busy_s": float(dur[sel].sum()),
                "self_s": float(own[sel].sum()),
            }
        return out

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names), **self.spans())
