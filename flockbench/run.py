"""flocksim benchmark: one workload, one seed, a fixed measuring time.

    python3 flockbench/run.py --workload large-flock --seed 1 --seconds 32 --trace 0

Run from the root of a checkout.  The workload's inputs are generated from
``--seed``; an untimed warm-up operation is checked in full and becomes the
reference every timed operation must reproduce byte for byte.  Timed
operations repeat until their summed wall time reaches ``--seconds``.

``--trace 0`` prints the end-to-end metrics, measured with no wrappers
installed.  ``--trace 1`` alternates untraced and traced operations, prints
per-layer metrics per traced operation and the tracing overhead, and writes
the spans to ``flockbench/_work/``.  Human-readable lines come first; the
last line of standard output is one JSON object.  Exit code 2 means the
benchmark could not run (for example, no flocksim sources beside it).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

# The benchmark is the single-threaded baseline: keep BLAS and LAPACK (the
# dense Lyapunov path) on one thread, as workers=1 keeps the force loop.
# Set before NumPy loads; the set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
WORK_DIR = HERE / "_work"
SETUP_REPEATS = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True,
                    choices=("large-flock", "small-sweep", "nav-adapt-pipeline"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to a few agents and steps (smoke test)")
    return ap.parse_args(argv)


def setup_times(args) -> list[float]:
    """Wall time from starting a fresh interpreter to an initialized world."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(2 if args.tiny else SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


class Runner:
    """Runs timed operations of one workload against its checked reference."""

    def __init__(self, wl):
        from flocksim.engine import SimulationNumericsError

        self._numerics_error = SimulationNumericsError
        self.wl = wl
        reference = wl.run_once()
        self.problems = wl.check_reference(reference) + wl.check(reference)
        self.reference = wl.account(reference)
        wl.cleanup(reference)
        self.attempted = 0
        self.failed = 0

    def op(self, tracer=None, op_id: int = 0):
        """Time one operation; returns (wall seconds, OpResult or None if it failed)."""
        if tracer is None:
            left = tracing.leftover_wrappers()
            if left:
                self.problems.append(f"tracing wrappers left installed: {left}")
        with tracer.traced(op_id) if tracer is not None else nullcontext():
            t0 = perf_counter()
            try:
                payload = self.wl.run_once()
            except self._numerics_error:
                payload = None
            wall = perf_counter() - t0
        if payload is None:
            self.attempted += 1
            self.failed += 1
            return wall, None
        res = self.wl.account(payload)
        self.attempted += res.attempted
        self.failed += res.failed
        if res.fingerprint != self.reference.fingerprint:
            self.problems.append(f"{self.wl.name}: same-seed outputs differ from the reference")
        self.problems += self.wl.check(payload)
        self.wl.cleanup(payload)
        return wall, res


def end_to_end(runner, seconds, setup):
    ops = []
    elapsed = 0.0
    while elapsed < seconds:
        wall, res = runner.op()
        elapsed += wall
        if res is not None:
            ops.append((wall, res))
    # Totals over the timed operations, not medians: the machine's speed
    # drifts over tens of seconds, and the mean of a run varied less from
    # run to run than its median did.
    walls = [w for w, _ in ops]
    wall = sum(walls)
    print(f"{len(ops)} operations timed in {elapsed:.3f} s (operation wall: median "
          f"{statistics.median(walls):.4g} s, min {min(walls):.4g} s, max {max(walls):.4g} s); "
          f"rates are totals over them and pipeline_s their mean; setup_s is the median of "
          f"{len(setup)} fresh interpreters")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "agent_steps_per_s": (sum(r.agent_steps for _, r in ops) / wall, "agent_steps/s"),
        "cells_per_s": (sum(r.cells for _, r in ops) / wall, "cells/s"),
        "pipeline_s": (wall / len(ops), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _frac(num, den) -> float:
    return num / den if den else 0.0


def per_layer(runner, seconds, trace_path):
    tracer = tracing.Tracer()
    walls = {False: [], True: []}
    while sum(walls[False]) + sum(walls[True]) < seconds or not walls[True]:
        traced = len(walls[False]) > len(walls[True])
        wall, _ = runner.op(tracer if traced else None, op_id=len(walls[True]))
        walls[traced].append(wall)
    left = tracing.leftover_wrappers()
    if left:
        runner.problems.append(f"tracing wrappers left installed: {left}")
    tracer.write(trace_path)
    n_ops = len(walls[True])
    overhead = statistics.median(walls[True]) / statistics.median(walls[False]) - 1.0
    print(f"{n_ops} traced and {len(walls[False])} untraced operations; per-layer "
          f"values are per traced operation; spans written to {trace_path}")

    t = tracer.layer_times()
    c = tracer.counts

    def per_op(span, key, unit):
        return t[span][key] / n_ops, unit

    return {
        "core.interaction_acceleration.calls": per_op("core.interaction_acceleration", "calls", "count"),
        "core.interaction_acceleration.busy_s": per_op("core.interaction_acceleration", "busy_s", "s"),
        "core.all_neighborhoods.busy_s": per_op("core.all_neighborhoods", "busy_s", "s"),
        "core.edges_per_step": (_frac(c["neighbor_pairs"], c["steps"]), "count"),
        "core.rate_limit.busy_s": per_op("core.rate_limit", "busy_s", "s"),
        "core.saturation_frac": (_frac(t["core.saturate_velocity"]["calls"], c["agent_steps"]), "ratio"),
        "engine.step.calls": per_op("engine.step", "calls", "count"),
        "engine.step.busy_s": per_op("engine.step", "busy_s", "s"),
        "engine.step.self_s": per_op("engine.step", "self_s", "s"),
        "engine.run.self_s": per_op("engine.run", "self_s", "s"),
        "engine.initialize.busy_s": per_op("engine.initialize", "busy_s", "s"),
        "metrics.sample_metrics.busy_s": per_op("metrics.sample_metrics", "busy_s", "s"),
        "metrics.pair_distances.busy_s": per_op("metrics.pair_distances", "busy_s", "s"),
        "graph.edge_errors.busy_s": per_op("graph.edge_errors", "busy_s", "s"),
        "graph.lyapunov_monitor.calls": per_op("graph.lyapunov_monitor", "calls", "count"),
        "graph.lyapunov_monitor.busy_s": per_op("graph.lyapunov_monitor", "busy_s", "s"),
        "graph.dense_frac": (_frac(c["monitor_dense"], t["graph.lyapunov_monitor"]["calls"]), "ratio"),
        "cognition.apply_adaptation.busy_s": per_op("cognition.apply_adaptation", "busy_s", "s"),
        "environment.extended_acceleration.busy_s": per_op("environment.extended_acceleration", "busy_s", "s"),
        "environment.obstacle_hit_frac": (
            _frac(c["obstacle_hits"], t["environment.detected_obstacles"]["calls"]), "ratio"),
        "lab.export_all.busy_s": per_op("lab.export_all", "busy_s", "s"),
        "lab.export_all.bytes": (c["export_bytes"] / n_ops, "bytes"),
        "lab.sweep.cells_attempted": (c["cells_attempted"] / n_ops, "count"),
        "lab.sweep.cells_failed": (c["cells_failed"] / n_ops, "count"),
        "trace.overhead_frac": (overhead, "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"flockbench: cannot import flocksim from this checkout: {exc}", file=sys.stderr)
        return 2

    setup = [] if args.trace else setup_times(args)
    wl = workloads.make(args.workload, args.seed, tiny=args.tiny, work_dir=WORK_DIR)
    runner = Runner(wl)
    if args.trace:
        trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.npz"
        metrics = per_layer(runner, args.seconds, trace_path)
    else:
        metrics = end_to_end(runner, args.seconds, setup)

    for problem in dict.fromkeys(runner.problems):
        print(f"check failed: {problem}", file=sys.stderr)
    correct = not runner.problems
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"outputs_ok = {int(correct)}")
    print(f"failed_frac = {_frac(runner.failed, runner.attempted):.6g} "
          f"({runner.failed} failed of {runner.attempted} attempted)")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
