"""Smoke test of the flocksim benchmark.

    python3 flockbench/selftest.py

Runs every workload at tiny size, untraced and traced, and checks that the
last output line carries exactly the metrics BENCHMARK.json names, with
their units; that tracing wrappers are gone after a traced operation, also
one that raised, so untraced runs measure the bare program; and that the
benchmark refuses to run (non-zero exit, no result line) in a directory
holding only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def expect(cond, msg: str) -> None:
    if not cond:
        raise AssertionError(msg)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "flockbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def check_metric_names(spec: dict) -> None:
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{where}: result keys {sorted(result)}")
            expect(result["correct"] is True, f"{where}: outputs incorrect\n{proc.stderr}")
            expect(result["attempted"] >= 1 and result["failed"] == 0,
                   f"{where}: attempted {result['attempted']}, failed {result['failed']}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == expected, f"{where}: metrics {printed} != {expected}")
            for name in expected:
                expect(f"\n{name} = " in proc.stdout, f"{where}: no line for {name}")
            print(f"ok: {where} prints all {len(expected)} {key} metrics")


def check_wrappers_removed() -> None:
    sys.path.insert(0, str(HERE))
    import tracing
    import workloads
    from flocksim import engine

    original = engine.run
    wl = workloads.make("large-flock", 3, tiny=True)
    tracer = tracing.Tracer()
    with tracer.traced(0):
        expect(tracing.leftover_wrappers(), "no wrappers installed while tracing")
        wl.run_once()
    expect(not tracing.leftover_wrappers(), "wrappers left after a traced operation")
    expect(engine.run is original, "engine.run not restored")
    try:
        with tracer.traced(1):
            raise RuntimeError("operation failed")
    except RuntimeError:
        pass
    expect(not tracing.leftover_wrappers(), "wrappers left after a failed traced operation")
    spans = len(tracer.start)
    expect(spans > 0, "traced operation recorded no spans")
    wl.run_once()
    expect(len(tracer.start) == spans, "untraced operation recorded spans")
    print("ok: tracing wrappers are removed after traced operations")


def check_refuses_without_sources() -> None:
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "flockbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run_bench(bare, "large-flock", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0, "benchmark ran without flocksim sources")
    expect("{" not in proc.stdout, f"result printed without sources: {proc.stdout!r}")
    print(f"ok: without sources the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_metric_names(spec)
    check_wrappers_removed()
    check_refuses_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
