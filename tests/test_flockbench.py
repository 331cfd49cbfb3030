"""Tooling contract: what the benchmark calls and reads from flocksim.

flockbench/tracing.py wraps flocksim functions by module attribute and
reads graph.DENSE_NODE_LIMIT; flockbench/workloads.py builds its inputs
and runs its operations through the public API.  Loading both by path here
makes a change that would break the benchmark fail the unit tests first.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from flocksim import graph

BENCH = Path(__file__).resolve().parent.parent / "flockbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"flockbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["large-flock", "small-sweep", "nav-adapt-pipeline"])
def test_workloads_run_and_pass_their_checks_at_tiny_size(tmp_path, name):
    workload = _load("workloads").make(name, 1, tiny=True, work_dir=tmp_path)
    result = workload.run_once()
    assert workload.check(result) == []
    assert workload.check_reference(result) == []
    workload.cleanup(result)
    assert list(tmp_path.iterdir()) == []


def test_tracer_targets_resolve():
    tracing = _load("tracing")
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert isinstance(graph.DENSE_NODE_LIMIT, int)
