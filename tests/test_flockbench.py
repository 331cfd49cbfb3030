"""Tooling contract: the names the benchmark's tracer reads from flocksim.

flockbench/tracing.py wraps flocksim functions by module attribute and
reads graph.DENSE_NODE_LIMIT.  Loading it by path here makes a deletion
that would break the benchmark fail the unit tests first.
"""

import importlib
import importlib.util
from pathlib import Path

from flocksim import graph

TRACING = Path(__file__).resolve().parent.parent / "flockbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("flockbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracing = _load_tracing()
    assert tracing.TARGETS
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.TARGETS
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []
    assert isinstance(graph.DENSE_NODE_LIMIT, int)
