"""Every function ``bench/tracing.py`` wraps still exists under the name the
tracer patches.  The tracer skips a target that resolves to nothing, and its
metrics then read 0 without an error, so a refactor that renames or removes
a traced function fails here instead."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# targets that already resolve to nothing: the trainer no longer calls
# softmax_cross_entropy itself, and ModelGraph has no param_shapes
KNOWN_UNRESOLVED = {
    ("llpf.nn_engine.trainer", "softmax_cross_entropy"),
    ("llpf.nn_engine.graph", "ModelGraph.param_shapes"),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_span_and_counter_target_resolves():
    tracing = load_tracing()
    targets = [(module, attr) for module, attr, _ in tracing.SPANS + tracing.COUNTERS]
    assert targets
    unresolved = {target for target in targets if not callable(resolve(*target))}
    assert not unresolved - KNOWN_UNRESOLVED
