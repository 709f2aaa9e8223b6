"""Kernel table: forward and backward time of every ``nn_engine.layers`` call
made by one training step of each zoo model, at that model's exact shapes.

The calls are captured from a real ``loss_and_grad`` at batch 64 and then
replayed one at a time.  Operation counts and bytes moved are computed from
the shapes, not measured:

- ops: 2 x multiply-adds for dense and conv2d kernels (col2im's adds
  included in conv2d_backward); elements of the largest input otherwise;
- bytes: one read of every array argument plus one write of every array
  result, which is the least traffic the kernel can cause.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

BATCH = 64
REPEATS = 5


def _arrays(value):
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    return []


def _ops(fn: str, args, result) -> int:
    if fn == "dense_forward":
        (n, i), o = args[0].shape, args[1].shape[1]
        return 2 * n * i * o
    if fn == "dense_backward":
        (n, o), i = args[0].shape, args[1].shape[1]
        return 4 * n * i * o
    if fn == "conv2d_forward":
        y, cols = result
        return 2 * y.size * cols.shape[1]
    if fn == "conv2d_backward":
        g, cols = args[0], args[3]
        return 4 * g.size * cols.shape[1] + cols.size
    return max(a.size for a in _arrays(args))


def _capture(graph, params, x, y):
    """Every layers.* call made by one ``loss_and_grad``, with its arguments."""
    from llpf.nn_engine import layers
    from llpf.nn_engine.engine import loss_and_grad
    from tracing import LAYER_KERNELS

    calls = []
    originals = {fn: getattr(layers, fn) for fn in LAYER_KERNELS}

    def recorder(fn, original):
        def record(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((fn, original, args, kwargs, result))
            return result

        return record

    try:
        for fn, original in originals.items():
            setattr(layers, fn, recorder(fn, original))
        loss_and_grad(graph, params, x, y, "train")
    finally:
        for fn, original in originals.items():
            setattr(layers, fn, original)
    return calls


def kernel_table() -> list[dict]:
    from llpf.nn_engine.engine import init_params
    from llpf.nn_engine.graph import lenet_micro, mlp2, resnet_micro

    rows = []
    rng = np.random.default_rng(0)
    for model, graph in (("mlp2", mlp2()), ("lenet-micro", lenet_micro()), ("resnet-micro", resnet_micro())):
        params = init_params(graph, 0)
        x = rng.normal(size=(BATCH,) + graph.input_shape).astype(np.float32)
        y = rng.integers(0, int(graph.shapes[graph.sink][0]), size=BATCH)
        for fn, original, args, kwargs, result in _capture(graph, params, x, y):
            times = []
            for _ in range(REPEATS + 1):  # the first call warms caches
                start = time.perf_counter_ns()
                original(*args, **kwargs)
                times.append(time.perf_counter_ns() - start)
            rows.append({
                "model": model,
                "fn": fn,
                "shapes": " ".join("x".join(map(str, a.shape)) for a in _arrays(args)),
                "us": statistics.median(times[1:]) / 1e3,
                "ops": _ops(fn, args, result),
                "bytes": sum(a.nbytes for a in _arrays(args) + _arrays(result)),
            })
    return rows


def kernel_metrics(rows: list[dict]) -> dict[str, float]:
    """µs per training step for each (model, kernel), summed over its calls."""
    out: dict[str, float] = {}
    for row in rows:
        key = f"kernel.{row['model']}.{row['fn']}.us"
        out[key] = out.get(key, 0.0) + row["us"]
    return out
