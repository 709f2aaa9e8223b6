"""Graph execution: parameter init, forward pass, and backpropagation.

Execution walks ``graph.plan``, the per-node records the graph resolved once
at construction: each node's parameters are views at its slices' offsets,
reshaped to their resolved shapes, and its gradients are written back
through one loop over the same slices.  Kernels are looked up in
:mod:`.layers` at call time.

Image activations run batch-last, (C, H, W, N); the (N, C, H, W) input batch
is transposed once on entry.  Dense layers and their activations stay
batch-first, (N, F): ``flatten``, and a dense node reading an image, switch
layouts through one ``reshape(-1, N).T`` view, which keeps the features in
C, H, W order, so parameters, checkpoints and logits are layout-free.

A batch_norm node normalizes with the (mean, population variance) its caller
fixes, and otherwise with its own batch's.  Training always uses the batch's.
Evaluation fixes the statistics that :func:`norm_stats` fits at the evaluated
parameters, so a loss does not depend on how the data is chunked.  The
statistics are never parameters: they are not in the ``ParamVector`` layout.
"""

from __future__ import annotations

import math

import numpy as np

from ..param_space import ParamVector
from . import layers as L
from .graph import ModelGraph


def init_params(graph: ModelGraph, seed: int, dtype=np.float32) -> ParamVector:
    """Seeded initialization: Kaiming-uniform weights scaled by fan-in,
    zero biases and shifts, unit scales.  Identical seeds give bit-identical
    vectors because slices are drawn in fixed layout order."""
    rng = np.random.default_rng(seed)
    data = np.empty(graph.num_params, dtype=dtype)
    slices = [s for node in graph.plan for s in node.slices]
    for info, (offset, length, shape) in zip(graph.layout, slices):
        view = data[offset : offset + length]
        if info.kind == "weight":
            fan_in = math.prod(shape[1:]) if len(shape) == 4 else shape[0]
            bound = np.sqrt(6.0 / fan_in)
            view[:] = rng.uniform(-bound, bound, size=length).astype(dtype)
        elif info.kind == "norm_scale":
            view[:] = 1.0
        else:  # bias, norm_shift
            view[:] = 0.0
    return graph.wrap(data)


def forward(
    graph: ModelGraph,
    params: ParamVector,
    x: np.ndarray,
    stats: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """Run the graph on a batch and return logits.

    ``stats`` maps batch_norm node names to the (mean, var) each normalizes
    with; by default every batch_norm uses the batch's own statistics.
    """
    logits, _ = _execute(graph, params.data, x, stats, want_caches=False)
    return logits


def norm_stats(
    graph: ModelGraph, params: ParamVector, x: np.ndarray
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each batch_norm node's batch (mean, population var) over ``x``, from
    one forward pass at ``params``."""
    stats: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    _execute(graph, params.data, x, stats, want_caches=False)
    return stats


def _execute(graph, data, x, stats, want_caches):
    """Forward pass at the flat parameter array ``data``.  A batch_norm node
    named in ``stats`` normalizes with those statistics; one missing from a
    ``stats`` dict uses its batch's and records them there.  Backward caches
    are kept only when ``want_caches``, so an evaluation pass frees each
    node's im2col matrix and batch-norm cache as soon as the node has run."""
    x = np.asarray(x)
    if x.shape[1:] != graph.input_shape:
        raise ValueError(
            f"batch shape {x.shape[1:]} does not match model input {graph.input_shape}"
        )
    if x.ndim == 4:
        x = x.transpose(1, 2, 3, 0)
    values: dict[str, np.ndarray] = {}
    caches: dict[str, object] = {}
    for node in graph.plan:
        name = node.name
        ins = [values[s] for s in node.inputs] if node.inputs else [x]
        a = ins[0]
        p = [data[o : o + n].reshape(shape) for o, n, shape in node.slices]
        cache = None  # frees the previous node's cache before this node runs
        if node.kind == "dense":
            if a.ndim > 2:
                a = _batch_first(a)
            y, cache = L.dense_forward(a, p[0], p[1]), a
        elif node.kind == "conv2d":
            b = p[1] if len(p) > 1 else None
            y, cache = L.conv2d_forward(a, p[0], b, node.stride, node.pad)
            cache = (a.shape, cache)  # the im2col matrix
        elif node.kind == "batch_norm":
            fixed = None if stats is None else stats.get(name)
            y, cache = L.batchnorm_forward(a, p[0], p[1], fixed)
            if stats is not None:
                stats[name] = cache[2]
            cache = (a, cache)
        elif node.kind == "relu":
            y, cache = np.maximum(a, 0), a
        elif node.kind == "max_pool":
            y, cache = L.maxpool_forward(a, node.kernel)
            cache = (a.shape, cache)
        elif node.kind == "avg_pool":
            y, cache = L.avgpool_forward(a, node.kernel), a.shape
        elif node.kind == "flatten":
            y, cache = _batch_first(a), a.shape
        elif node.kind == "residual_add":
            y = ins[0] + ins[1]
        values[name] = y
        if want_caches:
            caches[name] = cache
    out = values[graph.sink]
    if want_caches:
        return out, (values, caches)
    return out, None


def _batch_first(a):
    """(C, H, W, N) -> (N, C*H*W) view."""
    return a.reshape(-1, a.shape[-1]).T


def loss_and_grad(
    graph: ModelGraph,
    params: ParamVector | np.ndarray,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    mode: str = "train",
    out: np.ndarray | None = None,
) -> tuple[float, ParamVector | np.ndarray]:
    """Mean cross-entropy over the batch and its gradient.

    ``params`` is a ParamVector, or a flat array in the graph's layout that
    its caller has already checked (a trainer's working buffer).  Given
    ``out``, a flat buffer the caller owns, the gradient is written there and
    ``out`` is returned; the buffer is zeroed first, so a slice that gets no
    gradient reads 0.  Without it the gradient comes back as a new
    ParamVector in the dtype of ``params``.  Every batch_norm normalizes with
    the batch's statistics; ``mode`` names that and accepts nothing but
    ``"train"``.
    """
    if mode != "train":
        raise ValueError(f"loss_and_grad runs in train mode only, not {mode!r}")
    data = params.data if isinstance(params, ParamVector) else params
    if out is None:
        gdata = np.zeros(graph.num_params, dtype=data.dtype)
    else:
        gdata = out
        gdata.fill(0)
    logits, (values, caches) = _execute(graph, data, batch_x, None, want_caches=True)
    loss, dlogits = L.softmax_cross_entropy(logits, np.asarray(batch_y))

    grads: dict[str, np.ndarray] = {graph.sink: dlogits}
    for node in reversed(graph.plan):
        name = node.name
        g = grads.pop(name, None)
        if g is None:
            continue
        pgrads = ()
        if node.slices:
            o, n, shape = node.slices[0]
            w = data[o : o + n].reshape(shape)  # a weight, or a batch_norm's scale
        if node.kind == "dense":
            # a layer that reads the batch has no input whose gradient is needed
            dx, dw, db = L.dense_backward(g, caches[name], w, need_dx=bool(node.inputs))
            if dx is not None and len(node.in_shape) > 1:
                dx = dx.T.reshape(node.in_shape + (g.shape[0],))
            pgrads = (dw, db)
        elif node.kind == "conv2d":
            x_shape, cols = caches[name]
            # a conv that reads the batch has no input whose gradient is needed
            dx, dw, db = L.conv2d_backward(
                g, x_shape, w, cols, node.stride, node.pad, need_dx=bool(node.inputs)
            )
            pgrads = (dw, db)  # a bias-less conv owns one slice; zip drops db
        elif node.kind == "batch_norm":
            a, cache = caches[name]
            dx, dscale, dshift = L.batchnorm_backward(g, a, w, cache)
            pgrads = (dscale, dshift)
        elif node.kind == "relu":
            a = caches[name]
            dx = g * (a > 0)
        elif node.kind == "max_pool":
            x_shape, cache = caches[name]
            dx = L.maxpool_backward(g, x_shape, node.kernel, cache)
        elif node.kind == "avg_pool":
            dx = L.avgpool_backward(g, caches[name], node.kernel)
        elif node.kind == "flatten":
            dx = g.T.reshape(caches[name])
        elif node.kind == "residual_add":
            dx = g  # both inputs receive the same gradient

        for (o, n, _), arr in zip(node.slices, pgrads):
            gdata[o : o + n] = arr.reshape(-1)  # casts to the buffer's dtype
        for src in node.inputs:
            if src in grads:
                grads[src] = grads[src] + dx
            else:
                grads[src] = dx
    return loss, (graph.wrap(gdata) if out is None else gdata)
