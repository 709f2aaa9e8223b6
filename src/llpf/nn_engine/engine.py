"""Graph execution: parameter init, forward pass, and backpropagation.

Normalization running statistics are buffers, not trainable parameters; they
live in a :class:`NormState` owned by the caller and never appear in the
``ParamVector`` layout.
"""

from __future__ import annotations

import numpy as np

from ..param_space import ParamVector
from . import layers as L
from .graph import ModelGraph


class NormState:
    """Running mean/variance buffers for every batch_norm node."""

    def __init__(self, graph: ModelGraph, dtype=np.float32):
        self.buffers: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for node in graph.nodes:
            if node.kind != "batch_norm":
                continue
            c = graph.input_shape_of(node.name)[0]
            self.buffers[node.name] = (
                np.zeros(c, dtype=dtype),
                np.ones(c, dtype=dtype),
            )

    def get(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        return self.buffers[name]

    def put(self, name: str, mean: np.ndarray, var: np.ndarray) -> None:
        self.buffers[name] = (mean, var)

    def copy(self) -> "NormState":
        out = object.__new__(NormState)
        out.buffers = {k: (m.copy(), v.copy()) for k, (m, v) in self.buffers.items()}
        return out


def init_params(graph: ModelGraph, seed: int, dtype=np.float32) -> ParamVector:
    """Seeded initialization: Kaiming-uniform weights scaled by fan-in,
    zero biases and shifts, unit scales.  Identical seeds give bit-identical
    vectors because slices are drawn in fixed layout order."""
    rng = np.random.default_rng(seed)
    data = np.empty(graph.num_params, dtype=dtype)
    for info in graph.layout:
        view = data[info.offset : info.offset + info.length]
        if info.kind == "weight":
            shape = graph.slice_shape(info.name)
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            bound = np.sqrt(6.0 / fan_in)
            view[:] = rng.uniform(-bound, bound, size=info.length).astype(dtype)
        elif info.kind == "norm_scale":
            view[:] = 1.0
        else:  # bias, norm_shift
            view[:] = 0.0
    return graph.wrap(data)


def _node_params(graph: ModelGraph, params: ParamVector, name: str):
    shapes = graph.param_shapes(name)
    return [params.get(s).reshape(shape) for s, shape in shapes.items()]


def forward(
    graph: ModelGraph,
    params: ParamVector,
    x: np.ndarray,
    mode: str = "train",
    norm_state: NormState | None = None,
) -> np.ndarray:
    """Run the graph on a batch and return logits.

    In train mode batch_norm uses batch statistics and updates ``norm_state``
    in place; eval mode reads the running buffers and requires them.
    """
    logits, _ = _execute(graph, params, x, mode, norm_state, want_caches=False)
    return logits


def _execute(graph, params, x, mode, norm_state, want_caches):
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    x = np.asarray(x)
    if x.shape[1:] != graph.input_shape:
        raise ValueError(
            f"batch shape {x.shape[1:]} does not match model input {graph.input_shape}"
        )
    if graph.has_norm_layers() and norm_state is None:
        if mode == "eval":
            raise ValueError("eval mode needs a NormState with fitted buffers")
        norm_state = NormState(graph, dtype=x.dtype)
    values: dict[str, np.ndarray] = {}
    caches: dict[str, object] = {}
    for name in graph.topo_order:
        node = graph.node(name)
        ins = [values[s] for s in node.inputs] if node.inputs else [x]
        a = ins[0]
        if node.kind == "dense":
            if a.ndim > 2:
                a = a.reshape(a.shape[0], -1)
            w, b = _node_params(graph, params, name)
            values[name] = L.dense_forward(a, w, b)
            caches[name] = a
        elif node.kind == "conv2d":
            arrays = _node_params(graph, params, name)
            w = arrays[0]
            b = arrays[1] if len(arrays) > 1 else None
            stride = int(node.attrs.get("stride", 1))
            pad = int(node.attrs.get("pad", 0))
            y, cols = L.conv2d_forward(a, w, b, stride, pad)
            values[name] = y
            caches[name] = (a.shape, cols)
        elif node.kind == "batch_norm":
            scale, shift = _node_params(graph, params, name)
            r_mean, r_var = norm_state.get(name)
            y, cache, new_mean, new_var = L.batchnorm_forward(
                a, scale, shift, mode, r_mean, r_var
            )
            if mode == "train":
                norm_state.put(name, new_mean, new_var)
            values[name] = y
            caches[name] = (a, cache)
        elif node.kind == "relu":
            values[name] = np.maximum(a, 0)
            caches[name] = a
        elif node.kind == "max_pool":
            k = int(node.attrs["kernel"])
            y, cache = L.maxpool_forward(a, k)
            values[name] = y
            caches[name] = (a.shape, cache)
        elif node.kind == "avg_pool":
            k = None if node.attrs.get("mode") == "global" else int(node.attrs["kernel"])
            values[name] = L.avgpool_forward(a, k)
            caches[name] = a.shape
        elif node.kind == "flatten":
            values[name] = a.reshape(a.shape[0], -1)
            caches[name] = a.shape
        elif node.kind == "residual_add":
            values[name] = ins[0] + ins[1]
    out = values[graph.sink]
    if want_caches:
        return out, (values, caches)
    return out, None


def loss_and_grad(
    graph: ModelGraph,
    params: ParamVector,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    mode: str = "train",
    norm_state: NormState | None = None,
) -> tuple[float, ParamVector]:
    """Mean cross-entropy over the batch and its gradient as a ParamVector."""
    logits, (values, caches) = _execute(
        graph, params, batch_x, mode, norm_state, want_caches=True
    )
    loss, dlogits = L.softmax_cross_entropy(logits, np.asarray(batch_y))

    grads: dict[str, np.ndarray] = {graph.sink: dlogits}
    gdata = np.zeros(graph.num_params, dtype=params.dtype)
    offsets = {s.name: (s.offset, s.length) for s in graph.layout}

    def store(slice_name, arr):
        off, length = offsets[slice_name]
        gdata[off : off + length] = arr.reshape(-1).astype(params.dtype)

    for name in reversed(graph.topo_order):
        node = graph.node(name)
        g = grads.pop(name, None)
        if g is None:
            continue
        if node.kind == "dense":
            a = caches[name]
            w = params.get(f"{name}.weight").reshape(graph.slice_shape(f"{name}.weight"))
            dx, dw, db = L.dense_backward(g, a, w)
            in_shape = graph.input_shape_of(name)
            if len(in_shape) > 1:
                dx = dx.reshape((g.shape[0],) + in_shape)
            store(f"{name}.weight", dw)
            store(f"{name}.bias", db)
        elif node.kind == "conv2d":
            x_shape, cols = caches[name]
            w = params.get(f"{name}.weight").reshape(graph.slice_shape(f"{name}.weight"))
            stride = int(node.attrs.get("stride", 1))
            pad = int(node.attrs.get("pad", 0))
            # a conv that reads the batch has no input whose gradient is needed
            dx, dw, db = L.conv2d_backward(
                g, x_shape, w, cols, stride, pad, need_dx=bool(node.inputs)
            )
            store(f"{name}.weight", dw)
            if f"{name}.bias" in offsets:
                store(f"{name}.bias", db)
        elif node.kind == "batch_norm":
            a, cache = caches[name]
            scale = params.get(f"{name}.scale")
            dx, dscale, dshift = L.batchnorm_backward(g, a, scale, cache)
            store(f"{name}.scale", dscale)
            store(f"{name}.shift", dshift)
        elif node.kind == "relu":
            a = caches[name]
            dx = g * (a > 0)
        elif node.kind == "max_pool":
            x_shape, cache = caches[name]
            dx = L.maxpool_backward(g, x_shape, int(node.attrs["kernel"]), cache)
        elif node.kind == "avg_pool":
            k = None if node.attrs.get("mode") == "global" else int(node.attrs["kernel"])
            dx = L.avgpool_backward(g, caches[name], k)
        elif node.kind == "flatten":
            dx = g.reshape(caches[name])
        elif node.kind == "residual_add":
            dx = g  # both inputs receive the same gradient

        for src in node.inputs:
            if src in grads:
                grads[src] = grads[src] + dx
            else:
                grads[src] = dx
    return loss, graph.wrap(gdata)
