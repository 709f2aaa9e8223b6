"""Model graphs: typed layer DAGs with shape inference and the desk-scale zoo.

A model is a DAG of named nodes.  Nodes with no inputs read the batch (exactly
one such node is allowed) and exactly one node must have no consumers.  One
pass at construction resolves each node into a frozen :class:`ResolvedNode`
(``graph.plan``, in topological order) and builds the output shapes and the
validated parameter ``Layout`` with it, so the engine never re-derives them
and a ``ParamVector`` layout is a pure function of the graph.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping

import numpy as np

from ..param_space import Layout, ParamVector, SliceInfo

NODE_KINDS = (
    "dense",
    "conv2d",
    "batch_norm",
    "relu",
    "max_pool",
    "avg_pool",
    "flatten",
    "residual_add",
)


# kinds whose output is a buffer of their own that their backward pass does
# not read (max_pool reads its output, and flatten's is a view of its input)
_OWN_OUTPUT = ("dense", "conv2d", "batch_norm", "relu", "avg_pool", "residual_add")


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class GraphNode:
    name: str
    kind: str
    inputs: tuple[str, ...] = ()
    attrs: Mapping[str, int | str] = field(default_factory=dict)


@dataclass(frozen=True)
class ResolvedNode:
    """One node with everything the engine needs resolved at construction.

    ``slices`` holds ``(offset, length, shape)`` for each parameter slice the
    node owns, in layout order; ``kernel``/``stride``/``pad`` are as
    ``_window`` resolves them.  ``trains`` says that the node or a node it
    reads from, directly or not, owns parameters, so that a gradient reaches
    parameters through its output; ``needs_dx`` that one of its inputs
    trains, so that backpropagation needs its input gradient.
    ``overwrites_input`` marks a relu that may write its output over its
    input: nothing else reads that input, and its producer's backward pass
    does not read its own output.
    """

    name: str
    kind: str
    inputs: tuple[str, ...]
    in_shape: tuple[int, ...]
    slices: tuple[tuple[int, int, tuple[int, ...]], ...]
    kernel: int | None
    stride: int
    pad: int
    trains: bool
    needs_dx: bool
    overwrites_input: bool


class ModelGraph:
    """Validated layer DAG plus inferred shapes and parameter layout."""

    def __init__(self, nodes: Iterable[GraphNode], input_shape: tuple[int, ...]):
        self.nodes = tuple(nodes)
        self.input_shape = tuple(int(s) for s in input_shape)
        self._by_name = {}
        for node in self.nodes:
            if node.kind not in NODE_KINDS:
                raise GraphError(f"unknown node kind {node.kind!r}")
            if node.name in self._by_name:
                raise GraphError(f"duplicate node name {node.name!r}")
            self._by_name[node.name] = node
        for node in self.nodes:
            for src in node.inputs:
                if src not in self._by_name:
                    raise GraphError(f"{node.name!r} reads unknown node {src!r}")
                if node.inputs.count(src) > 1:
                    raise GraphError(f"{node.name!r} reads node {src!r} more than once")
        sources = [n.name for n in self.nodes if not n.inputs]
        if len(sources) != 1:
            raise GraphError(f"expected exactly one input node, found {sources}")
        consumed = {src for n in self.nodes for src in n.inputs}
        sinks = [n.name for n in self.nodes if n.name not in consumed]
        if len(sinks) != 1:
            raise GraphError(f"expected exactly one output node, found {sinks}")
        self.sink = sinks[0]
        self.topo_order = tuple(topological_order({n.name: n.inputs for n in self.nodes}))
        self._resolve()
        self._digest = self._describe()

    # -- shapes and parameters ----------------------------------------------

    def _resolve(self) -> None:
        """Set ``plan``, ``shapes`` and ``layout`` in one topological pass."""
        shapes: dict[str, tuple[int, ...]] = {}
        trains: dict[str, bool] = {}
        readers = Counter(src for node in self.nodes for src in node.inputs)
        plan = []
        layout = []
        offset = 0
        for name in self.topo_order:
            node = self._by_name[name]
            ins = [shapes[s] for s in node.inputs] if node.inputs else [self.input_shape]
            kernel, stride, pad = _window(node)
            shapes[name] = _node_output_shape(node, ins, kernel, stride, pad)
            slices = []
            for leaf, kind, shape in _param_slices(node, ins[0]):
                length = math.prod(shape)
                layout.append(SliceInfo(f"{name}.{leaf}", offset, length, kind))
                slices.append((offset, length, shape))
                offset += length
            needs_dx = any(trains[src] for src in node.inputs)
            trains[name] = bool(slices) or needs_dx
            overwrites = (
                node.kind == "relu"
                and len(node.inputs) == 1
                and readers[node.inputs[0]] == 1
                and self._by_name[node.inputs[0]].kind in _OWN_OUTPUT
            )
            plan.append(
                ResolvedNode(
                    name, node.kind, node.inputs, ins[0], tuple(slices), kernel, stride, pad,
                    trains[name], needs_dx, overwrites,
                )
            )
        if not layout:
            raise GraphError("graph has no trainable parameters")
        self.shapes = shapes
        self.plan: tuple[ResolvedNode, ...] = tuple(plan)
        self.layout = Layout(layout)
        self._has_norm = any(n.kind == "batch_norm" for n in self.nodes)

    @property
    def num_params(self) -> int:
        return self.layout.size

    def slice_names(self) -> tuple[str, ...]:
        return tuple(self.layout.index)

    def wrap(self, data: np.ndarray) -> ParamVector:
        return ParamVector(data, self.layout)

    def has_norm_layers(self) -> bool:
        return self._has_norm

    def digest(self) -> bytes:
        """Stable 32-byte digest of the architecture (names, kinds, shapes),
        computed once, at construction: the graph never changes."""
        return self._digest

    def _describe(self) -> bytes:
        desc = {
            "input_shape": list(self.input_shape),
            "nodes": [
                {
                    "name": n.name,
                    "kind": n.kind,
                    "inputs": list(n.inputs),
                    "attrs": {k: n.attrs[k] for k in sorted(n.attrs)},
                }
                for n in self.nodes
            ],
        }
        blob = json.dumps(desc, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).digest()


def topological_order(deps: Mapping[str, Collection[str]]) -> list[str]:
    """The names of ``deps`` (each name's distinct prerequisites) in
    topological order, the smallest ready name first, so the order is a pure
    function of ``deps``.  Raises :class:`GraphError` on a cycle."""
    remaining = {name: len(before) for name, before in deps.items()}
    after: dict[str, list[str]] = {name: [] for name in deps}
    for name, before in deps.items():
        for dep in before:
            after[dep].append(name)
    ready = [name for name, k in remaining.items() if k == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        name = heapq.heappop(ready)
        order.append(name)
        for nxt in after[name]:
            remaining[nxt] -= 1
            if remaining[nxt] == 0:
                heapq.heappush(ready, nxt)
    if len(order) != len(deps):
        raise GraphError("graph contains a cycle")
    return order


def _window(node: GraphNode) -> tuple[int | None, int, int]:
    """kernel, stride and pad as ints.  kernel is None for a global average
    pool and for kinds without a window; stride and pad apply to conv2d only.
    Max pooling has no global form."""
    a = node.attrs
    if node.kind == "max_pool" and a.get("mode") == "global":
        raise GraphError(f"{node.name!r}: max_pool has no global mode")
    if node.kind == "conv2d":
        return int(a["kernel"]), int(a.get("stride", 1)), int(a.get("pad", 0))
    if node.kind in ("max_pool", "avg_pool") and a.get("mode") != "global":
        return int(a["kernel"]), 1, 0
    return None, 1, 0


def _param_slices(node: GraphNode, in_shape: tuple[int, ...]) -> list[tuple[str, str, tuple[int, ...]]]:
    """(leaf name, parameter kind, array shape) of each slice a node owns."""
    if node.kind == "dense":
        out = int(node.attrs["out"])
        return [("weight", "weight", (math.prod(in_shape), out)), ("bias", "bias", (out,))]
    if node.kind == "conv2d":
        out_c = int(node.attrs["out_channels"])
        k = int(node.attrs["kernel"])
        slices = [("weight", "weight", (out_c, in_shape[0], k, k))]
        if int(node.attrs.get("bias", 1)):
            # convs feeding batch_norm drop the bias: the normalization
            # re-centers channels, leaving such a bias with zero gradient
            slices.append(("bias", "bias", (out_c,)))
        return slices
    if node.kind == "batch_norm":
        c = in_shape[0]
        return [("scale", "norm_scale", (c,)), ("shift", "norm_shift", (c,))]
    return []


def _node_output_shape(
    node: GraphNode, ins: list[tuple[int, ...]], kernel: int | None, stride: int, pad: int
) -> tuple[int, ...]:
    kind = node.kind
    if kind == "dense":
        return (int(node.attrs["out"]),)
    if kind == "conv2d":
        c, h, w = ins[0]
        out_c = int(node.attrs["out_channels"])
        oh = (h + 2 * pad - kernel) // stride + 1
        ow = (w + 2 * pad - kernel) // stride + 1
        if oh < 1 or ow < 1:
            raise GraphError(f"{node.name!r}: kernel does not fit input {ins[0]}")
        return (out_c, oh, ow)
    if kind in ("batch_norm", "relu"):
        return ins[0]
    if kind == "max_pool" or kind == "avg_pool":
        c, h, w = ins[0]
        if kernel is None:
            return (c, 1, 1)
        if h % kernel or w % kernel:
            raise GraphError(f"{node.name!r}: input {ins[0]} not divisible by {kernel}")
        return (c, h // kernel, w // kernel)
    if kind == "flatten":
        return (math.prod(ins[0]),)
    if kind == "residual_add":
        if len(ins) != 2:
            raise GraphError(f"{node.name!r}: residual_add needs two inputs")
        if ins[0] != ins[1]:
            raise GraphError(f"{node.name!r}: branch shapes differ: {ins}")
        return ins[0]
    raise GraphError(f"unknown node kind {kind!r}")


# -- desk-scale zoo ----------------------------------------------------------


def mlp2(in_dim: int = 20, hidden: int = 16, classes: int = 3) -> ModelGraph:
    """Two dense layers with a relu between: the smallest usable classifier."""
    nodes = [
        GraphNode("fc1", "dense", (), {"out": hidden}),
        GraphNode("act1", "relu", ("fc1",)),
        GraphNode("fc2", "dense", ("act1",), {"out": classes}),
    ]
    return ModelGraph(nodes, (in_dim,))


def lenet_micro(in_channels: int = 1, hw: int = 28, classes: int = 10) -> ModelGraph:
    """Two conv+pool stages and a two-layer dense head."""
    nodes = [
        GraphNode("conv1", "conv2d", (), {"out_channels": 4, "kernel": 3, "pad": 1}),
        GraphNode("act1", "relu", ("conv1",)),
        GraphNode("pool1", "max_pool", ("act1",), {"kernel": 2}),
        GraphNode("conv2", "conv2d", ("pool1",), {"out_channels": 8, "kernel": 3, "pad": 1}),
        GraphNode("act2", "relu", ("conv2",)),
        GraphNode("pool2", "max_pool", ("act2",), {"kernel": 2}),
        GraphNode("flat", "flatten", ("pool2",)),
        GraphNode("fc1", "dense", ("flat",), {"out": 32}),
        GraphNode("act3", "relu", ("fc1",)),
        GraphNode("fc2", "dense", ("act3",), {"out": classes}),
    ]
    return ModelGraph(nodes, (in_channels, hw, hw))


def resnet_micro(in_channels: int = 1, hw: int = 28, classes: int = 10, width: int = 8) -> ModelGraph:
    """Conv stem, one identity residual block, one projection residual block.

    The projection block gives the graph a parameterized parallel branch,
    which is what the data-flow phase ordering needs to exercise.
    """
    w2 = width * 2
    nodes = [
        GraphNode("stem.conv", "conv2d", (), {"out_channels": width, "kernel": 3, "pad": 1, "bias": 0}),
        GraphNode("stem.bn", "batch_norm", ("stem.conv",)),
        GraphNode("stem.act", "relu", ("stem.bn",)),
        # identity-skip block
        GraphNode("block1.conv_a", "conv2d", ("stem.act",), {"out_channels": width, "kernel": 3, "pad": 1, "bias": 0}),
        GraphNode("block1.bn_a", "batch_norm", ("block1.conv_a",)),
        GraphNode("block1.act_a", "relu", ("block1.bn_a",)),
        GraphNode("block1.conv_b", "conv2d", ("block1.act_a",), {"out_channels": width, "kernel": 3, "pad": 1, "bias": 0}),
        GraphNode("block1.bn_b", "batch_norm", ("block1.conv_b",)),
        GraphNode("block1.add", "residual_add", ("stem.act", "block1.bn_b")),
        GraphNode("block1.act_out", "relu", ("block1.add",)),
        # projection-skip block (downsamples)
        GraphNode("block2.conv_a", "conv2d", ("block1.act_out",), {"out_channels": w2, "kernel": 3, "stride": 2, "pad": 1, "bias": 0}),
        GraphNode("block2.bn_a", "batch_norm", ("block2.conv_a",)),
        GraphNode("block2.act_a", "relu", ("block2.bn_a",)),
        GraphNode("block2.conv_b", "conv2d", ("block2.act_a",), {"out_channels": w2, "kernel": 3, "pad": 1, "bias": 0}),
        GraphNode("block2.bn_b", "batch_norm", ("block2.conv_b",)),
        GraphNode("block2.skip_conv", "conv2d", ("block1.act_out",), {"out_channels": w2, "kernel": 1, "stride": 2, "bias": 0}),
        GraphNode("block2.skip_bn", "batch_norm", ("block2.skip_conv",)),
        GraphNode("block2.add", "residual_add", ("block2.bn_b", "block2.skip_bn")),
        GraphNode("block2.act_out", "relu", ("block2.add",)),
        # head
        GraphNode("head.pool", "avg_pool", ("block2.act_out",), {"mode": "global"}),
        GraphNode("head.flat", "flatten", ("head.pool",)),
        GraphNode("head.fc", "dense", ("head.flat",), {"out": classes}),
    ]
    return ModelGraph(nodes, (in_channels, hw, hw))


MODEL_BUILDERS = {
    "mlp2": mlp2,
    "lenet-micro": lenet_micro,
    "resnet-micro": resnet_micro,
}


def build_model(name: str, **kwargs) -> ModelGraph:
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise GraphError(f"unknown model {name!r}; choices: {sorted(MODEL_BUILDERS)}")
    return builder(**kwargs)
