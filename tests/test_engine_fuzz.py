"""Plans on random small graphs against the frozen engine that shares no buffers.

A plan shares memory wherever lifetimes allow: a relu writes over its input,
a conv's patch gradient overwrites its patch matrix, the gradients of a
node's consumers are summed into one buffer, wide gradients are cast back,
and every binding takes its buffers from the slots of the bindings before it
(re-zeroing padded borders).  Each rule holds only for the topologies its
lifetime argument covers, so this draws small DAGs over every node kind,
runs each through one training plan and one evaluation plan at row counts
that go back and forth, and checks every loss, gradient, logit and
batch-norm statistic bit for bit against ``_ref_execute`` and
``_ref_loss_and_grad``, which allocate every array fresh.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from llpf.nn_engine import GraphNode, ModelGraph, Plan, init_params
from test_nn_engine import _ref_cross_entropy_loss, _ref_execute, _ref_loss_and_grad

# (parameter dtype, batch dtype): the last pair computes wide and casts each
# parameter gradient into the narrower buffer
DTYPES = [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)]


class _Builder:
    def __init__(self, input_shape):
        self.input_shape = input_shape
        self.nodes = []
        self.shapes = {}

    def add(self, kind, inputs, shape, **attrs):
        name = f"n{len(self.nodes):02d}"
        self.nodes.append(GraphNode(name, kind, tuple(inputs), attrs))
        self.shapes[name] = shape
        return name

    def shape(self, name):
        return self.shapes[name] if name else self.input_shape


def _image_op(draw, b, src, keep_shape=False):
    """One image node reading ``src`` (None: the batch).  With
    ``keep_shape``, one whose output has its input's shape."""
    c, h, w = b.shape(src)
    inputs = (src,) if src else ()
    kinds = ["conv", "conv", "relu", "batch_norm"]
    if not keep_shape:
        kinds += ["max_pool", "avg_pool"]
    kind = draw(st.sampled_from(kinds))
    if kind == "conv":
        if keep_shape:
            k = draw(st.sampled_from([1, 3]))
            stride, pad, out_c = 1, k // 2, c
        else:
            k = draw(st.sampled_from([1, 3] if h >= 3 else [1]))
            stride, pad = draw(st.sampled_from([1, 2])), draw(st.sampled_from([0, 1]))
            out_c = draw(st.integers(1, 3))
        bias = draw(st.sampled_from([0, 1]))
        oh, ow = (h + 2 * pad - k) // stride + 1, (w + 2 * pad - k) // stride + 1
        return b.add("conv2d", inputs, (out_c, oh, ow), out_channels=out_c, kernel=k,
                     stride=stride, pad=pad, bias=bias)
    if kind in ("relu", "batch_norm"):
        return b.add(kind, inputs, (c, h, w))
    return _pool(draw, b, kind, inputs)


def _pool(draw, b, kind, inputs):
    """A 2x2 pool where the input's sides are even, else a global average
    pool (the max-pool kernel has no global form)."""
    c, h, w = b.shape(inputs[0] if inputs else None)
    if h % 2 == 0 and (kind == "max_pool" or draw(st.booleans())):
        return b.add(kind, inputs, (c, h // 2, w // 2), kernel=2)
    return b.add("avg_pool", inputs, (c, 1, 1), mode="global")


def _flat_op(draw, b, src, keep_shape=False):
    (f,) = b.shape(src)
    inputs = (src,) if src else ()
    kind = draw(st.sampled_from(["dense", "relu", "batch_norm"]))
    if kind == "dense":
        out = f if keep_shape else draw(st.integers(2, 5))
        return b.add("dense", inputs, (out,), out=out)
    return b.add(kind, inputs, (f,))


def _residual(draw, b, src, op):
    """A block whose input fans out to 2 or 3 consumers and whose branches
    meet in residual adds."""
    shape = b.shape(src)
    branch = op(draw, b, src, keep_shape=True)
    if draw(st.booleans()):
        branch = op(draw, b, branch, keep_shape=True)
    if draw(st.booleans()):  # a third consumer
        other = op(draw, b, src, keep_shape=True)
        branch = b.add("residual_add", (branch, other), shape)
    return b.add("residual_add", (src, branch), shape)


@st.composite
def graphs(draw):
    """A small DAG over all eight node kinds, ending in a dense layer."""
    if draw(st.integers(0, 3)):
        c, side = draw(st.integers(1, 2)), draw(st.sampled_from([3, 4, 6]))
        b = _Builder((c, side, side))
        if draw(st.booleans()):  # a parameter-free first node
            kind = draw(st.sampled_from(["relu", "max_pool", "avg_pool", "flatten"]))
            if kind == "flatten":
                cur = b.add("flatten", (), (c * side * side,))
            elif kind == "relu":
                cur = b.add("relu", (), (c, side, side))
            else:
                cur = _pool(draw, b, kind, ())
        else:
            cur = _image_op(draw, b, None)
        while len(b.shape(cur)) == 3 and draw(st.integers(0, 2)):
            if draw(st.booleans()):
                cur = _residual(draw, b, cur, _image_op)
            else:
                cur = _image_op(draw, b, cur)
        if len(b.shape(cur)) == 3 and draw(st.booleans()):
            cur = b.add("flatten", (cur,), (int(np.prod(b.shape(cur))),))
    else:
        b = _Builder((draw(st.integers(3, 5)),))
        cur = _flat_op(draw, b, None)
    while len(b.shape(cur)) == 1 and draw(st.integers(0, 2)):
        if draw(st.booleans()):
            cur = _residual(draw, b, cur, _flat_op)
        else:
            cur = _flat_op(draw, b, cur)
    classes = draw(st.integers(2, 4))
    b.add("dense", (cur,), (classes,), out=classes)  # reads an image or features
    return ModelGraph(b.nodes, b.input_shape)


def _same(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestPlansMatchTheFrozenEngine:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(graphs(), st.lists(st.integers(1, 9), min_size=3, max_size=4))
    def test_random_graphs_at_changing_row_counts(self, g, rows):
        classes = g.shapes[g.sink][0]
        for pdtype, xdtype in DTYPES:
            rng = np.random.default_rng(len(g.nodes))
            p = init_params(g, 1, pdtype).copy_data()
            p += rng.normal(0, 0.05, p.shape).astype(pdtype)  # off the zero biases and unit scales
            grad = np.full_like(p, np.nan)
            train, held = Plan(g, p, grad), Plan(g, p)
            for n in rows + rows[-2::-1]:  # back and forth
                x = rng.normal(size=(n,) + g.input_shape).astype(xdtype)
                y = rng.integers(0, classes, n)
                loss = train.loss_and_grad(x, y)
                ref_loss, ref_grad = _ref_loss_and_grad(g, p, x, y)
                assert loss.hex() == ref_loss.hex()
                assert grad.tobytes() == ref_grad.tobytes()
                assert train.loss(y).hex() == ref_loss.hex()

                ref, _ = _ref_execute(g, p, x, None, want_caches=False)
                assert _same(held.forward(x), ref)
                assert held.loss(y).hex() == _ref_cross_entropy_loss(ref, y).hex()
                stats, ref_stats = {}, {}
                held.forward(x, stats)
                _ref_execute(g, p, x, ref_stats, want_caches=False)
                assert stats.keys() == ref_stats.keys()
                for key, (mean, var) in stats.items():
                    assert _same(mean, ref_stats[key][0]) and _same(var, ref_stats[key][1])
                if stats:  # fixed statistics, fitted on another batch
                    x2 = rng.normal(size=(rows[0],) + g.input_shape).astype(xdtype)
                    ref, _ = _ref_execute(g, p, x2, stats, want_caches=False)
                    assert _same(held.forward(x2, stats), ref)
