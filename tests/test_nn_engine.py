import inspect
import math

import numpy as np
import pytest

from llpf.nn_engine import layers as L
from llpf.nn_engine import (
    Dataset,
    GraphError,
    GraphNode,
    ModelGraph,
    Plan,
    StopRule,
    TrainerConfig,
    build_model,
    evaluate,
    forward,
    init_params,
    lenet_micro,
    loss_and_grad,
    mlp2,
    norm_rows,
    norm_stats,
    resnet_micro,
    sgd_step,
    train_until,
)
from llpf.nn_engine import trainer
from llpf.nn_engine.graph import MODEL_BUILDERS, topological_order
from llpf.harness_cli.datasets import gen_blobs
from llpf.param_space import LayoutMismatch, layer_stats


def training_plan(g, p):
    """A plan bound to the flat array ``p`` and a fresh gradient buffer."""
    return Plan(g, p, np.empty_like(p))


def finite_difference_check(graph, seed=0, batch=3, h=1e-5, jitter=0.05):
    """Max relative error between analytic and central-difference gradients."""
    rng = np.random.default_rng(seed)
    params = init_params(graph, seed, np.float64)
    data = params.copy_data()
    data += rng.normal(0, jitter, data.shape)
    params = graph.wrap(data)
    x = rng.normal(size=(batch,) + graph.input_shape)
    y = rng.integers(0, graph.shapes[graph.sink][0], size=batch)

    def loss_at(vec):
        loss, _ = loss_and_grad(graph, graph.wrap(vec), x, y)
        return loss

    _, grad = loss_and_grad(graph, params, x, y)
    base = params.copy_data()
    worst = 0.0
    for i in range(len(base)):
        plus = base.copy()
        plus[i] += h
        minus = base.copy()
        minus[i] -= h
        fd = (loss_at(plus) - loss_at(minus)) / (2 * h)
        rel = abs(grad.data[i] - fd) / (abs(grad.data[i]) + 1e-8)
        worst = max(worst, rel)
    return worst


class TestGraph:
    def test_topo_and_shapes(self):
        g = lenet_micro(1, 28, 10)
        assert g.shapes["pool2"] == (8, 7, 7)
        assert g.shapes[g.sink] == (10,)
        assert g.num_params == sum(s.length for s in g.layout)

    def test_cycle_rejected(self):
        nodes = [
            GraphNode("a", "relu", ("b",)),
            GraphNode("b", "relu", ("a",)),
            GraphNode("inp", "dense", (), {"out": 4}),
        ]
        with pytest.raises(GraphError):
            ModelGraph(nodes, (4,))

    def test_two_inputs_rejected(self):
        nodes = [
            GraphNode("a", "dense", (), {"out": 2}),
            GraphNode("b", "dense", (), {"out": 2}),
            GraphNode("add", "residual_add", ("a", "b")),
        ]
        with pytest.raises(GraphError, match="input"):
            ModelGraph(nodes, (2,))

    def test_residual_shape_mismatch(self):
        nodes = [
            GraphNode("a", "dense", (), {"out": 2}),
            GraphNode("b", "dense", ("a",), {"out": 3}),
            GraphNode("add", "residual_add", ("a", "b")),
        ]
        with pytest.raises(GraphError, match="shapes differ"):
            ModelGraph(nodes, (2,))

    def test_node_reading_a_producer_twice_rejected_by_name(self):
        nodes = [
            GraphNode("fc", "dense", (), {"out": 2}),
            GraphNode("add", "residual_add", ("fc", "fc")),
        ]
        with pytest.raises(GraphError, match="'add' reads node 'fc' more than once"):
            ModelGraph(nodes, (2,))

    def test_global_max_pool_rejected_by_name(self):
        nodes = [
            GraphNode("c", "conv2d", (), {"out_channels": 2, "kernel": 3}),
            GraphNode("p", "max_pool", ("c",), {"mode": "global"}),
            GraphNode("flat", "flatten", ("p",)),
        ]
        with pytest.raises(GraphError, match="'p': max_pool has no global mode"):
            ModelGraph(nodes, (1, 6, 6))

    def test_topological_order_pops_the_smallest_ready_name(self):
        deps = {"z": (), "b": ("z",), "a": ("z",), "c": ("a", "b"), "y": ()}
        assert topological_order(deps) == ["y", "z", "a", "b", "c"]
        with pytest.raises(GraphError, match="cycle"):
            topological_order({"a": ("b",), "b": ("a",), "c": ()})

    def test_pool_divisibility(self):
        nodes = [
            GraphNode("c", "conv2d", (), {"out_channels": 2, "kernel": 3}),
            GraphNode("p", "max_pool", ("c",), {"kernel": 2}),
        ]
        with pytest.raises(GraphError, match="divisible"):
            ModelGraph(nodes, (1, 7, 7))

    def test_digest_distinguishes_models(self):
        assert mlp2(20, 16, 3).digest() != mlp2(20, 17, 3).digest()
        assert mlp2(20, 16, 3).digest() == mlp2(20, 16, 3).digest()

    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_digest_kept_from_construction_is_a_fresh_one(self, model):
        g = build_model(model)
        assert g.digest() is g.digest()
        assert g.digest() == g._describe()

    def test_digest_pinned(self):
        # checkpoints store it, so their bytes change when it does
        assert mlp2().digest().hex() == (
            "409599ffe7d6f768467b4db170954b1b5080433b5ab1a488002aa308dea449ae"
        )


class TestResolvedPlan:
    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_records_reproduce_layout(self, model):
        g = build_model(model)
        assert [node.name for node in g.plan] == list(g.topo_order)
        rows = [(node.name, o, n, shape) for node in g.plan for o, n, shape in node.slices]
        assert len(rows) == len(g.layout)
        for (node_name, o, n, shape), info in zip(rows, g.layout):
            assert info.name.rsplit(".", 1)[0] == node_name
            assert (o, n) == (info.offset, info.length)
            assert math.prod(shape) == n

    def test_resnet_bias_less_convs_own_one_slice(self):
        g = resnet_micro()
        convs = {node.name: node for node in g.plan if node.kind == "conv2d"}
        assert len(convs) == 6
        assert all(len(node.slices) == 1 for node in convs.values())
        assert not [s for s in g.layout if s.name.rsplit(".", 1)[0] in convs and s.kind == "bias"]
        conv = convs["block2.conv_a"]
        assert (conv.kernel, conv.stride, conv.pad) == (3, 2, 1)
        assert conv.in_shape == (8, 28, 28) and conv.slices[0][2] == (16, 8, 3, 3)


class TestInit:
    def test_same_seed_bit_identical(self):
        g = lenet_micro()
        a = init_params(g, 7)
        b = init_params(g, 7)
        assert np.array_equal(a.data, b.data)

    def test_different_seeds_differ(self):
        g = mlp2()
        assert not np.array_equal(init_params(g, 1).data, init_params(g, 2).data)

    def test_kaiming_fan_in_variance(self):
        g = mlp2(100, 128, 10)  # fc1.weight has 12800 params, fan_in 100
        params = init_params(g, 0)
        var = layer_stats(params.get("fc1.weight")).variance
        assert var == pytest.approx(2.0 / 100.0, rel=0.2)

    def test_bias_zero_scale_one(self):
        g = resnet_micro(1, 8, 3, width=2)
        params = init_params(g, 0)
        assert np.all(params.get("head.fc.bias") == 0.0)
        assert np.all(params.get("stem.bn.scale") == 1.0)
        assert np.all(params.get("stem.bn.shift") == 0.0)

    def test_init_variance_consistent_across_seeds(self):
        g = mlp2(100, 64, 10)
        variances = [
            layer_stats(init_params(g, seed).get("fc1.weight")).variance
            for seed in range(20)
        ]
        variances = np.array(variances)
        assert variances.std() / variances.mean() < 0.10


class TestForward:
    def test_zero_params_zero_logits(self):
        g = mlp2(4, 3, 2)
        params = g.wrap(np.zeros(g.num_params, dtype=np.float32))
        out = forward(graph=g, params=params, x=np.ones((5, 4), dtype=np.float32))
        assert np.all(out == 0.0)

    def test_identity_dense(self):
        nodes = [GraphNode("d", "dense", (), {"out": 3})]
        g = ModelGraph(nodes, (3,))
        params = g.wrap(np.zeros(g.num_params))
        params = params.with_slices({"d.weight": np.eye(3).reshape(-1)})
        x = np.array([[0.5, -1.5, 2.0]])
        assert np.allclose(forward(g, params, x), x)

    def test_hand_computed_two_layer(self):
        g = mlp2(2, 2, 2)
        params = g.wrap(np.zeros(g.num_params))
        params = params.with_slices(
            {
                "fc1.weight": np.array([[1.0, -1.0], [0.5, 0.25]]).reshape(-1),
                "fc1.bias": np.array([0.1, 0.2]),
                "fc2.weight": np.array([[1.0, 0.0], [1.0, 1.0]]).reshape(-1),
                "fc2.bias": np.array([0.0, 0.0]),
            }
        )
        # x = [1, 2]: fc1 -> [2.1, -0.3]; relu -> [2.1, 0]; fc2 -> [2.1, 0]
        out = forward(g, params, np.array([[1.0, 2.0]]))
        assert np.allclose(out, [[2.1, 0.0]])

    def test_shape_mismatch_rejected(self):
        g = mlp2(4, 3, 2)
        params = init_params(g, 0)
        with pytest.raises(ValueError, match="does not match"):
            forward(g, params, np.ones((2, 5)))


class TestNormStats:
    """One batch-norm mechanism: statistics fitted at the evaluated point."""

    @staticmethod
    def _jittered(g, seed=0):
        params = init_params(g, seed)
        rng = np.random.default_rng(seed)
        data = params.copy_data() + rng.normal(0, 0.1, g.num_params).astype(np.float32)
        return g.wrap(data)

    def test_stats_cover_every_batch_norm_and_stay_out_of_layout(self):
        g = resnet_micro(1, 8, 3, width=2)
        assert {s.kind for s in g.layout} == {"weight", "bias", "norm_scale", "norm_shift"}
        x = np.random.default_rng(0).normal(size=(4, 1, 8, 8)).astype(np.float32)
        stats = norm_stats(g, init_params(g, 0), x)
        assert set(stats) == {n.name for n in g.nodes if n.kind == "batch_norm"}
        for node in g.plan:
            if node.kind == "batch_norm":
                mean, var = stats[node.name]
                assert mean.shape == var.shape == (node.in_shape[0],)
                assert mean.dtype == var.dtype == np.float32

    def test_stem_stats_are_conv_output_moments(self):
        g = resnet_micro(1, 8, 3, width=2)
        params = self._jittered(g)
        x = np.random.default_rng(1).normal(size=(16, 1, 8, 8)).astype(np.float32)
        conv = next(node for node in g.plan if node.name == "stem.conv")
        o, n, shape = conv.slices[0]
        y, _ = conv2d_forward(
            x.transpose(1, 2, 3, 0), params.data[o : o + n].reshape(shape), None,
            conv.stride, conv.pad,
        )
        mean, var = norm_stats(g, params, x)["stem.bn"]
        assert mean.tobytes() == y.mean(axis=(1, 2, 3)).tobytes()
        assert var.tobytes() == y.var(axis=(1, 2, 3)).tobytes()

    def test_fixed_batch_stats_match_batch_forward(self):
        g = resnet_micro(1, 8, 3, width=2)
        params = self._jittered(g, 2)
        x = np.random.default_rng(3).normal(size=(12, 1, 8, 8)).astype(np.float32)
        fixed = forward(g, params, x, norm_stats(g, params, x))
        assert fixed.tobytes() == forward(g, params, x).tobytes()

    def test_evaluate_without_rows_raises(self):
        g = resnet_micro(1, 8, 3, width=2)
        x = np.zeros((4, 1, 8, 8), dtype=np.float32)
        data = Dataset(x, np.zeros(4, dtype=np.int64), "test", 3)
        with pytest.raises(ValueError, match="norm_x"):
            evaluate(g, init_params(g, 0), data)
        loss, _ = evaluate(g, init_params(g, 0), data, norm_x=x)
        assert np.isfinite(loss)

    def test_loss_and_grad_runs_in_train_mode_only(self):
        g = mlp2(4, 3, 2)
        x, y = np.ones((2, 4)), np.zeros(2, dtype=int)
        loss_and_grad(g, init_params(g, 0), x, y, "train")
        with pytest.raises(ValueError, match="train mode only"):
            loss_and_grad(g, init_params(g, 0), x, y, "eval")


class TestLossAndGrad:
    def test_uniform_logits_loss(self):
        g = mlp2(4, 3, 5)
        params = g.wrap(np.zeros(g.num_params))
        loss, _ = loss_and_grad(g, params, np.ones((7, 4)), np.zeros(7, dtype=int))
        assert loss == pytest.approx(np.log(5.0))

    def test_duplicated_sample_same_gradient(self):
        g = mlp2(4, 3, 2)
        params = init_params(g, 1, np.float64)
        x = np.array([[0.3, -0.7, 1.1, 0.2]])
        y = np.array([1])
        _, g1 = loss_and_grad(g, params, x, y)
        _, g4 = loss_and_grad(g, params, np.repeat(x, 4, axis=0), np.repeat(y, 4))
        assert np.allclose(g1.data, g4.data, rtol=1e-12)

    def test_gradcheck_dense(self):
        assert finite_difference_check(mlp2(5, 4, 3)) < 1e-4

    def test_gradcheck_conv_strided(self):
        nodes = [
            GraphNode("c", "conv2d", (), {"out_channels": 3, "kernel": 3, "stride": 2, "pad": 1}),
            GraphNode("r", "relu", ("c",)),
            GraphNode("f", "flatten", ("r",)),
            GraphNode("d", "dense", ("f",), {"out": 3}),
        ]
        assert finite_difference_check(ModelGraph(nodes, (2, 7, 7)), batch=2) < 1e-4

    def test_gradcheck_batchnorm_train_mode(self):
        nodes = [
            GraphNode("c", "conv2d", (), {"out_channels": 3, "kernel": 3, "pad": 1}),
            GraphNode("r", "relu", ("c",)),
            GraphNode("b", "batch_norm", ("r",)),
            GraphNode("f", "flatten", ("b",)),
            GraphNode("d", "dense", ("f",), {"out": 3}),
        ]
        assert finite_difference_check(ModelGraph(nodes, (2, 6, 6)), batch=4) < 1e-4

    def test_gradcheck_pooling(self):
        nodes = [
            GraphNode("c", "conv2d", (), {"out_channels": 2, "kernel": 3, "pad": 1}),
            GraphNode("m", "max_pool", ("c",), {"kernel": 2}),
            GraphNode("a", "avg_pool", ("m",), {"kernel": 2}),
            GraphNode("f", "flatten", ("a",)),
            GraphNode("d", "dense", ("f",), {"out": 3}),
        ]
        assert finite_difference_check(ModelGraph(nodes, (1, 8, 8)), batch=2) < 1e-4

    def test_gradcheck_residual(self):
        nodes = [
            GraphNode("c1", "conv2d", (), {"out_channels": 2, "kernel": 3, "pad": 1}),
            GraphNode("c2", "conv2d", ("c1",), {"out_channels": 2, "kernel": 3, "pad": 1}),
            GraphNode("add", "residual_add", ("c1", "c2")),
            GraphNode("f", "flatten", ("add",)),
            GraphNode("d", "dense", ("f",), {"out": 3}),
        ]
        assert finite_difference_check(ModelGraph(nodes, (2, 6, 6)), batch=2) < 1e-4


def conv2d_reference(x, w, b, stride, pad):
    """Direct convolution: one loop step per output position."""
    n, _, h, wd = x.shape
    out_c, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    oh, ow = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    y = np.zeros((n, out_c, oh, ow))
    for p in range(oh):
        for q in range(ow):
            patch = xp[:, :, p * stride : p * stride + k, q * stride : q * stride + k]
            y[:, :, p, q] = np.tensordot(patch, w, axes=([1, 2, 3], [1, 2, 3]))
    if b is not None:
        y += b[None, :, None, None]
    return y


def conv2d_backward_reference(g, x, w, stride, pad):
    """(dx, dw, db) accumulated one output position at a time."""
    k = w.shape[2]
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for p in range(g.shape[2]):
        for q in range(g.shape[3]):
            rows = slice(p * stride, p * stride + k)
            cols = slice(q * stride, q * stride + k)
            dw += np.einsum("no,ncij->ocij", g[:, :, p, q], xp[:, :, rows, cols])
            dxp[:, :, rows, cols] += np.einsum("no,ocij->ncij", g[:, :, p, q], w)
    dx = dxp[:, :, pad : pad + x.shape[2], pad : pad + x.shape[3]]
    return dx, dw, g.sum(axis=(0, 2, 3))


def maxpool_reference(x, g, kernel):
    """(y, dx): per-window argmax in row-major order, gradient scattered into zeros."""
    n, c, h, w = x.shape
    y = np.zeros((n, c, h // kernel, w // kernel), dtype=x.dtype)
    dx = np.zeros(x.shape, dtype=g.dtype)
    for p in range(h // kernel):
        for q in range(w // kernel):
            window = x[:, :, p * kernel : (p + 1) * kernel, q * kernel : (q + 1) * kernel]
            flat = window.reshape(n, c, kernel * kernel)
            idx = flat.argmax(axis=-1)
            y[:, :, p, q] = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
            d = np.zeros((n, c, kernel * kernel), dtype=g.dtype)
            np.put_along_axis(d, idx[..., None], g[:, :, p, q, None], axis=-1)
            dx[:, :, p * kernel : (p + 1) * kernel, q * kernel : (q + 1) * kernel] = d.reshape(
                n, c, kernel, kernel
            )
    return y, dx


def to_batch_last(a):
    """(N, C, H, W), the layout of the references above -> the kernels' (C, H, W, N)."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0))


def to_batch_first(a):
    return a.transpose(3, 0, 1, 2)


def conv2d_forward(x, w, b, stride, pad):
    """``L.conv2d_forward`` on fresh buffers: ``x`` padded into zeros, the
    patch matrix and the output."""
    c, h, wd, n = x.shape
    out_c, _, k, _ = w.shape
    oh, ow = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad, n), x.dtype)
    xp[:, pad : pad + h, pad : pad + wd] = x
    cols = np.empty((c * k * k, oh * ow * n), x.dtype)
    out = np.empty((out_c, oh * ow * n), x.dtype)
    return L.conv2d_forward(x, w, b, stride, pad, xp=xp, cols=cols, out=out)


def conv2d_backward(g, x_shape, w, cols, stride, pad, need_dx=True):
    """``L.conv2d_backward`` on fresh buffers; the patch gradient gets its
    own, so ``cols`` survives the call."""
    work = L.conv_work(x_shape, w.shape, g.shape[1:3], pad, g.dtype, need_dx,
                       np.empty_like(cols), np.empty)
    return L.conv2d_backward(g, x_shape, w, cols, stride, pad, need_dx=need_dx,
                             dw=np.empty_like(w), db=np.empty(w.shape[0], g.dtype), work=work)


def maxpool_forward(x, kernel):
    c, h, w, n = x.shape
    return L.maxpool_forward(x, kernel, np.empty((c, h // kernel, w // kernel, n), x.dtype))


def maxpool_backward(g, x_shape, kernel, cache):
    out, masks = np.empty(x_shape, g.dtype), (np.empty(g.shape, bool), np.empty(g.shape, bool))
    return L.maxpool_backward(g, x_shape, kernel, cache, out=out, masks=masks)


class TestKernelReference:
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("pad", [0, 1])
    @pytest.mark.parametrize("kernel", [1, 3])
    @pytest.mark.parametrize("bias", [True, False])
    def test_conv2d_matches_direct_loops(self, stride, pad, kernel, bias):
        rng = np.random.default_rng(kernel * 100 + stride * 10 + pad)
        x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
        w = rng.normal(size=(4, 3, kernel, kernel)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32) if bias else None
        y, cols = conv2d_forward(to_batch_last(x), w, b, stride, pad)
        y = to_batch_first(y)
        ref = conv2d_reference(x.astype(np.float64), w.astype(np.float64),
                               None if b is None else b.astype(np.float64), stride, pad)
        assert y.dtype == np.float32 and y.shape == ref.shape
        np.testing.assert_allclose(y, ref, rtol=1e-5, atol=1e-5)

        g = rng.normal(size=y.shape).astype(np.float32)
        x_shape, g_last = to_batch_last(x).shape, to_batch_last(g)
        dx, dw, db = conv2d_backward(g_last, x_shape, w, cols, stride, pad)
        dx = to_batch_first(dx)
        rdx, rdw, rdb = conv2d_backward_reference(
            g.astype(np.float64), x.astype(np.float64), w.astype(np.float64), stride, pad
        )
        for got, want in ((dx, rdx), (dw, rdw), (db, rdb)):
            assert got.dtype == np.float32 and got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)

        no_dx, dw2, db2 = conv2d_backward(g_last, x_shape, w, cols, stride, pad, need_dx=False)
        assert no_dx is None
        assert np.array_equal(dw2, dw) and np.array_equal(db2, db)

    def test_input_conv_skips_dx_without_changing_grads(self, monkeypatch):
        def dx_buffers(kernel, g, *args):
            # the engine binds no input-gradient buffers for a call that skips dx
            if kernel == "dense_backward":
                _, w = args
                return {"dx": np.empty((g.shape[0], w.shape[0]), g.dtype)}
            x_shape, w, cols, _, pad = args
            return {"work": L.conv_work(x_shape, w.shape, g.shape[1:3], pad, g.dtype, True,
                                        np.empty_like(cols), np.empty)}

        # the layer that reads the batch, a conv or a dense one, is the last
        # whose backward runs, and the only one asked for no dx
        for g, kernel in ((lenet_micro(), "conv2d_backward"), (mlp2(), "dense_backward")):
            params = init_params(g, 0)
            rng = np.random.default_rng(0)
            x = rng.normal(size=(4,) + g.input_shape).astype(np.float32)
            y = rng.integers(0, g.shapes[g.sink][0], size=4)
            _, grads = loss_and_grad(g, params, x, y)
            full = getattr(L, kernel)
            asked = []

            def always_dx(*args, need_dx=True, **buffers):
                asked.append(need_dx)
                if not need_dx:
                    buffers.update(dx_buffers(kernel, *args))
                return full(*args, **buffers)

            with monkeypatch.context() as patch:
                patch.setattr(L, kernel, always_dx)
                _, grads_full = loss_and_grad(g, params, x, y)
            assert asked[-1] is False and asked.count(False) == 1, kernel
            assert np.array_equal(grads.data, grads_full.data)

    @pytest.mark.parametrize("kernel", [2, 3])
    def test_maxpool_matches_window_argmax(self, kernel):
        rng = np.random.default_rng(kernel)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        y, cache = maxpool_forward(to_batch_last(x), kernel)
        y = to_batch_first(y)
        g = rng.normal(size=y.shape).astype(np.float32)
        dx = to_batch_first(maxpool_backward(to_batch_last(g), to_batch_last(x).shape, kernel, cache))
        ref_y, ref_dx = maxpool_reference(x, g, kernel)
        assert np.array_equal(y, ref_y)
        assert np.array_equal(dx, ref_dx)

    @pytest.mark.parametrize("kernel", [2, 3])
    def test_maxpool_ties_route_to_first_max(self, kernel):
        # ReLU output: most windows hold several zeros and nothing larger
        rng = np.random.default_rng(10 + kernel)
        x = np.maximum(rng.normal(size=(3, 2, 12, 12)) - 1.5, 0).astype(np.float32)
        y, cache = maxpool_forward(to_batch_last(x), kernel)
        y = to_batch_first(y)
        assert (y == 0).mean() > 0.3
        g = rng.choice([-1.5, -0.0, 0.25, 2.0], size=y.shape).astype(np.float32)
        x_shape = to_batch_last(x).shape
        dx = to_batch_first(maxpool_backward(to_batch_last(g), x_shape, kernel, cache))
        _, ref_dx = maxpool_reference(x, g, kernel)
        assert np.array_equal(dx.view(np.uint32), ref_dx.view(np.uint32))
        # exactly one input of each window receives its output's gradient
        n, c, h, w = x.shape
        ones = np.ones_like(g)
        routed = to_batch_first(maxpool_backward(to_batch_last(ones), x_shape, kernel, cache))
        per_window = routed.reshape(n, c, h // kernel, kernel, w // kernel, kernel).sum(axis=(3, 5))
        assert np.array_equal(per_window, ones)


def conv_gemms(graph):
    """(name, M, K, columns per row) of each conv GEMM ``graph`` runs: the
    forward ``w @ cols`` and the patch gradient ``w.T @ gm``."""
    gemms = []
    for node in graph.plan:
        if node.kind == "conv2d":
            out_c, oh, ow = graph.shapes[node.name]
            ckk = node.in_shape[0] * node.kernel**2
            gemms += [(f"{node.name} w @ cols", out_c, ckk, oh * ow),
                      (f"{node.name} w.T @ gm", ckk, out_c, oh * ow)]
    return gemms


class TestSmallGemmPanels:
    """``L._panel_matmul`` runs a conv GEMM in column panels on OpenBLAS's
    small-matrix path and must give one ``np.matmul``'s bits."""

    ROWS = (1, 3, 37, 48, 64, 74, 128)
    MODELS = {
        "lenet-micro 28x28": lambda: lenet_micro(),
        "lenet-micro 12x12": lambda: lenet_micro(hw=12),
        "resnet-micro 28x28": lambda: resnet_micro(),
    }

    @pytest.mark.parametrize("model", sorted(MODELS))
    @pytest.mark.parametrize("pdtype, xdtype", [
        (np.float32, np.float32), (np.float64, np.float64), (np.float64, np.float32)])
    def test_panels_give_one_matmuls_bits(self, model, pdtype, xdtype):
        rng = np.random.default_rng(7)
        for name, m, k, per_row in conv_gemms(self.MODELS[model]()):
            # the patch matrix has the batch's dtype; the output gradient is
            # computed in the parameters' and batch's common dtype
            bdtype = xdtype if name.endswith("cols") else np.promote_types(pdtype, xdtype)
            for rows in self.ROWS:
                n = per_row * rows
                w = rng.normal(size=(k, m) if name.endswith("gm") else (m, k)).astype(pdtype)
                a = w.T if name.endswith("gm") else w
                b = rng.normal(size=(k, n)).astype(bdtype)
                want = np.matmul(a, b, out=np.empty((m, n), pdtype))
                got = L._panel_matmul(a, b, np.empty((m, n), pdtype))
                assert got.tobytes() == want.tobytes(), (name, rows, len(L._panels(m, k, n)))

    def test_panel_bounds(self):
        shapes = {(m, k) for g in (lenet_micro(), lenet_micro(hw=12), resnet_micro())
                  for _, m, k, _ in conv_gemms(g)}
        for m, k in sorted(shapes | {(128, 256)}):  # 128*256 fits no 64-column panel
            for n in [*range(1, 4000, 13), *range(4000, 120000, 997), 14504, 50176]:
                panels = L._panels(m, k, n)
                bounds = [lo for lo, _ in panels] + [panels[-1][1]]
                assert bounds[0] == 0 and bounds[-1] == n and bounds == sorted(set(bounds))
                if m * k * n <= L.SMALL_GEMM or m * k * 64 > L.SMALL_GEMM:
                    assert panels == [(0, n)]
                    continue
                widths = [hi - lo for lo, hi in panels]
                for width in widths[:-1]:
                    assert width % 64 == 0 and m * k * width <= L.SMALL_GEMM
                if n % 16:  # a ragged last panel stays on the packed path
                    assert m * k * widths[-1] > L.SMALL_GEMM, (m, k, n)
                else:
                    assert widths[-1] % 16 == 0 and m * k * widths[-1] <= L.SMALL_GEMM

    def test_conv_kernels_match_one_matmul_at_lenet_batch_64(self, monkeypatch):
        rng = np.random.default_rng(3)
        x1 = rng.normal(size=(1, 28, 28, 64)).astype(np.float32)
        x2 = rng.normal(size=(4, 14, 14, 64)).astype(np.float32)
        cases = []
        for x, w_shape in ((x1, (4, 1, 3, 3)), (x2, (8, 4, 3, 3))):
            w = rng.normal(size=w_shape).astype(np.float32)
            b = rng.normal(size=w_shape[0]).astype(np.float32)
            g = rng.normal(size=(w_shape[0],) + x.shape[1:]).astype(np.float32)
            cases.append((x, w, b, g))

        def run():
            outs = []
            for x, w, b, g in cases:
                y, cols = conv2d_forward(x, w, b, 1, 1)
                outs += [y, *conv2d_backward(g, x.shape, w, cols, 1, 1)]
            return [o.tobytes() for o in outs]

        panelled = run()
        calls = []

        def one_matmul(a, b, out):
            calls.append(len(L._panels(a.shape[0], a.shape[1], b.shape[1])))
            return np.matmul(a, b, out=out)

        monkeypatch.setattr(L, "_panel_matmul", one_matmul)
        assert run() == panelled
        # each conv's forward and patch gradient go through the helper, and
        # every one of them is split at these shapes
        assert len(calls) == 4 and min(calls) > 1


def sgd_step_allocating(params, grad, cfg, velocity, lr=None):
    """The allocating SGD update that the in-place ``sgd_step`` replaced,
    frozen as its reference: it returns new (params, velocity) arrays."""
    g = grad
    if cfg.weight_decay:
        g = g + cfg.weight_decay * params
    if velocity is None:
        velocity = np.zeros(params.size, dtype=params.dtype)
    if cfg.momentum:
        velocity = cfg.momentum * velocity + g
    else:
        velocity = g
    step = cfg.lr if lr is None else lr
    return (params - step * velocity).astype(params.dtype), velocity


class TestSgdStep:
    def test_plain_step(self):
        params = np.array([1.0, 0.0])  # weight=1, bias=0
        cfg = TrainerConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step(params, np.array([2.0, 0.0]), None, cfg)
        assert params[0] == pytest.approx(0.8)

    def test_pure_shrinkage(self):
        start = np.array([1.0, 2.0])
        params = start.copy()
        cfg = TrainerConfig(lr=0.1, weight_decay=0.5)
        sgd_step(params, np.zeros(2), None, cfg)
        assert np.allclose(params, start * (1 - 0.1 * 0.5))

    def test_momentum_unrolled(self):
        params = np.array([1.0, 0.0])
        velocity = np.zeros(2)
        cfg = TrainerConfig(lr=0.1, momentum=0.9)
        sgd_step(params, np.array([2.0, 0.0]), velocity, cfg)
        p1 = params[0]
        sgd_step(params, np.array([2.0, 0.0]), velocity, cfg)
        # v1 = 2 -> theta 0.8; v2 = 0.9*2 + 2 = 3.8 -> theta 0.8 - 0.38 = 0.42
        assert p1 == pytest.approx(0.8)
        assert params[0] == pytest.approx(0.42)

    def test_per_layer_rate_vector(self):
        g = mlp2(2, 2, 2)
        params = np.ones(g.num_params)
        cfg = TrainerConfig(lr=1.0)
        lr = np.zeros(g.num_params)
        lr[g.layout.spans["fc2.weight"]] = 0.5
        sgd_step(params, np.ones(g.num_params), None, cfg, lr=lr)
        out = g.wrap(params)
        assert np.all(out.get("fc1.weight") == 1.0)
        assert np.all(out.get("fc2.weight") == 0.5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rate", ["scalar", "per-coordinate"])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-2])
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_in_place_step_matches_the_allocating_reference(
        self, momentum, weight_decay, rate, dtype
    ):
        rng = np.random.default_rng(0)
        n = 257
        cfg = TrainerConfig(lr=0.05, momentum=momentum, weight_decay=weight_decay)
        lr = None if rate == "scalar" else rng.uniform(0.0, 0.1, n).astype(dtype)
        ref_p, ref_v = rng.normal(size=n).astype(dtype), None
        params = ref_p.copy()
        velocity = np.zeros_like(params) if momentum else None
        for _ in range(40):
            grad = rng.normal(size=n).astype(dtype)
            ref_p, ref_v = sgd_step_allocating(ref_p, grad, cfg, ref_v, lr)
            sgd_step(params, grad.copy(), velocity, cfg, lr)
            assert params.dtype == dtype and params.tobytes() == ref_p.tobytes()
            if momentum:
                assert velocity.tobytes() == ref_v.tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(lr=0.1, momentum=1.0)
        # an empty batch trains nothing and reports a NaN loss
        with pytest.raises(ValueError, match="batch_size"):
            TrainerConfig(lr=0.1, batch_size=0)
        with pytest.raises(ValueError):
            StopRule(loss_threshold=0.1, max_rounds=0)
        # a rolling window wider than the round cap never fills, so a
        # positive threshold could never stop training early
        with pytest.raises(ValueError, match="never fills"):
            StopRule(loss_threshold=0.1, max_rounds=5, window=6)
        StopRule(loss_threshold=0.1, max_rounds=5, window=5)
        StopRule(loss_threshold=0.0, max_rounds=5, window=6)


@pytest.fixture(scope="module")
def blobs():
    return gen_blobs(3, 20, 1200, seed=5)


class TestTrainAndEvaluate:
    def test_stops_at_window_when_already_low(self, blobs):
        train, _ = blobs
        g = mlp2(20, 8, 3)
        p = init_params(g, 0).copy_data()
        rule = StopRule(loss_threshold=1e9, max_rounds=500, window=10)
        rng = np.random.default_rng(0)
        result = train_until(training_plan(g, p), train, TrainerConfig(lr=1e-4), rule, rng)
        assert result.rounds == 10 and result.hit_threshold

    def test_round_cap_is_normal_outcome(self, blobs):
        train, _ = blobs
        g = mlp2(20, 8, 3)
        p = init_params(g, 0).copy_data()
        rule = StopRule(loss_threshold=0.0, max_rounds=25, window=10)
        rng = np.random.default_rng(0)
        result = train_until(training_plan(g, p), train, TrainerConfig(lr=1e-3), rule, rng)
        assert result.rounds == 25 and not result.hit_threshold

    def test_training_is_deterministic(self, blobs):
        train, _ = blobs
        g = mlp2(20, 8, 3)
        rule = StopRule(loss_threshold=0.0, max_rounds=50, window=10)
        finals, losses = [], []
        for _ in range(2):
            p = init_params(g, 3).copy_data()
            rng = np.random.default_rng(3)
            result = train_until(training_plan(g, p), train, TrainerConfig(lr=0.05), rule, rng)
            losses.append(result.losses)
            finals.append(p)
        assert np.array_equal(*finals)
        assert losses[0] == losses[1]

    def test_trains_the_callers_array_in_place(self, blobs):
        train, _ = blobs
        g = mlp2(20, 8, 3)
        start = init_params(g, 3)
        p = start.copy_data()
        rule = StopRule(loss_threshold=0.0, max_rounds=5, window=10)
        rng = np.random.default_rng(3)
        train_until(training_plan(g, p), train, TrainerConfig(lr=0.05), rule, rng)
        assert not np.array_equal(p, start.data)
        with pytest.raises(ValueError, match="gradient buffer"):
            train_until(Plan(g, p), train, TrainerConfig(lr=0.05), rule, np.random.default_rng(3))

    def test_plan_refuses_arrays_out_of_layout(self):
        g = mlp2(20, 8, 3)
        start = init_params(g, 3)
        p = start.copy_data()
        grad = np.empty_like(p)
        # a vector, a read-only array, one of another length or an int array
        for bad in (start, start.data, p[:-1], p.astype(np.int64)):
            with pytest.raises(LayoutMismatch):
                Plan(g, bad, grad)
        for bad in (start, p[:-1], p.astype(np.int64)):
            with pytest.raises(LayoutMismatch):
                Plan(g, bad)
        for bad in (grad[:-1], grad.astype(np.int64), [0.0] * g.num_params):
            with pytest.raises(LayoutMismatch):
                Plan(g, p, bad)
        Plan(g, start.data)  # evaluating reads a read-only array
        data = Dataset(np.zeros((4, 20), np.float32), np.zeros(4, np.int64), "train", 3)
        with pytest.raises(LayoutMismatch):  # not ln 3 from truncated parameters
            evaluate(g, p.astype(np.int64), data)

    def test_desk_training_reaches_low_loss(self, blobs):
        train, test = blobs
        g = mlp2(20, 16, 3)
        p = init_params(g, 1).copy_data()
        rng = np.random.default_rng(1)
        cfg = TrainerConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, batch_size=32)
        rule = StopRule(loss_threshold=0.05, max_rounds=2000, window=10)
        result = train_until(training_plan(g, p), train, cfg, rule, rng)
        assert result.hit_threshold and result.rolling_loss < 0.05
        loss, acc = evaluate(g, g.wrap(p), test, accuracy=True)
        assert acc > 0.95

    def test_uniform_logits_evaluation(self, blobs):
        train, _ = blobs
        g = mlp2(20, 8, 3)
        params = g.wrap(np.zeros(g.num_params, dtype=np.float32))
        loss, acc = evaluate(g, params, train, accuracy=True)
        assert loss == pytest.approx(np.log(3.0), rel=1e-5)
        assert acc == pytest.approx(1.0 / 3.0, abs=0.05)

    def test_perfect_logits_accuracy(self):
        g = ModelGraph([GraphNode("d", "dense", (), {"out": 2})], (2,))
        params = g.wrap(np.zeros(g.num_params))
        params = params.with_slices({"d.weight": np.eye(2).reshape(-1) * 10})
        data = Dataset(
            inputs=np.array([[1.0, 0.0], [0.0, 1.0]] * 5, dtype=np.float32),
            labels=np.array([0, 1] * 5, dtype=np.int64),
            split="test",
            num_classes=2,
        )
        loss, acc = evaluate(g, params, data, accuracy=True)
        assert acc == 1.0

    def test_empty_dataset_rejected(self):
        g = mlp2(4, 3, 2)
        params = init_params(g, 0)
        empty = Dataset(
            inputs=np.zeros((0, 4), dtype=np.float32),
            labels=np.zeros(0, dtype=np.int64),
            split="test",
            num_classes=2,
        )
        with pytest.raises(ValueError, match="empty"):
            evaluate(g, params, empty)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_out_of_range_rejected(self, bad):
        # a negative label would index the loss kernel's flat logits from
        # the previous row: a wrong loss, not an error
        labels = np.array([0, 1, 2, bad, 0, 1, 2, 0], dtype=np.int64)
        with pytest.raises(ValueError, match="label out of range"):
            Dataset(np.zeros((8, 20), np.float32), labels, "test", 3)


def _softmax_cross_entropy_reference(logits, labels):
    """softmax_cross_entropy as it was before it shared its log-softmax with
    the loss-only kernel: the oracle its loss and gradient must match bit for bit."""
    z = logits.astype(np.float64, copy=False)
    z = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1, keepdims=True))
    log_probs = z - log_norm
    n = logits.shape[0]
    loss = float(-log_probs[np.arange(n), labels].mean())
    probs = np.exp(log_probs)
    probs[np.arange(n), labels] -= 1.0
    dlogits = (probs / n).astype(logits.dtype)
    return loss, dlogits


def _logit_cases():
    rng = np.random.default_rng(11)
    for dtype in (np.float32, np.float64):
        for scale in (1.0, 30.0):
            yield rng.normal(0, scale, size=(67, 10)).astype(dtype), rng.integers(0, 10, 67)
        extreme = rng.normal(size=(9, 4)).astype(dtype)
        extreme[0] = [1e4, -1e4, 0.0, 1e4]
        extreme[1] = [-1e4, -1e4, -1e4, -1e4]
        extreme[2, 3] = -1e4
        extreme[3, 1] = 1e4
        yield extreme, np.array([1, 0, 3, 2, 0, 1, 2, 3, 0])
    # each side of the class sum's 8-value block order, and the continuity
    # check's 2048-row, 3-class evaluation
    rng = np.random.default_rng(12)
    for dtype in (np.float32, np.float64):
        for n, classes in ((33, 2), (33, 3), (33, 8), (33, 16), (33, 17), (2048, 3)):
            yield rng.normal(0, 4, size=(n, classes)).astype(dtype), rng.integers(0, classes, n)


LOGIT_CASES = list(_logit_cases())


def softmax_cross_entropy(logits, labels):
    n, classes = logits.shape
    return L.softmax_cross_entropy(logits, labels, out=np.empty_like(logits),
                                   work=L.loss_work(n, classes, np.empty))


def cross_entropy_loss(logits, labels):
    return L.cross_entropy_loss(logits, labels, L.loss_work(*logits.shape, np.empty))


class TestLossKernels:
    @pytest.mark.parametrize("case", range(len(LOGIT_CASES)))
    def test_training_kernel_matches_frozen_reference(self, case):
        logits, labels = LOGIT_CASES[case]
        loss, dlogits = softmax_cross_entropy(logits, labels)
        ref_loss, ref_dlogits = _softmax_cross_entropy_reference(logits, labels)
        assert loss.hex() == ref_loss.hex()
        assert dlogits.dtype == ref_dlogits.dtype == logits.dtype
        # tobytes() reads C order whatever the layout, and dense_backward's
        # GEMMs round differently on an F-ordered gradient
        assert dlogits.flags.c_contiguous
        assert dlogits.tobytes() == ref_dlogits.tobytes()

    @pytest.mark.parametrize("case", range(len(LOGIT_CASES)))
    def test_loss_only_kernel_is_the_training_loss(self, case):
        logits, labels = LOGIT_CASES[case]
        loss = cross_entropy_loss(logits, labels)
        assert loss.hex() == softmax_cross_entropy(logits, labels)[0].hex()

    @pytest.mark.parametrize("classes", [1, 2, 3, 7, 8, 9, 10, 16, 17, 33, 128, 129, 300])
    def test_class_sum_is_numpys_row_sum(self, classes):
        # the class-major kernels rely on numpy's summation order for one
        # row; a numpy release that changes it fails here first
        x = np.random.default_rng(classes).normal(0, 10, size=(50, classes))
        total = L.class_sum(np.ascontiguousarray(x.T), np.empty(50))
        assert total.tobytes() == x.sum(axis=1).tobytes()


class TestKernelBuffers:
    BUFFERS = {"out", "work", "xp", "cols", "masks", "dw", "db", "dx", "dscale", "dshift"}

    def test_no_kernel_buffer_has_a_default(self):
        # a kernel never allocates its result or scratch buffers: the plan
        # binds every one of them, so a caller must pass them all
        kernels = [fn for fn in vars(L).values()
                   if inspect.isfunction(fn) and fn.__module__ == L.__name__]
        assert len(kernels) > 15
        defaults = [
            f"{fn.__name__}({p.name}=...)" for fn in kernels
            for p in inspect.signature(fn).parameters.values()
            if p.name in self.BUFFERS and p.default is not p.empty
        ]
        assert defaults == []


class TestEvalChunks:
    """Chunk sizes come from the model's widest per-sample array."""

    # widest per-sample array in elements: mlp2's hidden layer; lenet-micro's
    # im2col patch matrices (1*3*3 x 28*28 and 4*3*3 x 14*14); the 8x8,
    # width-2 resnet-micro's block1 patch matrices (2*3*3 x 8*8)
    WIDEST = {"mlp2": 16, "lenet-micro": 7056, "resnet-micro": 1152}
    MODELS = {
        "mlp2": mlp2,
        "lenet-micro": lenet_micro,
        "resnet-micro": lambda: resnet_micro(1, 8, 3, width=2),
    }
    # the fitted batch-norm statistics are the same for every chunk size, so
    # resnet-micro's loss moves only by the float32 rounding of convolution
    # GEMMs whose column count follows the chunk (up to 4e-9 relative, seen
    # with one-row chunks)
    REL = {"mlp2": 1e-12, "lenet-micro": 1e-12, "resnet-micro": 1e-8}

    @pytest.fixture
    def chunk_sizes(self, monkeypatch):
        """The row count of every chunk evaluate runs through the model."""
        sizes = []

        def spy(graph, params, x, *args):
            sizes.append(len(x))
            return forward(graph, params, x, *args)

        monkeypatch.setattr(trainer, "forward", spy)
        return sizes

    def test_derived_rows_pinned(self, monkeypatch):
        rows = {name: trainer.eval_chunk_rows(build_model(name), 4) for name in MODEL_BUILDERS}
        # resnet-micro's widest array is 225 KB per sample
        assert rows == {"mlp2": 32768, "lenet-micro": 74, "resnet-micro": 9}
        assert trainer.eval_chunk_rows(lenet_micro(), 8) == 37
        # an array wider than the whole budget still gets one row per chunk
        monkeypatch.setattr(trainer, "EVAL_CHUNK_BYTES", 1)
        assert trainer.eval_chunk_rows(mlp2(), 4) == 1

    @pytest.mark.parametrize("name", ["mlp2", "lenet-micro", "resnet-micro"])
    def test_loss_invariant_to_chunk_size(self, name, monkeypatch, chunk_sizes):
        g = self.MODELS[name]()
        rng = np.random.default_rng(5)
        n = 600
        x = rng.normal(size=(n,) + g.input_shape).astype(np.float32)
        y = rng.integers(0, g.shapes[g.sink][0], size=n)
        data = Dataset(x, y, "test", int(g.shapes[g.sink][0]))
        params = init_params(g, 3)
        norm_x = norm_rows(data)
        loss, acc = evaluate(g, params, data, norm_x, accuracy=True)
        assert chunk_sizes[0] == min(trainer.eval_chunk_rows(g, 4), n) and sum(chunk_sizes) == n
        for rows in (64, 512, n):
            monkeypatch.setattr(trainer, "EVAL_CHUNK_BYTES", rows * self.WIDEST[name] * 4)
            chunk_sizes.clear()
            other_loss, other_acc = evaluate(g, params, data, norm_x, accuracy=True)
            assert chunk_sizes[0] == rows and sum(chunk_sizes) == n
            assert other_loss == pytest.approx(loss, rel=self.REL[name], abs=0)
            assert other_acc == acc


class TestNchwPins:
    """One seeded float64 training step, pinned to the loss and per-slice
    gradient L2 norms that the NCHW engine computed for it: the batch-last
    layout may move them by float64 rounding only."""

    PINS = {
        "lenet-micro": (3.337099466464146, {
            "conv1.weight": 2.11648669557131, "conv1.bias": 0.4189854486422144,
            "conv2.weight": 5.84385416705933, "conv2.bias": 0.6331436209744381,
            "fc1.weight": 19.10052219570454, "fc1.bias": 0.6234798953792761,
            "fc2.weight": 5.782966389342358, "fc2.bias": 0.6083173305069031,
        }),
        "resnet-micro": (2.5288137108998563, {
            "stem.conv.weight": 0.14597996074687727,
            "stem.bn.scale": 0.01640258559272391, "stem.bn.shift": 0.04336134690953833,
            "block1.conv_a.weight": 0.32459138176491625,
            "block1.bn_a.scale": 0.034843650030056364, "block1.bn_a.shift": 0.037506266825723604,
            "block1.conv_b.weight": 0.2357674267395573,
            "block1.bn_b.scale": 0.03751907322831305, "block1.bn_b.shift": 0.023105662336445666,
            "block2.conv_a.weight": 0.21346328682618881,
            "block2.bn_a.scale": 0.0345042663216045, "block2.bn_a.shift": 0.024751263255787415,
            "block2.conv_b.weight": 0.2410743950631367,
            "block2.bn_b.scale": 0.15575700084580882, "block2.bn_b.shift": 0.2665789667984099,
            "block2.skip_conv.weight": 0.06404422202790397,
            "block2.skip_bn.scale": 0.14595946592772294, "block2.skip_bn.shift": 0.2665789667984099,
            "head.fc.weight": 0.8896223694588355, "head.fc.bias": 0.3956308848338543,
        }),
    }

    @pytest.mark.parametrize("name", sorted(PINS))
    def test_float64_step_matches_nchw_engine(self, name):
        g = build_model(name)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6,) + g.input_shape)
        y = rng.integers(0, 10, size=6)
        params = init_params(g, 1, np.float64)
        loss, grads = loss_and_grad(g, params, x, y)
        want_loss, want_norms = self.PINS[name]
        assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
        norms = {s: float(np.linalg.norm(grads.get(s))) for s in grads.names()}
        assert norms == pytest.approx(want_norms, rel=1e-12, abs=0)


class TestConvNetTraining:
    def test_lenet_micro_training_repeats_byte_for_byte(self):
        rng = np.random.default_rng(4)
        data = Dataset(
            rng.normal(size=(200, 1, 28, 28)).astype(np.float32),
            rng.integers(0, 10, size=200), "train", 10,
        )
        g = lenet_micro()
        cfg = TrainerConfig(lr=0.05, momentum=0.9, weight_decay=1e-4, batch_size=16)
        finals, losses = [], []
        for _ in range(2):
            p = init_params(g, 6).copy_data()
            rng = np.random.default_rng(6)
            result = train_until(training_plan(g, p), data, cfg, StopRule(0.0, 12, 4), rng)
            losses.append([v.hex() for v in result.losses])
            finals.append(p.tobytes())
        assert finals[0] == finals[1]
        assert losses[0] == losses[1]

    def test_small_convnet_learns_synthetic_images(self):
        # class = which quadrant holds the bright blob
        rng = np.random.default_rng(0)
        n = 240
        images = rng.normal(0, 0.3, size=(n, 1, 8, 8)).astype(np.float32)
        labels = (np.arange(n) % 4).astype(np.int64)
        corners = {0: (0, 0), 1: (0, 4), 2: (4, 0), 3: (4, 4)}
        for i, label in enumerate(labels):
            r, c = corners[int(label)]
            images[i, 0, r : r + 4, c : c + 4] += 2.0
        data = Dataset(images, labels, "train", 4)

        g = lenet_micro(in_channels=1, hw=8, classes=4)
        p = init_params(g, 1).copy_data()
        rng = np.random.default_rng(1)
        cfg = TrainerConfig(lr=0.05, momentum=0.9, batch_size=16)
        result = train_until(training_plan(g, p), data, cfg, StopRule(0.05, 600, 10), rng)
        assert result.rolling_loss < 0.2
        _, acc = evaluate(g, g.wrap(p), data, accuracy=True)
        assert acc > 0.9

    def test_resnet_micro_trains_above_chance(self):
        rng = np.random.default_rng(2)
        images = rng.normal(size=(120, 1, 8, 8)).astype(np.float32)
        labels = (images.mean(axis=(1, 2, 3)) > 0).astype(np.int64)
        data = Dataset(images, labels, "train", 2)
        g = resnet_micro(1, 8, 2, width=4)
        p = init_params(g, 0).copy_data()
        cfg = TrainerConfig(lr=0.05, momentum=0.9, batch_size=16)
        rng = np.random.default_rng(0)
        result = train_until(training_plan(g, p), data, cfg, StopRule(0.0, 200, 10), rng)
        assert result.rolling_loss < np.log(2.0)  # beats chance
        # statistics fitted at the trained point make evaluation usable
        loss, acc = evaluate(g, g.wrap(p), data, norm_rows(data), accuracy=True)
        assert loss < np.log(2.0) and acc > 0.6


# -- the engine before plans, frozen as the plan's reference --------------------
#
# The graph walk, its backward loop and every kernel they call, as they were
# before the engine bound its steps into a plan: each call allocates its
# arrays.  The plan must match them bit for bit.  Every array the walks pass
# on is C-ordered, as every buffer of a plan is, except flatten's view:
# numpy's reductions and GEMMs can round differently on another memory order
# of the same values, which graphs that pool the batch directly, or that
# normalize, add or reach a dense layer through a flatten, would show.


def _ref_pad(x, pad):
    if pad == 0:
        return x
    c, h, w, n = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x
    return xp


def _ref_tap(stride, oh, ow, i, j):
    return (slice(None), slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride))


def _ref_conv2d_forward(x, w, b, stride, pad):
    c, h, wd, n = x.shape
    out_c, k = w.shape[0], w.shape[2]
    oh, ow = (h + 2 * pad - k) // stride + 1, (wd + 2 * pad - k) // stride + 1
    xp = _ref_pad(x, pad)
    cols = np.empty((c, k, k, oh, ow, n), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, i, j] = xp[_ref_tap(stride, oh, ow, i, j)]
    cols = cols.reshape(c * k * k, oh * ow * n)
    y = w.reshape(out_c, -1) @ cols
    if b is not None:
        y += b[:, None]
    return y.reshape(out_c, oh, ow, n), cols


def _ref_conv2d_backward(g, x_shape, w, cols, stride, pad, need_dx):
    out_c, oh, ow, n = g.shape
    ckk = cols.shape[0]
    gm = g.reshape(out_c, -1)
    cols_rows = cols.reshape(ckk, oh, ow * n).transpose(1, 0, 2)
    g_rows = gm.reshape(out_c, oh, ow * n).transpose(1, 2, 0)
    dw = (cols_rows @ g_rows).sum(axis=0).T.reshape(w.shape)
    db = gm.sum(axis=1)
    if not need_dx:
        return None, dw, db
    dcols = w.reshape(out_c, ckk).T @ gm
    c, h, wd, n = x_shape
    k = w.shape[2]
    xp = np.zeros((c, h + 2 * pad, wd + 2 * pad, n), dtype=dcols.dtype)
    cols6 = dcols.reshape(c, k, k, oh, ow, n)
    for i in range(k):
        for j in range(k):
            xp[_ref_tap(stride, oh, ow, i, j)] += cols6[:, i, j]
    return (xp if pad == 0 else xp[:, pad : pad + h, pad : pad + wd]), dw, db


def _ref_bn_axes_shape(x):
    return ((0,), (1, -1)) if x.ndim == 2 else ((1, 2, 3), (-1, 1, 1, 1))


def _ref_batchnorm_forward(x, scale, shift, stats):
    axes, shape = _ref_bn_axes_shape(x)
    if stats is None:
        stats = x.mean(axis=axes), x.var(axis=axes)
    mean, var = stats
    inv_std = 1.0 / np.sqrt(var + L.BN_EPS)
    xhat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    return scale.reshape(shape) * xhat + shift.reshape(shape), (xhat, inv_std, stats)


def _ref_batchnorm_backward(g, x, scale, cache):
    xhat, inv_std, _ = cache
    axes, shape = _ref_bn_axes_shape(x)
    m = float(np.prod([x.shape[a] for a in axes]))
    dscale = (g * xhat).sum(axis=axes)
    dshift = g.sum(axis=axes)
    dxhat = g * scale.reshape(shape)
    inv = inv_std.reshape(shape)
    sum_dxhat = dxhat.sum(axis=axes).reshape(shape)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=axes).reshape(shape)
    return (inv / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat), dscale, dshift


def _ref_maxpool_forward(x, k):
    y = x[:, ::k, ::k].copy()
    for i in range(k):
        for j in range(k):
            if i or j:
                np.maximum(y, x[:, i::k, j::k], out=y)
    return y, (x, y)


def _ref_maxpool_backward(g, x_shape, k, cache):
    x, y = cache
    bits = f"u{g.itemsize}"
    dx = np.empty(x_shape, dtype=g.dtype)
    g_bits, dx_bits = g.view(bits), dx.view(bits)
    free = np.ones(y.shape, dtype=bool)
    for i in range(k):
        for j in range(k):
            hit = x[:, i::k, j::k] == y
            hit &= free
            np.multiply(g_bits, hit, out=dx_bits[:, i::k, j::k])
            free ^= hit
    return dx


def _ref_avgpool_forward(x, k):
    c, h, w, n = x.shape
    if k is None:
        return x.mean(axis=(1, 2), keepdims=True)
    return x.reshape(c, h // k, k, w // k, k, n).mean(axis=(2, 4))


def _ref_avgpool_backward(g, x_shape, k):
    c, h, w, n = x_shape
    if k is None:
        return np.broadcast_to(g / (h * w), x_shape).astype(g.dtype)
    return np.repeat(np.repeat(g, k, axis=1), k, axis=2) / (k * k)


def _ref_log_softmax(logits):
    z = logits.T.astype(np.float64, order="C")
    z -= z.max(axis=0)
    e = np.exp(z)
    total = e[0].copy() if len(e) < 8 else None
    if total is None:  # the frozen class sum, 8 to 128 classes
        full = len(e) - len(e) % 8
        acc = e[:8] if full == 8 else e[:8].copy()
        for i in range(8, full, 8):
            acc += e[i : i + 8]
        acc = acc[0::2] + acc[1::2]
        acc = acc[0::2] + acc[1::2]
        total = acc[0] + acc[1]
        rest = e[full:]
    else:
        rest = e[1:]
    for row in rest:
        total += row
    z -= np.log(total)
    return z


def _ref_softmax_cross_entropy(logits, labels):
    n = logits.shape[0]
    probs = _ref_log_softmax(logits)
    at = np.asarray(labels, dtype=np.intp) * n + np.arange(n)
    loss = float(-probs.take(at).sum() / n)
    np.exp(probs, out=probs)
    probs.ravel()[at] -= 1.0
    probs /= n
    return loss, probs.T.astype(logits.dtype, order="C")


def _ref_cross_entropy_loss(logits, labels):
    n = logits.shape[0]
    at = np.asarray(labels, dtype=np.intp) * n + np.arange(n)
    return float(-_ref_log_softmax(logits).take(at).sum() / n)


def _ref_batch_first(a):
    return a.reshape(-1, a.shape[-1]).T


def _ref_execute(graph, data, x, stats, want_caches):
    x = np.asarray(x)
    if x.ndim == 4:
        x = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
    values, caches = {}, {}
    for node in graph.plan:
        name = node.name
        ins = [values[s] for s in node.inputs] if node.inputs else [x]
        a = ins[0]
        p = [data[o : o + n].reshape(shape) for o, n, shape in node.slices]
        cache = None
        if node.kind == "dense":
            if a.ndim > 2:
                a = _ref_batch_first(a)
            y, cache = a @ p[0] + p[1], a
        elif node.kind == "conv2d":
            y, cols = _ref_conv2d_forward(a, p[0], p[1] if len(p) > 1 else None, node.stride, node.pad)
            cache = (a.shape, cols)
        elif node.kind == "batch_norm":
            fixed = None if stats is None else stats.get(name)
            y, cache = _ref_batchnorm_forward(a, p[0], p[1], fixed)
            if stats is not None:
                stats[name] = cache[2]
            cache = (a, cache)
        elif node.kind == "relu":
            y, cache = np.maximum(a, 0), a
        elif node.kind == "max_pool":
            y, cache = _ref_maxpool_forward(a, node.kernel)
            cache = (a.shape, cache)
        elif node.kind == "avg_pool":
            y, cache = _ref_avgpool_forward(a, node.kernel), a.shape
        elif node.kind == "flatten":
            y, cache = _ref_batch_first(a), a.shape
        elif node.kind == "residual_add":
            y = ins[0] + ins[1]
        if node.kind != "flatten":
            y = np.ascontiguousarray(y)
        values[name] = y
        if want_caches:
            caches[name] = cache
    return values[graph.sink], caches


def _ref_loss_and_grad(graph, data, batch_x, batch_y):
    gdata = np.zeros(graph.num_params, dtype=data.dtype)
    logits, caches = _ref_execute(graph, data, batch_x, None, want_caches=True)
    loss, dlogits = _ref_softmax_cross_entropy(logits, np.asarray(batch_y))
    grads = {graph.sink: dlogits}
    for node in reversed(graph.plan):
        name = node.name
        g = grads.pop(name, None)
        if g is None:
            continue
        pgrads = ()
        if node.slices:
            o, n, shape = node.slices[0]
            w = data[o : o + n].reshape(shape)
        if node.kind == "dense":
            x = caches[name]
            dw, db = x.T @ g, g.sum(axis=0)
            dx = g @ w.T if node.inputs else None
            if dx is not None and len(node.in_shape) > 1:
                dx = dx.T.reshape(node.in_shape + (g.shape[0],))
            pgrads = (dw, db)
        elif node.kind == "conv2d":
            x_shape, cols = caches[name]
            dx, dw, db = _ref_conv2d_backward(
                g, x_shape, w, cols, node.stride, node.pad, bool(node.inputs)
            )
            pgrads = (dw, db)
        elif node.kind == "batch_norm":
            a, cache = caches[name]
            dx, dscale, dshift = _ref_batchnorm_backward(g, a, w, cache)
            pgrads = (dscale, dshift)
        elif node.kind == "relu":
            dx = g * (caches[name] > 0)
        elif node.kind == "max_pool":
            x_shape, cache = caches[name]
            dx = _ref_maxpool_backward(g, x_shape, node.kernel, cache)
        elif node.kind == "avg_pool":
            dx = _ref_avgpool_backward(g, caches[name], node.kernel)
        elif node.kind == "flatten":
            dx = g.T.reshape(caches[name])
        elif node.kind == "residual_add":
            dx = g
        for (o, n, _), arr in zip(node.slices, pgrads):
            gdata[o : o + n] = arr.reshape(-1)
        if node.inputs:
            dx = np.ascontiguousarray(dx)
        for src in node.inputs:
            grads[src] = grads[src] + dx if src in grads else dx
    return loss, gdata


def _ref_evaluate(graph, data, x, labels, norm_x, rows):
    stats = None
    if norm_x is not None:
        stats = {}
        _ref_execute(graph, data, norm_x, stats, want_caches=False)
    total_loss, correct = 0.0, 0
    for start in range(0, len(x), rows):
        logits, _ = _ref_execute(graph, data, x[start : start + rows], stats, want_caches=False)
        y = labels[start : start + rows]
        total_loss += _ref_cross_entropy_loss(logits, y) * len(y)
        correct += int((logits.argmax(axis=1) == y).sum())
    return total_loss / len(x), correct / len(x)


class TestPlanMatchesTheFrozenEngine:
    """A plan's loss, gradient, logits and batch-norm statistics equal the
    allocating engine's, bit for bit."""

    MODELS = {
        "mlp2": mlp2,
        "lenet-micro": lenet_micro,
        "resnet-micro": lambda: resnet_micro(1, 8, 3, width=2),
        # an unpadded strided conv reading the batch, a relu over a max pool,
        # a windowed average pool, and a dense layer reading an image
        "conv-pools-dense": lambda: ModelGraph(
            [
                GraphNode("conv", "conv2d", (), {"out_channels": 3, "kernel": 3, "stride": 2}),
                GraphNode("max", "max_pool", ("conv",), {"kernel": 2}),
                GraphNode("act", "relu", ("max",)),
                GraphNode("avg", "avg_pool", ("act",), {"kernel": 2}),
                GraphNode("fc", "dense", ("avg",), {"out": 4}),
            ],
            (2, 9, 9),
        ),
    }
    # (parameter dtype, input dtype): the last pair computes wide and casts
    # each parameter gradient into the narrower buffer
    DTYPES = [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64)]

    @staticmethod
    def case(name, pdtype, xdtype, rows=(6, 6)):
        g = TestPlanMatchesTheFrozenEngine.MODELS[name]()
        rng = np.random.default_rng(3)
        p = init_params(g, 1, pdtype).copy_data()
        p += rng.normal(0, 0.05, p.shape).astype(pdtype)  # off the zero biases and unit scales
        classes = g.shapes[g.sink][0]
        batches = [
            (rng.normal(size=(n,) + g.input_shape).astype(xdtype), rng.integers(0, classes, n))
            for n in rows
        ]
        return g, p, batches

    @pytest.mark.parametrize("pdtype, xdtype", DTYPES)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_two_batches_back_to_back_on_one_training_plan(self, name, pdtype, xdtype):
        g, p, batches = self.case(name, pdtype, xdtype)
        grad = np.full_like(p, np.nan)
        plan = Plan(g, p, grad)
        for x, y in batches:
            loss, out = loss_and_grad(plan, p, x, y, out=grad)
            ref_loss, ref_grad = _ref_loss_and_grad(g, p, x, y)
            assert out is grad and grad.dtype == p.dtype
            assert loss.hex() == ref_loss.hex()
            assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("pdtype, xdtype", DTYPES)
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_logits_and_norm_stats_on_one_evaluation_plan(self, name, pdtype, xdtype):
        g, p, batches = self.case(name, pdtype, xdtype, rows=(7, 5, 7))
        params = g.wrap(p)
        plan = Plan(g, params.data)
        stats = norm_stats(plan, params, batches[0][0])
        ref_stats = {}
        _ref_execute(g, params.data, batches[0][0], ref_stats, want_caches=False)
        assert stats.keys() == ref_stats.keys()
        for key, (mean, var) in stats.items():
            assert mean.tobytes() == ref_stats[key][0].tobytes()
            assert var.tobytes() == ref_stats[key][1].tobytes()
        for x, _ in batches[1:]:
            for fixed in (None, stats or None):
                logits = forward(plan, params, x, fixed)
                ref, _ = _ref_execute(g, params.data, x, fixed, want_caches=False)
                assert logits.dtype == ref.dtype and logits.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_evaluation_with_a_short_last_chunk(self, name, monkeypatch):
        g, p, _ = self.case(name, np.float32, np.float32)
        rng = np.random.default_rng(8)
        n, rows = 25, 7  # chunks of 7, 7, 7 and 4 rows
        x = rng.normal(size=(n,) + g.input_shape).astype(np.float32)
        y = rng.integers(0, g.shapes[g.sink][0], n)
        data = Dataset(x, y, "test", int(g.shapes[g.sink][0]))
        norm_x = norm_rows(data) if g.has_norm_layers() else None
        monkeypatch.setattr(trainer, "eval_chunk_rows", lambda graph, itemsize: rows)
        loss, acc = evaluate(g, g.wrap(p), data, norm_x, accuracy=True)
        ref_loss, ref_acc = _ref_evaluate(g, p, x, y, norm_x, rows)
        assert loss.hex() == ref_loss.hex() and acc == ref_acc


class TestRoundsReuseThePlansBuffers:
    # conv1's output at batch 64: 4 channels x 28 x 28 x 64 rows x 4 bytes
    CONV_ACTIVATION = 4 * 28 * 28 * 64 * 4
    # measured with numpy 2.4: the sampled batch (64 x 784 float32, 200,704 B)
    # plus its labels, indices and a few small temporaries
    PEAK = 204_816

    def test_lenet_rounds_after_the_first_allocate_no_activation(self, monkeypatch):
        import tracemalloc

        g = lenet_micro()
        rng = np.random.default_rng(0)
        data = Dataset(
            rng.normal(size=(256, 1, 28, 28)).astype(np.float32), rng.integers(0, 10, 256), "train", 10
        )
        p = init_params(g, 0).copy_data()
        after_first = []
        step = trainer.sgd_step

        def spy(*args):
            step(*args)
            if not after_first:  # the plan is bound and has run one round
                after_first.append(tracemalloc.get_traced_memory()[0])
                tracemalloc.reset_peak()

        monkeypatch.setattr(trainer, "sgd_step", spy)
        tracemalloc.start()
        try:
            train_until(training_plan(g, p), data, TrainerConfig(lr=1e-3, batch_size=64),
                        StopRule(0.0, 4, 1), np.random.default_rng(1))
            peak = tracemalloc.get_traced_memory()[1] - after_first[0]
        finally:
            tracemalloc.stop()
        assert peak < self.CONV_ACTIVATION
        assert peak <= 1.5 * self.PEAK


class TestHeldEvaluationPlan:
    """One plan held across evaluations, each point written into its array
    in place, as the continuity check holds it."""

    # 300 rows run as one mlp2 chunk; 122 run lenet-micro as a 74-row and a
    # 48-row chunk; resnet-micro fits its statistics on all 40 rows, then
    # runs four 9-row chunks and a 4-row one
    ROWS = {"mlp2": 300, "lenet-micro": 122, "resnet-micro": 40}

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_matches_a_plan_per_call(self, name):
        g = TestEvalChunks.MODELS[name]()
        n = self.ROWS[name]
        rng = np.random.default_rng(2)
        classes = int(g.shapes[g.sink][0])
        data = Dataset(
            rng.normal(size=(n,) + g.input_shape).astype(np.float32),
            rng.integers(0, classes, n), "train", classes,
        )
        norm_x = norm_rows(data) if g.has_norm_layers() else None
        held = np.empty(g.num_params, np.float32)
        plan = Plan(g, held)
        for seed in (1, 2, 1, 3):
            params = init_params(g, seed)
            np.copyto(held, params.data)
            loss, acc = evaluate(plan, held, data, norm_x, accuracy=True)
            ref_loss, ref_acc = evaluate(g, params, data, norm_x, accuracy=True)
            assert loss.hex() == ref_loss.hex() and acc == ref_acc
            assert evaluate(plan, held, data, norm_x)[0].hex() == ref_loss.hex()

    def test_a_bound_plan_scores_in_its_own_loss_workspace(self):
        import tracemalloc

        g = mlp2()
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(2048, 20)).astype(np.float32), rng.integers(0, 3, 2048),
                       "test", 3)
        held = init_params(g, 0).copy_data()
        plan = Plan(g, held)
        first, _ = evaluate(plan, held, data)  # binds the plan for 2048 rows
        tracemalloc.start()
        try:
            again, _ = evaluate(plan, held, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again.hex() == first.hex()
        # a workspace for 2048 rows of 3 classes is 160 KiB; the call's own
        # temporaries came to 51 KB with numpy 2.4
        assert peak < 96 * 1024

    def test_plan_runs_on_the_array_it_was_bound_to(self):
        g = mlp2()
        params = init_params(g, 0)
        data = Dataset(np.zeros((4,) + g.input_shape, np.float32), np.zeros(4, int), "train", 3)
        with pytest.raises(ValueError, match="bound to"):
            evaluate(Plan(g, params.copy_data()), params, data)

    def test_switching_row_counts_peaks_at_the_larger_binding(self):
        """Rebinding reuses the memory of the buffers it replaces: a plan
        switching between 74 and 48 rows peaks where one 74-row binding
        does, and once its buffers fit 74 rows it allocates none."""
        import tracemalloc

        g = lenet_micro()
        rng = np.random.default_rng(0)
        big, small = (rng.normal(size=(n, 1, 28, 28)).astype(np.float32) for n in (74, 48))
        held = init_params(g, 0).copy_data()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            Plan(g, held).forward(big)
            larger = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            plan = Plan(g, held)
            for x in (big, small) * 3:
                plan.forward(x)
            switching = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            plan.forward(small)  # binds nothing: the plan is bound for 48 rows
            unbound = tracemalloc.get_traced_memory()[1] - base
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            for x in (big, small) * 2:
                plan.forward(x)
            settled = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # a 48-row binding holds about 4.3 MB, and a run's own temporaries
        # about 33 KB; the margin covers the Python objects of the steps,
        # which each binding builds anew
        assert switching <= larger + 16_384
        assert settled <= unbound + 16_384

