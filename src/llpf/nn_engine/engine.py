"""Graph execution: parameter init, and forward and backward passes run from
a bound plan.

``graph.plan`` resolves each node once per graph.  A :class:`Plan` binds it
to one flat parameter array and, to train, one flat gradient buffer: every
step holds its parameter views into the array, its gradient views into the
buffer, its :mod:`.layers` kernel (looked up when the steps are bound) and
its output, input-gradient and scratch buffers, sized for the batch.  A run
only calls the steps, and the kernels write into those buffers; they
allocate none themselves.  Every buffer, the loss workspace included, comes
from one allocator over the plan's slots (:func:`_reusing`), so a batch of
another row count or dtype binds the steps anew into the memory of the
buffers they replace wherever it is large enough.  The buffers live as long
as the plan.  The constructor is the one place the arrays are checked.

A caller that trains one array many times holds one training plan for all
of it: a path walk binds one to its working array and gradient buffer and
hands it to every repair, and ``train_modes`` binds one per seed.  A caller
that evaluates many points in one array (the continuity check) likewise
holds one evaluation plan; any other evaluation builds one for itself.  A
held training plan is released before its caller evaluates, so that the
evaluation plan's buffers can take its memory: the lenet-micro walks of
``bench/run.py --workload m2m_lenet`` peaked 6 MB (8%) higher in resident
memory when the walk kept its plan alive through the test evaluations.

Image activations run batch-last, (C, H, W, N): the (N, C, H, W) input batch
is copied once on entry into the buffer the first layer reads (a padded
convolution's padded input).  Dense layers and their activations stay
batch-first, (N, F): ``flatten``, and a dense node reading an image, switch
layouts through one ``reshape(-1, N).T`` view, which keeps the features in
C, H, W order, so parameters, checkpoints and logits are layout-free.  A
model whose input is flat reads the batch as given.

A batch_norm node normalizes with the (mean, population variance) its caller
fixes, and otherwise with its own batch's.  Training always uses the batch's.
Evaluation fixes the statistics that :func:`norm_stats` fits at the evaluated
parameters, so a loss does not depend on how the data is chunked.  The
statistics are never parameters: they are not in the ``ParamVector`` layout.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..param_space import LayoutMismatch, ParamVector
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


class Plan:
    """The steps of ``graph`` bound to the flat parameter array ``params``
    and, to train, the flat gradient buffer ``grad``, both laid out like the
    graph's parameters.

    The steps hold views of ``params``, so each run reads what the array
    holds then, and a caller may rewrite it in place between runs, as a
    trainer does.  :meth:`forward` returns the logits in a buffer of the plan
    that its next run overwrites, and :meth:`loss` scores them;
    :meth:`loss_and_grad` writes every slice of ``grad``.

    ``params`` must be a 1-D float array of ``graph.num_params`` entries,
    and with ``grad``, a writable one, with ``grad`` a float array of the
    same length; anything else raises :class:`LayoutMismatch`.
    """

    def __init__(self, graph: ModelGraph, params: np.ndarray, grad: np.ndarray | None = None):
        if not _float_vector(params, graph.num_params):
            raise LayoutMismatch(f"a plan binds a 1-D float array of {graph.num_params} entries")
        if grad is not None and not (params.flags.writeable and _float_vector(grad, graph.num_params)):
            raise LayoutMismatch(
                "a training plan binds a writable parameter array and a float gradient"
                f" buffer, each of {graph.num_params} entries"
            )
        self.graph = graph
        self.params = params
        self.grad = grad
        # what batch_norm steps normalize with in the current run, in a list
        # the steps hold, so that they hold no reference to the plan
        self._stats = [None]
        self._batch = None  # (rows, dtype) of the batch the steps are bound for
        self._slots = []  # the memory every binding takes its buffers from

    def forward(self, x, stats=None) -> np.ndarray:
        """Logits of the batch ``x``; ``stats`` as :func:`forward` takes it."""
        self._run(self._enter(x), stats)
        return self._logits

    def loss(self, y) -> float:
        """Mean cross-entropy of the last :meth:`forward`'s logits against
        the labels ``y``, in the binding's loss workspace."""
        return L.cross_entropy_loss(self._logits, y, self._work)

    def loss_and_grad(self, x, y) -> float:
        """Mean cross-entropy of the batch, normalized with its own
        statistics; the gradient lands in ``grad``."""
        x = self._enter(x)
        self._run(x, None)
        loss = self._train_loss(y)
        for step in self._backward:
            step()
        self._tail(x)
        for view, wide in self._casts:
            view[...] = wide
        return loss

    def _run(self, x, stats) -> None:
        self._stats[0] = stats
        self._head(x)
        for step in self._forward:
            step()

    def _enter(self, x):
        x = np.asarray(x)
        if x.shape[1:] != self.graph.input_shape:
            raise ValueError(
                f"batch shape {x.shape[1:]} does not match model input {self.graph.input_shape}"
            )
        if (x.shape[0], x.dtype) != self._batch:
            self._bind(x.shape[0], x.dtype)
        return x

    def _bind(self, n, xdtype) -> None:
        """Bind every step for a batch of ``n`` rows of ``xdtype``.  A node
        that trains computes in the parameters' and batch's common dtype;
        one before every parameter keeps the batch's.

        Every buffer comes from the plan's slots (:func:`_reusing`), in the
        same order at every binding: the forward buffers, then for a
        training plan the logits gradient, the loss workspace and the
        backward buffers, and for an evaluation plan the loss workspace.  A
        rebinding first drops the steps it replaces, so a plan that switches
        between row counts allocates nothing once its slots fit the
        largest."""
        self._head = self._forward = self._logits = self._work = None
        self._train_loss = self._backward = self._tail = self._casts = None
        self._empty, self._zeros = _reusing(self._slots)
        graph, params = self.graph, self.params
        wide = np.promote_types(xdtype, params.dtype)
        source = graph.plan[0]
        padded = None
        if len(graph.input_shape) == 1:
            entry = None  # the first layer reads the batch as given
        else:
            shape = graph.input_shape + (n,)
            if source.kind == "conv2d" and source.pad:
                padded = _zero_padded(self, shape, source.pad, xdtype)
                entry = _interior(padded, source.pad, shape)
            else:
                entry = self._empty(shape, xdtype)
            self._head = lambda x: np.copyto(entry, x.transpose(1, 2, 3, 0))
        outs = {}
        self._forward = forward = []
        backward = []
        for node in graph.plan:
            p = [params[o : o + k].reshape(shape) for o, k, shape in node.slices]
            if not node.inputs:
                a = entry
            elif len(node.inputs) == 1:
                a = outs[node.inputs[0]]
            else:
                a = tuple(outs[src] for src in node.inputs)
            dtype = wide if node.trains else xdtype
            shape = _batched(graph.shapes[node.name], n)
            if node.kind == "conv2d":
                y, step, bind = _conv2d(self, node, a, p, shape, dtype, padded if a is entry else None)
            else:
                y, step, bind = _BINDERS[node.kind](self, node, a, p, shape, dtype)
            outs[node.name] = y
            if a is None:
                self._head = step
            elif step is not None:
                forward.append(step)
            if node.trains:
                backward.append((node, bind, dtype))
        self._logits = outs[graph.sink]
        if self.grad is not None:
            self._bind_backward(n, backward[::-1], entry is None)
        else:
            self._work = L.loss_work(n, self._logits.shape[1], self._empty)
        self._batch = (n, xdtype)

    def _bind_backward(self, n, nodes, flat) -> None:
        """Bind the loss and the backward steps of ``nodes``, the trainable
        ones in reverse plan order.  A node read by several consumers sums
        their input gradients in the order the consumers' steps run."""
        grad, logits, empty = self.grad, self._logits, self._empty
        dlogits = empty(logits.shape, logits.dtype)
        self._work = work = L.loss_work(n, logits.shape[1], empty)
        kernel = L.softmax_cross_entropy
        self._train_loss = lambda y: kernel(logits, y, out=dlogits, work=work)[0]
        self._backward = steps = []
        self._tail = _ignore
        self._casts = casts = []
        parts = {self.graph.sink: [dlogits]}
        for node, bind, dtype in nodes:
            g = _summed(parts.pop(node.name), dtype, steps, empty)
            dp = [grad[o : o + k].reshape(shape) for o, k, shape in node.slices]
            if grad.dtype != dtype:  # computed wide, cast into the buffer after
                wide = [empty(view.shape, dtype) for view in dp]
                casts.extend(zip(dp, wide))
                dp = wide
            step, dx = bind(g, node.needs_dx, dp)
            if flat and not node.inputs:
                self._tail = step
            elif step is not None:
                steps.append(step)
            if dx is not None:  # an input that does not train never collects it
                for src in node.inputs:
                    parts.setdefault(src, []).append(dx)


def _float_vector(a, size) -> bool:
    return (
        isinstance(a, np.ndarray)
        and a.ndim == 1
        and a.shape[0] == size
        and np.issubdtype(a.dtype, np.floating)
    )


def _ignore(x):
    pass


def _batched(shape, n):
    """A node's output shape with the batch axis: (N, F) or (C, H, W, N)."""
    return (n,) + shape if len(shape) == 1 else shape + (n,)


def _zero_padded(plan, shape, pad, dtype):
    c, h, w, n = shape
    return plan._zeros((c, h + 2 * pad, w + 2 * pad, n), dtype)


def _reusing(slots):
    """``np.empty`` and ``np.zeros`` for a binding: its k-th buffer takes
    the memory of ``slots[k]`` when that is large enough.  A binding asks
    for its buffers in the same order whatever the row count, so each slot
    serves the same buffer in every binding; a zeroed buffer is zeroed
    again here.  A slot too small is released with every later one, and
    the rest of the binding allocates anew in request order, the layout a
    first binding has: lenet-micro's conv1 GEMM ran its evaluations up to
    8% slower when slots were replaced one by one between older ones.  A
    new slot is the buffer itself, as ``np.empty`` returns it, so a plan
    bound once, as a training plan is, pays nothing for reuse."""
    taken = itertools.count()

    def empty(shape, dtype):
        k = next(taken)
        if k < len(slots):
            nbytes = math.prod(shape) * np.dtype(dtype).itemsize
            if slots[k].nbytes >= nbytes:
                return slots[k].reshape(-1).view(np.uint8)[:nbytes].view(dtype).reshape(shape)
            del slots[k:]  # released before the new slot is allocated
        slots.append(np.empty(shape, dtype))
        return slots[k]

    def zeros(shape, dtype):
        out = empty(shape, dtype)
        out.fill(0)
        return out

    return empty, zeros


def _interior(padded, pad, shape):
    return padded[:, pad : pad + shape[1], pad : pad + shape[2]]


def _batch_first(a):
    """(C, H, W, N) -> (N, C*H*W) view."""
    return a.reshape(-1, a.shape[-1]).T


def _summed(parts, dtype, steps, empty):
    """The gradient of a node's output: its one consumer's input gradient,
    or the sum of several, added into a buffer by a step appended here."""
    if len(parts) == 1:
        return parts[0]
    total = empty(parts[0].shape, dtype)
    first, rest = parts[:2], parts[2:]

    def step():
        np.add(*first, out=total)
        for part in rest:
            np.add(total, part, out=total)

    steps.append(step)
    return total


# -- one binder per node kind ---------------------------------------------------
#
# ``bind(plan, node, a, p, shape, dtype)`` gets the node's input ``a`` (its
# producer's output buffer, a tuple of them for residual_add, or None when
# the node reads a flat batch), its parameter views ``p``, and its output's
# batched shape and dtype.  It returns the output buffer, the forward step
# (None when there is nothing to compute), and ``backward(g, need_dx, dp)``,
# which binds the backward step to the output gradient ``g`` and the
# parameter-gradient targets ``dp`` and returns it with the input gradient
# (None when ``need_dx`` is false).  The steps of a node that reads a flat
# batch take the batch as their argument, in place of a bound input.


def _dense(plan, node, a, p, shape, dtype):
    w, b = p
    y = plan._empty(shape, dtype)
    x = a if a is None or a.ndim == 2 else _batch_first(a)
    kernel = L.dense_forward

    def backward(g, need_dx, dp):
        dw, db = dp
        grad_kernel = L.dense_backward
        if not need_dx:
            return (lambda x=x: grad_kernel(g, x, w, need_dx=False, dx=None, dw=dw, db=db)), None
        dx = plan._empty((shape[0], w.shape[0]), dtype)
        if a.ndim == 2:
            return (lambda: grad_kernel(g, x, w, dx=dx, dw=dw, db=db)), dx
        image = plan._empty(a.shape, dtype)
        rows = image.reshape(-1, shape[0])

        def step():
            grad_kernel(g, x, w, dx=dx, dw=dw, db=db)
            np.copyto(rows, dx.T)

        return step, image

    return y, (lambda x=x: kernel(x, w, b, y)), backward


def _conv2d(plan, node, a, p, shape, dtype, padded=None):
    w, b = p[0], (p[1] if len(p) > 1 else None)
    stride, pad = node.stride, node.pad
    c, k = node.in_shape[0], node.kernel
    out_c, oh, ow, n = shape
    y = plan._empty(shape, dtype)
    y_rows = y.reshape(out_c, -1)
    cols = plan._empty((c * k * k, oh * ow * n), a.dtype)
    copy_in = pad and padded is None  # else the entry buffer is already padded
    inner = None
    if copy_in:
        padded = _zero_padded(plan, a.shape, pad, a.dtype)
        inner = _interior(padded, pad, a.shape)
    xp = padded if pad else a
    kernel = L.conv2d_forward

    def forward():
        if copy_in:
            inner[...] = a
        kernel(a, w, b, stride, pad, xp=xp, cols=cols, out=y_rows)

    def backward(g, need_dx, dp):
        dw, db = dp[0], (dp[1] if len(dp) > 1 else None)
        # the patch gradient overwrites the patch matrix, which it has the
        # dtype of whenever it is needed, once the weight gradient has read it
        work = L.conv_work(a.shape, w.shape, (oh, ow), pad, dtype, need_dx, cols, plan._empty)
        grad_kernel = L.conv2d_backward

        def step():
            grad_kernel(g, a.shape, w, cols, stride, pad, need_dx=need_dx, dw=dw, db=db, work=work)

        dx = None
        if need_dx:
            dx = _interior(work[3], pad, a.shape) if pad else work[3]
        return step, dx

    return y, forward, backward


def _batch_norm(plan, node, a, p, shape, dtype):
    scale, shift = p
    name = node.name
    y = plan._empty(shape, dtype)
    cache = [None]
    current = plan._stats
    kernel = L.batchnorm_forward

    def forward(a=a):
        stats = current[0]
        _, cache[0] = kernel(a, scale, shift, None if stats is None else stats.get(name), y)
        if stats is not None:
            stats[name] = cache[0][2]

    def backward(g, need_dx, dp):
        dx = plan._empty(shape, dtype) if need_dx else None
        dscale, dshift = dp
        grad_kernel = L.batchnorm_backward
        return (lambda a=a: grad_kernel(g, a, scale, cache[0], dx=dx, dscale=dscale, dshift=dshift)), dx

    return y, forward, backward


def _relu(plan, node, a, p, shape, dtype):
    # written over its input, the output is positive exactly where the input
    # was, which is all that the backward step reads from that buffer
    y = a if node.overwrites_input else plan._empty(shape, dtype)

    def backward(g, need_dx, dp):
        mask = plan._empty(shape, bool)
        dx = plan._empty(shape, dtype)

        def step():
            np.greater(a, 0, out=mask)
            np.multiply(g, mask, out=dx)

        return step, dx

    return y, (lambda a=a: np.maximum(a, 0, out=y)), backward


def _max_pool(plan, node, a, p, shape, dtype):
    y = plan._empty(shape, dtype)
    kernel, size = L.maxpool_forward, node.kernel

    def backward(g, need_dx, dp):
        dx = plan._empty(a.shape, dtype)
        masks = plan._empty(shape, bool), plan._empty(shape, bool)
        grad_kernel = L.maxpool_backward
        return (lambda: grad_kernel(g, a.shape, size, (a, y), out=dx, masks=masks)), dx

    return y, (lambda: kernel(a, size, y)), backward


def _avg_pool(plan, node, a, p, shape, dtype):
    y = plan._empty(shape, dtype)
    kernel, size = L.avgpool_forward, node.kernel

    def backward(g, need_dx, dp):
        dx = plan._empty(a.shape, dtype)
        grad_kernel = L.avgpool_backward
        return (lambda: grad_kernel(g, a.shape, size, dx)), dx

    return y, (lambda: kernel(a, size, y)), backward


def _flatten(plan, node, a, p, shape, dtype):
    def backward(g, need_dx, dp):
        image = plan._empty(a.shape, dtype)
        rows = image.reshape(-1, a.shape[-1])
        return (lambda: np.copyto(rows, g.T)), image

    return _batch_first(a), None, backward


def _residual_add(plan, node, a, p, shape, dtype):
    y = plan._empty(shape, dtype)
    left, right = a
    # both inputs receive the output's gradient
    return y, (lambda: np.add(left, right, out=y)), (lambda g, need_dx, dp: (None, g))


_BINDERS = {
    "dense": _dense,
    "conv2d": _conv2d,
    "batch_norm": _batch_norm,
    "relu": _relu,
    "max_pool": _max_pool,
    "avg_pool": _avg_pool,
    "flatten": _flatten,
    "residual_add": _residual_add,
}


def _bound_plan(graph: ModelGraph | Plan, data: np.ndarray, grad: np.ndarray | None = None) -> Plan:
    """``graph`` when it is a plan bound to ``data`` (and ``grad``), else a
    new plan for the call."""
    if not isinstance(graph, Plan):
        return Plan(graph, data, grad)
    if graph.params is not data or graph.grad is not grad:
        raise ValueError("a plan runs on the arrays it was bound to")
    return graph


def _flat(params: ParamVector | np.ndarray) -> np.ndarray:
    return params.data if isinstance(params, ParamVector) else params


def forward(
    graph: ModelGraph | Plan,
    params: ParamVector | np.ndarray,
    x: np.ndarray,
    stats: dict[str, tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """Run the graph on a batch and return logits.

    ``params`` is a ParamVector or a flat array in the graph's layout.
    ``graph`` may be a :class:`Plan` bound to that array, whose logits
    buffer the next run overwrites.  ``stats`` maps batch_norm node names to
    the (mean, var) each normalizes with; by default every batch_norm uses
    the batch's own statistics.
    """
    return _bound_plan(graph, _flat(params)).forward(x, stats)


def norm_stats(
    graph: ModelGraph | Plan, params: ParamVector | np.ndarray, x: np.ndarray
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Each batch_norm node's batch (mean, population var) over ``x``, from
    one forward pass at ``params`` (through ``graph``, a plan, as for
    :func:`forward`)."""
    stats: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    _bound_plan(graph, _flat(params)).forward(x, stats)
    return stats


def loss_and_grad(
    graph: ModelGraph | Plan,
    params: ParamVector | np.ndarray,
    batch_x: np.ndarray,
    batch_y: np.ndarray,
    mode: str = "train",
    out: np.ndarray | None = None,
) -> tuple[float, ParamVector | np.ndarray]:
    """Mean cross-entropy over the batch and its gradient.

    ``params`` is a ParamVector or a flat array in the graph's layout.
    Given ``out``, a flat buffer the caller owns, the gradient is written
    there, every slice of it, and ``out`` is returned; ``graph`` may then be
    a :class:`Plan` bound to ``params`` and ``out``, which a trainer holds
    for all its rounds.  Without ``out`` the gradient comes back as a new
    ParamVector in the dtype of ``params``.  Every batch_norm normalizes
    with the batch's statistics; ``mode`` names that and accepts nothing but
    ``"train"``.
    """
    if mode != "train":
        raise ValueError(f"loss_and_grad runs in train mode only, not {mode!r}")
    data = _flat(params)
    gdata = np.empty(data.shape[0], dtype=data.dtype) if out is None else out
    if not isinstance(graph, Plan) and not data.flags.writeable:
        data = data.copy()  # a ParamVector's: a plan with a gradient binds writable parameters
    plan = _bound_plan(graph, data, gdata)
    loss = plan.loss_and_grad(batch_x, batch_y)
    return loss, (plan.graph.wrap(gdata) if out is None else gdata)
