"""Array kernels for each layer kind: forward passes and their exact gradients.

Everything is plain numpy.  Image activations are batch-last, (C, H, W, N):
the batch is the innermost, contiguous axis, so every strided window copy
below moves whole runs of N (or OW*N) floats instead of single image rows.
Dense layers and their 2-D activations stay batch-first, (N, F).

A convolution is an im2col patch matrix of shape (C*k*k, OH*OW*N), which the
backward pass reuses, times the weight matrix.  That product, and the patch
gradient's, run in column panels (:func:`_panel_matmul`) sized for OpenBLAS's
small-matrix path: OpenBLAS 0.3.31 (Haswell kernels, one thread) runs a GEMM
of at most ``SMALL_GEMM`` = 10**6 multiply-adds through an unpacked kernel
and a larger one through the packed path, at 1.6-4.6x the cost per column.
Measured in float32 on a 2-vCPU Xeon VM, two runs: (8x36) weights at
5.9-6.4 ns per column for 999,936 multiply-adds and 9.5-14.4 ns at
1,004,544; (4x9) weights at 0.76-1.16 ns, then 3.5-3.8 ns.  lenet-micro's batch-64 GEMMs,
(4x9)@(9x50176) and (8x36)@(36x12544), sit far above the cliff.  A panel is
the widest multiple of 64 columns under it; panels reproduce one GEMM bit
for bit when the column count is a multiple of 16, and otherwise the last
panel stays above the cliff, on the packed path the one GEMM takes, since an
unpacked ragged tail rounds its last columns differently.  The per-row
weight gradient of :func:`conv2d_backward` is fast for the same reason: each
row's product is under the cliff (36*8*896 and 9*4*1792 multiply-adds at
lenet-micro's batch-64 shapes).

Max-pooling forward is an elementwise max over the k*k strided window
views; backward gives each output's gradient to the first input in
row-major window order that equals the max, so ties (ReLU zeros) never
double-count gradient and eval forwards never pay for picking winners.

Batch norm normalizes with the statistics its caller fixes, or else with the
batch's own; its backward is the batch-statistics gradient, the only one that
training takes.

The loss kernels work class-major: they take one C-ordered float64
(classes, N) copy of the (N, classes) logits, so the max, the sum and the
label gather run along the contiguous batch axis instead of reducing a few
classes per row (over 2048 rows of 3 classes, the row-wise max and sum
measured 10-40x slower).  :func:`class_sum` adds the class rows in the
order numpy uses to sum one contiguous row, so losses and gradients keep
the bits of the batch-first form.  The gradient goes back as a C-ordered (N, classes) array:
an F-ordered one holds the same values, but the GEMMs of ``dense_backward``
round differently on it.

Every kernel takes buffers for its results and scratch arrays (``out``,
``dw``, ``work`` and the like) as required arguments, and the engine's plan
allocates them all when it binds its steps; a kernel allocates none of them.
:func:`conv_work` and :func:`loss_work` size a kernel's scratch arrays and
take them from the allocator they are given.  Only batch norm, and the class
sum above 128 classes, make temporaries of their own.
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5
# The most multiply-adds OpenBLAS 0.3.31 runs on its unpacked small-matrix
# kernel (M*N*K <= 1e6); the measurement is in the module docstring.
SMALL_GEMM = 10**6


def dense_forward(x, w, b, out):
    y = np.matmul(x, w, out=out)
    y += b
    return y


def dense_backward(g, x, w, need_dx=True, *, dx, dw, db):
    """Returns (dx, dw, db); ``need_dx=False`` skips the input gradient and
    returns ``dx=None`` (for a dense layer that reads the model input)."""
    dw = np.matmul(x.T, g, out=dw)
    db = np.add.reduce(g, 0, None, db)  # g.sum(axis=0), without its wrapper
    if not need_dx:
        return None, dw, db
    return np.matmul(g, w.T, out=dx), dw, db


# -- convolution -------------------------------------------------------------


def _tap(stride, oh, ow, i, j):
    """Index of the (i, j) tap's strided view over a (C, H, W, N) input."""
    return (slice(None), slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride))


def im2col(x, kernel, stride, pad, *, xp, out):
    """(C,H,W,N) -> (C*k*k, OH*OW*N) patch matrix, one copy per kernel tap.

    ``xp`` holds ``x`` padded by ``pad`` (``x`` itself when ``pad`` is 0);
    ``out`` receives the patch matrix.
    """
    c, h, w, n = x.shape
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    cols = out.reshape(c, kernel, kernel, oh, ow, n)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, i, j] = xp[_tap(stride, oh, ow, i, j)]
    return out, (oh, ow)


def col2im(cols, x_shape, kernel, stride, pad, out_hw, xp):
    """Scatter-add the inverse of :func:`im2col` into the padded buffer
    ``xp`` (zeroed here first)."""
    c, h, w, n = x_shape
    oh, ow = out_hw
    xp.fill(0)
    cols6 = cols.reshape(c, kernel, kernel, oh, ow, n)
    for i in range(kernel):
        for j in range(kernel):
            xp[_tap(stride, oh, ow, i, j)] += cols6[:, i, j]
    if pad == 0:
        return xp
    return xp[:, pad : pad + h, pad : pad + w]


def _panels(m, k, n):
    """Column bounds [(lo, hi), ...] for an (m, k) @ (k, n) product: one
    panel at or under ``SMALL_GEMM``, else panels of the widest multiple of
    64 columns under it; when n is not a multiple of 16 the last panel takes
    enough columns to stay above it."""
    fits = SMALL_GEMM // (m * k)
    width = fits // 64 * 64
    if n <= fits or width == 0:
        return [(0, n)]
    end = n if n % 16 == 0 else n - fits
    bounds = [0, *range(width, end, width), n]
    return list(zip(bounds[:-1], bounds[1:]))


def _panel_matmul(a, b, out):
    """``np.matmul(a, b, out=out)`` for 2-D operands, bit for bit, one
    column panel of :func:`_panels` at a time."""
    m, k = a.shape
    for lo, hi in _panels(m, k, b.shape[1]):
        np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])
    return out


def conv2d_forward(x, w, b, stride, pad, *, xp, cols, out):
    """Returns (y, cols); ``b=None`` is a bias-less convolution.  ``xp`` and
    ``cols`` are :func:`im2col`'s padded input and patch matrix, ``out`` an
    (out_c, OH*OW*N) buffer for y."""
    n = x.shape[-1]
    out_c = w.shape[0]
    cols, (oh, ow) = im2col(x, w.shape[2], stride, pad, xp=xp, out=cols)
    y = _panel_matmul(w.reshape(out_c, -1), cols, out)
    if b is not None:
        y += b[:, None]
    return y.reshape(out_c, oh, ow, n), cols


def conv2d_backward(g, x_shape, w, cols, stride, pad, need_dx=True, *, dw, db, work):
    """Returns (dx, dw, db); ``need_dx=False`` skips the input gradient and
    returns ``dx=None`` (for a convolution that reads the model input), and
    ``db=None`` skips the bias gradient (for a bias-less convolution).

    The weight gradient sums one (C*k*k, OW*N) x (OW*N, out) product per
    output row, each under ``SMALL_GEMM`` at lenet-micro's shapes: one
    product over all OH*OW*N columns takes the packed path and measured up
    to 4x slower.  ``dw`` and ``db``
    receive the parameter gradients; ``work`` is a :func:`conv_work` of
    buffers for the rest, dx included, which is then a view into it.
    """
    out_c, oh, ow, n = g.shape
    ckk = cols.shape[0]
    rows, summed, dcols, xp = work
    gm = g.reshape(out_c, -1)
    cols_rows = cols.reshape(ckk, oh, ow * n).transpose(1, 0, 2)
    g_rows = gm.reshape(out_c, oh, ow * n).transpose(1, 2, 0)
    np.matmul(cols_rows, g_rows, out=rows)
    rows.sum(axis=0, out=summed)
    dw.reshape(out_c, ckk)[...] = summed.T
    if db is not None:
        np.add.reduce(gm, 1, None, db)
    if not need_dx:
        return None, dw, db
    dcols = _panel_matmul(w.reshape(out_c, ckk).T, gm, dcols)
    dx = col2im(dcols, x_shape, w.shape[2], stride, pad, (oh, ow), xp)
    return dx, dw, db


def conv_work(x_shape, w_shape, out_hw, pad, dtype, need_dx, dcols, empty):
    """The buffers of one :func:`conv2d_backward`, taken from ``empty(shape,
    dtype)``: the per-row weight products, their sum, and, when the input
    gradient is needed, the patch gradient ``dcols`` (it may be the patch
    matrix itself, which the weight gradient has read by then) and the
    padded buffer it is scattered into."""
    c, h, w, n = x_shape
    out_c, _, k, _ = w_shape
    oh, ow = out_hw
    ckk = c * k * k
    rows = empty((oh, ckk, out_c), dtype)
    summed = empty((ckk, out_c), dtype)
    if not need_dx:
        return rows, summed, None, None
    xp = empty((c, h + 2 * pad, w + 2 * pad, n), dtype)
    return rows, summed, dcols, xp


# -- batch normalization -------------------------------------------------------


def _bn_axes(x):
    # the channel axis is 0 for (C, H, W, N) images, 1 for (N, C) features
    return (0,) if x.ndim == 2 else (1, 2, 3)


def _bn_shape(x):
    return (1, -1) if x.ndim == 2 else (-1, 1, 1, 1)


def batchnorm_forward(x, scale, shift, stats, out):
    """Returns (y, cache).  Normalizes with ``stats`` = (mean, var) when the
    caller fixes them, otherwise with the batch's own mean and population
    variance; the cache ends with the (mean, var) pair that was used."""
    axes = _bn_axes(x)
    shape = _bn_shape(x)
    if stats is None:
        stats = x.mean(axis=axes), x.var(axis=axes)
    mean, var = stats
    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    y = np.multiply(scale.reshape(shape), xhat, out=out)
    y += shift.reshape(shape)
    return y, (xhat, inv_std, stats)


def batchnorm_backward(g, x, scale, cache, *, dx, dscale, dshift):
    """Gradient of a batch-statistics forward: the statistics depend on x."""
    xhat, inv_std, _ = cache
    axes = _bn_axes(x)
    shape = _bn_shape(x)
    m = float(np.prod([x.shape[a] for a in axes]))
    dscale = (g * xhat).sum(axis=axes, out=dscale)
    dshift = g.sum(axis=axes, out=dshift)
    dxhat = g * scale.reshape(shape)
    inv = inv_std.reshape(shape)
    sum_dxhat = dxhat.sum(axis=axes).reshape(shape)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=axes).reshape(shape)
    dx = np.multiply(inv / m, m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat, out=dx)
    return dx, dscale, dshift


# -- pooling -------------------------------------------------------------------


def _pool_windows(kernel):
    """Offsets of the k*k strided window views in row-major window order."""
    return [(i, j) for i in range(kernel) for j in range(kernel)]


def maxpool_forward(x, kernel, out):
    """Returns (y, cache); the cache is (x, y), from which backward picks winners."""
    np.copyto(out, x[:, ::kernel, ::kernel])
    for i, j in _pool_windows(kernel)[1:]:
        np.maximum(out, x[:, i::kernel, j::kernel], out=out)
    return out, (x, out)


def maxpool_backward(g, x_shape, kernel, cache, *, out, masks):
    """Route each output gradient to the first window input equal to the max.

    The gradient is copied as raw bits (multiplied by the 0/1 winner mask as
    unsigned integers), so losers get +0.0 and winners the exact value of g,
    signed zeros included: the same bits as an argmax scatter into zeros.
    Every entry of ``out`` is written.  ``masks`` is a pair of boolean
    buffers shaped like the output, for the winners found so far and for
    one window offset's hits.
    """
    x, y = cache
    bits = f"u{g.itemsize}"
    g_bits, dx_bits = g.view(bits), out.view(bits)
    free, hit = masks
    free.fill(True)  # outputs whose winner is not yet found
    for i, j in _pool_windows(kernel):
        np.equal(x[:, i::kernel, j::kernel], y, out=hit)
        hit &= free
        np.multiply(g_bits, hit, out=dx_bits[:, i::kernel, j::kernel])
        free ^= hit
    return out


def avgpool_forward(x, kernel, out):
    """``kernel=None`` pools each channel's whole image."""
    c, h, w, n = x.shape
    if kernel is None:  # global
        return x.mean(axis=(1, 2), keepdims=True, out=out)
    xr = x.reshape(c, h // kernel, kernel, w // kernel, kernel, n)
    return xr.mean(axis=(2, 4), out=out)


def avgpool_backward(g, x_shape, kernel, out):
    """Spread each output gradient evenly over its window; every entry of
    ``out`` is written."""
    c, h, w, n = x_shape
    if kernel is None:
        np.divide(g, h * w, out=out)  # g broadcasts over the whole image
    else:
        k = kernel
        windows = out.reshape(c, h // k, k, w // k, k, n)
        np.divide(g[:, :, None, :, None], k * k, out=windows)
    return out


# -- loss ----------------------------------------------------------------------


def class_sum(z, out):
    """Sum over the rows of a (C, N) array into ``out``, adding in the order that
    ``np.add.reduce`` uses for one contiguous row of C values, so the result
    equals ``z.T.sum(axis=1)`` of the batch-first layout bit for bit.

    That order is sequential below 8 values.  From 8 up to 128 it runs eight
    interleaved accumulators, combines them pairwise, then adds the rest in
    turn; above 128 it splits at a multiple of 8 near the middle and recurses.
    """
    c = z.shape[0]
    if c == 1:
        np.copyto(out, z[0])
        return out
    if c < 8:
        total = np.add(z[0], z[1], out=out)
        for row in z[2:]:
            total += row
        return total
    if c > 128:
        half = c // 2 - (c // 2) % 8
        return np.add(class_sum(z[:half], out), class_sum(z[half:], np.empty_like(out)), out=out)
    full = c - c % 8
    acc = z[:8]
    if full > 8:
        acc = acc.copy()
        for i in range(8, full, 8):
            acc += z[i : i + 8]
    acc = acc[0::2] + acc[1::2]  # (a0+a1), (a2+a3), (a4+a5), (a6+a7)
    acc = acc[0::2] + acc[1::2]
    total = np.add(acc[0], acc[1], out=out)
    for row in z[full:]:
        total += row
    return total


def loss_work(n, classes, empty):
    """The workspaces of one loss kernel over ``n`` rows, taken from
    ``empty(shape, dtype)``: the float64 class-major log-probabilities and
    their exponentials, a per-row scratch, the row numbers, the labels' flat
    indices and the picked entries."""
    z, e = empty((classes, n), np.float64), empty((classes, n), np.float64)
    row, rows = empty((n,), np.float64), empty((n,), np.intp)
    np.copyto(rows, np.arange(n))
    return z, e, row, rows, empty((n,), np.intp), empty((n,), np.float64)


def _log_softmax(logits, labels, work):
    """Class-major log-softmax into ``work``'s C-ordered float64 (classes, N)
    array, whatever the logits dtype, and the flat indices of each sample's
    label entry in it.  Returns (log-probs, indices, sum of picked entries)."""
    z, e, row, rows, at, picked = work
    np.copyto(z, logits.T)  # casts to float64
    z -= z.max(axis=0, out=row)
    lse = class_sum(np.exp(z, out=e), out=row)
    z -= np.log(lse, out=lse)
    np.multiply(labels, z.shape[1], out=at, dtype=np.intp)
    at += rows
    return z, at, np.add.reduce(z.take(at, out=picked))


def cross_entropy_loss(logits, labels, work):
    """Mean cross-entropy over the batch, accumulated in float64; ``work`` is
    a :func:`loss_work` for the batch.

    The same loss, bit for bit, as :func:`softmax_cross_entropy`, without
    building the gradient that evaluation would throw away.
    """
    return float(-_log_softmax(logits, labels, work)[2] / logits.shape[0])


def softmax_cross_entropy(logits, labels, *, out, work):
    """Mean cross-entropy over the batch plus the gradient w.r.t. logits.

    The loss accumulates in float64; the gradient is a C-ordered (N, classes)
    array in the logits dtype, written to ``out``.  ``work`` is a
    :func:`loss_work` for the batch.
    """
    n = logits.shape[0]
    probs, at, picked = _log_softmax(logits, labels, work)
    loss = float(-picked / n)
    np.exp(probs, out=probs)
    probs.ravel()[at] -= 1.0
    np.divide(probs.T, n, out=out)  # in float64, then cast to the logits dtype
    return loss, out
