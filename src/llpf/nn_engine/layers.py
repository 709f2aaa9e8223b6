"""Array kernels for each layer kind: forward passes and their exact gradients.

Everything is plain numpy.  Image activations are batch-last, (C, H, W, N):
the batch is the innermost, contiguous axis, so every strided window copy
below moves whole runs of N (or OW*N) floats instead of single image rows.
Dense layers and their 2-D activations stay batch-first, (N, F).

A convolution is an im2col patch matrix of shape (C*k*k, OH*OW*N), which the
backward pass reuses, times the weight matrix as one GEMM.  Max-pooling
forward is an elementwise max over the k*k strided window views; backward
gives each output's gradient to the first input in row-major window order
that equals the max, so ties (ReLU zeros) never double-count gradient and
eval forwards never pay for picking winners.

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
"""

from __future__ import annotations

import numpy as np

BN_EPS = 1e-5


def dense_forward(x, w, b):
    return x @ w + b


def dense_backward(g, x, w, need_dx=True):
    """Returns (dx, dw, db); ``need_dx=False`` skips the input gradient and
    returns ``dx=None`` (for a dense layer that reads the model input)."""
    dw = x.T @ g
    db = g.sum(axis=0)
    if not need_dx:
        return None, dw, db
    return g @ w.T, dw, db


# -- convolution -------------------------------------------------------------


def _pad_input(x, pad):
    if pad == 0:
        return x
    c, h, w, n = x.shape
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=x.dtype)
    xp[:, pad : pad + h, pad : pad + w] = x
    return xp


def _tap(stride, oh, ow, i, j):
    """Index of the (i, j) tap's strided view over a (C, H, W, N) input."""
    return (slice(None), slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride))


def im2col(x, kernel, stride, pad):
    """(C,H,W,N) -> (C*k*k, OH*OW*N) patch matrix, one copy per kernel tap."""
    c, h, w, n = x.shape
    oh = (h + 2 * pad - kernel) // stride + 1
    ow = (w + 2 * pad - kernel) // stride + 1
    xp = _pad_input(x, pad)
    cols = np.empty((c, kernel, kernel, oh, ow, n), dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            cols[:, i, j] = xp[_tap(stride, oh, ow, i, j)]
    return cols.reshape(c * kernel * kernel, oh * ow * n), (oh, ow)


def col2im(cols, x_shape, kernel, stride, pad, out_hw):
    """Scatter-add the inverse of :func:`im2col`."""
    c, h, w, n = x_shape
    oh, ow = out_hw
    xp = np.zeros((c, h + 2 * pad, w + 2 * pad, n), dtype=cols.dtype)
    cols6 = cols.reshape(c, kernel, kernel, oh, ow, n)
    for i in range(kernel):
        for j in range(kernel):
            xp[_tap(stride, oh, ow, i, j)] += cols6[:, i, j]
    if pad == 0:
        return xp
    return xp[:, pad : pad + h, pad : pad + w]


def conv2d_forward(x, w, b, stride, pad):
    """Returns (y, cols); ``b=None`` is a bias-less convolution."""
    n = x.shape[-1]
    out_c = w.shape[0]
    cols, (oh, ow) = im2col(x, w.shape[2], stride, pad)
    y = w.reshape(out_c, -1) @ cols
    if b is not None:
        y += b[:, None]
    return y.reshape(out_c, oh, ow, n), cols


def conv2d_backward(g, x_shape, w, cols, stride, pad, need_dx=True):
    """Returns (dx, dw, db); ``need_dx=False`` skips the input gradient and
    returns ``dx=None`` (for a convolution that reads the model input).

    The weight gradient sums one (C*k*k, OW*N) x (OW*N, out) product per
    output row: one product over all OH*OW*N columns measured up to 4x
    slower when C*k*k and the output channels are few.
    """
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
    dx = col2im(dcols, x_shape, w.shape[2], stride, pad, (oh, ow))
    return dx, dw, db


# -- batch normalization -------------------------------------------------------


def _bn_axes(x):
    # the channel axis is 0 for (C, H, W, N) images, 1 for (N, C) features
    return (0,) if x.ndim == 2 else (1, 2, 3)


def _bn_shape(x):
    return (1, -1) if x.ndim == 2 else (-1, 1, 1, 1)


def batchnorm_forward(x, scale, shift, stats=None):
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
    y = scale.reshape(shape) * xhat + shift.reshape(shape)
    return y, (xhat, inv_std, stats)


def batchnorm_backward(g, x, scale, cache):
    """Gradient of a batch-statistics forward: the statistics depend on x."""
    xhat, inv_std, _ = cache
    axes = _bn_axes(x)
    shape = _bn_shape(x)
    m = float(np.prod([x.shape[a] for a in axes]))
    dscale = (g * xhat).sum(axis=axes)
    dshift = g.sum(axis=axes)
    dxhat = g * scale.reshape(shape)
    inv = inv_std.reshape(shape)
    sum_dxhat = dxhat.sum(axis=axes).reshape(shape)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=axes).reshape(shape)
    dx = (inv / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
    return dx, dscale, dshift


# -- pooling -------------------------------------------------------------------


def _pool_windows(kernel):
    """Offsets of the k*k strided window views in row-major window order."""
    return [(i, j) for i in range(kernel) for j in range(kernel)]


def maxpool_forward(x, kernel):
    """Returns (y, cache); the cache is (x, y), from which backward picks winners."""
    y = x[:, ::kernel, ::kernel].copy()
    for i, j in _pool_windows(kernel)[1:]:
        np.maximum(y, x[:, i::kernel, j::kernel], out=y)
    return y, (x, y)


def maxpool_backward(g, x_shape, kernel, cache):
    """Route each output gradient to the first window input equal to the max.

    The gradient is copied as raw bits (multiplied by the 0/1 winner mask as
    unsigned integers), so losers get +0.0 and winners the exact value of g,
    signed zeros included: the same bits as an argmax scatter into zeros.
    """
    x, y = cache
    bits = f"u{g.itemsize}"
    dx = np.empty(x_shape, dtype=g.dtype)
    g_bits, dx_bits = g.view(bits), dx.view(bits)
    free = np.ones(y.shape, dtype=bool)  # outputs whose winner is not yet found
    for i, j in _pool_windows(kernel):
        hit = x[:, i::kernel, j::kernel] == y
        hit &= free
        np.multiply(g_bits, hit, out=dx_bits[:, i::kernel, j::kernel])
        free ^= hit
    return dx


def avgpool_forward(x, kernel=None):
    c, h, w, n = x.shape
    if kernel is None:  # global
        return x.mean(axis=(1, 2), keepdims=True)
    xr = x.reshape(c, h // kernel, kernel, w // kernel, kernel, n)
    return xr.mean(axis=(2, 4))


def avgpool_backward(g, x_shape, kernel=None):
    c, h, w, n = x_shape
    if kernel is None:
        return np.broadcast_to(g / (h * w), x_shape).astype(g.dtype)
    dx = np.repeat(np.repeat(g, kernel, axis=1), kernel, axis=2)
    return dx / (kernel * kernel)


# -- loss ----------------------------------------------------------------------


def class_sum(z):
    """Sum over the rows of a (C, N) array, adding in the order that
    ``np.add.reduce`` uses for one contiguous row of C values, so the result
    equals ``z.T.sum(axis=1)`` of the batch-first layout bit for bit.

    That order is sequential below 8 values.  From 8 up to 128 it runs eight
    interleaved accumulators, combines them pairwise, then adds the rest in
    turn; above 128 it splits at a multiple of 8 near the middle and recurses.
    """
    c = z.shape[0]
    if c < 8:
        total = z[0].copy()
        for row in z[1:]:
            total += row
        return total
    if c > 128:
        half = c // 2 - (c // 2) % 8
        return class_sum(z[:half]) + class_sum(z[half:])
    full = c - c % 8
    acc = z[:8]
    if full > 8:
        acc = acc.copy()
        for i in range(8, full, 8):
            acc += z[i : i + 8]
    acc = acc[0::2] + acc[1::2]  # (a0+a1), (a2+a3), (a4+a5), (a6+a7)
    acc = acc[0::2] + acc[1::2]
    total = acc[0] + acc[1]
    for row in z[full:]:
        total += row
    return total


def _log_softmax(logits):
    """Class-major log-softmax: a C-ordered float64 (classes, N) array,
    whatever the logits dtype."""
    z = logits.T.astype(np.float64, order="C")
    z -= z.max(axis=0)
    z -= np.log(class_sum(np.exp(z)))
    return z


def _label_index(labels, n):
    """Flat indices of each sample's label entry in a (classes, N) array."""
    return np.asarray(labels, dtype=np.intp) * n + np.arange(n)


def cross_entropy_loss(logits, labels):
    """Mean cross-entropy over the batch, accumulated in float64.

    The same loss, bit for bit, as :func:`softmax_cross_entropy`, without
    building the gradient that evaluation would throw away.
    """
    n = logits.shape[0]
    return float(-_log_softmax(logits).take(_label_index(labels, n)).sum() / n)


def softmax_cross_entropy(logits, labels):
    """Mean cross-entropy over the batch plus the gradient w.r.t. logits.

    The loss accumulates in float64; the gradient is a C-ordered (N, classes)
    array in the logits dtype.
    """
    n = logits.shape[0]
    probs = _log_softmax(logits)
    at = _label_index(labels, n)
    loss = float(-probs.take(at).sum() / n)
    np.exp(probs, out=probs)
    probs.ravel()[at] -= 1.0
    probs /= n
    return loss, probs.T.astype(logits.dtype, order="C")
