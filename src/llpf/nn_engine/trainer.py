"""Datasets, SGD, the rolling-average stop rule, mode training, and evaluation.

Batch sampling draws uniformly with replacement from a seeded generator, so a
run is bit-reproducible from (seed, config, data) on a single thread.

``train_until`` trains the parameter array of a training
:class:`~.engine.Plan` in place: the caller binds the plan once, to its
writable flat array and a gradient buffer, and may hand it to any number of
calls (a path walk passes one plan to every repair).  Each round's
``loss_and_grad`` runs that plan, and :func:`sgd_step` updates the
parameters and the velocity in place.  :func:`evaluate` runs all its chunks
through one plan, its own or one its caller holds, and scores each chunk's
logits with :meth:`~.engine.Plan.loss`, in the loss workspace the plan bound
for that row count, so a held plan allocates no workspace per call.  A
caller holding a training plan releases it before it evaluates (see
:mod:`.engine`).  A caller holding a :class:`ParamVector` trains
``params.copy_data()`` and wraps the result with ``graph.wrap``.

:func:`train_modes` is the one place a mode is trained from its seed, scored
and accepted; ``train-modes`` and ``seed_variance_study`` both iterate it.

Evaluation runs the dataset through the model in chunks sized from the
model: as many rows as keep the widest array one sample makes in a forward
(a node output or a conv's im2col patch matrix) within ``EVAL_CHUNK_BYTES``.
Larger chunks allocate fresh multi-MB buffers that page-fault on every
forward.  A batch-norm model is evaluated with statistics fitted at the
evaluated parameters from fixed training rows (:func:`norm_rows`), the policy
of Garipov et al. 2018 and of SWA's ``bn_update``, so its loss does not depend
on the chunk size either.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

from ..param_space import ParamVector
from .engine import Plan, forward, init_params, loss_and_grad, norm_stats
from .graph import ModelGraph

# Byte budget for the widest per-sample array of one evaluation chunk.  In a
# sweep of chunk sizes on 640 images, each size in a fresh process that first
# ran one 64-row training round (2-vCPU VM, one BLAS thread, batch-last
# engine), lenet-micro took 17-18 ms at 37-74 rows (widest array 1-2 MiB) and
# 50-69 ms from 100 rows up, where every forward page-faults; resnet-micro
# with fixed batch-norm statistics ran fastest at 9 rows and 2.2-2.8x slower
# from 32 rows up; mlp2 kept getting faster up to one chunk for a 2048-row set.
EVAL_CHUNK_BYTES = 2 << 20
# Training rows a batch-norm model's evaluation statistics are fitted on: the
# default repair batch size.
NORM_STAT_ROWS = 64


@dataclass(frozen=True)
class AugmentSpec:
    """Random rotate-then-crop augmentation for image datasets.

    ``fill`` is the padding value in the (already normalized) pixel scale.
    """

    rotate_deg: float = 5.0
    crop_pad: int = 2
    fill: float = 0.0


@dataclass
class Dataset:
    inputs: np.ndarray
    labels: np.ndarray
    split: str
    num_classes: int
    augment: AugmentSpec | None = None

    def __post_init__(self):
        if len(self.inputs) != len(self.labels):
            raise ValueError("inputs and labels differ in length")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise ValueError("label out of range")

    def __len__(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class TrainerConfig:
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    batch_size: int = 32

    def __post_init__(self):
        if not self.lr > 0:
            raise ValueError("learning rate must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if not self.weight_decay >= 0:
            raise ValueError("weight decay must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass(frozen=True)
class StopRule:
    """Stop when the rolling-average loss drops below the threshold or the
    round cap is hit.  A threshold <= 0 disables the early stop, so training
    runs exactly ``max_rounds`` rounds.  A positive threshold needs a
    ``window`` of at most ``max_rounds``: a wider rolling average is never
    full, so the early stop could never fire."""

    loss_threshold: float
    max_rounds: int
    window: int = 10

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if math.isnan(self.loss_threshold):
            raise ValueError("loss_threshold must be a number, got nan")
        if self.loss_threshold > 0 and self.window > self.max_rounds:
            raise ValueError(
                f"a {self.window}-round window never fills within {self.max_rounds} rounds,"
                " so the loss threshold could never stop training early"
            )


@dataclass
class TrainResult:
    rounds: int
    rolling_loss: float
    hit_threshold: bool
    losses: list[float] = field(default_factory=list)


def fixed_subset(data: Dataset, size: int) -> Dataset:
    """Deterministic evaluation subset (no augmentation), drawn with seed 1."""
    if size >= len(data):
        return Dataset(data.inputs, data.labels, data.split, data.num_classes, None)
    idx = np.random.default_rng(1).choice(len(data), size=size, replace=False)
    idx.sort()
    return Dataset(data.inputs[idx], data.labels[idx], data.split, data.num_classes, None)


def _augment_batch(x: np.ndarray, spec: AugmentSpec, rng: np.random.Generator) -> np.ndarray:
    from scipy import ndimage

    out = np.empty_like(x)
    angles = rng.uniform(-spec.rotate_deg, spec.rotate_deg, size=len(x))
    pad = spec.crop_pad
    h, w = x.shape[-2:]
    shifts = rng.integers(0, 2 * pad + 1, size=(len(x), 2))
    for i in range(len(x)):
        img = x[i]
        rot = ndimage.rotate(
            img, angles[i], axes=(-2, -1), reshape=False, order=1,
            mode="constant", cval=spec.fill,
        )
        padded = np.pad(
            rot,
            ((0, 0),) * (img.ndim - 2) + ((pad, pad), (pad, pad)),
            constant_values=spec.fill,
        )
        dy, dx = shifts[i]
        out[i] = padded[..., dy : dy + h, dx : dx + w]
    return out


def norm_rows(train: Dataset) -> np.ndarray:
    """The fixed training inputs batch-norm statistics are fitted on."""
    return fixed_subset(train, NORM_STAT_ROWS).inputs


def sample_batch(
    data: Dataset, batch_size: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """A uniform batch drawn with replacement, augmented when the dataset
    has an augmentation spec."""
    idx = rng.integers(0, len(data), size=batch_size)
    x = data.inputs.take(idx, axis=0)
    if data.augment is not None:
        x = _augment_batch(x, data.augment, rng)
    return x, data.labels.take(idx, axis=0)


def sgd_step(
    params: np.ndarray,
    grad: np.ndarray,
    velocity: np.ndarray | None,
    cfg: TrainerConfig,
    lr: np.ndarray | float | None = None,
) -> None:
    """One SGD update of the flat arrays ``params`` and ``velocity``, in
    place: decay folds into the gradient (``grad`` is overwritten with
    ``grad + wd * params``), momentum into the velocity (``m * v + g``),
    and the parameters take ``p - lr * v``.  A caller starts the velocity
    at zeros; without momentum the velocity is the gradient itself, and
    ``velocity`` may be None.

    ``lr`` may be a per-coordinate array (per-layer learning rates); it
    defaults to the scalar from the config.
    """
    if cfg.weight_decay:
        grad += cfg.weight_decay * params
    if cfg.momentum:
        velocity *= cfg.momentum
        velocity += grad
    else:
        velocity = grad
    params -= (cfg.lr if lr is None else lr) * velocity


def train_until(
    plan: Plan,
    data: Dataset,
    cfg: TrainerConfig,
    rule: StopRule,
    rng: np.random.Generator,
    lr: np.ndarray | float | None = None,
) -> TrainResult:
    """SGD on random batches until the rolling loss beats the threshold or the
    round cap is reached (the latter is a normal outcome, not an error).

    The rounds train ``plan.params`` in place; each round's gradient lands
    in ``plan.grad``, and under momentum one velocity buffer lives for the
    call.  The plan's constructor has checked both arrays; a plan without a
    gradient buffer raises ``ValueError``.  ``lr`` is the learning rate of
    :func:`sgd_step`: a per-coordinate array, or by default the config's
    scalar.
    """
    p, grad = plan.params, plan.grad
    if grad is None:
        raise ValueError("train_until needs a training plan, bound to a gradient buffer")
    velocity = np.zeros_like(p) if cfg.momentum else None
    recent: deque[float] = deque(maxlen=rule.window)
    losses: list[float] = []
    rounds = 0
    hit = False
    for rounds in range(1, rule.max_rounds + 1):
        x, y = sample_batch(data, cfg.batch_size, rng)
        loss, _ = loss_and_grad(plan, p, x, y, out=grad)
        sgd_step(p, grad, velocity, cfg, lr)
        recent.append(loss)
        losses.append(loss)
        if (
            rule.loss_threshold > 0
            and len(recent) >= rule.window
            and float(np.mean(recent)) < rule.loss_threshold
        ):
            hit = True
            break
    rolling = float(np.mean(recent)) if recent else float("nan")
    return TrainResult(rounds, rolling, hit, losses)


def train_modes(
    graph: ModelGraph,
    seeds: Iterable[int],
    cfg: TrainerConfig,
    rule: StopRule,
    data: Dataset,
    eval_size: int,
    acceptance_loss: float | None = None,
) -> Iterator[tuple[int, ParamVector, TrainResult, float, float, bool]]:
    """Train, score and accept one mode per seed, in seed order.

    Each mode starts from ``init_params(graph, seed)`` and trains under
    ``rule`` on batches drawn by a generator seeded with ``seed``.  Its loss
    and accuracy are then taken on the fixed ``eval_size``-row subset of
    ``data``, and it is accepted when there is no ``acceptance_loss`` or its
    loss is below it.  Yields (seed, params, result, loss, accuracy,
    accepted) as each mode finishes, so a caller can store it before the
    next one trains.
    """
    subset = fixed_subset(data, eval_size)
    norm_x = norm_rows(data)
    for seed in seeds:
        p = init_params(graph, seed).copy_data()
        rng = np.random.default_rng(seed)
        result = train_until(Plan(graph, p, np.empty_like(p)), data, cfg, rule, rng)
        params = graph.wrap(p)
        loss, acc = evaluate(graph, params, subset, norm_x, accuracy=True)
        yield seed, params, result, loss, acc, acceptance_loss is None or loss < acceptance_loss


def eval_chunk_rows(graph: ModelGraph, itemsize: int) -> int:
    """Rows per evaluation chunk for a forward whose arrays hold
    ``itemsize``-byte elements: as many as keep the widest per-sample array
    (a node output, or a conv's im2col patch matrix) within
    ``EVAL_CHUNK_BYTES``, and at least one."""
    widest = 0
    for node in graph.plan:
        out = graph.shapes[node.name]
        widest = max(widest, math.prod(out))
        if node.kind == "conv2d":
            widest = max(widest, node.in_shape[0] * node.kernel**2 * out[1] * out[2])
    return max(1, EVAL_CHUNK_BYTES // (widest * itemsize))


def evaluate(
    graph: ModelGraph | Plan,
    params: ParamVector | np.ndarray,
    data: Dataset,
    norm_x: np.ndarray | None = None,
    *,
    accuracy: bool = False,
) -> tuple[float, float]:
    """Full-dataset mean loss, and top-1 accuracy when ``accuracy`` is set
    (NaN otherwise, without taking the logits' row-wise argmax).

    ``params`` is a ParamVector or a flat array in the graph's layout.
    ``graph`` may be a :class:`Plan` bound to that array, which a caller
    evaluating many points holds for all of them, writing each into the
    array in place; otherwise one plan serves the call.  A model with
    batch_norm normalizes with the statistics :func:`norm_stats` fits at
    ``params`` from ``norm_x`` (the training rows of :func:`norm_rows`),
    which it then needs.  The data runs in chunks of :func:`eval_chunk_rows`
    rows: as many as keep the widest array of a forward within
    ``EVAL_CHUNK_BYTES``.  The chunk size changes the loss only in the last
    bits of its float64 sum.
    """
    if len(data) == 0:
        raise ValueError("empty dataset")
    flat = params.data if isinstance(params, ParamVector) else params
    plan = graph if isinstance(graph, Plan) else Plan(graph, flat)
    model = plan.graph
    stats = None
    if model.has_norm_layers():
        if norm_x is None:
            raise ValueError("a batch-norm model needs norm_x rows to fit its statistics")
        stats = norm_stats(plan, params, norm_x)
    rows = eval_chunk_rows(model, np.result_type(data.inputs, flat).itemsize)
    total_loss = 0.0
    correct = 0
    for start in range(0, len(data), rows):
        x = data.inputs[start : start + rows]
        y = data.labels[start : start + rows]
        logits = forward(plan, params, x, stats)
        total_loss += plan.loss(y) * len(y)
        if accuracy:
            correct += int((logits.argmax(axis=1) == y).sum())
    return total_loss / len(data), (correct / len(data) if accuracy else float("nan"))
