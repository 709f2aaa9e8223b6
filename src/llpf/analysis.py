"""Path validation and premise studies: rolling averages, segment-interpolation
continuity checks, per-point metric tables, and multi-seed variance studies."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .llpf_core import PathRecord
from .nn_engine.engine import Plan
from .nn_engine.graph import ModelGraph
from .nn_engine.trainer import (
    Dataset,
    StopRule,
    TrainerConfig,
    evaluate,
    fixed_subset,
    norm_rows,
    train_modes,
)
from .param_space import ParamVector, l2_distance, layer_stats

log = logging.getLogger(__name__)


def rolling_average(series: Sequence[float], window: int) -> list[float]:
    """Windowed mean where the warm-up uses the available prefix."""
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(series, dtype=np.float64)
    if values.size == 0:
        return []
    csum = np.concatenate(([0.0], np.cumsum(values)))
    out = []
    for i in range(values.size):
        lo = max(0, i - window + 1)
        out.append(float((csum[i + 1] - csum[lo]) / (i + 1 - lo)))
    return out


@dataclass
class ContinuityReport:
    segment_losses: list[list[float]]
    segment_bounds: list[tuple[int, int]]
    samples: int

    @property
    def global_max_loss(self) -> float:
        return max(max(losses) for losses in self.segment_losses)


def interpolation_continuity(
    points: Mapping[int, ParamVector],
    samples: int,
    graph: ModelGraph,
    data: Dataset,
    eval_size: int = 2048,
) -> ContinuityReport:
    """Training loss along straight lines between consecutive stored points.

    ``points`` maps each stored iteration of a path, in increasing order, to
    its parameters: ``{p.iteration: p.params for p in
    record.stored_points()}`` of a :class:`PathRecord`, or what
    ``harness_cli.records.read_stored_points`` loads from a record
    directory.  Every alpha is evaluated on one fixed, seeded subset of the
    training set so segment curves are comparable and the check is
    deterministic; an ``eval_size`` at least the size of the set evaluates
    all of it.  A batch-norm model fits its statistics at every blend from
    the same :func:`norm_rows` of the set.  The alpha=0 and alpha=1 blends
    are the stored points themselves, so each stored point is evaluated once
    and its loss ends both segments it bounds: ``len(points) + (samples - 2)
    * segments`` evaluations in all.

    Only the loss is computed, and every evaluation runs through one plan
    bound to one parameter buffer held for the whole check: each stored
    point, and each blend (formed in float64 and cast to the points' dtype
    as ``astype`` casts), is written into that buffer in place.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    iterations = list(points)
    stored = list(points.values())
    if len(stored) < 2:
        raise ValueError("need at least two stored full-parameter points")
    if any(b <= a for a, b in zip(iterations, iterations[1:])):
        raise ValueError("stored iterations must be strictly increasing")
    held = np.empty(stored[0].size, stored[0].dtype)
    if any(p.dtype != held.dtype for p in stored):
        raise ValueError("stored points differ in dtype")
    plan = Plan(graph, held)
    subset = fixed_subset(data, eval_size)
    norm_x = norm_rows(data)

    def loss_at(values):
        np.copyto(held, values)
        return evaluate(plan, held, subset, norm_x)[0]

    inner = np.linspace(0.0, 1.0, samples)[1:-1]
    end_losses = [loss_at(p.data) for p in stored]
    blend, part = np.empty(held.shape), np.empty(held.shape)
    seg_losses = []
    pb = stored[0].data.astype(np.float64)
    for k, b in enumerate(stored[1:]):
        pa, pb = pb, b.data.astype(np.float64)
        losses = [end_losses[k]]
        for alpha in inner:
            # (1 - alpha) * pa + alpha * pb
            np.multiply(1.0 - alpha, pa, out=blend)
            np.multiply(alpha, pb, out=part)
            blend += part
            losses.append(loss_at(blend))
        losses.append(end_losses[k + 1])
        seg_losses.append(losses)
    return ContinuityReport(seg_losses, list(zip(iterations, iterations[1:])), samples)


def path_metrics(
    path: PathRecord,
    destination: ParamVector | None = None,
    graph: ModelGraph | None = None,
    test_data: Dataset | None = None,
    recompute: bool = False,
    norm_x: np.ndarray | None = None,
) -> list[dict[str, float]]:
    """One row per path point: iteration, phase, rolling train loss, per-layer
    distance to the destination (one ``dist:`` column per recorded slice, in
    name order), test loss and accuracy (recorded at stored points only, NaN
    elsewhere), and ``train_exhausted`` (1 when repair training ran out of
    rounds before reaching its loss threshold, else 0).

    Rows come from the recorded point metrics; with ``recompute=True`` the
    distance and test columns are recomputed from stored checkpoints instead,
    against the ``destination`` vector (required; the origin is a zero
    vector), which is the cross-check oracle (points without checkpoints are
    skipped).  A batch-norm model's test metrics need ``norm_x``, the
    training rows its statistics are fitted on (:func:`norm_rows` of the
    training set).
    """
    if recompute and destination is None:
        raise ValueError("recompute=True needs a destination vector")
    rows = []
    for p in path.points:
        dists, t_loss, t_acc = p.per_layer_dist, p.test_loss, p.test_acc
        if recompute:
            if p.params is None:
                continue
            p.params.require_compatible(destination)
            dists = l2_distance(p.params.data, destination, list(dists))
            if test_data is not None and graph is not None:
                t_loss, t_acc = evaluate(graph, p.params, test_data, norm_x, accuracy=True)
        row: dict[str, float] = {
            "iteration": p.iteration,
            "phase": p.phase,
            "rolling_train_loss": p.rolling_train_loss,
        }
        for name in sorted(dists):
            row[f"dist:{name}"] = dists[name]
        row["test_loss"] = t_loss
        row["test_acc"] = t_acc
        row["train_exhausted"] = int(p.train_exhausted)
        rows.append(row)
    return rows


@dataclass
class SeedStudyTable:
    """Per-layer (seed, variance, mean) tuples plus the spread summary.

    The summary covers weight slices only; bias and normalization slices are
    tabulated but excluded from the variance-consistency reasoning.
    """

    per_layer: dict[str, list[tuple[int, float, float]]]
    summary: dict[str, dict[str, float]]
    failed_seeds: list[int] = field(default_factory=list)


def seed_variance_study(
    graph: ModelGraph,
    trainer: TrainerConfig,
    seeds: Sequence[int],
    data: Dataset,
    rule: StopRule,
    acceptance_loss: float | None = None,
    eval_size: int = 2048,
) -> SeedStudyTable:
    """Train modes from independent seeds and tabulate per-layer statistics.

    Each of ``seeds`` (at least two) trains one mode through
    :func:`train_modes`, under ``rule`` with the dataset's augmentation, if
    it has any, and is scored on one fixed ``eval_size`` training subset.
    With an ``acceptance_loss``, seeds whose loss misses the bar are
    excluded from the table and reported in ``failed_seeds``.
    """
    if len(seeds) < 2:
        raise ValueError("need at least two seeds")
    per_layer: dict[str, list[tuple[int, float, float]]] = {
        name: [] for name in graph.slice_names()
    }
    failed = []
    for seed, params, _, loss, _, accepted in train_modes(
        graph, seeds, trainer, rule, data, eval_size, acceptance_loss
    ):
        if not accepted:
            log.warning("seed %d failed mode acceptance (loss %.4g)", seed, loss)
            failed.append(seed)
            continue
        for name in graph.slice_names():
            stats = layer_stats(params.get(name))
            per_layer[name].append((seed, stats.variance, stats.mean))

    kinds = {info.name: info.kind for info in graph.layout}
    summary = {}
    for name, rows in per_layer.items():
        if kinds[name] != "weight" or not rows:
            continue
        variances = np.array([r[1] for r in rows])
        means = np.array([r[2] for r in rows])
        cov = float(variances.std() / variances.mean()) if variances.mean() > 0 else float("inf")
        ratios = np.abs(means) / np.sqrt(variances)
        summary[name] = {
            "variance_cov": cov,
            "max_abs_mean_over_std": float(ratios.max()),
        }
    return SeedStudyTable(per_layer=per_layer, summary=summary, failed_seeds=failed)

