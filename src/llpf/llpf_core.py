"""Low-loss path search between trained modes.

Every search is one walk loop (``_walk``): move the active layers a bounded
step toward a destination, repair the moved point, record it.  The walk owns
what every search shares: the seeded generator its repair rounds draw
batches from, the arc anchors captured at each phase start, and the returned
:class:`PathRecord`.  The drivers share one mode-acceptance rule
(``_accept_modes``) and differ only in their prerequisite checks and in the
repair policy they hand the walk.  Every step of the walk acts on its one
flat working array: :func:`move_toward`, the variance correction,
``train_until``, :func:`angle_conformal` and ``l2_distance`` read or write it
in place, and a :class:`ParamVector` is built only for the points the walk
keeps.  The walk binds one engine training plan to that array and a
gradient buffer and hands it to every repair, so the repair rounds of a
walk stage bind the engine once; the walk releases the plan before it
evaluates its kept points on the test set.

The model-to-model search (``llpf_m2m``) walks one mode toward another along
their shared per-layer variance spheres: it projects the moved point back
onto the start mode's spheres, retrains briefly, and projects again.  The
model-to-origin search (``llpf_m2o``) walks a mode inward across shrinking
spheres: it never corrects variance and never touches normalization
parameters, and instead rescales each layer's learning rate so update angles
stay comparable as the radius drops.  The cross-sphere connection
(``connect_cross_variance``) chains the two to join modes that sit on
different spheres.  A phase controls only the move, its step and its repair's
stop rule: repair trains every layer a search does not freeze, and the
model-to-model search re-projects every correctable layer in every phase.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, replace
from itertools import groupby
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .nn_engine.engine import Plan
from .nn_engine.graph import ModelGraph, ResolvedNode, topological_order
from .nn_engine.trainer import (
    Dataset,
    StopRule,
    TrainerConfig,
    TrainResult,
    evaluate,
    fixed_subset,
    norm_rows,
    train_until,
)
from .param_space import (
    EPS_VAR,
    Layout,
    ParamVector,
    arc_length,
    l2_distance,
    layer_stats,
    radial_norm_sq,
    variance_correction,
)

log = logging.getLogger(__name__)


class PrerequisiteError(RuntimeError):
    """A path search was started from modes that violate its preconditions."""


@dataclass(frozen=True)
class StepParams:
    """Per-iteration move distance: ``step_a * |to dest| + step_c * arc + step_f``."""

    step_a: float = 0.0
    step_c: float = 0.0
    step_f: float = 0.0

    def __post_init__(self):
        if not all(s >= 0 for s in (self.step_a, self.step_c, self.step_f)):
            raise ValueError("step coefficients must be non-negative")
        if self.step_a == 0 and self.step_c == 0 and self.step_f == 0:
            raise ValueError("at least one step coefficient must be positive")


@dataclass(frozen=True)
class Phase:
    active_layers: tuple[str, ...]
    iterations: int
    step: StepParams
    stop: StopRule


@dataclass(frozen=True)
class PhasePlan:
    phases: tuple[Phase, ...]

    def __post_init__(self):
        if not self.phases:
            raise ValueError("a plan needs at least one phase")

    def validate_against(self, graph: ModelGraph) -> None:
        all_slices = set(graph.slice_names())
        for i, phase in enumerate(self.phases):
            unknown = set(phase.active_layers) - all_slices
            if unknown:
                raise ValueError(f"phase {i + 1} names unknown layers {sorted(unknown)}")
        if set(self.phases[-1].active_layers) != all_slices:
            raise ValueError("final phase must cover all trainable layers")


@dataclass
class PathPoint:
    iteration: int
    phase: int
    rolling_train_loss: float
    per_layer_dist: dict[str, float]
    test_loss: float = float("nan")
    test_acc: float = float("nan")
    params: ParamVector | None = None
    train_exhausted: bool = False


@dataclass
class PathRecord:
    points: list[PathPoint]
    config_hash: str = ""
    endpoints: tuple[str, str] = ("start", "dest")
    stage_boundary: int | None = None

    def __post_init__(self):
        if not self.points:
            raise ValueError("a path record cannot be empty")
        iters = [p.iteration for p in self.points]
        if any(b <= a for a, b in zip(iters, iters[1:])):
            raise ValueError("path iterations must be strictly increasing")
        layers = self.points[0].per_layer_dist.keys()
        if any(p.per_layer_dist.keys() != layers for p in self.points):
            raise ValueError("every path point must report the same layers")

    def stored_points(self) -> list[PathPoint]:
        return [p for p in self.points if p.params is not None]


@dataclass(frozen=True)
class SearchSettings:
    """Bookkeeping shared by every driver.

    ``seed`` drives repair-round batch sampling; ``checkpoint_stride`` sets
    which points keep their params; ``eval_subset`` sizes the fixed training
    subset the endpoint modes are scored on; ``variance_ratio_bound`` is the
    per-layer sphere-match prerequisite of the model-to-model search; and
    ``mode_acceptance_loss`` is the endpoint low-loss gate (unset means the
    first phase's loss threshold).  Repair rounds never augment.  Given
    test data, test metrics are recorded at exactly the points that keep
    their params, so ``checkpoint_stride`` is also the test-metric cadence;
    every other point records NaN.
    """

    seed: int = 0
    checkpoint_stride: int = 10
    eval_subset: int = 2048
    variance_ratio_bound: float = 1.5
    mode_acceptance_loss: float | None = None
    config_hash: str = ""
    endpoint_ids: tuple[str, str] = ("start", "dest")

    def __post_init__(self):
        if self.checkpoint_stride < 1 or self.eval_subset < 1:
            raise ValueError("checkpoint_stride and eval_subset must be >= 1")
        if not self.variance_ratio_bound > 1:
            raise ValueError("variance_ratio_bound must exceed 1")
        if self.mode_acceptance_loss is not None and math.isnan(self.mode_acceptance_loss):
            raise ValueError("mode_acceptance_loss must be a number, got nan")


@dataclass(frozen=True)
class M2OConfig:
    """The origin walk's settings: its one phase, the base of its per-layer
    repair rates, the layers it freezes, and its repair batch size."""

    iterations: int
    step: StepParams
    stop: StopRule
    eta_base: float
    excluded_layers: tuple[str, ...] = ()
    batch_size: int = 32

    def __post_init__(self):
        if not self.eta_base > 0:
            raise ValueError("eta_base must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


# -- elementary steps ---------------------------------------------------------


def move_toward(
    current: np.ndarray,
    dest: ParamVector,
    arc0: Mapping[str, float] | None,
    step: StepParams,
    active_layers: Iterable[str],
) -> None:
    """Move each active layer of the writable flat array ``current``, laid
    out like ``dest`` (a walk's working point, checked by the walk), a
    bounded distance straight toward the destination, in place; the step
    never overshoots, and inactive layers keep their values.  ``arc0``
    supplies the per-layer arc anchor captured at phase start (required only
    when ``step_c`` is nonzero).  The walk passes a float64 ``dest``, which
    is then read without a copy.
    """
    if step.step_c > 0 and arc0 is None:
        raise ValueError("step_c > 0 requires per-layer arc anchors")
    spans = dest.layout.spans
    for name in active_layers:
        a = current[spans[name]].astype(np.float64)
        gap = dest.get(name).astype(np.float64, copy=False) - a
        dist = math.sqrt(radial_norm_sq(gap))
        if dist == 0.0:
            continue
        s = step.step_a * dist + step.step_f
        if step.step_c > 0:
            s += step.step_c * arc0.get(name, 0.0)
        current[spans[name]] = a + (min(s, dist) / dist) * gap  # casts to the array's dtype


def angle_conformal(
    current: np.ndarray,
    layout: Layout,
    v_base: Mapping[str, float],
    eta_base: float,
) -> dict[str, float]:
    """Learning rates for the layers of ``v_base`` in the flat array
    ``current`` laid out by ``layout``, each scaled by its current-to-base
    variance ratio, so update angles stay comparable as a layer's sphere
    shrinks.  A layer not in ``v_base`` gets no rate: the origin walk's zero
    rate freezes it in every phase."""
    rates = {}
    for name, base in v_base.items():
        if base <= 0:
            raise ValueError(f"base variance must be positive for layer {name!r}")
        current_var = layer_stats(current[layout.spans[name]]).variance
        rates[name] = eta_base * current_var / base
    return rates


def _variances(data: np.ndarray, layout: Layout, names: Iterable[str]) -> dict[str, float]:
    return {name: layer_stats(data[layout.spans[name]]).variance for name in names}


def correctable_layers(params: ParamVector, targets: Mapping[str, float]) -> tuple[str, ...]:
    """Weight slices whose captured target variance is meaningfully positive.
    Bias and normalization slices move but are never variance-corrected."""
    return tuple(
        info.name
        for info in params.layout
        if info.kind == "weight" and targets[info.name] > EPS_VAR
    )


def _off_sphere(variances, targets, factor) -> dict[str, float]:
    """The layers of ``variances``, in order, whose variance-to-target ratio
    lies outside [1/factor, factor], each with its ratio.  A target at or
    below ``EPS_VAR`` has no sphere to match, so its layer is skipped."""
    ratios = {n: v / targets[n] for n, v in variances.items() if targets[n] > EPS_VAR}
    return {n: r for n, r in ratios.items() if not (1.0 / factor <= r <= factor)}


def _correct(
    data: np.ndarray, layout: Layout, names: Iterable[str], targets: Mapping[str, float]
) -> None:
    """Variance-correct the named slices of the flat array ``data`` in place."""
    for name in names:
        variance_correction(data[layout.spans[name]], targets[name])


def _accept_modes(graph, settings, phases, train_data, **modes) -> list[float]:
    """Score the endpoint modes, given by label (``start``, ``dest``), on the
    fixed training subset and return their losses in order.  The threshold
    is ``settings.mode_acceptance_loss``, by default the first phase's loss
    threshold; a mode that does not beat it raises
    :class:`PrerequisiteError` naming its label, and a threshold <= 0 skips
    the check."""
    threshold = settings.mode_acceptance_loss
    if threshold is None:
        threshold = phases[0].stop.loss_threshold
    if threshold <= 0:
        log.warning("no positive mode-acceptance threshold; skipping the check")
    subset = fixed_subset(train_data, settings.eval_subset)
    norm_x = norm_rows(train_data)
    losses = []
    for label, params in modes.items():
        loss, _ = evaluate(graph, params, subset, norm_x)
        if threshold > 0 and loss >= threshold:
            raise PrerequisiteError(
                f"{label} mode fails low-loss acceptance: loss {loss:.4g} >= {threshold:.4g}"
            )
        losses.append(loss)
    return losses


def _require_plain_sgd(trainer: TrainerConfig) -> None:
    """Path repair runs plain SGD, so a repair config that asks for momentum
    or weight decay is rejected rather than run without them."""
    for name in ("momentum", "weight_decay"):
        value = getattr(trainer, name)
        if value:
            raise ValueError(f"path repair runs plain SGD: TrainerConfig.{name} must be 0, not {value}")


def _phase_arcs(current, dest, phase):
    """Arc anchors from the flat array ``current`` toward ``dest`` for the
    phase's active layers, or None when its step has no arc term.  Toward an
    all-zero slice the anchor is the slice's current (float64) radius; from
    an all-zero slice it is 0."""
    if phase.step.step_c == 0:
        return None
    arcs = {}
    for name in phase.active_layers:
        a, b = current[dest.layout.spans[name]], dest.get(name)
        if not b.any():
            arcs[name] = math.sqrt(radial_norm_sq(a))
        elif not a.any():
            arcs[name] = 0.0  # arc undefined at the center; contributes nothing
        else:
            arcs[name] = arc_length(a, b)
    return arcs


# -- the walk loop -----------------------------------------------------------------


def _test_metrics(graph, points, test_data, train_data) -> None:
    """Fill in test loss and accuracy at every point that keeps its params,
    batch-norm statistics fitted on :func:`norm_rows` of ``train_data``."""
    if test_data is None:
        return
    norm_x = norm_rows(train_data)
    for p in points:
        if p.params is not None:
            p.test_loss, p.test_acc = evaluate(graph, p.params, test_data, norm_x, accuracy=True)


def _walk(
    graph: ModelGraph,
    start: ParamVector,
    dest: ParamVector,
    phases: Sequence[Phase],
    start_loss: float,
    repair: Callable[[Plan, Phase, np.random.Generator], TrainResult],
    *,
    train_data: Dataset,
    test_data: Dataset | None,
    settings: SearchSettings,
    stop_when: Callable[[np.ndarray], bool] | None = None,
) -> PathRecord:
    """Walk from ``start`` toward ``dest`` through the phase schedule.

    The walk holds its current point in one private, writable flat array,
    laid out like ``start`` and checked against ``dest`` once, here, and
    reads ``dest`` through one float64 copy, made here too.  It binds one
    engine training plan to that array and one gradient buffer.  Each
    iteration moves the phase's active layers of the array in place, hands
    the plan (the array is its ``params``) to ``repair`` together with the
    walk's one generator (seeded from ``settings.seed``), which repairs the
    array in place and returns its :class:`TrainResult`, and records the
    repaired point: its repair loss and its distance to ``dest`` over every
    slice, so a slice the walk never moves reads its constant gap to ``dest``
    (0.0 where ``dest`` keeps the start's value).  Arc anchors toward
    ``dest`` are captured at each phase start.  The walk ends early, before
    moving, once ``stop_when`` holds for the current array.

    Params are kept for the start (``start`` itself), and as ParamVector
    copies for every ``checkpoint_stride``-th iteration, the scheduled last
    iteration, and the point the walk ends on.  Exactly those points get
    test metrics (batch-norm statistics fitted on :func:`norm_rows` of
    ``train_data``), taken once the training plan is released; every other
    point records NaN.  The record is labelled with ``settings.endpoint_ids``.
    """
    start.require_compatible(dest)
    dest = ParamVector(dest.data.astype(np.float64), dest.layout)
    rng = np.random.default_rng(settings.seed)
    total = sum(p.iterations for p in phases)
    points: list[PathPoint] = []
    names = start.names()
    current = start.copy_data()
    engine_plan = Plan(graph, current, np.empty_like(current))

    def record(iteration, phase_idx, loss, exhausted):
        point = PathPoint(
            iteration=iteration,
            phase=phase_idx,
            rolling_train_loss=loss,
            per_layer_dist=l2_distance(current, dest, names),
            train_exhausted=exhausted,
        )
        if iteration == 0:
            point.params = start  # immutable already
        elif iteration % settings.checkpoint_stride == 0 or iteration == total:
            point.params = ParamVector(current.copy(), start.layout)
        points.append(point)

    record(0, 0, start_loss, False)
    schedule = [(k, phase) for k, phase in enumerate(phases) for _ in range(phase.iterations)]
    arc_phase, arc0 = None, None
    for iteration, (k, phase) in enumerate(schedule, 1):
        if stop_when is not None and stop_when(current):
            break
        if k != arc_phase:
            arc_phase, arc0 = k, _phase_arcs(current, dest, phase)
        move_toward(current, dest, arc0, phase.step, phase.active_layers)
        result = repair(engine_plan, phase, rng)
        exhausted = phase.stop.loss_threshold > 0 and not result.hit_threshold
        record(iteration, k, result.rolling_loss, exhausted)
    if points[-1].params is None:
        points[-1].params = ParamVector(current.copy(), start.layout)
    del engine_plan  # its buffers go before the test evaluations bind theirs
    _test_metrics(graph, points, test_data, train_data)
    return PathRecord(
        points=points, config_hash=settings.config_hash, endpoints=settings.endpoint_ids
    )


# -- model-to-model search ------------------------------------------------------


def llpf_m2m(
    start: ParamVector,
    dest: ParamVector,
    plan: PhasePlan,
    trainer: TrainerConfig,
    train_data: Dataset,
    test_data: Dataset | None = None,
    *,
    graph: ModelGraph,
    settings: SearchSettings = SearchSettings(),
) -> PathRecord:
    """Walk ``start`` toward ``dest`` along their shared variance spheres.

    Each iteration moves the phase's active layers a small absolute distance
    toward the destination, projects every correctable layer back onto the
    start mode's captured variance sphere, retrains every layer briefly, and
    projects again, so a layer the phase does not move stays on its sphere
    too.  Both endpoints must already be low-loss modes whose correctable
    layers sit on nearby spheres.  The retraining is plain SGD at ``trainer.lr`` on
    ``trainer.batch_size``-row batches; a ``trainer`` with momentum or
    weight decay raises ``ValueError``.
    """
    return _m2m(start, dest, plan, trainer, train_data, test_data, graph, settings, score_dest=True)


def _m2m(start, dest, plan, trainer, train_data, test_data, graph, settings, *, score_dest):
    """:func:`llpf_m2m`; ``score_dest=False`` skips scoring ``dest``, for a
    caller that has already accepted it against the same threshold."""
    start.require_compatible(dest)
    plan.validate_against(graph)
    _require_plain_sgd(trainer)

    targets = _variances(start.data, start.layout, start.names())
    correctable = correctable_layers(start, targets)

    v_dest = _variances(dest.data, dest.layout, correctable)
    off = _off_sphere({n: targets[n] for n in correctable}, v_dest, settings.variance_ratio_bound)
    if off:
        name, ratio = next(iter(off.items()))
        raise PrerequisiteError(
            f"modes on distant variance spheres (layer {name!r} ratio {ratio:.3g});"
            " use connect_cross_variance"
        )

    modes = {"start": start, "dest": dest} if score_dest else {"start": start}
    start_loss = _accept_modes(graph, settings, plan.phases, train_data, **modes)[0]
    repair_data = replace(train_data, augment=None)
    layout = start.layout

    def repair(engine_plan, phase, rng):
        _correct(engine_plan.params, layout, correctable, targets)
        result = train_until(engine_plan, repair_data, trainer, phase.stop, rng)
        _correct(engine_plan.params, layout, correctable, targets)
        return result

    return _walk(
        graph, start, dest, plan.phases, start_loss, repair,
        train_data=train_data, test_data=test_data, settings=settings,
    )


# -- model-to-origin search ------------------------------------------------------


def moving_layers(graph: ModelGraph, excluded: Sequence[str]) -> tuple[str, ...]:
    """The slices an origin walk moves: all but ``excluded`` and the
    normalization parameters."""
    return tuple(
        info.name for info in graph.layout
        if info.name not in excluded and info.kind not in ("norm_scale", "norm_shift")
    )


def llpf_m2o(
    start: ParamVector,
    cfg: M2OConfig,
    train_data: Dataset,
    test_data: Dataset | None = None,
    *,
    graph: ModelGraph,
    settings: SearchSettings = SearchSettings(),
    destination: ParamVector | None = None,
    stop_when: Callable[[np.ndarray], bool] | None = None,
) -> PathRecord:
    """Walk a mode inward across shrinking variance spheres.

    The destination defaults to the origin restricted to the layers the walk
    moves (:func:`moving_layers`), and the record then names it
    ``"origin"``.  There is no variance correction; instead each layer's
    learning rate is rescaled by its current-to-start variance ratio;
    excluded layers (``cfg.excluded_layers`` and every normalization
    parameter) keep a zero rate and stay bit-identical, so toward the origin
    their distance reads 0.0 at every point.  Repair rounds draw
    ``cfg.batch_size``-row batches and run without momentum or weight decay.
    The walk ends early, before moving, once ``stop_when`` holds for its
    current flat array.
    """
    active = moving_layers(graph, cfg.excluded_layers)
    if not active:
        raise ValueError("every layer is excluded; nothing to move")

    v_base = _variances(start.data, start.layout, active)
    for name, v in v_base.items():
        if v <= 0:
            raise ValueError(f"base variance must be positive for layer {name!r}")

    phases = [Phase(active, cfg.iterations, cfg.step, cfg.stop)]
    [start_loss] = _accept_modes(graph, settings, phases, train_data, start=start)

    if destination is None:
        dest = start.with_slices({n: np.zeros(start.info(n).length) for n in active})
        settings = replace(settings, endpoint_ids=(settings.endpoint_ids[0], "origin"))
    else:
        start.require_compatible(destination)
        dest = destination

    trainer = TrainerConfig(lr=cfg.eta_base, batch_size=cfg.batch_size)
    repair_data = replace(train_data, augment=None)
    layout = start.layout
    lr = np.zeros(start.size, dtype=start.dtype)  # excluded layers keep rate 0

    def repair(engine_plan, phase, rng):
        rates = angle_conformal(engine_plan.params, layout, v_base, cfg.eta_base)
        for name, rate in rates.items():
            lr[layout.spans[name]] = rate  # casts to the params dtype
        return train_until(engine_plan, repair_data, trainer, phase.stop, rng, lr=lr)

    return _walk(
        graph, start, dest, phases, start_loss, repair,
        train_data=train_data, test_data=test_data, settings=settings, stop_when=stop_when,
    )


# -- cross-sphere connection ------------------------------------------------------


@dataclass(frozen=True)
class CrossVarianceConfig:
    """The cross-sphere connection's two stages and the factor within which
    every correctable layer's variance must match the destination's before
    stage one hands off."""

    m2o: M2OConfig
    m2m_plan: PhasePlan
    sphere_match_rtol: float = 1.05

    def __post_init__(self):
        if not self.sphere_match_rtol > 1:
            raise ValueError("sphere_match_rtol must exceed 1")


def connect_cross_variance(
    start: ParamVector,
    dest: ParamVector,
    cfg: CrossVarianceConfig,
    trainer: TrainerConfig,
    train_data: Dataset,
    test_data: Dataset | None = None,
    *,
    graph: ModelGraph,
    settings: SearchSettings = SearchSettings(),
) -> PathRecord:
    """Connect modes on different variance spheres.

    Stage one walks ``start`` inward to the projection of itself onto the
    destination's per-layer spheres (the inward walk only shrinks, so the
    start must sit on the larger spheres on average), entirely from
    ``cfg.m2o``, until every correctable layer's variance is within
    ``cfg.sphere_match_rtol`` of the destination's; a hand-off outside stage
    two's ``settings.variance_ratio_bound`` raises :class:`PrerequisiteError`.
    Stage two runs the same-sphere search from there to ``dest`` with
    ``trainer`` and ``cfg.m2m_plan``, both checked before stage one starts,
    as :func:`llpf_m2m` checks them; ``dest`` is scored then too, against the
    threshold stage two applies, and stage two does not score it again.  The
    returned record, labelled with
    ``settings.endpoint_ids``, is the concatenation, with the hand-off point
    recorded once at ``stage_boundary``.  Test metrics are filled in on the
    merged record, once per point that keeps its params.
    """
    start.require_compatible(dest)
    cfg.m2m_plan.validate_against(graph)
    _require_plain_sgd(trainer)

    dest_targets = _variances(dest.data, dest.layout, dest.names())
    correctable = correctable_layers(dest, dest_targets)
    if not correctable:
        raise ValueError("no correctable layers to project")
    v_start = _variances(start.data, start.layout, correctable)
    if float(np.mean([v_start[name] / dest_targets[name] for name in correctable])) < 1.0:
        raise PrerequisiteError("destination on larger sphere; swap endpoints")
    _accept_modes(graph, settings, cfg.m2m_plan.phases, train_data, dest=dest)

    projection = start.copy_data()
    _correct(projection, start.layout, correctable, dest_targets)
    projection = ParamVector(projection, start.layout)

    def off_dest_spheres(current, factor):
        return _off_sphere(_variances(current, start.layout, correctable), dest_targets, factor)

    stage1 = llpf_m2o(
        start, cfg.m2o, train_data, settings=settings, graph=graph, destination=projection,
        stop_when=lambda current: not off_dest_spheres(current, cfg.sphere_match_rtol),
    )
    hand_off = stage1.points[-1]
    assert hand_off.params is not None
    off = off_dest_spheres(hand_off.params.data, settings.variance_ratio_bound)
    if off:
        layers = ", ".join(f"layer {name!r} ratio {ratio:.3g}" for name, ratio in off.items())
        raise PrerequisiteError(
            f"stage 1 ended at iteration {hand_off.iteration} off the destination's variance"
            f" spheres ({layers}); give stage 1 more iterations or a larger step"
        )

    stage2 = _m2m(
        hand_off.params, dest, cfg.m2m_plan, trainer, train_data, None, graph, settings,
        score_dest=False,
    )

    # stage 1 is the single phase 0, so stage 2's phases follow from 1
    merged = stage1.points + [
        replace(p, iteration=p.iteration + hand_off.iteration, phase=p.phase + 1)
        for p in stage2.points[1:]
    ]
    _test_metrics(graph, merged, test_data, train_data)
    return PathRecord(
        points=merged,
        config_hash=settings.config_hash,
        endpoints=settings.endpoint_ids,
        stage_boundary=len(stage1.points) - 1,
    )


# -- data-flow phase ordering ------------------------------------------------------


def fdf_phase_plan(
    graph: ModelGraph,
    iterations: int,
    step: StepParams,
    stop: StopRule,
) -> PhasePlan:
    """Cumulative phase plan that follows the data flow.

    The node DAG splits into linear segments at forks and joins; segments are
    visited in topological order from the input, so parallel branches become
    consecutive individual phases (lexicographic order on a branch's first
    node breaks ties).  Within a segment, consecutive nodes sharing a dotted
    name prefix ("block1.conv_a" -> "block1") form one block, which is how
    architecture modules group under the usual naming convention.  Phase k
    extends phase k-1 with the next block's layers; a final all-layers phase
    is always appended.
    """
    readers = Counter(src for node in graph.plan for src in node.inputs)
    head_of: dict[str, str] = {}
    chains: dict[str, list[ResolvedNode]] = {}
    for node in graph.plan:
        extends = len(node.inputs) == 1 and readers[node.inputs[0]] == 1
        head_of[node.name] = head_of[node.inputs[0]] if extends else node.name
        chains.setdefault(head_of[node.name], []).append(node)
    deps = {head: {head_of[src] for src in chain[0].inputs} for head, chain in chains.items()}
    name_at = {info.offset: info.name for info in graph.layout}
    cumulative: list[int] = []
    phases: list[Phase] = []
    for head in topological_order(deps):
        for _, block in groupby(chains[head], key=lambda n: n.name.rsplit(".", 1)[0]):
            offsets = [offset for node in block for offset, _, _ in node.slices]
            if offsets:
                cumulative.extend(offsets)
                active = tuple(name_at[offset] for offset in sorted(cumulative))
                phases.append(Phase(active, iterations, step, stop))
    phases.append(Phase(graph.slice_names(), iterations, step, stop))
    return PhasePlan(tuple(phases))
