"""Assembly of library objects from parsed config files.

Each ``build_*`` helper validates one section and its phase or stage sections
(unknown keys are rejected with their line number) and returns ready-to-use
engine objects; :func:`check_sections` rejects a section no builder reads.
The four walk sections share one reader, ``_walk_section``, and the three
walk commands' builders (``build_m2m``, ``build_m2o``, ``build_avs``) return
one :class:`WalkBlock`: the endpoint checkpoints, the driver's own
arguments and the search settings the section sets.
"""

from __future__ import annotations

import fnmatch
import os
import re
from dataclasses import dataclass
from pathlib import Path

from ..llpf_core import (
    CrossVarianceConfig,
    M2OConfig,
    Phase,
    PhasePlan,
    SearchSettings,
    StepParams,
    fdf_phase_plan,
)
from ..nn_engine.graph import MODEL_BUILDERS, ModelGraph, build_model
from ..nn_engine.trainer import Dataset, StopRule, TrainerConfig
from .config import ConfigError, ConfigFile, Section, resolve_path
from .datasets import gen_blobs, load_mnist

DATA_DIR_ENV = "LLPF_DATA_DIR"
# Every section some builder reads; phase sections are [m2m.phase.N].
SECTIONS = ("model", "dataset", "modes", "output", "m2m", "m2o", "avs", "avs.m2o", "avs.m2m",
            "continuity")


def check_sections(cfg: ConfigFile) -> None:
    """Reject a section no command reads, at its line."""
    for name, line in cfg.section_lines.items():
        if name not in SECTIONS and not re.fullmatch(r"m2m\.phase\.\d+", name):
            raise cfg.error(line, f"unknown section [{name}]")


def build_graph(cfg: ConfigFile) -> ModelGraph:
    sec = Section(cfg, "model")
    name = sec.require_str("name")
    if name not in MODEL_BUILDERS:
        raise cfg.error(sec.line, f"unknown model {name!r}; choices: {sorted(MODEL_BUILDERS)}")
    kwargs = {}
    if name == "mlp2":
        for key in ("in_dim", "hidden", "classes"):
            value = sec.positive_int(key)
            if value is not None:
                kwargs[key] = value
    else:
        for key in ("in_channels", "hw", "classes"):
            value = sec.positive_int(key)
            if value is not None:
                kwargs[key] = value
        if name == "resnet-micro":
            value = sec.positive_int("width")
            if value is not None:
                kwargs["width"] = value
    sec.finish()
    return build_model(name, **kwargs)


def build_datasets(cfg: ConfigFile) -> tuple[Dataset, Dataset]:
    sec = Section(cfg, "dataset")
    name = sec.require_str("name")
    if name == "blobs":
        classes = sec.require_int("classes")
        dim = sec.require_int("dim")
        n = sec.require_int("n")
        seed = sec.seed()
        sec.finish()
        return gen_blobs(classes, dim, n, seed)
    if name in ("mnist", "mnist-subset"):
        dir_text = sec.get_str("dir")
        if dir_text is None:
            dir_text = os.environ.get(DATA_DIR_ENV)
            if dir_text is None:
                raise cfg.error(
                    sec.line, f"[dataset] needs 'dir' or the {DATA_DIR_ENV} environment variable"
                )
            data_dir = Path(dir_text)
        else:
            data_dir = resolve_path(cfg, dir_text)
        per_class = None
        if name == "mnist-subset":
            per_class = sec.require_int("per_class")
        subset_seed = sec.seed()
        augment = sec.get_bool("augment", False)
        sec.finish()
        if not data_dir.is_dir():
            raise cfg.error(sec.line, f"dataset directory {data_dir} does not exist")
        return load_mnist(data_dir, per_class, subset_seed, augment)
    raise cfg.error(sec.line, f"unknown dataset {name!r}")


@dataclass
class ModesBlock:
    seeds: list[int]
    trainer: TrainerConfig
    rule: StopRule
    acceptance_loss: float | None


def build_modes(cfg: ConfigFile, min_seeds: int = 1) -> ModesBlock:
    """The ``[modes]`` section; a command that compares modes asks for
    ``min_seeds`` of them."""
    sec = Section(cfg, "modes")
    seeds = sec.get_int_list("seeds")
    if not seeds:
        raise cfg.error(sec.line, "[modes] needs a 'seeds' list")
    if len(seeds) < min_seeds:
        line = sec.values["seeds"].line
        raise cfg.error(line, f"[modes] needs at least {min_seeds} seeds here, got {len(seeds)}")
    if min(seeds) < 0:
        raise cfg.error(sec.values["seeds"].line, f"seeds must be >= 0, got {min(seeds)}")
    trainer = _checked(
        sec,
        TrainerConfig,
        lr=sec.require_float("lr"),
        momentum=sec.get_float("momentum", 0.0),
        weight_decay=sec.get_float("weight_decay", 0.0),
        batch_size=sec.positive_int("batch_size", 32),
    )
    rule = _checked(
        sec,
        StopRule,
        loss_threshold=sec.get_float("loss_threshold", 0.0),
        max_rounds=sec.positive_int("max_rounds", 1000),
        window=sec.positive_int("window", 10),
    )
    acceptance = sec.get_float("acceptance_loss", positive=True)
    sec.finish()
    return ModesBlock(seeds, trainer, rule, acceptance)


@dataclass
class OutputBlock:
    out_dir: Path
    checkpoint_stride: int
    eval_subset: int
    seed: int


def build_output(cfg: ConfigFile) -> OutputBlock:
    sec = Section(cfg, "output")
    dir_text = sec.get_str("dir", "out")
    block = OutputBlock(
        out_dir=resolve_path(cfg, dir_text),
        checkpoint_stride=sec.positive_int("checkpoint_stride", 10),
        eval_subset=sec.positive_int("eval_subset", 2048),
        seed=sec.seed(),
    )
    sec.finish()
    return block


def _step_params(sec: Section, defaults: StepParams | None = None) -> StepParams:
    step_a = sec.get_float("step_a", defaults.step_a if defaults else 0.0)
    step_c = sec.get_float("step_c", defaults.step_c if defaults else 0.0)
    step_f = sec.get_float("step_f", defaults.step_f if defaults else 0.0)
    return _checked(sec, StepParams, step_a=step_a, step_c=step_c, step_f=step_f)


def _checked(sec: Section, make, **fields):
    """``make(**fields)``, with its ValueError reported as a ConfigError at
    the section's line."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise sec.cfg.error(sec.line, f"[{sec.name}] {exc}") from None


def _stop_rule(sec: Section, defaults: StopRule | None = None) -> StopRule:
    return _checked(
        sec,
        StopRule,
        loss_threshold=sec.get_float(
            "loss_threshold", defaults.loss_threshold if defaults else 0.0
        ),
        max_rounds=sec.positive_int("train_rounds", defaults.max_rounds if defaults else 5),
        window=sec.positive_int("window", defaults.window if defaults else 10),
    )


def _expand_layers(cfg: ConfigFile, patterns: list[str], graph: ModelGraph, line: int):
    names = []
    all_names = graph.slice_names()
    for pattern in patterns:
        if pattern == "all":
            return list(all_names)
        matched = fnmatch.filter(all_names, pattern)
        if not matched:
            raise cfg.error(line, f"layer pattern {pattern!r} matches nothing")
        names.extend(m for m in matched if m not in names)
    return names


def _required_section(cfg: ConfigFile, name: str) -> Section:
    if not cfg.has(name):
        raise ConfigError(f"{cfg.path}: missing [{name}] section")
    return Section(cfg, name)


def _check_checkpoints(sec: Section, paths: dict[str, Path]) -> None:
    """Reject a checkpoint path that names no file, at its key's line."""
    for key, path in paths.items():
        if not path.is_file():
            message = f"[{sec.name}] {key} checkpoint {path} does not exist"
            raise sec.cfg.error(sec.line_of(key), message)


@dataclass
class WalkSection:
    """The keys every walk section shares, read by :func:`_walk_section`.
    ``sec`` stays open for the section's own keys; its builder finishes it."""

    sec: Section
    checkpoints: dict[str, Path]
    iterations: int
    step: StepParams
    stop: StopRule
    batch_size: int


def _walk_section(cfg: ConfigFile, name: str, *checkpoints: str) -> WalkSection:
    """Open walk section ``[name]``, which must exist, and read the checkpoint
    paths under the keys ``checkpoints``, then the keys every walk shares."""
    sec = _required_section(cfg, name)
    return WalkSection(
        sec,
        {key: resolve_path(cfg, sec.require_str(key)) for key in checkpoints},
        iterations=sec.positive_int("iterations", 1000),
        step=_step_params(sec),
        stop=_stop_rule(sec),
        batch_size=sec.positive_int("batch_size", 64),
    )


def _all_layers_plan(graph: ModelGraph, walk: WalkSection) -> PhasePlan:
    return PhasePlan((Phase(tuple(graph.slice_names()), walk.iterations, walk.step, walk.stop),))


def _m2m_trainer(walk: WalkSection, default_lr: float) -> TrainerConfig:
    lr = walk.sec.get_float("lr", default_lr)
    return _checked(walk.sec, TrainerConfig, lr=lr, batch_size=walk.batch_size)


def _m2o_config(cfg: ConfigFile, graph: ModelGraph, walk: WalkSection) -> M2OConfig:
    """An origin walk's config: the shared keys plus ``eta`` and ``exclude``.
    Finishes the section."""
    sec = walk.sec
    eta = sec.get_float("eta", 1e-3)
    extra = sec.get_str_list("exclude", [])
    sec.finish()
    excluded = tuple(_expand_layers(cfg, extra, graph, sec.line))
    return _checked(sec, M2OConfig, iterations=walk.iterations, step=walk.step, stop=walk.stop,
                    eta_base=eta, excluded_layers=excluded, batch_size=walk.batch_size)


@dataclass
class WalkBlock:
    """A walk command's sections, ready for its driver: the endpoint
    checkpoints (start, then dest when the walk has one), the driver's own
    positional arguments after the endpoints, and the search settings the
    sections set; the command fills in ``[output]``'s fields."""

    checkpoints: tuple[Path, ...]
    args: tuple
    settings: SearchSettings


def _walk_settings(sec: Section, **fields) -> SearchSettings:
    """The section's ``mode_acceptance_loss`` and ``fields`` as checked
    search settings."""
    acceptance = sec.get_float("mode_acceptance_loss")
    return _checked(sec, SearchSettings, mode_acceptance_loss=acceptance, **fields)


def _phase_sections(cfg: ConfigFile, prefix: str) -> list[str]:
    # check_sections has rejected a phase section whose N is not a number
    found = sorted(
        (int(name[len(prefix) + 1 :]), name) for name in cfg.sections
        if name.startswith(prefix + ".")
    )
    if found and [i for i, _ in found] != list(range(1, len(found) + 1)):
        raise cfg.error(
            cfg.section_lines[found[0][1]], f"[{prefix}.N] sections must be numbered 1..K"
        )
    return [name for _, name in found]


def build_m2m(cfg: ConfigFile, graph: ModelGraph) -> WalkBlock:
    walk = _walk_section(cfg, "m2m", "start", "dest")
    sec = walk.sec
    trainer = _m2m_trainer(walk, 1e-3)
    phases_kind = sec.get_str("phases", "all")
    bound = sec.get_float("variance_ratio_bound", SearchSettings.variance_ratio_bound)
    settings = _walk_settings(sec, variance_ratio_bound=bound)
    phase_names = _phase_sections(cfg, "m2m.phase")
    if phase_names:
        if phases_kind != "all":
            raise cfg.error(sec.line, "use either phases=fdf or explicit phase sections, not both")
        phases = []
        for name in phase_names:
            psec = Section(cfg, name)
            patterns = psec.get_str_list("layers")
            if not patterns:
                raise cfg.error(psec.line, f"[{name}] needs a 'layers' list")
            layers = tuple(_expand_layers(cfg, patterns, graph, psec.line))
            iterations = psec.positive_int("iterations", walk.iterations)
            step, stop = _step_params(psec, walk.step), _stop_rule(psec, walk.stop)
            phases.append(Phase(layers, iterations, step, stop))
            psec.finish()
        plan = PhasePlan(tuple(phases))
    elif phases_kind == "fdf":
        plan = fdf_phase_plan(graph, walk.iterations, walk.step, walk.stop)
    elif phases_kind == "all":
        plan = _all_layers_plan(graph, walk)
    else:
        raise cfg.error(sec.line, f"phases must be 'all' or 'fdf', got {phases_kind!r}")
    sec.finish()
    _check_checkpoints(sec, walk.checkpoints)
    return WalkBlock(tuple(walk.checkpoints.values()), (plan, trainer), settings)


def build_m2o(cfg: ConfigFile, graph: ModelGraph) -> WalkBlock:
    walk = _walk_section(cfg, "m2o", "start")
    settings = _walk_settings(walk.sec)
    m2o = _m2o_config(cfg, graph, walk)
    _check_checkpoints(walk.sec, walk.checkpoints)
    return WalkBlock(tuple(walk.checkpoints.values()), (m2o,), settings)


def build_avs(cfg: ConfigFile, graph: ModelGraph) -> WalkBlock:
    """``[avs]``, then the stage sections ``[avs.m2o]`` (an origin walk
    section) and ``[avs.m2m]`` (the shared walk keys and ``lr``).  The
    driver's arguments are the chain's config and stage 2's trainer; stage 1
    runs from the config's ``m2o``."""
    sec = _required_section(cfg, "avs")
    checkpoints = {key: resolve_path(cfg, sec.require_str(key)) for key in ("start", "dest")}
    rtol = sec.get_float("sphere_match_rtol", CrossVarianceConfig.sphere_match_rtol)
    settings = _walk_settings(sec)
    sec.finish()
    m2o = _m2o_config(cfg, graph, _walk_section(cfg, "avs.m2o"))
    m2m = _walk_section(cfg, "avs.m2m")
    trainer = _m2m_trainer(m2m, m2o.eta_base)
    m2m.sec.finish()
    cross = _checked(sec, CrossVarianceConfig, m2o=m2o, m2m_plan=_all_layers_plan(graph, m2m),
                     sphere_match_rtol=rtol)
    _check_checkpoints(sec, checkpoints)
    return WalkBlock(tuple(checkpoints.values()), (cross, trainer), settings)


@dataclass
class ContinuityBlock:
    record_dir: Path
    samples: int
    eval_subset: int


def build_continuity(cfg: ConfigFile) -> ContinuityBlock:
    sec = _required_section(cfg, "continuity")
    record_dir = resolve_path(cfg, sec.require_str("record_dir"))
    samples = sec.positive_int("samples", 50)
    eval_subset = sec.positive_int("eval_subset", 2048)
    sec.finish()
    if not record_dir.is_dir():
        message = f"[continuity] record_dir {record_dir} does not exist"
        raise cfg.error(sec.line_of("record_dir"), message)
    if samples < 2:
        raise cfg.error(sec.line_of("samples"), f"[continuity] samples must be >= 2, got {samples}")
    return ContinuityBlock(record_dir, samples, eval_subset)
