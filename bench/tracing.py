"""Spans around calls into llpf's public functions, installed from outside.

Each wrapper replaces a function under the name its caller looks it up by
(``llpf.llpf_core.train_until`` is what the path drivers call, and
``llpf.nn_engine.layers.conv2d_forward`` is what the engine calls), so the
program itself is unchanged.  A span records its name, start, end and
parent; spans stay in memory and are written once, at the end of the run.
A span's self time is its duration minus the durations of its children.
Counters record calls that are too frequent or too short to time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

LAYER_KERNELS = (
    "dense_forward", "dense_backward", "conv2d_forward", "conv2d_backward",
    "batchnorm_forward", "batchnorm_backward", "maxpool_forward", "maxpool_backward",
    "avgpool_forward", "avgpool_backward", "softmax_cross_entropy",
)

# (module, attribute the caller looks up, span name).  A function that is
# looked up under several names gets a wrapper at each of them.
SPANS = (
    # harness_cli: one connect or continuity command
    ("llpf.harness_cli.cli", "parse_config", "harness_cli.parse_config"),
    ("llpf.harness_cli.run_config", "build_datasets", "harness_cli.build_datasets"),
    ("llpf.harness_cli.cli", "load_checkpoint", "harness_cli.load_checkpoint"),
    ("llpf.harness_cli.cli", "write_path_record", "harness_cli.write_path_record"),
    ("llpf.harness_cli.records", "save_checkpoint", "harness_cli.save_checkpoint"),
    ("llpf.harness_cli.cli", "llpf_m2m", "llpf_core.driver"),
    ("llpf.harness_cli.cli", "connect_cross_variance", "llpf_core.driver"),
    ("llpf.harness_cli.cli", "interpolation_continuity", "analysis.interpolation_continuity"),
    # llpf_core: the stages of one path iteration
    ("llpf.llpf_core", "move_toward", "llpf_core.move_toward"),
    ("llpf.llpf_core", "variance_correction", "llpf_core.variance_correction"),
    ("llpf.llpf_core", "train_until", "llpf_core.train_until"),
    ("llpf.llpf_core", "evaluate", "llpf_core.evaluate"),
    ("llpf.llpf_core", "l2_distance", "llpf_core.l2_distance"),
    ("llpf.llpf_core", "angle_conformal", "llpf_core.angle_conformal"),
    # nn_engine.trainer: one SGD round, and evaluation
    ("llpf.nn_engine.trainer", "sample_batch", "trainer.sample_batch"),
    ("llpf.nn_engine.trainer", "loss_and_grad", "engine.loss_and_grad"),
    ("llpf.nn_engine.trainer", "sgd_step", "trainer.sgd_step"),
    ("llpf.nn_engine.trainer", "forward", "engine.forward"),
    ("llpf.nn_engine.trainer", "softmax_cross_entropy", "layers.softmax_cross_entropy"),
    # analysis: one blend of the continuity check
    ("llpf.analysis", "evaluate", "analysis.evaluate"),
) + tuple(("llpf.nn_engine.layers", fn, f"layers.{fn}") for fn in LAYER_KERNELS)

COUNTERS = (
    ("llpf.nn_engine.graph", "ModelGraph.param_shapes", "graph.param_shapes"),
    ("llpf.param_space", "ParamVector.__init__", "param_space.ParamVector.new"),
    ("llpf.llpf_core", "layer_stats", "param_space.layer_stats"),
)


def _note_repair(tracer, args, kwargs, result):
    tracer.sums[tracer.root, "repairs"] += 1
    tracer.sums[tracer.root, "repair_rounds"] += result.rounds
    tracer.sums[tracer.root, "repair_hits"] += bool(result.hit_threshold)


def _note_samples(tracer, args, kwargs, result):
    data = args[2] if len(args) > 2 else kwargs["data"]
    tracer.sums[tracer.root, "evaluate_samples"] += len(data)


NOTES = {
    "llpf_core.train_until": _note_repair,
    "llpf_core.evaluate": _note_samples,
}


class Tracer:
    """In-memory spans and counters for one traced region of the run."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int]] = []  # name, start ns, end ns, parent
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.sums: Counter = Counter()
        self.root: str | None = None
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if note is not None:
                note(self, args, kwargs, result)
            return result

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counter(*args, **kwargs):
            counts[self.root, name] += 1
            return fn(*args, **kwargs)

        return counter

    def run(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a top-level span named ``name``; counts
        and sums made during the call are kept under that name."""
        self.root = name
        try:
            return self.wrap(name, fn)(*args)
        finally:
            self.root = None

    @contextmanager
    def installed(self):
        """Wrap every function in SPANS and COUNTERS; restore them on exit."""

        def patch(module_name, attr, make):
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                return  # renamed or removed: its metrics read zero
            self._installed.append((owner, leaf, original))
            setattr(owner, leaf, make(original))

        for module_name, attr, name in SPANS:
            patch(module_name, attr, lambda fn, n=name: self.wrap(n, fn, NOTES.get(n)))
        for module_name, attr, name in COUNTERS:
            patch(module_name, attr, lambda fn, n=name: self.counted(n, fn))
        try:
            yield self
        finally:
            while self._installed:
                owner, leaf, original = self._installed.pop()
                setattr(owner, leaf, original)

    # -- aggregation -------------------------------------------------------

    def aggregate(self, root_name: str) -> dict[str, dict[str, float]]:
        """calls, total ns and self ns per span name, under the top-level
        spans named ``root_name``."""
        child_ns = [0] * len(self.spans)
        roots = [0] * len(self.spans)
        for i, (_, start, end, parent) in enumerate(self.spans):
            roots[i] = i if parent < 0 else roots[parent]
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for i, (name, start, end, _) in enumerate(self.spans):
            if self.spans[roots[i]][0] != root_name:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        return out

    def write(self, path: Path) -> None:
        """One CSV line per span: id, parent, name, start and end in ns."""
        with open(path, "w") as f:
            f.write("id,parent,name,start_ns,end_ns\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                f.write(f"{i},{parent},{name},{start},{end}\n")


STAGES = (
    "move_toward", "variance_correction", "train_until", "evaluate", "l2_distance", "angle_conformal",
)
ROUND_KERNELS = ("dense_forward", "dense_backward", "conv2d_forward", "conv2d_backward",
                 "maxpool_forward", "maxpool_backward", "softmax_cross_entropy")


def per_layer_metrics(tracer: Tracer, connect_root: str, continuity_root: str, iterations: int) -> dict[str, float]:
    """The per-layer figures of one traced connect + continuity cycle."""
    c = tracer.aggregate(connect_root)
    k = tracer.aggregate(continuity_root)

    def ratio(num, den):
        return num / den if den else 0.0

    rounds = c["trainer.sgd_step"]["calls"]
    out = {}
    for stage in STAGES:
        out[f"llpf_core.{stage}.ms_per_iter"] = ratio(c[f"llpf_core.{stage}"]["total_ns"] / 1e6, iterations)
    out["llpf_core.self.ms_per_iter"] = ratio(c["llpf_core.driver"]["self_ns"] / 1e6, iterations)
    out["llpf_core.train_until.rounds_per_iter"] = ratio(tracer.sums[connect_root, "repair_rounds"], iterations)
    out["llpf_core.train_until.hit_frac"] = ratio(
        tracer.sums[connect_root, "repair_hits"], tracer.sums[connect_root, "repairs"])

    for name, span in (("sample_batch", "trainer.sample_batch"), ("loss_and_grad", "engine.loss_and_grad"),
                       ("sgd_step", "trainer.sgd_step")):
        out[f"trainer.{name}.us_per_round"] = ratio(c[span]["total_ns"] / 1e3, rounds)
    out["trainer.train_until.self_us_per_round"] = ratio(c["llpf_core.train_until"]["self_ns"] / 1e3, rounds)
    out["trainer.evaluate.us_per_sample"] = ratio(
        c["llpf_core.evaluate"]["total_ns"] / 1e3, tracer.sums[connect_root, "evaluate_samples"])

    for span in ("engine.loss_and_grad", "engine.forward"):
        out[f"{span}.self_us_per_call"] = ratio(c[span]["self_ns"] / 1e3, c[span]["calls"])
    out["graph.param_shapes.calls_per_round"] = ratio(tracer.counts[connect_root, "graph.param_shapes"], rounds)
    out["param_space.ParamVector.new_per_round"] = ratio(
        tracer.counts[connect_root, "param_space.ParamVector.new"], rounds)
    out["param_space.layer_stats.calls_per_iter"] = ratio(
        tracer.counts[connect_root, "param_space.layer_stats"], iterations)
    for fn in ROUND_KERNELS:
        span = c[f"layers.{fn}"]
        out[f"layers.{fn}.us_per_call"] = ratio(span["total_ns"] / 1e3, span["calls"])

    blends = k["analysis.evaluate"]["calls"]
    out["analysis.interpolation_continuity.self_us_per_blend"] = ratio(
        k["analysis.interpolation_continuity"]["self_ns"] / 1e3, blends)
    out["analysis.evaluate.us_per_blend"] = ratio(k["analysis.evaluate"]["total_ns"] / 1e3, blends)

    for fn in ("parse_config", "build_datasets", "load_checkpoint", "write_path_record"):
        out[f"harness_cli.{fn}.ms"] = c[f"harness_cli.{fn}"]["total_ns"] / 1e6
    out["harness_cli.save_checkpoint.calls"] = c["harness_cli.save_checkpoint"]["calls"]
    out["harness_cli.connect_residual.ms"] = (
        c[connect_root]["total_ns"] - c["llpf_core.driver"]["total_ns"]) / 1e6
    return out
