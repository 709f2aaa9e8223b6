"""Command-line entry point.

Subcommands: train-modes, connect-m2m, collapse-m2o, connect-avs, continuity,
seed-study, plot.  All but plot take ``--config``; every random draw derives
from seeds declared there (or ``--seed-override``).  The three walk commands
share one handler, :func:`cmd_walk`, which differs between them only in the
section builder and the search driver it calls.  Exit codes: 0 success,
1 config/validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from ..analysis import interpolation_continuity, seed_variance_study
from ..llpf_core import connect_cross_variance, llpf_m2m, llpf_m2o
from ..nn_engine.trainer import train_modes
from ..param_space import LayoutMismatch
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, parse_config
from .datasets import IdxFormatError
from .records import read_stored_points, write_manifest, write_path_record
from .reports import emit_csv, emit_svg, read_csv
from . import run_config as rc

log = logging.getLogger("llpf")

VALIDATION_ERRORS = (
    ConfigError,
    CheckpointError,
    IdxFormatError,
    LayoutMismatch,
    FileNotFoundError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on unknown flags; bad usage is a validation error
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(
        level=getattr(logging, args.log_level.upper(), logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.exception("command failed: %s", exc)
        return 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="llpf", description=__doc__)
    parser.add_argument("--log-level", default="warning",
                        help="logging level (debug, info, warning, error)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, needs_config=True):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config file")
            p.add_argument("--out", help="override the [output] dir")
            p.add_argument("--seed-override", type=nonnegative_int, dest="seed_override",
                           help="replace every configured seed")
        p.set_defaults(handler=handler)
        return p

    add("train-modes", cmd_train_modes)
    for walk in ("connect-m2m", "collapse-m2o", "connect-avs"):
        add(walk, cmd_walk)
    add("continuity", cmd_continuity)
    add("seed-study", cmd_seed_study)

    plot = sub.add_parser("plot")
    plot.add_argument("csv", help="any CSV emitted by another command")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.add_argument("--x", help="x column (default: first column)")
    plot.add_argument("--y", help="comma-separated y columns (default: every numeric column)")
    plot.add_argument("--log-y", action="store_true", help="log-scale the y axis")
    plot.add_argument("--title", default="")
    plot.set_defaults(handler=cmd_plot)
    return parser


def nonnegative_int(text: str) -> int:
    """``--seed-override``: numpy's generators take seeds >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"a seed must be >= 0, got {value}")
    return value


def _load_common(args):
    cfg = parse_config(args.config)
    rc.check_sections(cfg)
    graph = rc.build_graph(cfg)
    train_data, test_data = rc.build_datasets(cfg)
    out = rc.build_output(cfg)
    if args.out:
        out.out_dir = Path(args.out)
    if args.seed_override is not None:
        out.seed = args.seed_override
    return cfg, graph, train_data, test_data, out


def cmd_train_modes(args) -> int:
    cfg, graph, train_data, test_data, out = _load_common(args)
    modes = rc.build_modes(cfg)
    seeds = modes.seeds if args.seed_override is None else [args.seed_override]
    out.out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc)
    facts = {}
    for seed, params, result, loss, acc, accepted in train_modes(
        graph, seeds, modes.trainer, modes.rule, train_data, out.eval_subset,
        modes.acceptance_loss,
    ):
        ckpt = out.out_dir / f"mode_{seed}.ckpt"
        save_checkpoint(params, graph, ckpt)
        rows = [{"round": i + 1, "loss": v} for i, v in enumerate(result.losses)]
        emit_csv(["round", "loss"], rows, out.out_dir / f"mode_{seed}_train.csv")
        status = "ok" if accepted else "FAILS acceptance"
        print(
            f"mode seed={seed}: rounds={result.rounds} rolling={result.rolling_loss:.4g} "
            f"train_loss={loss:.4g} train_acc={acc:.4g} [{status}] -> {ckpt.name}"
        )
        facts[f"mode_{seed}"] = (
            f"rounds={result.rounds} train_loss={loss!r} train_acc={acc!r} status={status}"
        )
    # a mode that misses its bar is named here; the command still exits 0,
    # and connect commands refuse the mode when they score it
    write_manifest(out.out_dir, "train-modes", cfg.digest, seeds, started, facts)
    return 0


def cmd_walk(args) -> int:
    """connect-m2m, collapse-m2o and connect-avs: run the command's search
    from its section's endpoint checkpoints and write the path record."""
    # built per call: tracing and tests replace these module names
    builder, driver = {
        "connect-m2m": (rc.build_m2m, llpf_m2m),
        "collapse-m2o": (rc.build_m2o, llpf_m2o),
        "connect-avs": (rc.build_avs, connect_cross_variance),
    }[args.command]
    cfg, graph, train_data, test_data, out = _load_common(args)
    block = builder(cfg, graph)
    started = datetime.now(timezone.utc)
    modes = [load_checkpoint(graph, path) for path in block.checkpoints]
    settings = replace(
        block.settings,
        seed=out.seed,
        checkpoint_stride=out.checkpoint_stride,
        eval_subset=out.eval_subset,
        config_hash=cfg.digest,
        # an origin walk has no dest checkpoint: llpf_m2o labels its "origin"
        endpoint_ids=(block.checkpoints[0].name, block.checkpoints[-1].name),
    )
    record = driver(*modes, *block.args, train_data, test_data, settings=settings, graph=graph)
    write_path_record(out.out_dir, record, graph)
    extra = {"points": len(record.points)}
    if record.stage_boundary is not None:
        extra["stage_boundary"] = record.stage_boundary
    write_manifest(out.out_dir, args.command, cfg.digest, [out.seed], started, extra)
    print(
        f"{args.command}: {len(record.points)} points -> {out.out_dir}/metrics.csv "
        f"(final rolling loss {record.points[-1].rolling_train_loss:.4g})"
    )
    return 0


def cmd_continuity(args) -> int:
    cfg, graph, train_data, _test_data, out = _load_common(args)
    block = rc.build_continuity(cfg)
    started = datetime.now(timezone.utc)
    points = read_stored_points(block.record_dir, graph)
    report = interpolation_continuity(
        points, block.samples, graph, train_data, eval_size=block.eval_subset
    )
    rows = []
    for (lo, hi), losses in zip(report.segment_bounds, report.segment_losses):
        for j, loss in enumerate(losses):
            alpha = j / (block.samples - 1)
            rows.append(
                {
                    "position": lo + alpha * (hi - lo),
                    "segment_start": lo,
                    "segment_end": hi,
                    "alpha": alpha,
                    "train_loss": loss,
                }
            )
    out.out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(
        ["position", "segment_start", "segment_end", "alpha", "train_loss"],
        rows, out.out_dir / "continuity.csv",
    )
    write_manifest(
        out.out_dir, "continuity", cfg.digest, [out.seed], started,
        {"global_max_loss": report.global_max_loss, "segments": len(report.segment_bounds)},
    )
    print(
        f"continuity: {len(report.segment_bounds)} segments x {block.samples} samples, "
        f"global max loss {report.global_max_loss:.4g} -> {out.out_dir}/continuity.csv"
    )
    return 0


def cmd_seed_study(args) -> int:
    cfg, graph, train_data, _test_data, out = _load_common(args)
    modes = rc.build_modes(cfg, min_seeds=2)
    seeds = modes.seeds
    if args.seed_override is not None:
        seeds = [args.seed_override + i for i in range(len(seeds))]
    started = datetime.now(timezone.utc)
    table = seed_variance_study(
        graph, modes.trainer, seeds, train_data, modes.rule,
        acceptance_loss=modes.acceptance_loss,
        eval_size=out.eval_subset,
    )
    layer_names = list(table.per_layer)
    rows = [{"seed": seed} for seed, _, _ in table.per_layer[layer_names[0]]]
    if not rows:
        raise RuntimeError(
            f"no mode passed [modes] acceptance_loss = {modes.acceptance_loss!r};"
            f" failed seeds {table.failed_seeds}"
        )
    for name, stats in table.per_layer.items():
        for row, (_, variance, mean) in zip(rows, stats):
            row[f"var:{name}"], row[f"mean:{name}"] = variance, mean
    fields = ["seed", *(f"var:{n}" for n in layer_names), *(f"mean:{n}" for n in layer_names)]
    out.out_dir.mkdir(parents=True, exist_ok=True)
    emit_csv(fields, rows, out.out_dir / "seed_study.csv")
    summary_rows = [{"layer": name, **stats} for name, stats in table.summary.items()]
    emit_csv(
        ["layer", "variance_cov", "max_abs_mean_over_std"],
        summary_rows, out.out_dir / "seed_study_summary.csv",
    )
    write_manifest(
        out.out_dir, "seed-study", cfg.digest, seeds, started,
        {"failed_seeds": table.failed_seeds},
    )
    for row in summary_rows:
        print(
            f"{row['layer']}: variance CoV {row['variance_cov']:.4g}, "
            f"max |mean|/std {row['max_abs_mean_over_std']:.4g}"
        )
    return 0


def cmd_plot(args) -> int:
    header, rows = read_csv(args.csv)
    if not rows:
        raise ConfigError(f"{args.csv}: no data rows")
    x_col = args.x or header[0]
    if x_col not in header:
        raise ConfigError(f"{args.csv}: no column {x_col!r}")
    if args.y:
        y_cols = [c.strip() for c in args.y.split(",")]
        missing = [c for c in y_cols if c not in header]
        if missing:
            raise ConfigError(f"{args.csv}: no columns {missing}")
    else:
        y_cols = [
            c for c in header
            if c != x_col and rows and isinstance(rows[0][c], (int, float))
        ]
        if not y_cols:
            raise ConfigError(f"{args.csv}: no numeric columns to plot")
    x = [row[x_col] for row in rows]
    series = [(c, [float(row[c]) for row in rows]) for c in y_cols]
    emit_svg(x, series, args.out, title=args.title, x_label=x_col, log_y=args.log_y)
    print(f"plot: {len(series)} series x {len(x)} points -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
