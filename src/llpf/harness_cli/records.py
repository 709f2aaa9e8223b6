"""Path-record directories: metrics.csv, strided checkpoints, run manifest."""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .. import __version__
from ..analysis import path_metrics
from ..llpf_core import PathPoint, PathRecord
from ..nn_engine.graph import ModelGraph
from .checkpoint import load_checkpoint, save_checkpoint
from .reports import emit_csv, metric_fieldnames, read_csv, write_atomic

POINTS_DIR = "points"


def write_path_record(out_dir: str | Path, record: PathRecord, graph: ModelGraph) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = path_metrics(record)
    emit_csv(metric_fieldnames(rows), rows, out_dir / "metrics.csv")
    points_dir = out_dir / POINTS_DIR
    points_dir.mkdir(exist_ok=True)
    stored = []
    for p in record.points:
        if p.params is None:
            continue
        save_checkpoint(p.params, graph, points_dir / f"point_{p.iteration:08d}.ckpt")
        stored.append(p.iteration)
    meta = {
        "config_hash": record.config_hash,
        "endpoints": list(record.endpoints),
        "stage_boundary": record.stage_boundary,
        "stored_iterations": stored,
    }
    text = json.dumps(meta, indent=2, sort_keys=True) + "\n"
    write_atomic(out_dir / "record.json", text.encode("utf-8"))


def read_path_record(record_dir: str | Path, graph: ModelGraph, dtype=np.float32) -> PathRecord:
    record_dir = Path(record_dir)
    meta = json.loads((record_dir / "record.json").read_text())
    _, rows = read_csv(record_dir / "metrics.csv")
    stored = set(meta["stored_iterations"])
    points = []
    for row in rows:
        iteration = int(row["iteration"])
        params = None
        if iteration in stored:
            params = load_checkpoint(
                graph, record_dir / POINTS_DIR / f"point_{iteration:08d}.ckpt", dtype
            )
        dists = {
            name[len("dist:") :]: float(value)
            for name, value in row.items()
            if name.startswith("dist:")
        }
        points.append(
            PathPoint(
                iteration=iteration,
                phase=int(row["phase"]),
                rolling_train_loss=float(row["rolling_train_loss"]),
                per_layer_dist=dists,
                test_loss=float(row["test_loss"]),
                test_acc=float(row["test_acc"]),
                params=params,
                # records written before the column existed read as False
                train_exhausted=bool(row.get("train_exhausted", 0)),
            )
        )
    return PathRecord(
        points=points,
        config_hash=meta["config_hash"],
        endpoints=tuple(meta["endpoints"]),
        stage_boundary=meta["stage_boundary"],
    )


def write_manifest(
    out_dir: str | Path,
    command: str,
    config_digest: str,
    seeds: list[int],
    started: datetime,
    extra: dict | None = None,
) -> None:
    """Everything needed to re-run the artifact: config digest, code version,
    seeds, wall-clock bounds."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    finished = datetime.now(timezone.utc)
    lines = [
        f"command = {command}",
        f"code_version = llpf {__version__}",
        f"config_digest = {config_digest}",
        f"seeds = {', '.join(str(s) for s in seeds)}",
        f"started = {started.isoformat()}",
        f"finished = {finished.isoformat()}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {value}")
    write_atomic(out_dir / "manifest.txt", ("\n".join(lines) + "\n").encode("utf-8"))
