"""Path-record directories: metrics.csv, strided checkpoints, run manifest."""

from __future__ import annotations

import json
import os
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .. import __version__
from ..analysis import path_metrics
from ..llpf_core import PathPoint, PathRecord
from ..nn_engine.graph import ModelGraph
from ..param_space import ParamVector
from .checkpoint import load_checkpoint, save_checkpoint
from .reports import csv_lines, emit_csv, write_atomic

POINTS_DIR = "points"


def write_path_record(out_dir: str | Path, record: PathRecord, graph: ModelGraph) -> None:
    """``metrics.csv`` in the first row's columns (every point reports the
    same layers), the stored points' checkpoints, and ``record.json``."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = path_metrics(record)
    emit_csv(list(rows[0]), rows, out_dir / "metrics.csv")
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


def _read_meta(record_dir: Path) -> dict:
    return json.loads((record_dir / "record.json").read_text())


def _load_points(record_dir: Path, meta: dict, graph: ModelGraph) -> dict[int, ParamVector]:
    return {
        i: load_checkpoint(graph, record_dir / POINTS_DIR / f"point_{i:08d}.ckpt")
        for i in meta["stored_iterations"]
    }


def read_stored_points(record_dir: str | Path, graph: ModelGraph) -> dict[int, ParamVector]:
    """The parameters a path record keeps, by iteration in path order: the
    checkpoints that ``record.json`` lists under ``stored_iterations``, each
    verified as :func:`load_checkpoint` verifies it.  No metrics row is
    read."""
    record_dir = Path(record_dir)
    return _load_points(record_dir, _read_meta(record_dir), graph)


def read_path_record(record_dir: str | Path, graph: ModelGraph) -> PathRecord:
    record_dir = Path(record_dir)
    meta = _read_meta(record_dir)
    stored = _load_points(record_dir, meta, graph)
    points = []
    with csv_lines(record_dir / "metrics.csv") as (header, lines):
        col = {name: i for i, name in enumerate(header)}
        dist_cols = [(name[len("dist:") :], i) for name, i in col.items() if name.startswith("dist:")]
        # records written before the column existed read as not exhausted
        exhausted_col = col.get("train_exhausted")
        for line in lines:
            iteration = int(line[col["iteration"]])
            points.append(
                PathPoint(
                    iteration=iteration,
                    phase=int(line[col["phase"]]),
                    rolling_train_loss=float(line[col["rolling_train_loss"]]),
                    per_layer_dist={name: float(line[i]) for name, i in dist_cols},
                    test_loss=float(line[col["test_loss"]]),
                    test_acc=float(line[col["test_acc"]]),
                    params=stored.get(iteration),
                    # an int first: bool("0") is True
                    train_exhausted=exhausted_col is not None and bool(int(line[exhausted_col])),
                )
            )
    return PathRecord(
        points=points,
        config_hash=meta["config_hash"],
        endpoints=tuple(meta["endpoints"]),
        stage_boundary=meta["stage_boundary"],
    )


def numeric_environment() -> dict[str, str]:
    """The numpy, the BLAS and the BLAS thread settings a run computes with,
    kept as provenance: which BLAS kernels run can change a record's last
    bit.  The thread count does not: no sum of squares is a BLAS ``ddot``."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var, "unset")
    return env


def write_manifest(
    out_dir: str | Path,
    command: str,
    config_digest: str,
    seeds: list[int],
    started: datetime,
    extra: dict | None = None,
) -> None:
    """Everything needed to re-run the artifact: config digest, code version,
    seeds, wall-clock bounds, and the numeric environment
    (:func:`numeric_environment`)."""
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
    for key, value in {**numeric_environment(), **(extra or {})}.items():
        lines.append(f"{key} = {value}")
    write_atomic(out_dir / "manifest.txt", ("\n".join(lines) + "\n").encode("utf-8"))
