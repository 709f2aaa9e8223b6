"""User-facing surface: configs, datasets, checkpoints, reports, CLI."""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, parse_config
from .datasets import IdxFormatError, gen_blobs, load_mnist
from .records import read_path_record, read_stored_points, write_manifest, write_path_record
from .reports import emit_csv, emit_svg, read_csv

__all__ = [
    "CheckpointError",
    "ConfigError",
    "IdxFormatError",
    "emit_csv",
    "emit_svg",
    "gen_blobs",
    "load_checkpoint",
    "load_mnist",
    "parse_config",
    "read_csv",
    "read_path_record",
    "read_stored_points",
    "save_checkpoint",
    "write_manifest",
    "write_path_record",
]
