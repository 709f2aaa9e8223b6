"""Binary checkpoints for parameter vectors.

Layout (all integers little-endian):

    bytes 0..3    magic b"LLPF"
    u32           format version (currently 1)
    32 bytes      sha256 digest of the model graph
    u32           layer count
    per layer:    u16 name length, UTF-8 name, u8 kind, u64 scalar count
    payload       IEEE-754 float32 scalars, little-endian, layer-table order
    8 bytes       blake2b-64 checksum of the payload

Round trips are bit-exact at storage precision (float32); wider in-memory
parameters are cast on save.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from ..nn_engine.graph import ModelGraph
from ..param_space import ParamVector
from .reports import write_atomic

MAGIC = b"LLPF"
VERSION = 1

_KIND_CODES = {"weight": 0, "bias": 1, "norm_scale": 2, "norm_shift": 3}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}


class CheckpointError(ValueError):
    pass


def save_checkpoint(params: ParamVector, graph: ModelGraph, path: str | Path) -> None:
    """Write atomically (temp file + rename)."""
    payload = params.data.astype("<f4").tobytes()
    parts = [MAGIC, struct.pack("<I", VERSION), graph.digest()]
    parts.append(struct.pack("<I", len(params.layout)))
    for info in params.layout:
        name = info.name.encode("utf-8")
        parts.append(struct.pack("<H", len(name)))
        parts.append(name)
        parts.append(struct.pack("<B", _KIND_CODES[info.kind]))
        parts.append(struct.pack("<Q", info.length))
    parts.append(payload)
    parts.append(hashlib.blake2b(payload, digest_size=8).digest())
    write_atomic(path, b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, path: Path):
        self.blob = blob
        self.path = path
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(
                f"{self.path}: truncated {what} at offset {self.pos}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out


def load_checkpoint(graph: ModelGraph, path: str | Path, dtype=np.float32) -> ParamVector:
    """Verify magic, graph digest, layer table, and payload checksum before
    returning the parameters (cast to ``dtype``)."""
    path = Path(path)
    r = _Reader(path.read_bytes(), path)
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic at offset 0)")
    (version,) = struct.unpack("<I", r.take(4, "version"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    digest = r.take(32, "model digest")
    if digest != graph.digest():
        raise CheckpointError(f"{path}: model/checkpoint mismatch")
    (count,) = struct.unpack("<I", r.take(4, "layer count"))
    table = []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", r.take(2, "layer name length"))
        name = r.take(name_len, "layer name").decode("utf-8")
        (kind_code,) = struct.unpack("<B", r.take(1, "layer kind"))
        (length,) = struct.unpack("<Q", r.take(8, "layer size"))
        if kind_code not in _KIND_NAMES:
            raise CheckpointError(f"{path}: unknown layer kind code {kind_code}")
        table.append((name, _KIND_NAMES[kind_code], length))
    expected = [(s.name, s.kind, s.length) for s in graph.layout]
    if table != expected:
        raise CheckpointError(f"{path}: model/checkpoint mismatch (layer table differs)")
    total = sum(t[2] for t in table)
    payload = r.take(total * 4, "payload")
    checksum = r.take(8, "checksum")
    if r.pos != len(r.blob):
        raise CheckpointError(f"{path}: {len(r.blob) - r.pos} trailing bytes at offset {r.pos}")
    if hashlib.blake2b(payload, digest_size=8).digest() != checksum:
        raise CheckpointError(f"{path}: corrupt payload (checksum mismatch)")
    data = np.frombuffer(payload, dtype="<f4").astype(dtype)
    return ParamVector(data, graph.layout)
