"""Flat parameter vectors and the per-layer variance-sphere geometry.

A model's trainable parameters live in one contiguous 1-D array split into
named layer slices, described by a :class:`Layout` that is validated once and
shared by every vector derived from it.  Every statistic here uses the
population (1/n) variance and accumulates in float64 regardless of the
storage dtype; slices whose variance falls below ``EPS_VAR`` are treated as
degenerate by the correction step.  Every operation here but
:func:`variance_correction` is pure: inputs are never mutated, and
:func:`l2_distance` reads a plain flat array laid out like its second
argument.  :func:`variance_correction` rescales a slice of a walk's working
array in place.  The other functions that write a caller-owned flat buffer
in place live with their callers: ``nn_engine.trainer.train_until`` and
``sgd_step`` (the parameters, gradient and velocity),
``nn_engine.engine.loss_and_grad`` given ``out`` (the gradient), and
``llpf_core.move_toward`` (a walk's working point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

# Degenerate-variance floor (wide precision). Zero-initialized bias slices sit
# below this and must be skipped by callers, not rescaled.
EPS_VAR = 1e-12

PARAM_KINDS = ("weight", "bias", "norm_scale", "norm_shift")


class LayoutMismatch(ValueError):
    """Raised when two parameter vectors with different layouts are combined."""


class DegenerateVariance(ValueError):
    """Raised when variance correction meets an (almost) constant slice."""


@dataclass(frozen=True)
class SliceInfo:
    """One named layer slice inside the flat parameter array."""

    name: str
    offset: int
    length: int
    kind: str


@dataclass(frozen=True)
class LayerStats:
    mean: float
    variance: float
    n: int


class Layout(tuple):
    """A validated tuple of :class:`SliceInfo`: contiguous from offset 0,
    unique names, known kinds.  It also carries ``index`` (slice name ->
    ``SliceInfo``), ``spans`` (slice name -> the ``slice`` of the flat array
    it covers) and ``size`` (total scalar count)."""

    def __new__(cls, slices: Iterable[SliceInfo]) -> "Layout":
        self = super().__new__(cls, slices)
        if not self:
            raise ValueError("layout must contain at least one slice")
        index: dict[str, SliceInfo] = {}
        expected = 0
        for s in self:
            if s.kind not in PARAM_KINDS:
                raise ValueError(f"unknown parameter kind {s.kind!r}")
            if s.name in index:
                raise ValueError(f"duplicate slice name {s.name!r}")
            index[s.name] = s
            if s.offset != expected:
                raise ValueError(
                    f"slice {s.name!r} at offset {s.offset}, expected {expected}"
                )
            if s.length < 1:
                raise ValueError(f"slice {s.name!r} has non-positive length")
            expected += s.length
        self.index = index
        self.spans = {s.name: slice(s.offset, s.offset + s.length) for s in self}
        self.size = expected
        return self


class ParamVector:
    """Immutable flat parameter array with a named slice layout.

    The constructor takes ownership of ``data`` and marks it read-only;
    callers that keep a writable reference must pass a copy.  A plain
    sequence of slices is validated into a :class:`Layout` here, once.
    """

    __slots__ = ("data", "layout")

    def __init__(self, data: np.ndarray, layout: Sequence[SliceInfo]):
        data = np.asarray(data)
        if data.ndim != 1:
            raise ValueError("parameter data must be 1-D")
        if not np.issubdtype(data.dtype, np.floating):
            raise ValueError("parameter data must be floating point")
        if not isinstance(layout, Layout):
            layout = Layout(layout)
        if layout.size != data.shape[0]:
            raise ValueError(
                f"layout covers {layout.size} scalars, data holds {data.shape[0]}"
            )
        data.setflags(write=False)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "layout", layout)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("ParamVector is immutable")

    @property
    def size(self) -> int:
        return self.data.shape[0]

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def names(self) -> tuple[str, ...]:
        return tuple(self.layout.index)

    def info(self, name: str) -> SliceInfo:
        try:
            return self.layout.index[name]
        except KeyError:
            raise KeyError(f"no layer slice named {name!r}") from None

    def get(self, name: str) -> np.ndarray:
        """Read-only view of one layer slice."""
        try:
            return self.data[self.layout.spans[name]]
        except KeyError:
            raise KeyError(f"no layer slice named {name!r}") from None

    def copy_data(self) -> np.ndarray:
        return self.data.copy()

    def layout_compatible(self, other: "ParamVector") -> bool:
        return self.layout is other.layout or self.layout == other.layout

    def require_compatible(self, other: "ParamVector") -> None:
        if not self.layout_compatible(other):
            raise LayoutMismatch("parameter layouts differ")

    def with_slices(self, updates: Mapping[str, np.ndarray]) -> "ParamVector":
        """New vector with the given slices replaced."""
        data = self.data.copy()
        for name, values in updates.items():
            s = self.info(name)
            values = np.asarray(values, dtype=self.dtype).reshape(-1)
            if values.shape[0] != s.length:
                raise ValueError(
                    f"slice {name!r} expects {s.length} values, got {values.shape[0]}"
                )
            data[s.offset : s.offset + s.length] = values
        return ParamVector(data, self.layout)


def layer_stats(values: np.ndarray) -> LayerStats:
    """Population mean/variance of one layer slice, accumulated in float64."""
    values = np.asarray(values).reshape(-1)
    if values.size == 0:
        raise ValueError("empty layer")
    wide = values.astype(np.float64, copy=False)
    # np.add.reduce(x) / n is what ndarray.mean computes for a full
    # reduction, without its Python-level wrapper
    mean = float(np.add.reduce(wide) / wide.size)
    variance = radial_norm_sq(wide - mean) / wide.size
    return LayerStats(mean=mean, variance=variance, n=values.size)


def variance_correction(values: np.ndarray, v: float) -> None:
    """Rescale the writable layer array ``values`` in place, about its mean,
    so that its population variance equals ``v``.

    The arithmetic runs on one float64 working copy, cast back into
    ``values`` once at the end.  The mean is preserved exactly up to
    rounding (deviations are re-centered before scaling).  Raises
    ``DegenerateVariance``, leaving ``values`` as it was, when the slice
    variance is at or below ``EPS_VAR`` while a positive target is
    requested.
    """
    if values.size == 0:
        raise ValueError("empty layer")
    if v < 0:
        raise ValueError("target variance must be non-negative")
    dev = values.reshape(-1).astype(np.float64)
    n = dev.size
    mean = np.add.reduce(dev) / n  # ndarray.mean's arithmetic, as in layer_stats
    dev -= mean
    dev -= np.add.reduce(dev) / n  # second-pass centering keeps the mean bit-stable
    if v == 0.0:
        values[...] = mean
        return
    var = radial_norm_sq(dev) / n
    if var <= EPS_VAR:
        raise DegenerateVariance("degenerate variance")
    dev *= math.sqrt(v / var)
    dev += mean
    np.copyto(values, dev.reshape(values.shape))


def l2_distance(a: np.ndarray, b: ParamVector, layers: Iterable[str]) -> dict[str, float]:
    """Per-layer Euclidean distance from the flat array ``a``, laid out like
    ``b`` (a walk's working point, or a kept vector's ``data``), to ``b``.
    The caller checks the layout."""
    names = list(layers)
    if not names:
        raise ValueError("layers must be non-empty")
    spans = b.layout.spans
    out = {}
    for name in names:
        d = np.subtract(a[spans[name]], b.get(name), dtype=np.float64)
        out[name] = math.sqrt(radial_norm_sq(d))
    return out


def radial_norm_sq(values: np.ndarray) -> float:
    """Squared distance from the origin: the sum of squared entries, reduced
    in float64 by ``np.add.reduce``.  The one sum of squares of the sphere
    geometry: unlike a BLAS ``ddot``, its bits do not depend on the thread count."""
    wide = np.asarray(values).reshape(-1).astype(np.float64, copy=False)
    return float(np.add.reduce(wide * wide))


def arc_length(p0: np.ndarray, d: np.ndarray) -> float:
    """Great-circle length between two layer points about the origin.

    The radius is the mean of the two norms (the endpoints only lie on
    approximately equal spheres); the angle uses the chord-of-unit-vectors
    form, which stays accurate for tiny angles.
    """
    p0 = np.asarray(p0).reshape(-1).astype(np.float64, copy=False)
    d = np.asarray(d).reshape(-1).astype(np.float64, copy=False)
    if p0.shape != d.shape:
        raise ValueError("layer shapes differ")
    n0, n1 = math.sqrt(radial_norm_sq(p0)), math.sqrt(radial_norm_sq(d))
    if n0 == 0.0 or n1 == 0.0:
        raise ValueError("arc undefined at center")
    if np.array_equal(p0, d):
        return 0.0
    half_chord = 0.5 * math.sqrt(radial_norm_sq(p0 / n0 - d / n1))
    phi = 2.0 * np.arcsin(min(1.0, half_chord))
    return float(0.5 * (n0 + n1) * phi)
