"""Metric export: RFC-4180 CSV files and standalone SVG line charts.

Cell formatting uses ``repr`` for floats, so a write/parse/write cycle is
byte-identical.  Charts are deterministic text; no plotting backend.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

LOG_FLOOR = 1e-12  # non-positive values clamp here on log-scaled axes


def format_cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``<name>.tmp`` and rename it over ``path``, so a
    reader never sees a partial file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def emit_csv(fieldnames: Sequence[str], rows: Sequence[Mapping], path: str | Path) -> None:
    """Header plus one RFC-4180 line per row, written atomically."""
    if not rows:
        raise ValueError("no rows to write")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([format_cell(row[name]) for name in fieldnames])
    write_atomic(path, buf.getvalue().encode("utf-8"))


@contextmanager
def csv_lines(path: str | Path) -> Iterator[tuple[list[str], Iterator[list[str]]]]:
    """The header and an iterator over the rows as unparsed cell text, read
    as they are consumed."""
    with open(path, "r", newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        yield header, reader


def read_csv(path: str | Path) -> tuple[list[str], list[dict]]:
    """Header and one dict per row, each cell an int, a float or text."""
    with csv_lines(path) as (header, lines):
        return header, [{name: parse_cell(cell) for name, cell in zip(header, line)} for line in lines]


# -- SVG ---------------------------------------------------------------------


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from ``lo`` to ``hi``."""
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / 4 for i in range(5)]


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)


def _xml_text(text: str) -> str:
    """``text`` escaped for an SVG text node.  Not ``xml.sax.saxutils.escape``:
    importing it pulls in ``urllib.request`` and adds about 7 MB to every
    command's peak memory."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_svg(
    x: Sequence[float],
    series: Sequence[tuple[str, Sequence[float]]],
    path: str | Path,
    title: str = "",
    x_label: str = "",
    log_y: bool = False,
) -> None:
    """Standalone 720x480 line chart.  With ``log_y`` non-positive values
    are clamped to ``LOG_FLOOR`` and a warning is logged."""
    if not series or not len(x):
        raise ValueError("no data to plot")
    width, height, pad = 720, 480, 60
    xs = [float(v) for v in x]

    def transform(v: float) -> float:
        if not log_y:
            return v
        if v <= 0:
            log.warning("log-scale clamp: %g -> %g", v, LOG_FLOOR)
            v = LOG_FLOOR
        return math.log10(v)

    all_y = [transform(v) for _, ys in series for v in ys if v == v]  # drop NaN
    if not all_y:
        raise ValueError("all series values are NaN")
    y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(v: float) -> float:
        return pad + (v - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(v: float) -> float:
        return height - pad - (v - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for tick in _ticks(y_lo, y_hi):
        ty = py(tick)
        label = f"1e{tick:.1f}" if log_y else f"{tick:.4g}"
        parts.append(
            f'<line x1="{pad}" y1="{ty:.1f}" x2="{width - pad}" y2="{ty:.1f}"'
            ' stroke="#dddddd" stroke-dasharray="4"/>'
        )
        parts.append(
            f'<text x="{pad - 6}" y="{ty + 4:.1f}" font-size="11" text-anchor="end"'
            f' font-family="sans-serif">{label}</text>'
        )
    for tick in _ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(
            f'<text x="{tx:.1f}" y="{height - pad + 16}" font-size="11" text-anchor="middle"'
            f' font-family="sans-serif">{tick:.4g}</text>'
        )
    parts.append(
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>'
    )
    parts.append(f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>')
    for i, (label, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(
            f"{px(xv):.1f},{py(transform(yv)):.1f}"
            for xv, yv in zip(xs, ys)
            if yv == yv
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = 20 + 16 * i
        parts.append(
            f'<rect x="{width - 180}" y="{ly - 9}" width="12" height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - 162}" y="{ly + 2}" font-size="11" font-family="sans-serif">'
            f"{_xml_text(label)}</text>"
        )
    if title:
        parts.append(
            f'<text x="{width / 2}" y="22" font-size="14" text-anchor="middle"'
            f' font-family="sans-serif" font-weight="bold">{_xml_text(title)}</text>'
        )
    if x_label:
        parts.append(
            f'<text x="{width / 2}" y="{height - 12}" font-size="12" text-anchor="middle"'
            f' font-family="sans-serif">{_xml_text(x_label)}</text>'
        )
    parts.append("</svg>")
    write_atomic(path, ("\n".join(parts) + "\n").encode("utf-8"))
