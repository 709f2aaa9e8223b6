"""Line-oriented experiment configs.

The format is deliberately tiny: ``[section]`` headers, ``key = value``
pairs, blank lines, and full-line ``#`` comments.  Every parsed value keeps
its line number so schema violations point at the offending line.  The full
key reference lives in docs/config.md.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Config file rejected; the message carries file:line context."""


@dataclass
class RawValue:
    text: str
    line: int


@dataclass
class ConfigFile:
    path: Path
    sections: dict[str, dict[str, RawValue]]
    section_lines: dict[str, int]
    digest: str

    def has(self, section: str) -> bool:
        return section in self.sections

    def error(self, line: int, message: str) -> ConfigError:
        return ConfigError(f"{self.path}:{line}: {message}")


def parse_config(path: str | Path) -> ConfigFile:
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from None
    sections: dict[str, dict[str, RawValue]] = {}
    section_lines: dict[str, int] = {}
    current: dict[str, RawValue] | None = None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        byte, lineno = raw[exc.start], raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}: not UTF-8 (byte {byte:#04x} on line {lineno})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            name = stripped[1:-1].strip()
            if not name:
                raise ConfigError(f"{path}:{lineno}: empty section name")
            if name in sections:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate section [{name}]"
                    f" (first defined at line {section_lines[name]})"
                )
            current = {}
            sections[name] = current
            section_lines[name] = lineno
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value' or '[section]'")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any section")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in current:
            raise ConfigError(
                f"{path}:{lineno}: duplicate key {key!r} (first at line {current[key].line})"
            )
        current[key] = RawValue(value, lineno)
    digest = hashlib.sha256(raw).hexdigest()
    return ConfigFile(path, sections, section_lines, digest)


class Section:
    """Typed accessors over one section with unknown-key detection."""

    def __init__(self, cfg: ConfigFile, name: str):
        self.cfg = cfg
        self.name = name
        self.values = cfg.sections.get(name, {})
        self.line = cfg.section_lines.get(name, 0)
        self._seen: set[str] = set()

    def line_of(self, key: str) -> int:
        """The line of ``key``, or the section's when the key is absent."""
        raw = self.values.get(key)
        return raw.line if raw else self.line

    def _raw(self, key: str) -> RawValue | None:
        self._seen.add(key)
        return self.values.get(key)

    def require(self, key: str) -> RawValue:
        raw = self._raw(key)
        if raw is None:
            raise self.cfg.error(self.line, f"[{self.name}] is missing required key {key!r}")
        return raw

    def get_str(self, key: str, default: str | None = None) -> str | None:
        raw = self._raw(key)
        return raw.text if raw is not None else default

    def get_int(self, key: str, default: int | None = None) -> int | None:
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            return int(raw.text)
        except ValueError:
            raise self.cfg.error(raw.line, f"{key} must be an integer, got {raw.text!r}")

    def get_float(
        self, key: str, default: float | None = None, positive: bool = False
    ) -> float | None:
        """A finite number; with ``positive``, one above 0."""
        raw = self._raw(key)
        if raw is None:
            return default
        try:
            value = float(raw.text)
        except ValueError:
            raise self.cfg.error(raw.line, f"{key} must be a number, got {raw.text!r}")
        if positive and not value > 0:
            raise self.cfg.error(raw.line, f"{key} must be positive, got {raw.text!r}")
        if not math.isfinite(value):
            raise self.cfg.error(raw.line, f"{key} must be finite, got {raw.text!r}")
        return value

    def get_bool(self, key: str, default: bool | None = None) -> bool | None:
        raw = self._raw(key)
        if raw is None:
            return default
        text = raw.text.lower()
        if text in ("true", "yes", "on", "1"):
            return True
        if text in ("false", "no", "off", "0"):
            return False
        raise self.cfg.error(raw.line, f"{key} must be true/false, got {raw.text!r}")

    def get_str_list(self, key: str, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        return [part.strip() for part in raw.text.split(",") if part.strip()]

    def get_int_list(self, key: str, default=None):
        raw = self._raw(key)
        if raw is None:
            return default
        out = []
        for part in raw.text.split(","):
            part = part.strip()
            if not part:
                continue
            try:
                out.append(int(part))
            except ValueError:
                raise self.cfg.error(raw.line, f"{key} must be integers, got {part!r}")
        return out

    def require_int(self, key: str) -> int:
        self.require(key)
        return self.get_int(key)

    def require_float(self, key: str) -> float:
        self.require(key)
        return self.get_float(key)

    def require_str(self, key: str) -> str:
        return self.require(key).text

    def finish(self) -> None:
        """Reject keys nobody asked for."""
        for key, raw in self.values.items():
            if key not in self._seen:
                raise self.cfg.error(raw.line, f"unknown key {key!r} in [{self.name}]")

    def positive_int(self, key: str, default: int | None = None) -> int | None:
        value = self.get_int(key, default)
        if value is not None and value < 1:
            raise self.cfg.error(self.line_of(key), f"{key} must be >= 1, got {value}")
        return value

    def seed(self) -> int:
        """The section's ``seed`` for numpy's generators: an integer >= 0, 0
        when absent."""
        value = self.get_int("seed", 0)
        if value < 0:
            raise self.cfg.error(self.line_of("seed"), f"seed must be >= 0, got {value}")
        return value


def resolve_path(cfg: ConfigFile, text: str) -> Path:
    """Paths in configs resolve against the config file's directory."""
    p = Path(text)
    if p.is_absolute():
        return p
    return (cfg.path.parent / p).resolve()
