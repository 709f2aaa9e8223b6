import logging

import pytest

from llpf.harness_cli.reports import (
    LOG_FLOOR,
    emit_csv,
    emit_svg,
    read_csv,
)


class TestCsv:
    def test_header_plus_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        emit_csv(["a", "b"], [{"a": 1, "b": 0.5}], path)
        assert path.read_bytes() == b"a,b\r\n1,0.5\r\n"

    def test_quoting_round_trips(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [{"name": 'he said "hi", twice', "x": 1.25}]
        emit_csv(["name", "x"], rows, path)
        header, parsed = read_csv(path)
        assert parsed[0]["name"] == 'he said "hi", twice'
        assert parsed[0]["x"] == 1.25

    def test_write_parse_write_byte_identical(self, tmp_path):
        rows = [
            {"iteration": 0, "loss": 0.1, "note": "x"},
            {"iteration": 1, "loss": float("nan"), "note": "y"},
            {"iteration": 2, "loss": 1 / 3, "note": "z"},
        ]
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        emit_csv(["iteration", "loss", "note"], rows, p1)
        header, parsed = read_csv(p1)
        emit_csv(header, parsed, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(["a"], [], tmp_path / "t.csv")


class TestSvg:
    def test_chart_written(self, tmp_path):
        path = tmp_path / "c.svg"
        emit_svg([0, 1, 2], [("loss", [1.0, 0.5, 0.25])], path, title="t")
        text = path.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text and "</svg>" in text

    def test_deterministic_output(self, tmp_path):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        series = [("x", [0.5, 0.1, 0.9]), ("y", [1.5, 1.1, 1.9])]
        emit_svg([1, 2, 3], series, a)
        emit_svg([1, 2, 3], series, b)
        assert a.read_bytes() == b.read_bytes()

    def test_log_scale_clamps_zero_with_warning(self, tmp_path, caplog):
        path = tmp_path / "c.svg"
        with caplog.at_level(logging.WARNING):
            emit_svg([0, 1], [("d", [0.0, 1.0])], path, log_y=True)
        assert "clamp" in caplog.text
        assert repr(LOG_FLOOR) in caplog.text or "1e-12" in caplog.text

    def test_nan_values_skipped(self, tmp_path):
        path = tmp_path / "c.svg"
        emit_svg([0, 1, 2], [("d", [1.0, float("nan"), 2.0])], path)
        assert "nan" not in path.read_text()

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_svg([], [], tmp_path / "c.svg")
