import pytest

from llpf.harness_cli.config import ConfigError, Section, parse_config, resolve_path


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestParser:
    def test_sections_keys_comments(self, tmp_path):
        path = write(
            tmp_path,
            "# experiment\n"
            "\n"
            "[model]\n"
            "name = mlp2\n"
            "hidden = 16\n"
            "\n"
            "[dataset]\n"
            "name = blobs\n",
        )
        cfg = parse_config(path)
        assert set(cfg.sections) == {"model", "dataset"}
        assert cfg.sections["model"]["hidden"].text == "16"
        assert cfg.sections["model"]["hidden"].line == 5

    def test_key_outside_section(self, tmp_path):
        path = write(tmp_path, "name = mlp2\n")
        with pytest.raises(ConfigError, match=r":1: key outside"):
            parse_config(path)

    def test_missing_equals(self, tmp_path):
        path = write(tmp_path, "[model]\njust some text\n")
        with pytest.raises(ConfigError, match=r":2: expected"):
            parse_config(path)

    def test_duplicate_key_line_numbers(self, tmp_path):
        path = write(tmp_path, "[model]\nname = a\nname = b\n")
        with pytest.raises(ConfigError, match=r":3: duplicate key 'name' \(first at line 2\)"):
            parse_config(path)

    def test_duplicate_section(self, tmp_path):
        path = write(tmp_path, "[model]\n[model]\n")
        with pytest.raises(ConfigError, match=r":2: duplicate section"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    def test_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"[model]\nname = caf\xe9\n")
        with pytest.raises(ConfigError, match=r"run.cfg: not UTF-8 \(byte 0xe9 on line 2\)"):
            parse_config(path)

    def test_digest_changes_with_content(self, tmp_path):
        a = parse_config(write(tmp_path, "[model]\nname = a\n"))
        (tmp_path / "run.cfg").write_text("[model]\nname = b\n")
        b = parse_config(tmp_path / "run.cfg")
        assert a.digest != b.digest


class TestSection:
    def test_typed_getters(self, tmp_path):
        cfg = parse_config(
            write(
                tmp_path,
                "[t]\nn = 5\nx = 2.5\nflag = true\nnames = a, b, c\nseeds = 1, 2\n",
            )
        )
        sec = Section(cfg, "t")
        assert sec.get_int("n") == 5
        assert sec.get_float("x") == 2.5
        assert sec.get_bool("flag") is True
        assert sec.get_str_list("names") == ["a", "b", "c"]
        assert sec.get_int_list("seeds") == [1, 2]
        sec.finish()

    def test_type_errors_carry_line(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[t]\nn = five\n"))
        with pytest.raises(ConfigError, match=r":2: n must be an integer"):
            Section(cfg, "t").get_int("n")

    def test_bool_error(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[t]\nflag = maybe\n"))
        with pytest.raises(ConfigError, match="true/false"):
            Section(cfg, "t").get_bool("flag")

    def test_unknown_key_rejected_with_line(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[t]\ngood = 1\nmystery = 2\n"))
        sec = Section(cfg, "t")
        sec.get_int("good")
        with pytest.raises(ConfigError, match=r":3: unknown key 'mystery'"):
            sec.finish()

    def test_required_key(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[t]\n"))
        with pytest.raises(ConfigError, match="missing required key"):
            Section(cfg, "t").require("name")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_float_rejected_with_line(self, tmp_path, text):
        cfg = parse_config(write(tmp_path, f"[t]\nx = 1\ny = {text}\n"))
        with pytest.raises(ConfigError, match=rf":3: y must be finite, got '{text}'"):
            Section(cfg, "t").get_float("y")

    @pytest.mark.parametrize("text", ["0", "-1", "nan", "-inf"])
    def test_positive_float(self, tmp_path, text):
        cfg = parse_config(write(tmp_path, f"[t]\nx = {text}\n"))
        with pytest.raises(ConfigError, match=rf":2: x must be positive, got '{text}'"):
            Section(cfg, "t").get_float("x", positive=True)

    def test_seed(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[t]\nseed = 7\n[u]\n[v]\nseed = -1\n"))
        assert Section(cfg, "t").seed() == 7
        assert Section(cfg, "u").seed() == 0
        with pytest.raises(ConfigError, match=r":5: seed must be >= 0, got -1"):
            Section(cfg, "v").seed()

    def test_positive_int(self, tmp_path):
        cfg = parse_config(write(tmp_path, "[t]\nn = 0\n"))
        with pytest.raises(ConfigError, match=">= 1"):
            Section(cfg, "t").positive_int("n")

    def test_resolve_path_relative_to_config(self, tmp_path):
        sub = tmp_path / "sub"
        sub.mkdir()
        cfg = parse_config(write(sub, "[t]\np = data/x.bin\n"))
        assert resolve_path(cfg, "data/x.bin") == (sub / "data" / "x.bin").resolve()
        assert resolve_path(cfg, "/abs/x.bin").as_posix() == "/abs/x.bin"

