"""End-to-end command tests on a tiny blobs experiment."""

import re
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from llpf.harness_cli import cli
from llpf.harness_cli.checkpoint import load_checkpoint, save_checkpoint
from llpf.harness_cli.cli import main
from llpf.harness_cli.config import parse_config
from llpf.harness_cli.records import read_path_record
from llpf.harness_cli.reports import read_csv
from llpf.nn_engine import init_params, mlp2
from llpf.param_space import ParamVector

BASE = """
[model]
name = mlp2
in_dim = 10
hidden = 8
classes = 3

[dataset]
name = blobs
classes = 3
dim = 10
n = 600
seed = 11
"""

MODES = """
[modes]
seeds = 1, 2
lr = 0.1
momentum = 0.9
weight_decay = 1e-3
batch_size = 32
max_rounds = 800
acceptance_loss = 0.1
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def record_calls(monkeypatch, name):
    """Replace ``cli.<name>`` with a wrapper that notes when each call began."""
    calls = []
    fn = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(datetime.now(timezone.utc))
        return fn(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    return calls


def manifest_started(out_dir):
    for line in (out_dir / "manifest.txt").read_text().splitlines():
        if line.startswith("started = "):
            return datetime.fromisoformat(line.split(" = ", 1)[1])
    raise AssertionError("manifest has no started line")


@pytest.fixture(scope="module")
def modes_dir(tmp_path_factory):
    """Two trained mode checkpoints shared by the command tests."""
    tmp_path = tmp_path_factory.mktemp("modes")
    cfg = write_cfg(
        tmp_path,
        BASE + MODES + f"\n[output]\ndir = out\n",
    )
    assert main(["train-modes", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "mode_1.ckpt").is_file() and (out / "mode_2.ckpt").is_file()
    return tmp_path


class TestTrainModes:
    def test_artifacts(self, modes_dir):
        out = modes_dir / "out"
        assert (out / "manifest.txt").is_file()
        header, rows = read_csv(out / "mode_1_train.csv")
        assert header == ["round", "loss"]
        assert len(rows) == 800
        manifest = (out / "manifest.txt").read_text()
        assert "config_digest" in manifest and "seeds = 1, 2" in manifest
        assert "code_version = llpf" in manifest
        assert "started = " in manifest and "finished = " in manifest

    @staticmethod
    def mode_facts(out_dir, seed):
        """(rounds, train loss, train acc, status) from the manifest."""
        for line in (out_dir / "manifest.txt").read_text().splitlines():
            if line.startswith(f"mode_{seed} = "):
                m = re.fullmatch(
                    r"rounds=(\d+) train_loss=(\S+) train_acc=(\S+) status=(.+)",
                    line.split(" = ", 1)[1],
                )
                return int(m[1]), float(m[2]), float(m[3]), m[4]
        raise AssertionError(f"manifest has no mode_{seed} line")

    def test_manifest_names_a_mode_that_misses_its_bar(self, modes_dir, tmp_path, capsys):
        for seed in (1, 2):
            rounds, loss, acc, status = self.mode_facts(modes_dir / "out", seed)
            assert (rounds, status) == (800, "ok") and loss < 0.1 and 0 <= acc <= 1
        # two rounds leave the mode far above the 0.1 bar; the exit code stays 0
        cfg = write_cfg(
            tmp_path,
            BASE
            + MODES.replace("seeds = 1, 2", "seeds = 3").replace("max_rounds = 800", "max_rounds = 2")
            + "\n[output]\ndir = out\n",
        )
        capsys.readouterr()
        assert main(["train-modes", "--config", str(cfg)]) == 0
        rounds, loss, acc, status = self.mode_facts(tmp_path / "out", 3)
        assert (rounds, status) == (2, "FAILS acceptance") and loss >= 0.1
        printed = capsys.readouterr().out
        assert f"train_loss={loss:.4g} train_acc={acc:.4g} [FAILS acceptance]" in printed

    def test_checkpoints_load(self, modes_dir):
        g = mlp2(10, 8, 3)
        params = load_checkpoint(g, modes_dir / "out" / "mode_1.ckpt")
        assert params.size == g.num_params


class TestConnectM2M:
    def test_trivial_same_endpoint_path(self, modes_dir, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE
            + f"""
[m2m]
start = {modes_dir}/out/mode_1.ckpt
dest = {modes_dir}/out/mode_1.ckpt
iterations = 5
step_f = 1e-3
lr = 1e-5
batch_size = 16
train_rounds = 1
mode_acceptance_loss = 0.2

[output]
dir = out_m2m
seed = 3
checkpoint_stride = 1
""",
        )
        assert main(["connect-m2m", "--config", str(cfg)]) == 0
        g = mlp2(10, 8, 3)
        record = read_path_record(tmp_path / "out_m2m", g)
        assert len(record.points) == 6
        assert max(record.points[-1].per_layer_dist.values()) < 1e-2

    def test_real_pair_runs_and_is_deterministic(self, modes_dir, tmp_path):
        def cfg_text(out_name):
            return (
                BASE
                + f"""
[m2m]
start = {modes_dir}/out/mode_1.ckpt
dest = {modes_dir}/out/mode_2.ckpt
iterations = 20
step_f = 1e-3
lr = 1e-3
batch_size = 32
train_rounds = 2
mode_acceptance_loss = 0.2
variance_ratio_bound = 4.0

[output]
dir = {out_name}
seed = 3
"""
            )

        cfg_a = write_cfg(tmp_path, cfg_text("out_a"), "a.cfg")
        cfg_b = write_cfg(tmp_path, cfg_text("out_b"), "b.cfg")
        assert main(["connect-m2m", "--config", str(cfg_a)]) == 0
        assert main(["connect-m2m", "--config", str(cfg_b)]) == 0
        a = (tmp_path / "out_a" / "metrics.csv").read_bytes()
        b = (tmp_path / "out_b" / "metrics.csv").read_bytes()
        assert a == b

    def test_missing_checkpoint_is_validation_error(self, modes_dir, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE
            + f"""
[m2m]
start = {modes_dir}/out/mode_1.ckpt
dest = nope.ckpt
step_f = 1e-3

[output]
dir = out
""",
        )
        assert main(["connect-m2m", "--config", str(cfg)]) == 1

    def test_distant_spheres_runtime_error(self, modes_dir, tmp_path):
        # a destination on a much larger sphere: freshly scaled checkpoint
        g = mlp2(10, 8, 3)
        params = load_checkpoint(g, modes_dir / "out" / "mode_1.ckpt")
        big = params.with_slices(
            {"fc1.weight": params.get("fc1.weight") * 4.0}
        )
        from llpf.harness_cli.checkpoint import save_checkpoint

        save_checkpoint(big, g, tmp_path / "big.ckpt")
        cfg = write_cfg(
            tmp_path,
            BASE
            + f"""
[m2m]
start = {modes_dir}/out/mode_1.ckpt
dest = big.ckpt
iterations = 2
step_f = 1e-3
mode_acceptance_loss = 0

[output]
dir = out
""",
        )
        assert main(["connect-m2m", "--config", str(cfg)]) == 2


class TestCollapseM2O:
    def test_runs_and_reports_norms(self, modes_dir, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE
            + f"""
[m2o]
start = {modes_dir}/out/mode_1.ckpt
iterations = 10
step_a = 2e-3
eta = 1e-3
batch_size = 32
train_rounds = 2
mode_acceptance_loss = 0.2

[output]
dir = out_m2o
seed = 5
""",
        )
        assert main(["collapse-m2o", "--config", str(cfg)]) == 0
        g = mlp2(10, 8, 3)
        record = read_path_record(tmp_path / "out_m2o", g)
        assert len(record.points) == 11
        first, last = record.points[0], record.points[-1]
        assert all(last.per_layer_dist[n] < first.per_layer_dist[n]
                   for n in first.per_layer_dist)


def write_strided_path(modes_dir, tmp_path):
    """A four-iteration path record in ``path_out`` that stores iterations 0,
    2 and 4."""
    run_cfg = write_cfg(
        tmp_path,
        BASE
        + f"""
[m2m]
start = {modes_dir}/out/mode_1.ckpt
dest = {modes_dir}/out/mode_1.ckpt
iterations = 4
step_f = 1e-3
lr = 1e-5
train_rounds = 1
mode_acceptance_loss = 0.2

[output]
dir = path_out
checkpoint_stride = 2
""",
        "path.cfg",
    )
    assert main(["connect-m2m", "--config", str(run_cfg)]) == 0
    return tmp_path / "path_out"


class TestContinuityCommand:
    @staticmethod
    def run(modes_dir, tmp_path):
        """A four-iteration path record, then continuity over it."""
        write_strided_path(modes_dir, tmp_path)
        cont_cfg = write_cfg(
            tmp_path,
            BASE
            + """
[continuity]
record_dir = path_out
samples = 5

[output]
dir = cont_out
""",
            "cont.cfg",
        )
        assert main(["continuity", "--config", str(cont_cfg)]) == 0
        return tmp_path / "cont_out"

    def test_continuity_csv(self, modes_dir, tmp_path):
        out = self.run(modes_dir, tmp_path)
        header, rows = read_csv(out / "continuity.csv")
        assert header == ["position", "segment_start", "segment_end", "alpha", "train_loss"]
        assert len(rows) == 2 * 5  # two stored segments (0-2, 2-4), five samples

    def test_manifest_started_precedes_work(self, modes_dir, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, "interpolation_continuity")
        out = self.run(modes_dir, tmp_path)
        assert len(calls) == 1 and manifest_started(out) <= calls[0]

    def test_reads_only_record_json_and_points(self, modes_dir, tmp_path, capsys):
        out = self.run(modes_dir, tmp_path)
        first = (out / "continuity.csv").read_bytes()
        (tmp_path / "path_out" / "metrics.csv").unlink()
        assert main(["continuity", "--config", str(tmp_path / "cont.cfg")]) == 0
        assert (out / "continuity.csv").read_bytes() == first
        # every stored checkpoint is still verified before use
        point = tmp_path / "path_out" / "points" / "point_00000002.ckpt"
        blob = bytearray(point.read_bytes())
        blob[-9] ^= 1  # the last payload byte
        point.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["continuity", "--config", str(tmp_path / "cont.cfg")]) == 1
        assert "checksum mismatch" in capsys.readouterr().err


class TestSeedStudyCommand:
    MODES3 = MODES.replace("seeds = 1, 2", "seeds = 1, 2, 3")

    @staticmethod
    def run(tmp_path, modes=MODES3):
        cfg = write_cfg(tmp_path, BASE + modes + "\n[output]\ndir = study\n")
        assert main(["seed-study", "--config", str(cfg)]) == 0
        return tmp_path / "study"

    @staticmethod
    def failed_seeds(out_dir):
        for line in (out_dir / "manifest.txt").read_text().splitlines():
            if line.startswith("failed_seeds = "):
                return line.split(" = ", 1)[1]
        raise AssertionError("manifest has no failed_seeds line")

    def test_tables_written(self, modes_dir, tmp_path):
        out = self.run(tmp_path)
        header, rows = read_csv(out / "seed_study.csv")
        assert header[0] == "seed" and len(rows) == 3
        s_header, s_rows = read_csv(out / "seed_study_summary.csv")
        assert s_header == ["layer", "variance_cov", "max_abs_mean_over_std"]
        assert {r["layer"] for r in s_rows} == {"fc1.weight", "fc2.weight"}

    def test_cells_are_layer_stats_of_train_modes_checkpoints(self, tmp_path):
        """One [modes] section: seed-study's table holds the statistics of
        exactly the modes train-modes writes."""
        from llpf.param_space import layer_stats

        out = self.run(tmp_path)
        assert main(["train-modes", "--config", str(tmp_path / "run.cfg"),
                     "--out", str(tmp_path / "modes")]) == 0
        g = mlp2(10, 8, 3)
        _, rows = read_csv(out / "seed_study.csv")
        assert [row["seed"] for row in rows] == [1, 2, 3]
        for row in rows:
            params = load_checkpoint(g, tmp_path / "modes" / f"mode_{row['seed']}.ckpt")
            for name in g.slice_names():
                stats = layer_stats(params.get(name))
                assert (row[f"var:{name}"], row[f"mean:{name}"]) == (stats.variance, stats.mean)

    def test_honours_modes_acceptance_loss(self, tmp_path):
        """A bar between train-modes' second and third best losses leaves
        exactly the worst seed out of the table."""
        short = self.MODES3.replace("max_rounds = 800", "max_rounds = 30")
        unbarred = short.replace("acceptance_loss = 0.1\n", "")
        cfg = write_cfg(tmp_path, BASE + unbarred + "\n[output]\ndir = modes\n", "modes.cfg")
        assert main(["train-modes", "--config", str(cfg)]) == 0
        losses = {s: TestTrainModes.mode_facts(tmp_path / "modes", s)[1] for s in (1, 2, 3)}
        ranked = sorted(losses, key=losses.get)
        bar = (losses[ranked[1]] + losses[ranked[2]]) / 2
        out = self.run(tmp_path, short.replace("acceptance_loss = 0.1", f"acceptance_loss = {bar!r}"))
        _, rows = read_csv(out / "seed_study.csv")
        assert [row["seed"] for row in rows] == sorted(ranked[:2])
        assert self.failed_seeds(out) == f"[{ranked[2]}]"

    def test_no_passing_seed_names_the_seeds_and_writes_no_table(self, tmp_path, caplog):
        modes = MODES.replace("acceptance_loss = 0.1", "acceptance_loss = 1e-9")
        cfg = write_cfg(tmp_path, BASE + modes + "\n[output]\ndir = study\n")
        assert main(["seed-study", "--config", str(cfg)]) == 2
        assert "failed seeds [1, 2]" in caplog.text
        assert "no rows to write" not in caplog.text
        assert not (tmp_path / "study" / "seed_study.csv").exists()

    def test_seed_override_shifts_every_seed(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + self.MODES3.replace("acceptance_loss = 0.1\n", "")
                        + "\n[output]\ndir = study\n")
        assert main(["seed-study", "--config", str(cfg), "--seed-override", "7"]) == 0
        _, rows = read_csv(tmp_path / "study" / "seed_study.csv")
        assert [row["seed"] for row in rows] == [7, 8, 9]

    def test_manifest_started_precedes_work(self, tmp_path, monkeypatch):
        calls = record_calls(monkeypatch, "seed_variance_study")
        out = self.run(tmp_path)
        assert len(calls) == 1 and manifest_started(out) <= calls[0]

    def test_seed_study_section_rejected_as_unknown(self, tmp_path, capsys):
        text = BASE + MODES + """
[seed_study]
seeds = 1, 2, 3

[output]
dir = study
"""
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index("[seed_study]") + 1
        assert main(["seed-study", "--config", str(cfg)]) == 1
        assert f"{cfg}:{line}: unknown section [seed_study]" in capsys.readouterr().err
        assert not (tmp_path / "study").exists()

    def test_one_seed_rejected_at_its_line(self, tmp_path, capsys, monkeypatch):
        calls = record_calls(monkeypatch, "seed_variance_study")
        text = BASE + MODES.replace("seeds = 1, 2", "seeds = 3") + "\n[output]\ndir = study\n"
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index("seeds = 3") + 1
        assert main(["seed-study", "--config", str(cfg)]) == 1
        assert f"{cfg}:{line}: [modes] needs at least 2 seeds here, got 1" in capsys.readouterr().err
        assert not calls and not (tmp_path / "study").exists()


class TestPlot:
    def test_plot_from_metrics(self, modes_dir, tmp_path):
        out_svg = tmp_path / "chart.svg"
        csv_path = modes_dir / "out" / "mode_1_train.csv"
        assert main(["plot", str(csv_path), "--out", str(out_svg), "--log-y"]) == 0
        assert out_svg.read_text().startswith("<svg")

    def test_test_metrics_drawn_from_stored_points(self, modes_dir, tmp_path):
        import re

        csv_path = write_strided_path(modes_dir, tmp_path) / "metrics.csv"
        _, rows = read_csv(csv_path)
        assert [np.isnan(row["test_loss"]) for row in rows] == [False, True, False, True, False]
        out_svg = tmp_path / "chart.svg"
        assert main(["plot", str(csv_path), "--out", str(out_svg)]) == 0
        svg = out_svg.read_text()
        labels = re.findall(r'width="12" height="12" fill="[^"]+"/>\n<text [^>]*>([^<]+)</text>', svg)
        lines = re.findall(r'<polyline points="([^"]*)"', svg)
        drawn = {label: len(pts.split()) for label, pts in zip(labels, lines)}
        assert drawn["rolling_train_loss"] == 5
        assert drawn["test_loss"] == drawn["test_acc"] == 3

    def test_labels_escaped(self, tmp_path):
        from xml.dom import minidom

        csv_path = tmp_path / "m.csv"
        csv_path.write_text("step<i>,loss & acc\n0,1.0\n1,0.5\n")
        out_svg = tmp_path / "chart.svg"
        title = "loss < 0.1 & falling"
        assert main(["plot", str(csv_path), "--out", str(out_svg), "--title", title]) == 0
        svg = minidom.parse(str(out_svg))
        texts = {node.firstChild.data for node in svg.getElementsByTagName("text")}
        assert {title, "step<i>", "loss & acc"} <= texts

    def test_bad_column_is_validation_error(self, modes_dir, tmp_path):
        csv_path = modes_dir / "out" / "mode_1_train.csv"
        code = main(["plot", str(csv_path), "--out", str(tmp_path / "x.svg"), "--y", "nope"])
        assert code == 1


class TestExitCodes:
    def test_unknown_flag(self):
        assert main(["train-modes", "--config", "x", "--frobnicate"]) == 1

    def test_unknown_key_in_config(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + "\n[output]\ndir = out\nwat = 1\n" + MODES)
        assert main(["train-modes", "--config", str(cfg)]) == 1

    def test_precision_flag_removed(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE + MODES + "\n[output]\ndir = out\n")
        assert main(["train-modes", "--config", str(cfg), "--precision", "f64"]) == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, section, key",
        [
            ("train-modes", "output", "precision"),
            ("train-modes", "output", "test_metrics"),
            ("train-modes", "dataset", "separation"),
            ("train-modes", "modes", "augment"),
            ("connect-m2m", "m2m", "augment_path_steps"),
            ("collapse-m2o", "m2o", "augment_path_steps"),
            ("connect-avs", "avs.m2o", "augment_path_steps"),
            ("connect-avs", "avs.m2o", "mode_acceptance_loss"),
            ("continuity", "continuity", "use_full_set"),
            ("seed-study", "modes", "init_only"),
        ],
        ids=lambda value: value,
    )
    def test_removed_key_rejected_with_line(self, tmp_path, capsys, command, section, key):
        text = BASE + MODES + """
[m2m]
start = a.ckpt
dest = b.ckpt
step_f = 1e-3

[m2o]
start = a.ckpt
step_a = 1e-3

[avs]
start = a.ckpt
dest = b.ckpt

[avs.m2o]
step_a = 1e-3

[continuity]
record_dir = path

[output]
dir = out
"""
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n", 1)
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index(f"{key} = 1") + 1
        assert main([command, "--config", str(cfg)]) == 1
        assert f"{cfg}:{line}: unknown key '{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, section, body",
        [
            ("connect-m2m", "m2m", "[m2m]\nstart = a.ckpt\ndest = b.ckpt\n"),
            ("connect-m2m", "m2m.phase.1", "[m2m]\nstart = a.ckpt\ndest = b.ckpt\nstep_f = 1e-3\n"
                                           "[m2m.phase.1]\nlayers = all\nstep_f = 0\n"),
            ("collapse-m2o", "m2o", "[m2o]\nstart = a.ckpt\n"),
            ("connect-avs", "avs.m2o", "[avs]\nstart = a.ckpt\ndest = b.ckpt\n[avs.m2o]\n"
                                       "[avs.m2m]\nstep_f = 1e-3\n"),
            ("connect-avs", "avs.m2m", "[avs]\nstart = a.ckpt\ndest = b.ckpt\n[avs.m2o]\n"
                                       "step_a = 1e-3\n[avs.m2m]\n"),
        ],
        ids=["m2m", "m2m.phase.1", "m2o", "avs.m2o", "avs.m2m"],
    )
    def test_step_without_positive_coefficient_rejected_with_line(
        self, tmp_path, capsys, command, section, body
    ):
        text = BASE + body + "\n[output]\ndir = out\n"
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index(f"[{section}]") + 1
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:{line}: [{section}] at least one step coefficient must be positive" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section", ["ouptut", "m2m.phase.x", "m2m.phase"])
    def test_unknown_section_rejected_with_line(self, tmp_path, capsys, section):
        text = BASE + MODES + f"\n[{section}]\ndir = elsewhere\n"
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index(f"[{section}]") + 1
        assert main(["train-modes", "--config", str(cfg)]) == 1
        assert f"{cfg}:{line}: unknown section [{section}]" in capsys.readouterr().err
        assert not (tmp_path / "out").exists() and not (tmp_path / "elsewhere").exists()

    @pytest.mark.parametrize("command", ["train-modes", "seed-study"])
    @pytest.mark.parametrize("bar", ["0", "-0.5", "nan"])
    def test_non_positive_acceptance_loss_rejected_with_line(self, tmp_path, capsys, command, bar):
        text = BASE + MODES.replace("acceptance_loss = 0.1", f"acceptance_loss = {bar}")
        cfg = write_cfg(tmp_path, text + "\n[output]\ndir = out\n")
        line = text.splitlines().index(f"acceptance_loss = {bar}") + 1
        assert main([command, "--config", str(cfg)]) == 1
        assert f"{cfg}:{line}: acceptance_loss must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["lr", "mode_acceptance_loss"])
    def test_nan_walk_value_rejected_with_line(self, tmp_path, capsys, key):
        text = BASE + f"[m2m]\nstart = a.ckpt\ndest = b.ckpt\nstep_f = 1e-3\n{key} = nan\n"
        cfg = write_cfg(tmp_path, text + "\n[output]\ndir = out\n")
        line = text.splitlines().index(f"{key} = nan") + 1
        assert main(["connect-m2m", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:{line}: {key} must be finite, got 'nan'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "old, new",
        [
            ("seed = 11", "seed = -1"),
            ("seeds = 1, 2", "seeds = 1, -2"),
            ("dir = out", "dir = out\nseed = -3"),
        ],
        ids=["dataset", "modes", "output"],
    )
    def test_negative_seed_rejected_with_line(self, tmp_path, capsys, old, new):
        text = (BASE + MODES + "\n[output]\ndir = out\n").replace(old, new)
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index(new.splitlines()[-1]) + 1
        assert main(["train-modes", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert re.search(rf"{re.escape(str(cfg))}:{line}: seeds? must be >= 0, got -\d", err)
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_override_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASE + MODES + "\n[output]\ndir = out\n")
        assert main(["train-modes", "--config", str(cfg), "--seed-override", "-1"]) == 1
        assert "a seed must be >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(BASE.replace("mlp2", "mlp\xe9").encode("latin-1"))
        assert main(["train-modes", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: not UTF-8 (byte 0xe9 on line 3)" in err
        assert "Traceback" not in err

    def test_bad_modes_trainer_value_rejected_with_line(self, tmp_path, capsys):
        text = BASE + MODES.replace("lr = 0.1", "lr = 0") + "\n[output]\ndir = out\n"
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index("[modes]") + 1
        assert main(["train-modes", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:{line}: [modes] learning rate must be positive" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, body",
        [
            ("collapse-m2o", "[m2o]\nstart = {modes}/mode_1.ckpt\nstep_a = 1e-3\n"),
            ("connect-avs", "[avs]\nstart = {modes}/mode_1.ckpt\ndest = {modes}/mode_2.ckpt\n"
                            "[avs.m2o]\nstep_a = 1e-3\n[avs.m2m]\nstep_f = 1e-3\n"),
        ],
        ids=["m2o", "avs"],
    )
    def test_exclude_of_every_slice_rejected_at_its_line(
        self, modes_dir, tmp_path, capsys, command, body
    ):
        """An origin walk that would move nothing is a config error, before
        any work, wherever its section is."""
        body = body.format(modes=modes_dir / "out").replace(
            "step_a = 1e-3\n", "step_a = 1e-3\nexclude = fc1.*, fc2.*\n"
        )
        text = BASE + body + "\n[output]\ndir = out\n"
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index("exclude = fc1.*, fc2.*") + 1
        section = "m2o" if command == "collapse-m2o" else "avs.m2o"
        assert main([command, "--config", str(cfg)]) == 1
        assert f"{cfg}:{line}: [{section}] exclude freezes every slice" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, body, key",
        [
            ("connect-m2m", "[m2m]\nstart = a.ckpt\ndest = b.ckpt\nstep_f = 1e-3\n", "start"),
            ("connect-m2m", "[m2m]\nstart = b.ckpt\ndest = a.ckpt\nstep_f = 1e-3\n", "dest"),
            ("collapse-m2o", "[m2o]\nstart = a.ckpt\nstep_a = 1e-3\n", "start"),
            ("connect-avs", "[avs]\nstart = b.ckpt\ndest = a.ckpt\n[avs.m2o]\nstep_a = 1e-3\n"
                            "[avs.m2m]\nstep_f = 1e-3\n", "dest"),
        ],
        ids=["m2m-start", "m2m-dest", "m2o-start", "avs-dest"],
    )
    def test_missing_checkpoint_rejected_at_its_line(self, tmp_path, capsys, command, body, key):
        (tmp_path / "b.ckpt").write_bytes(b"")  # a.ckpt is the missing one
        text = BASE + body + "\n[output]\ndir = out\n"
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index(f"{key} = a.ckpt") + 1
        section = body[1 : body.index("]")]
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        missing = tmp_path / "a.ckpt"
        assert f"{cfg}:{line}: [{section}] {key} checkpoint {missing} does not exist" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, body, section, key, value",
        [
            ("connect-m2m", "[m2m]\nstart = a.ckpt\ndest = b.ckpt\nstep_f = 1e-3\n",
             "m2m", "variance_ratio_bound", "1"),
            ("connect-avs", "[avs]\nstart = a.ckpt\ndest = b.ckpt\n[avs.m2o]\nstep_a = 1e-3\n"
                            "[avs.m2m]\nstep_f = 1e-3\n", "avs", "sphere_match_rtol", "0"),
            ("connect-avs", "[avs]\nstart = a.ckpt\ndest = b.ckpt\n[avs.m2o]\nstep_a = 1e-3\n"
                            "[avs.m2m]\nstep_f = 1e-3\n", "avs", "sphere_match_rtol", "0.5"),
        ],
        ids=["variance_ratio_bound=1", "sphere_match_rtol=0", "sphere_match_rtol=0.5"],
    )
    def test_walk_bound_not_above_one_rejected_with_line(
        self, tmp_path, capsys, monkeypatch, command, body, section, key, value
    ):
        """A bound of at most 1 is a config error, found before any
        checkpoint is read."""
        calls = record_calls(monkeypatch, "load_checkpoint")
        g = mlp2(10, 8, 3)
        for name in ("a.ckpt", "b.ckpt"):
            save_checkpoint(init_params(g, 0), g, tmp_path / name)
        body = body.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1)
        text = BASE + body + "\n[output]\ndir = out\n"
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index(f"[{section}]") + 1
        assert main([command, "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:{line}: [{section}] {key} must exceed 1" in err
        assert "Traceback" not in err
        assert not calls and not (tmp_path / "out").exists()

    def test_missing_record_dir_rejected_at_its_line(self, tmp_path, capsys):
        text = BASE + "\n[continuity]\nrecord_dir = path\n\n[output]\ndir = out\n"
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index("record_dir = path") + 1
        assert main(["continuity", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert f"{cfg}:{line}: [continuity] record_dir {tmp_path / 'path'} does not exist" in err
        assert not (tmp_path / "out").exists()

    def test_one_continuity_sample_rejected_at_its_line(self, tmp_path, capsys):
        (tmp_path / "path").mkdir()
        text = BASE + "\n[continuity]\nrecord_dir = path\nsamples = 1\n\n[output]\ndir = out\n"
        cfg = write_cfg(tmp_path, text)
        line = text.splitlines().index("samples = 1") + 1
        assert main(["continuity", "--config", str(cfg)]) == 1
        assert f"{cfg}:{line}: [continuity] samples must be >= 2, got 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["train-modes", "--config", str(tmp_path / "none.cfg")]) == 1

    def test_seed_override(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE + """
[modes]
seeds = 1, 2
lr = 0.1
max_rounds = 20

[output]
dir = out
""",
        )
        assert main(["train-modes", "--config", str(cfg), "--seed-override", "9"]) == 0
        assert (tmp_path / "out" / "mode_9.ckpt").is_file()
        assert not (tmp_path / "out" / "mode_1.ckpt").exists()


class TestShippedConfigs:
    def test_examples_parse_and_validate(self, tmp_path, monkeypatch):
        """Every section of every shipped config goes through its builder, so
        a key no builder reads any more fails here, not on a user's first run."""
        import shutil
        from pathlib import Path

        from llpf.harness_cli import run_config as rc
        from llpf.harness_cli.checkpoint import save_checkpoint
        from llpf.harness_cli.config import parse_config, resolve_path
        from llpf.nn_engine import init_params
        from test_datasets import write_tiny_mnist

        mnist = tmp_path / "mnist"
        mnist.mkdir()
        write_tiny_mnist(mnist)
        monkeypatch.setenv("LLPF_DATA_DIR", str(mnist))
        builders = {
            "dataset": rc.build_datasets,
            "output": rc.build_output,
            "modes": rc.build_modes,
            "continuity": rc.build_continuity,
        }
        graph_builders = {"m2m": rc.build_m2m, "m2o": rc.build_m2o, "avs": rc.build_avs}
        checkpoints = (("m2m", "start"), ("m2m", "dest"), ("m2o", "start"),
                       ("avs", "start"), ("avs", "dest"))
        configs = sorted((Path(__file__).parent.parent / "configs").glob("*.cfg"))
        assert len(configs) == 7
        for path in configs:
            copy = tmp_path / path.name
            shutil.copy(path, copy)
            cfg = parse_config(copy)
            rc.check_sections(cfg)
            graph = rc.build_graph(cfg)
            assert graph.num_params > 0
            for section, key in checkpoints:
                if cfg.has(section):
                    ckpt = resolve_path(cfg, cfg.sections[section][key].text)
                    ckpt.parent.mkdir(parents=True, exist_ok=True)
                    save_checkpoint(init_params(graph, 0), graph, ckpt)
            if cfg.has("continuity"):
                resolve_path(cfg, cfg.sections["continuity"]["record_dir"].text).mkdir(
                    parents=True, exist_ok=True
                )
            built = {"model"}
            for section in cfg.sections:
                top = section.split(".")[0]
                if top in built:
                    continue
                if top in graph_builders:
                    graph_builders[top](cfg, graph)
                else:
                    builders[top](cfg)
                built.add(top)  # stage and phase sections are read by their parent's builder

    def test_documented_m2m_record_is_where_continuity_reads(self):
        """The header of blobs_m2m.cfg runs connect-m2m with an ``--out``
        relative to the repository root; blobs_continuity.cfg reads the same
        directory, relative to its own."""
        from llpf.harness_cli.config import parse_config, resolve_path

        root = Path(__file__).resolve().parent.parent
        header = (root / "configs" / "blobs_m2m.cfg").read_text().splitlines()
        [line] = [text for text in header if text.startswith("#") and "connect-m2m" in text]
        args = line.split()
        written = (root / args[args.index("--out") + 1]).resolve()
        cfg = parse_config(root / "configs" / "blobs_continuity.cfg")
        assert resolve_path(cfg, cfg.sections["continuity"]["record_dir"].text) == written

    def test_readme_trains_every_avs_endpoint_before_connecting(self):
        """README's CLI block runs as listed: every checkpoint blobs_avs.cfg
        reads is written by a train-modes line before its connect-avs line,
        the destination with weight decay, and the record goes to an --out
        of its own."""
        from llpf.harness_cli import run_config as rc
        from llpf.harness_cli.config import parse_config, resolve_path

        root = Path(__file__).resolve().parent.parent
        lines = [
            line.split("#")[0].split()
            for line in (root / "README.md").read_text().splitlines()
            if line.startswith("llpf ")
        ]
        [at] = [i for i, args in enumerate(lines) if args[1] == "connect-avs"]
        written = {}  # checkpoint path -> the weight decay it was trained with
        for args in lines[:at]:
            if args[1] != "train-modes":
                continue
            cfg = parse_config(root / args[args.index("--config") + 1])
            modes = rc.build_modes(cfg)
            out = rc.build_output(cfg).out_dir
            if "--out" in args:
                out = root / args[args.index("--out") + 1]
            for seed in modes.seeds:
                written[(out / f"mode_{seed}.ckpt").resolve()] = modes.trainer.weight_decay
        args = lines[at]
        cfg = parse_config(root / args[args.index("--config") + 1])
        avs = cfg.sections["avs"]
        start, dest = (resolve_path(cfg, avs[key].text).resolve() for key in ("start", "dest"))
        assert start in written and dest in written
        assert written[dest] == 1e-2 and written[start] == 0.0
        record = (root / args[args.index("--out") + 1]).resolve()
        assert record not in {path.parent for path in written}

    def test_long_convnet_schedule_builds(self, tmp_path):
        """The documented 30000-iteration convnet schedule parses into the
        expected single all-layers phase without running it."""
        from llpf.harness_cli import run_config as rc
        from llpf.harness_cli.checkpoint import save_checkpoint
        from llpf.harness_cli.config import parse_config
        from llpf.nn_engine import init_params, lenet_micro

        g = lenet_micro(1, 28, 10)
        for name in ("mode_1.ckpt", "mode_2.ckpt"):
            save_checkpoint(init_params(g, 0), g, tmp_path / name)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            """
[model]
name = lenet-micro

[dataset]
name = mnist-subset
per_class = 16
dir = .

[m2m]
start = mode_1.ckpt
dest = mode_2.ckpt
iterations = 30000
step_f = 1e-3
train_rounds = 5
lr = 1e-3
batch_size = 64

[output]
dir = out
"""
        )
        cfg = parse_config(cfg_path)
        plan, trainer = rc.build_m2m(cfg, rc.build_graph(cfg)).args
        assert len(plan.phases) == 1
        phase = plan.phases[0]
        assert phase.iterations == 30000
        assert phase.step.step_f == 1e-3 and phase.step.step_a == 0.0
        assert phase.stop.max_rounds == 5
        assert set(phase.active_layers) == set(g.slice_names())
        assert trainer.lr == 1e-3 and trainer.batch_size == 64
        assert trainer.momentum == 0.0 and trainer.weight_decay == 0.0

    @pytest.mark.parametrize(
        "section, body",
        [
            ("m2m", "[m2m]\nstep_f = 1e-3\nloss_threshold = 0.05\ntrain_rounds = 5\n"),
            ("m2m.phase.1", "[m2m]\nstep_f = 1e-3\nloss_threshold = 0.05\ntrain_rounds = 10\n"
                            "[m2m.phase.1]\nlayers = all\ntrain_rounds = 4\nwindow = 6\n"),
            ("avs.m2o", "[avs]\n[avs.m2o]\nstep_a = 1e-3\nloss_threshold = 0.05\n"
                        "train_rounds = 3\nwindow = 5\n[avs.m2m]\n"),
            ("modes", "[modes]\nseeds = 1\nlr = 0.1\nloss_threshold = 0.1\nmax_rounds = 9\n"),
        ],
        ids=["m2m", "m2m.phase.1", "avs.m2o", "modes"],
    )
    def test_stop_rule_that_cannot_stop_early_rejected(self, tmp_path, section, body):
        """A positive loss threshold with a rolling window wider than the
        round cap can never fire; the error names the section."""
        from llpf.harness_cli import run_config as rc
        from llpf.harness_cli.checkpoint import save_checkpoint
        from llpf.harness_cli.config import ConfigError, parse_config
        from llpf.nn_engine import init_params

        g = mlp2(4, 4, 2)
        for name in ("a.ckpt", "b.ckpt"):
            save_checkpoint(init_params(g, 0), g, tmp_path / name)
        top = section.split(".")[0]
        if top in ("m2m", "avs"):
            body = body.replace(f"[{top}]\n", f"[{top}]\nstart = a.ckpt\ndest = b.ckpt\n", 1)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("[model]\nname = mlp2\nin_dim = 4\nhidden = 4\nclasses = 2\n" + body)
        cfg = parse_config(cfg_path)
        build = {"m2m": lambda: rc.build_m2m(cfg, g), "avs": lambda: rc.build_avs(cfg, g),
                 "modes": lambda: rc.build_modes(cfg)}[top]
        message = rf"\[{re.escape(section)}\] a \d+-round window never fills"
        with pytest.raises(ConfigError, match=message):
            build()

    def test_fdf_and_explicit_phase_sections(self, tmp_path):
        from llpf.harness_cli import run_config as rc
        from llpf.harness_cli.checkpoint import save_checkpoint
        from llpf.harness_cli.config import parse_config
        from llpf.nn_engine import init_params, resnet_micro

        g = resnet_micro(1, 8, 3, width=2)
        for name in ("a.ckpt", "b.ckpt"):
            save_checkpoint(init_params(g, 0), g, tmp_path / name)
        base = """
[model]
name = resnet-micro
hw = 8
classes = 3
width = 2

[dataset]
name = blobs
classes = 3
dim = 10
n = 30

[output]
dir = out
"""
        fdf_cfg = tmp_path / "fdf.cfg"
        fdf_cfg.write_text(
            base
            + """
[m2m]
start = a.ckpt
dest = b.ckpt
iterations = 7
step_a = 1e-3
phases = fdf
"""
        )
        plan, _ = rc.build_m2m(parse_config(fdf_cfg), g).args
        assert len(plan.phases) == 6  # stem, block1, two branches, head, all

        explicit_cfg = tmp_path / "explicit.cfg"
        explicit_cfg.write_text(
            base
            + """
[m2m]
start = a.ckpt
dest = b.ckpt
iterations = 7
step_a = 1e-3

[m2m.phase.1]
layers = stem.*

[m2m.phase.2]
layers = all
iterations = 3
"""
        )
        plan, _ = rc.build_m2m(parse_config(explicit_cfg), g).args
        assert [p.iterations for p in plan.phases] == [7, 3]
        assert set(plan.phases[0].active_layers) == {
            "stem.conv.weight", "stem.bn.scale", "stem.bn.shift",
        }


class TestConnectAvs:
    def test_degenerate_same_endpoint(self, modes_dir, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE
            + f"""
[avs]
start = {modes_dir}/out/mode_1.ckpt
dest = {modes_dir}/out/mode_1.ckpt
mode_acceptance_loss = 0.2

[avs.m2o]
iterations = 50
step_a = 1e-3
eta = 1e-4
batch_size = 16
train_rounds = 1

[avs.m2m]
iterations = 4
step_f = 1e-3
lr = 1e-5
batch_size = 16
train_rounds = 1

[output]
dir = out_avs
checkpoint_stride = 1
""",
        )
        assert main(["connect-avs", "--config", str(cfg)]) == 0
        import json

        meta = json.loads((tmp_path / "out_avs" / "record.json").read_text())
        # identical spheres: stage one exits immediately at the hand-off
        assert meta["stage_boundary"] == 0
        g = mlp2(10, 8, 3)
        record = read_path_record(tmp_path / "out_avs", g)
        assert record.stage_boundary == 0
        assert len(record.points) == 5

    def test_each_stage_draws_its_own_batch_size(self, modes_dir, tmp_path, monkeypatch):
        """Stage 1 repairs with ``[avs.m2o] batch_size``, stage 2 with
        ``[avs.m2m] batch_size``."""
        from llpf import llpf_core
        from llpf.harness_cli.checkpoint import save_checkpoint
        from llpf.param_space import ParamVector

        g = mlp2(10, 8, 3)
        start = load_checkpoint(g, modes_dir / "out" / "mode_1.ckpt")
        # the same mode at 0.81x the variance: stage 1 has to walk inward
        save_checkpoint(ParamVector(start.data * 0.9, start.layout), g, tmp_path / "inner.ckpt")
        cfg = write_cfg(
            tmp_path,
            BASE
            + f"""
[avs]
start = {modes_dir}/out/mode_1.ckpt
dest = inner.ckpt
mode_acceptance_loss = 1.0

[avs.m2o]
iterations = 3
step_a = 0.1
eta = 1e-4
batch_size = 16
train_rounds = 2

[avs.m2m]
iterations = 2
step_f = 1e-3
lr = 1e-5
batch_size = 64
train_rounds = 2

[output]
dir = out_avs
""",
        )
        batch_sizes = []
        real = llpf_core.train_until

        def spy(engine_plan, data, trainer, *args, **kwargs):
            batch_sizes.append(trainer.batch_size)
            return real(engine_plan, data, trainer, *args, **kwargs)

        monkeypatch.setattr(llpf_core, "train_until", spy)
        assert main(["connect-avs", "--config", str(cfg)]) == 0
        boundary = read_path_record(tmp_path / "out_avs", g).stage_boundary
        assert 0 < boundary < len(batch_sizes)
        assert batch_sizes == [16] * boundary + [64] * (len(batch_sizes) - boundary)


    def test_excluded_slice_reads_zero_in_stage_one(self, modes_dir, tmp_path):
        """An ``[avs.m2o] exclude`` keeps its slice at the start's value,
        which the projection shares, so every stage-1 row reads 0.0 for it
        and stage 2 keeps the column."""
        g = mlp2(10, 8, 3)
        start = load_checkpoint(g, modes_dir / "out" / "mode_1.ckpt")
        save_checkpoint(ParamVector(start.data * 0.9, start.layout), g, tmp_path / "inner.ckpt")
        cfg = write_cfg(
            tmp_path,
            BASE
            + f"""
[avs]
start = {modes_dir}/out/mode_1.ckpt
dest = inner.ckpt
mode_acceptance_loss = 1.0

[avs.m2o]
iterations = 3
step_a = 0.1
eta = 1e-4
batch_size = 16
train_rounds = 2
exclude = fc2.bias

[avs.m2m]
iterations = 2
step_f = 1e-3
lr = 1e-5
batch_size = 16
train_rounds = 2

[output]
dir = out_avs
""",
        )
        assert main(["connect-avs", "--config", str(cfg)]) == 0
        boundary = read_path_record(tmp_path / "out_avs", g).stage_boundary
        _, rows = read_csv(tmp_path / "out_avs" / "metrics.csv")
        assert 0 < boundary < len(rows) - 1
        assert [row["dist:fc2.bias"] for row in rows[: boundary + 1]] == [0.0] * (boundary + 1)

    def test_failing_dest_rejected_before_any_repair(
        self, modes_dir, tmp_path, monkeypatch, caplog
    ):
        """A destination that misses the stage-2 gate stops the chain before
        stage 1 walks: no repair round runs."""
        from llpf import llpf_core

        g = mlp2(10, 8, 3)
        start = load_checkpoint(g, modes_dir / "out" / "mode_1.ckpt")
        # on smaller spheres, so stage 1 would walk; the flipped head fails the gate
        inner = ParamVector(start.data * 0.9, start.layout)
        bad = inner.with_slices({"fc2.weight": -inner.get("fc2.weight")})
        save_checkpoint(bad, g, tmp_path / "bad.ckpt")
        cfg = write_cfg(
            tmp_path,
            BASE
            + f"""
[avs]
start = {modes_dir}/out/mode_1.ckpt
dest = bad.ckpt
mode_acceptance_loss = 0.2

[avs.m2o]
iterations = 3
step_a = 0.1
eta = 1e-4
train_rounds = 2

[avs.m2m]
iterations = 2
step_f = 1e-3

[output]
dir = out_avs
""",
        )
        calls = []
        real = llpf_core.train_until

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(llpf_core, "train_until", spy)
        assert main(["connect-avs", "--config", str(cfg)]) == 2
        assert "dest mode fails low-loss acceptance" in caplog.text
        assert calls == []
        assert not (tmp_path / "out_avs" / "record.json").exists()


class TestWalkOutputs:
    """What the one walk handler writes for each of the three commands: the
    record's config hash and endpoints, the manifest's command, points and
    stage boundary, and the printed summary line."""

    SECTIONS = {
        "connect-m2m": """
[m2m]
start = {modes}/mode_1.ckpt
dest = {modes}/mode_2.ckpt
iterations = 3
step_f = 1e-3
lr = 1e-5
batch_size = 16
train_rounds = 1
mode_acceptance_loss = 0.2
variance_ratio_bound = 4.0
""",
        "collapse-m2o": """
[m2o]
start = {modes}/mode_1.ckpt
iterations = 3
step_a = 2e-3
eta = 1e-4
batch_size = 16
train_rounds = 1
mode_acceptance_loss = 0.2
""",
        "connect-avs": """
[avs]
start = {modes}/mode_1.ckpt
dest = inner.ckpt
mode_acceptance_loss = 1.0

[avs.m2o]
iterations = 3
step_a = 0.1
eta = 1e-4
batch_size = 16
train_rounds = 1

[avs.m2m]
iterations = 2
step_f = 1e-3
lr = 1e-5
batch_size = 16
train_rounds = 1
""",
    }
    ENDPOINTS = {
        "connect-m2m": ["mode_1.ckpt", "mode_2.ckpt"],
        "collapse-m2o": ["mode_1.ckpt", "origin"],
        "connect-avs": ["mode_1.ckpt", "inner.ckpt"],
    }

    def walk(self, modes_dir, tmp_path, command):
        """Run ``command`` on the shared modes; returns its config and output
        directory."""
        g = mlp2(10, 8, 3)
        start = load_checkpoint(g, modes_dir / "out" / "mode_1.ckpt")
        # the same mode at 0.81x the variance: the chain's stage 1 walks inward
        save_checkpoint(ParamVector(start.data * 0.9, start.layout), g, tmp_path / "inner.ckpt")
        section = self.SECTIONS[command].format(modes=modes_dir / "out")
        cfg = write_cfg(tmp_path, BASE + section + "\n[output]\ndir = walk_out\nseed = 2\n")
        assert main([command, "--config", str(cfg)]) == 0
        return cfg, tmp_path / "walk_out"

    @pytest.mark.parametrize("command", sorted(SECTIONS))
    def test_record_manifest_and_summary(self, modes_dir, tmp_path, capsys, command):
        import json

        g = mlp2(10, 8, 3)
        capsys.readouterr()
        cfg, out = self.walk(modes_dir, tmp_path, command)
        meta = json.loads((out / "record.json").read_text())
        assert meta["config_hash"] == parse_config(cfg).digest
        assert meta["endpoints"] == self.ENDPOINTS[command]
        record = read_path_record(out, g)
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"command = {command}" in manifest
        assert f"points = {len(record.points)}" in manifest
        boundary = [line for line in manifest if line.startswith("stage_boundary = ")]
        if command == "connect-avs":
            assert 0 < meta["stage_boundary"] < len(record.points) - 1
            assert boundary == [f"stage_boundary = {meta['stage_boundary']}"]
        else:
            assert meta["stage_boundary"] is None and boundary == []
        final = record.points[-1].rolling_train_loss
        assert capsys.readouterr().out == (
            f"{command}: {len(record.points)} points -> {out}/metrics.csv "
            f"(final rolling loss {final:.4g})\n"
        )

    def test_manifest_names_the_numeric_environment(self, modes_dir, tmp_path, monkeypatch):
        """numpy, the BLAS and its thread settings can each change a
        record's last bits, so the manifest names them."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        _, out = self.walk(modes_dir, tmp_path, "connect-m2m")
        manifest = (out / "manifest.txt").read_text().splitlines()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        for line in (
            f"numpy = {np.__version__}",
            f"blas = {blas['name']} {blas['version']}",
            "OPENBLAS_NUM_THREADS = 1",
            "OMP_NUM_THREADS = 2",
            "MKL_NUM_THREADS = unset",
        ):
            assert line in manifest


class TestM2OExcludeGlobs:
    def test_extra_exclusions_stay_put(self, modes_dir, tmp_path):
        cfg = write_cfg(
            tmp_path,
            BASE
            + f"""
[m2o]
start = {modes_dir}/out/mode_1.ckpt
iterations = 5
step_a = 5e-3
eta = 1e-4
batch_size = 16
train_rounds = 1
exclude = fc2.*
mode_acceptance_loss = 0.2

[output]
dir = out_m2o_excl
checkpoint_stride = 1
""",
        )
        assert main(["collapse-m2o", "--config", str(cfg)]) == 0
        g = mlp2(10, 8, 3)
        record = read_path_record(tmp_path / "out_m2o_excl", g)
        start = load_checkpoint(g, modes_dir / "out" / "mode_1.ckpt")
        for point in record.points:
            assert point.per_layer_dist["fc2.weight"] == point.per_layer_dist["fc2.bias"] == 0.0
            if point.params is not None:
                assert np.array_equal(point.params.get("fc2.weight"), start.get("fc2.weight"))
                assert np.array_equal(point.params.get("fc2.bias"), start.get("fc2.bias"))


class TestMnistEnvVar:
    def test_data_dir_from_environment(self, tmp_path, monkeypatch):
        from test_datasets import write_tiny_mnist

        data_dir = tmp_path / "mnist"
        data_dir.mkdir()
        write_tiny_mnist(data_dir)
        monkeypatch.setenv("LLPF_DATA_DIR", str(data_dir))
        cfg = write_cfg(
            tmp_path,
            """
[model]
name = lenet-micro

[dataset]
name = mnist-subset
per_class = 2

[modes]
seeds = 1
lr = 0.05
max_rounds = 5

[output]
dir = out
""",
        )
        assert main(["train-modes", "--config", str(cfg)]) == 0
        assert (tmp_path / "out" / "mode_1.ckpt").is_file()


class TestRecordRoundTrip:
    def test_write_read_preserves_metrics_and_params(self, modes_dir, tmp_path):
        import numpy as np

        from llpf.harness_cli.records import read_path_record, write_path_record
        from llpf.llpf_core import (PhasePlan, Phase, SearchSettings, StepParams,
                                    llpf_m2m)
        from llpf.nn_engine import StopRule, TrainerConfig
        from llpf.harness_cli.datasets import gen_blobs

        g = mlp2(10, 8, 3)
        a = load_checkpoint(g, modes_dir / "out" / "mode_1.ckpt")
        b = load_checkpoint(g, modes_dir / "out" / "mode_2.ckpt")
        train, test = gen_blobs(3, 10, 600, seed=11)
        plan = PhasePlan(
            (Phase(tuple(g.slice_names()), 8, StepParams(step_f=1e-3), StopRule(0.0, 1, 10)),)
        )
        record = llpf_m2m(
            a, b, plan, TrainerConfig(lr=1e-3, batch_size=16), train, test,
            settings=SearchSettings(seed=1, checkpoint_stride=4,
                                    mode_acceptance_loss=0.2,
                                    variance_ratio_bound=4.0),
            graph=g,
        )
        out = tmp_path / "rec"
        write_path_record(out, record, g)
        loaded = read_path_record(out, g)
        assert len(loaded.points) == len(record.points)
        assert loaded.endpoints == record.endpoints
        header, _ = read_csv(out / "metrics.csv")
        assert header == [
            "iteration", "phase", "rolling_train_loss",
            "dist:fc1.bias", "dist:fc1.weight", "dist:fc2.bias", "dist:fc2.weight",
            "test_loss", "test_acc", "train_exhausted",
        ]
        for original, restored in zip(record.points, loaded.points):
            assert restored.iteration == original.iteration
            assert restored.rolling_train_loss == original.rolling_train_loss
            assert restored.per_layer_dist == original.per_layer_dist
            if original.params is None:
                assert restored.params is None
            else:
                assert np.array_equal(
                    restored.params.data,
                    original.params.data.astype(np.float32),
                )

    def test_train_exhausted_round_trip(self, tmp_path):
        from llpf.harness_cli.records import write_path_record
        from llpf.harness_cli.reports import emit_csv
        from llpf.llpf_core import PathPoint, PathRecord

        g = mlp2(10, 8, 3)
        flags = [False, True, True, False]
        record = PathRecord(points=[
            PathPoint(iteration=i, phase=0, rolling_train_loss=0.1 * i,
                      per_layer_dist={"fc1.weight": 1.0 - 0.1 * i}, train_exhausted=flag)
            for i, flag in enumerate(flags)
        ])
        out = tmp_path / "rec"
        write_path_record(out, record, g)
        header, rows = read_csv(out / "metrics.csv")
        assert header[-1] == "train_exhausted"
        assert [row["train_exhausted"] for row in rows] == [0, 1, 1, 0]
        assert [p.train_exhausted for p in read_path_record(out, g).points] == flags

        # a record written before the column existed reads back as not exhausted
        legacy = [name for name in header if name != "train_exhausted"]
        emit_csv(legacy, rows, out / "metrics.csv")
        assert [p.train_exhausted for p in read_path_record(out, g).points] == [False] * 4


    def test_batch_norm_chain_records_every_slice(self, tmp_path):
        """Stage 1 of the chain freezes resnet-micro's normalization slices
        and stage 2 moves them; every row of the record carries all 20
        distance columns, and the frozen ones read 0.0 in stage 1."""
        from llpf.harness_cli.records import write_path_record
        from llpf.llpf_core import (CrossVarianceConfig, M2OConfig, Phase, PhasePlan,
                                    SearchSettings, StepParams, connect_cross_variance)
        from llpf.nn_engine import Dataset, StopRule, TrainerConfig, resnet_micro

        g = resnet_micro(1, 8, 3, width=2)
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(64, 1, 8, 8)).astype(np.float32),
                       rng.integers(0, 3, size=64), "train", 3)
        init = init_params(g, 0)
        # perturbed, so that every slice the origin walk moves has variance
        start = ParamVector(
            init.data + rng.normal(0, 0.05, init.size).astype(np.float32), init.layout
        )
        dest = ParamVector(start.data * 0.9, start.layout)
        stop = StopRule(0.0, 2, 10)
        cross = CrossVarianceConfig(
            m2o=M2OConfig(3, StepParams(step_a=0.1), stop, eta_base=1e-3, batch_size=16),
            m2m_plan=PhasePlan((Phase(g.slice_names(), 2, StepParams(step_f=1e-3), stop),)),
        )
        record = connect_cross_variance(
            start, dest, cross, TrainerConfig(lr=1e-3, batch_size=16), data, graph=g,
            settings=SearchSettings(mode_acceptance_loss=0.0, checkpoint_stride=1),
        )
        write_path_record(tmp_path / "rec", record, g)
        header, rows = read_csv(tmp_path / "rec" / "metrics.csv")
        names = sorted(g.slice_names())
        assert len(names) == 20
        assert [c for c in header if c.startswith("dist:")] == [f"dist:{n}" for n in names]
        assert all(p.per_layer_dist.keys() == set(names) for p in record.points)
        boundary = record.stage_boundary
        assert 0 < boundary < len(rows) - 1
        norm = [i.name for i in g.layout if i.kind in ("norm_scale", "norm_shift")]
        for row in rows[: boundary + 1]:
            assert all(row[f"dist:{n}"] == 0.0 for n in norm)


class TestResnetMicroEndToEnd:
    """A batch-norm model through train-modes, connect-m2m on the data-flow
    plan, and continuity, on tiny MNIST files."""

    MODEL = """
[model]
name = resnet-micro
width = 2

[dataset]
name = mnist
dir = mnist
"""

    def test_commands_run_and_repeat(self, tmp_path):
        import math
        import time

        from llpf.nn_engine import resnet_micro
        from test_datasets import write_tiny_mnist

        started = time.monotonic()
        (tmp_path / "mnist").mkdir()
        write_tiny_mnist(tmp_path / "mnist")
        modes_cfg = write_cfg(
            tmp_path,
            self.MODEL
            + """
[modes]
seeds = 1, 2
lr = 0.05
momentum = 0.9
batch_size = 8
max_rounds = 20

[output]
dir = modes
""",
            "modes.cfg",
        )
        assert main(["train-modes", "--config", str(modes_cfg)]) == 0

        def connect(out_name):
            cfg = write_cfg(
                tmp_path,
                self.MODEL
                + f"""
[m2m]
start = modes/mode_1.ckpt
dest = modes/mode_2.ckpt
phases = fdf
iterations = 2
step_a = 0.2
lr = 1e-2
batch_size = 8
train_rounds = 1
mode_acceptance_loss = 10
variance_ratio_bound = 100

[output]
dir = {out_name}
seed = 3
checkpoint_stride = 4
""",
                f"{out_name}.cfg",
            )
            assert main(["connect-m2m", "--config", str(cfg)]) == 0
            return tmp_path / out_name

        first = connect("path_a")
        g = resnet_micro(width=2)
        record = read_path_record(first, g)
        assert len(record.points) == 13  # six fdf phases of two iterations, plus the start
        for p in record.points:  # test metrics exactly where params are kept
            assert math.isfinite(p.test_loss) if p.params is not None else math.isnan(p.test_loss)

        cont_cfg = write_cfg(
            tmp_path,
            self.MODEL + "\n[continuity]\nrecord_dir = path_a\nsamples = 3\n\n[output]\ndir = cont\n",
            "cont.cfg",
        )
        assert main(["continuity", "--config", str(cont_cfg)]) == 0
        manifest = (tmp_path / "cont" / "manifest.txt").read_text().splitlines()
        max_line = next(line for line in manifest if line.startswith("global_max_loss = "))
        assert math.isfinite(float(max_line.split(" = ", 1)[1]))

        second = connect("path_b")
        files = sorted(p.relative_to(first) for p in (first / "points").iterdir())
        assert len(files) == 4  # iterations 0, 4, 8 and 12
        for name in [Path("metrics.csv")] + files:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert time.monotonic() - started < 10.0
