"""The benchmark runs end to end and checks its own outputs, at smoke sizes.

Runs ``bench/run.py`` from the repository root the way the benchmark is run,
so a change that breaks a benchmark workload fails here and not only in the
benchmark itself.  Timings of smoke runs mean nothing and are not checked,
but a traced run must time every stage and round step it names: a refactor
that stops calling a traced function would otherwise zero its metric.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# per-layer metrics that only read 0 when their traced function is never
# called: the walk's stages, a round's steps, the kernels every workload's
# rounds call through ``layers``, and the continuity check's blends, which
# are counted by its calls to ``analysis.evaluate``
TRACED = (
    tuple(
        f"llpf_core.{stage}.ms_per_iter"
        for stage in ("move_toward", "variance_correction", "train_until", "l2_distance")
    )
    + tuple(f"trainer.{step}.us_per_round" for step in ("sample_batch", "loss_and_grad", "sgd_step"))
    + tuple(
        f"layers.{kernel}.us_per_call"
        for kernel in ("dense_forward", "dense_backward", "softmax_cross_entropy")
    )
    + ("analysis.evaluate.us_per_blend", "analysis.interpolation_continuity.self_us_per_blend")
)


@pytest.mark.parametrize(
    "workload, trace",
    [
        ("m2m_lenet", "0"), ("m2m_mlp2", "0"), ("avs_mlp2", "0"),
        ("m2m_lenet", "1"), ("m2m_mlp2", "1"), ("avs_mlp2", "1"),
    ],
)
def test_smoke_run_exits_cleanly_and_is_correct(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--smoke",
         "--seconds", "0", "--seed", "3", "--trace", trace],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is True
    assert line["failed"] == 0
    if trace == "1":
        zero = [name for name in TRACED if not line["metrics"][name]["value"] > 0]
        assert not zero, f"traced metrics read 0: {zero}"
    if (workload, trace) == ("avs_mlp2", "1"):
        # the origin walk's repair: its rates and its rounds on the walk's array
        result = json.loads(
            (ROOT / ".bench_out" / "results" / "avs_mlp2-seed3-trace1.json").read_text()
        )
        for name in ("angle_conformal", "train_until"):
            assert result["per_layer"][f"llpf_core.{name}.ms_per_iter"] > 0, name
