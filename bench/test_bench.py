"""Tests of the benchmark itself, at smoke sizes and with no timing gates.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def bench(*args, cwd=ROOT):
    """Run the benchmark as the contract runs it: bench/run.py from the root."""
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def catalogue_names(kind):
    return [m["name"] for m in json.loads((BENCH / "metrics.json").read_text())[kind] if m["gated"]]


def test_benchmark_json_lists_the_gated_metrics_and_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cat = json.loads((BENCH / "metrics.json").read_text())
    for kind, keys in (("end_to_end", ("name", "unit", "better", "bound")), ("per_layer", ("name", "unit", "better"))):
        assert spec[kind] == [{k: m[k] for k in keys} for m in cat[kind] if m["gated"]]
    for m in cat["per_layer"]:
        assert m["moves"], m["name"]
    from workloads import WORKLOADS

    for w in spec["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_is_correct_and_repeats_byte_for_byte(workload):
    results = ROOT / ".bench_out" / "results" / f"{workload}-seed3-trace0.json"
    digests = []
    for _ in range(2):
        proc, out = bench("--workload", workload, "--seed", "3", "--seconds", "0", "--smoke")
        assert proc.returncode == 0, proc.stderr[-3000:]
        line = json.loads(out[-1])
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 7
        assert list(line["metrics"]) == catalogue_names("end_to_end")
        assert all(m["value"] > 0 for m in line["metrics"].values())
        result = json.loads(results.read_text())
        digests.append((result["digests"], result["continuity_digest"], result["mode_digest"]))
    assert digests[0] == digests[1]


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc, out = bench("--workload", "avs_mlp2", "--seed", "3", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr[-3000:]
    line = json.loads(out[-1])
    assert line["correct"]
    assert list(line["metrics"]) == catalogue_names("per_layer")
    result = json.loads((ROOT / ".bench_out" / "results" / "avs_mlp2-seed3-trace1.json").read_text())
    every = {m["name"] for m in json.loads((BENCH / "metrics.json").read_text())["per_layer"]}
    assert every <= set(result["per_layer"])
    acc = result["accounting"]
    accounted = sum(v for k, v in acc.items() if k.startswith("llpf_core."))
    assert accounted + acc["residual_ms"] == pytest.approx(acc["connect_wall_ms"])
    assert result["per_layer"]["llpf_core.angle_conformal.ms_per_iter"] > 0
    assert {row["model"] for row in result["kernels"]} == {"mlp2", "lenet-micro", "resnet-micro"}


def test_failed_command_counts_once():
    run.import_llpf()
    log = ROOT / ".bench_out" / "test-session.log"
    log.parent.mkdir(parents=True, exist_ok=True)
    session = run.Session(log)
    cmd = session.cli("connect-m2m", "--config", str(ROOT / ".bench_out" / "no-such.cfg"))
    session.check(cmd, lambda: open(ROOT / ".bench_out" / "no-such.csv").read())
    assert len(session.commands) == 1 and len(session.failed) == 1
    assert cmd["problems"][0] == "exit code 1"


def test_fails_without_the_program_sources():
    stripped = ROOT / ".bench_out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    shutil.copytree(BENCH, stripped / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", stripped)
    try:
        proc, out = bench("--workload", "m2m_mlp2", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=stripped)
    finally:
        shutil.rmtree(stripped)
    assert proc.returncode != 0
    assert not any(text.startswith("{") for text in out)
