"""The benchmark runs end to end and checks its own outputs, at smoke sizes.

Runs ``bench/run.py`` from the repository root the way the benchmark is run,
so a change that breaks a benchmark workload fails here and not only in the
benchmark itself.  Timings of smoke runs mean nothing and are not checked.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace",
    [("m2m_lenet", "0"), ("m2m_mlp2", "0"), ("avs_mlp2", "0"), ("m2m_lenet", "1")],
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
