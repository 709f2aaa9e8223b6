"""The sphere geometry gives the same bits at one and at two BLAS threads.

A BLAS ``ddot`` splits a long vector across threads, and the split can change
the last bit of a sum of squares.  Each run is a fresh interpreter, because
OpenBLAS reads its thread count once, at import.  The slices are normal
vectors of 12544 values (lenet-micro's ``fc1.weight``) and of 20000 values,
drawn from ``default_rng(4)`` and ``default_rng(5)``: on OpenBLAS 0.3.31
(Haswell kernels) each one's ``x @ x`` differs in its last bit between one
and two threads.  Whether a vector's does depends on its values.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import hashlib
import numpy as np
from llpf.llpf_core import StepParams, move_toward
from llpf.param_space import ParamVector, SliceInfo, arc_length, l2_distance

layout = [SliceInfo("fc1.weight", 0, 12544, "weight"), SliceInfo("fc2.weight", 12544, 20000, "weight")]
names = [s.name for s in layout]
x = np.concatenate([np.random.default_rng(4).normal(size=12544), np.random.default_rng(5).normal(size=20000)])
y = np.random.default_rng(0).normal(size=x.size)
origin = ParamVector(np.zeros(x.size), layout)
print({k: v.hex() for k, v in l2_distance(x, origin, names).items()})
current = x.copy()
move_toward(current, origin, None, StepParams(step_a=0.1, step_f=1.0), names)
print(hashlib.sha256(current.tobytes()).hexdigest())
spans = origin.layout.spans
print({name: arc_length(x[spans[name]], y[spans[name]]).hex() for name in names})
"""


def run_at(threads: int) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_distances_steps_and_arcs_match_at_one_and_two_threads():
    one = run_at(1)
    assert one.count("\n") == 3
    assert run_at(2) == one
