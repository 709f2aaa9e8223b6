#!/usr/bin/env python3
"""llpf benchmark: path-search throughput on three CLI workloads.

    python3 bench/run.py --workload m2m_mlp2 --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1       # every workload, one table
    python3 bench/run.py --workload avs_mlp2 --smoke   # tiny sizes, for tests

Each workload runs the real CLI in-process (``llpf.harness_cli.cli.main``)
on inputs generated from ``--seed``, as one client that waits for each
command in turn (a closed loop).  A run sets up three times (inputs, configs,
train-modes) and reports the median set-up time, then repeats connect +
continuity cycles for ``--seconds`` and reports medians over the cycles.
With ``--trace 1`` it runs one untraced and one traced cycle instead and
reports the per-layer breakdown, the kernel table and the tracing overhead.

Every command is checked: it must exit 0, repeated commands must write
byte-identical outputs (sha256 of metrics.csv, the checkpoints under points/,
continuity.csv and the mode checkpoints), and m2m_mlp2 must meet the
acceptance bounds.  The last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Working files go to
``.bench_out/`` and are removed at exit; the full result, and with
``--trace 1`` every span, stay in ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUPS = 3
MIN_CYCLES = 2  # the second cycle checks that outputs repeat byte for byte
BLAS_THREADS = 1  # at or below nproc; one thread keeps BLAS sums in a fixed order
# BENCHMARK.json gates m2m_lenet and m2m_mlp2 only: avs_mlp2 measured the
# least steady on a shared 2-vCPU VM (10-seed spreads up to 0.29), so it is
# run and reported here but not held to a bound.
WORKLOAD_NAMES = ("m2m_lenet", "m2m_mlp2", "avs_mlp2")


def limit_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_llpf() -> None:
    """llpf from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import llpf
    except ImportError as exc:
        sys.exit(f"bench: cannot import llpf from {src}: {exc}")
    if Path(llpf.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"bench: llpf was imported from {llpf.__file__}, not from {src}")


def machine_facts() -> dict:
    import numpy as np
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "unknown",
        "blas_threads": BLAS_THREADS,
        "cgroup_cpu_limit": "none found",
    }
    try:
        with open("/proc/cpuinfo") as f:
            facts["cpu_model"] = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        pass
    cgroup = Path("/sys/fs/cgroup")
    try:
        if (cgroup / "cpu.max").exists():
            facts["cgroup_cpu_limit"] = "cpu.max " + (cgroup / "cpu.max").read_text().strip()
        elif (cgroup / "cpu" / "cpu.cfs_quota_us").exists():
            quota = (cgroup / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (cgroup / "cpu" / "cpu.cfs_period_us").read_text().strip()
            facts["cgroup_cpu_limit"] = f"cfs_quota_us {quota} / cfs_period_us {period}"
    except OSError:
        pass
    return facts


class Session:
    """Runs CLI commands in-process and keeps the ledger of what failed.

    A command fails when it exits non-zero or when a check of its outputs
    finds a problem; it counts once either way."""

    def __init__(self, log_path: Path):
        self.log_path = log_path
        self.commands: list[dict] = []

    def cli(self, *argv, tracer=None) -> dict:
        from llpf.harness_cli.cli import main

        cmd = {"argv": [str(a) for a in argv], "problems": []}
        call = main if tracer is None else (lambda a: tracer.run(f"command.{argv[0]}", main, a))
        with open(self.log_path, "a") as log, redirect_stdout(log):
            start = time.perf_counter()
            code = call(cmd["argv"])
            cmd["wall_s"] = time.perf_counter() - start
        if code != 0:
            cmd["problems"].append(f"exit code {code}")
        self.commands.append(cmd)
        return cmd

    @staticmethod
    def check(cmd: dict, fn, *args):
        """Run one output check; a missing or malformed output is a problem."""
        try:
            result = fn(*args)
        except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            cmd["problems"].append(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return None
        return result

    @property
    def failed(self) -> list[dict]:
        return [c for c in self.commands if c["problems"]]


def setup(wl, d: Path, seed: int, smoke: bool, session: Session) -> float:
    shutil.rmtree(d, ignore_errors=True)
    start = time.perf_counter()
    wl.write_inputs(d, seed, smoke)
    for cfg in wl.mode_configs:
        cmd = session.cli("train-modes", "--config", d / cfg)
    session.check(cmd, wl.after_modes, d, seed, smoke)
    return time.perf_counter() - start


def cycle(wl, d: Path, session: Session, tracer=None) -> dict:
    """One connect command and one continuity command on its record."""
    from workloads import quality, read_rows, record_digests, digest_files

    record, cont = d / "path", d / "continuity"
    for sub in (record, cont):
        shutil.rmtree(sub, ignore_errors=True)
    connect = session.cli(wl.connect, "--config", d / "path.cfg", "--out", record, tracer=tracer)
    continuity = session.cli("continuity", "--config", d / "continuity.cfg", tracer=tracer)

    rows = session.check(connect, read_rows, record / "metrics.csv")
    if rows is not None:
        connect["iterations"] = len(rows) - 1
        connect["rate"] = connect["iterations"] / connect["wall_s"]
    connect["digests"] = session.check(connect, record_digests, record)
    connect["quality"] = session.check(connect, quality, record)
    connect["record_bytes"] = sum(p.stat().st_size for p in record.rglob("*") if p.is_file())
    for problem in session.check(connect, wl.check_record, record) or []:
        connect["problems"].append(problem)

    blends = session.check(continuity, read_rows, cont / "continuity.csv")
    if blends is not None:
        continuity["blends"] = len(blends)
        continuity["rate"] = len(blends) / continuity["wall_s"]
    continuity["digest"] = session.check(continuity, lambda: digest_files([cont / "continuity.csv"]))
    for problem in session.check(continuity, wl.check_continuity, record, cont) or []:
        continuity["problems"].append(problem)
    return {"connect": connect, "continuity": continuity}


def require_repeat(cmd: dict, key: str, reference: dict) -> None:
    if cmd.get(key) != reference.get(key):
        cmd["problems"].append(f"{key} differs from the first run of this command: "
                               f"{cmd.get(key)} != {reference.get(key)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    from workloads import WORKLOADS, mode_digest

    wl = WORKLOADS[name]
    work = OUT / "work" / f"{name}-seed{seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    session = Session(work / "cli.log")
    try:
        setup_times, mode_digests = [], []
        for k in range(SETUPS):
            d = work / f"setup{k}"
            setup_times.append(setup(wl, d, seed, smoke, session))
            mode_digests.append(mode_digest(d / "modes"))
            if mode_digests[-1] != mode_digests[0]:
                session.commands[-1]["problems"].append("mode checkpoints differ between set-ups")
        d = work / f"setup{SETUPS - 1}"

        result = {"workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
                  "setup_s_each": setup_times, "mode_digest": mode_digests[0]}
        if trace:
            result.update(traced_run(wl, d, seed, session))
        else:
            cycles, lengths = [], []
            start = time.perf_counter()
            while True:
                cycles.append(cycle(wl, d, session))
                lengths.append(time.perf_counter() - start - sum(lengths))
                if session.failed:
                    break  # a failed command leaves nothing to time
                # stop before a cycle that would run past --seconds
                if len(cycles) >= MIN_CYCLES and sum(lengths) + statistics.median(lengths) > seconds:
                    break
            result.update(summarize(cycles, setup_times))
        first = result["cycles"][0]
        for c in result["cycles"][1:]:
            require_repeat(c["connect"], "digests", first["connect"])
            require_repeat(c["continuity"], "digest", first["continuity"])
        result["attempted"] = len(session.commands)
        result["failed"] = len(session.failed)
        result["failures"] = [{"argv": c["argv"], "problems": c["problems"]} for c in session.failed]
        result["end_to_end"]["failed_ops_frac"] = result["failed"] / result["attempted"]
        if session.failed:
            print((work / "cli.log").read_text()[-4000:], file=sys.stderr)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def summarize(cycles: list[dict], setup_times: list[float]) -> dict:
    connect = [c["connect"] for c in cycles]
    quality = connect[0].get("quality") or {}
    return {
        "cycles": cycles,
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "path_iter_per_s": _median([c.get("rate") for c in connect]),
            "continuity_blend_per_s": _median([c["continuity"].get("rate") for c in cycles]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **quality,
        },
        "path_iter_per_s_each": [c.get("rate") for c in connect],
        "continuity_blend_per_s_each": [c["continuity"].get("rate") for c in cycles],
        "digests": connect[0].get("digests"),
        "continuity_digest": cycles[0]["continuity"].get("digest"),
    }


def traced_run(wl, d: Path, seed: int, session: Session) -> dict:
    from kernels import kernel_metrics, kernel_table
    from tracing import STAGES, Tracer, per_layer_metrics

    base = cycle(wl, d, session)
    tracer = Tracer()
    with tracer.installed():
        traced = cycle(wl, d, session, tracer)
    untraced_s = base["connect"]["wall_s"] + base["continuity"]["wall_s"]
    traced_s = traced["connect"]["wall_s"] + traced["continuity"]["wall_s"]

    connect_root = f"command.{wl.connect}"
    iterations = traced["connect"].get("iterations") or 0
    metrics = per_layer_metrics(tracer, connect_root, "command.continuity", iterations)
    metrics["harness_cli.record_bytes"] = traced["connect"]["record_bytes"]
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    kernels = kernel_table()
    metrics.update(kernel_metrics(kernels))

    spans = tracer.aggregate(connect_root)
    accounting = {"connect_wall_ms": spans[connect_root]["total_ns"] / 1e6}
    for stage in STAGES:
        accounting[f"llpf_core.{stage}_ms"] = spans[f"llpf_core.{stage}"]["total_ns"] / 1e6
    accounting["llpf_core.self_ms"] = spans["llpf_core.driver"]["self_ns"] / 1e6
    accounting["residual_ms"] = metrics["harness_cli.connect_residual.ms"]
    accounting["untraced_cycle_s"] = untraced_s
    accounting["traced_cycle_s"] = traced_s
    spans_path = OUT / "results" / f"spans-{wl.name}-seed{seed}.csv"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    return {
        "cycles": [base, traced],
        "end_to_end": {},
        "per_layer": metrics,
        "kernels": kernels,
        "accounting": accounting,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "span_count": len(tracer.spans),
    }


# -- output --------------------------------------------------------------------


def catalogue() -> dict:
    return json.loads((BENCH / "metrics.json").read_text())


def report(result: dict, machine: dict) -> list[str]:
    cat = catalogue()
    units = {m["name"]: m["unit"] for m in cat["end_to_end"] + cat["per_layer"]}
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}"
        f"{'  (smoke sizes)' if result['smoke'] else ''}",
        "machine  " + "  ".join(f"{k}={v}" for k, v in machine.items()),
        f"commands {result['attempted']} attempted, {result['failed']} failed",
    ]
    for failure in result["failures"]:
        lines.append(f"  FAILED {' '.join(failure['argv'])}: {'; '.join(failure['problems'])}")
    if result["trace"]:
        acc = result["accounting"]
        stages = {k[:-3]: v for k, v in acc.items() if k.startswith("llpf_core.")}
        accounted = sum(stages.values())
        lines.append(
            f"connect wall {acc['connect_wall_ms']:.1f} ms = llpf_core stages + llpf_core.self "
            f"{accounted:.1f} ms + residual {acc['residual_ms']:.1f} ms "
            f"({acc['residual_ms'] / acc['connect_wall_ms']:.1%}: config, data, checkpoint load, record write)")
        lines.append("  " + "  ".join(f"{k} {v:.1f} ms" for k, v in stages.items()))
        lines.append(f"tracing overhead {acc['traced_cycle_s'] - acc['untraced_cycle_s']:+.3f} s on a "
                     f"{acc['untraced_cycle_s']:.3f} s untraced cycle; {result['span_count']} spans "
                     f"in {result['spans_file']}")
        moves = {m["name"]: m["moves"] for m in cat["per_layer"]}
        for key, value in result["per_layer"].items():
            lines.append(f"  {key:<52} {value:>14.4f} {units.get(key, ''):<6} -> {moves.get(key, '')}")
        lines.append("kernel table (batch 64; ops and bytes are computed from shapes, not measured)")
        for row in result["kernels"]:
            lines.append(f"  {row['model']:<13} {row['fn']:<22} {row['us']:>10.1f} us "
                         f"{row['ops']:>12d} ops {row['bytes']:>11d} B  {row['shapes']}")
    else:
        lines.append(f"digests  metrics.csv {result['digests'] and result['digests']['metrics.csv']}  "
                     f"points {result['digests'] and result['digests']['points']}  "
                     f"continuity.csv {result['continuity_digest']}  modes {result['mode_digest']}")
        for key, value in result["end_to_end"].items():
            lines.append(f"  {key:<24} {'missing' if value is None else f'{value:.6g}':>12} {units[key]}")
        lines.append("  setup_s each " + " ".join(f"{v:.3f}" for v in result["setup_s_each"]) +
                     "; path_iter_per_s each " + " ".join(f"{v:.1f}" for v in result["path_iter_per_s_each"] if v) +
                     "; continuity_blend_per_s each " +
                     " ".join(f"{v:.1f}" for v in result["continuity_blend_per_s_each"] if v))
    return lines


def result_line(result: dict) -> dict:
    """The contract line: the gated metrics of BENCHMARK.json, by name."""
    cat = catalogue()
    kind, values = ("per_layer", result["per_layer"]) if result["trace"] else ("end_to_end", result["end_to_end"])
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in cat[kind] if m["gated"]}
    correct = result["failed"] == 0 and all(m["value"] is not None for m in metrics.values())
    return {"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    lines, correct, attempted, failed, metrics = [], True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode not in (0, 1) or not out:
            return proc.returncode or 1
        line = json.loads(out[-1])
        correct &= line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        for key, m in line["metrics"].items():
            metrics[f"{name}.{key}"] = m
            lines.append(f"{name:<10} {key:<52} {m['value']!s:>14} {m['unit']}")
    print("summary\n" + "\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0, help="length of the measured cycles")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes; checks only, timings mean nothing")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    limit_blas_threads()
    import_llpf()
    if args.workload == "all":
        return run_all(args)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    machine = machine_facts()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    result["machine"] = machine
    line = result_line(result)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "result": line}, indent=1, default=str))
    print("\n".join(report(result, machine)))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
