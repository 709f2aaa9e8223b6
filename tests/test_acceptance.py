"""End-to-end acceptance checks for the whole pipeline.

Each test prints one pass line with its headline numbers.  The desk-scale
experiment behind the path tests: three well-separated Gaussian blob classes
in 20 dimensions, a two-layer relu classifier, and modes trained to
equilibrium under light weight decay so independently seeded runs land on
nearby per-layer variance spheres with plenty of room above the minimal
low-loss radius.
"""

import time

import numpy as np
import pytest

from llpf.analysis import interpolation_continuity, rolling_average, seed_variance_study
from llpf.harness_cli.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from llpf.harness_cli.cli import main as cli_main
from llpf.harness_cli.datasets import gen_blobs
from llpf.harness_cli.reports import emit_csv, read_csv
from llpf.llpf_core import (
    CrossVarianceConfig,
    M2OConfig,
    Phase,
    PhasePlan,
    SearchSettings,
    StepParams,
    angle_conformal,
    connect_cross_variance,
    fdf_phase_plan,
    llpf_m2m,
    llpf_m2o,
)
from llpf.nn_engine import (
    GraphNode,
    ModelGraph,
    Plan,
    StopRule,
    TrainerConfig,
    evaluate,
    init_params,
    loss_and_grad,
    mlp2,
    resnet_micro,
    train_until,
)
from llpf.param_space import (
    EPS_VAR,
    layer_stats,
    radial_norm_sq,
    variance_correction,
)

# one desk experiment shared by the path-level checks
_cache: dict = {}


def blobs_data():
    if "blobs" not in _cache:
        _cache["blobs"] = gen_blobs(3, 20, 3000, seed=7)
    return _cache["blobs"]


def desk_graph():
    if "graph" not in _cache:
        _cache["graph"] = mlp2(20, 16, 3)
    return _cache["graph"]


def desk_modes():
    """Two independently seeded modes trained to the light-decay equilibrium."""
    if "modes" not in _cache:
        train, _ = blobs_data()
        g = desk_graph()
        cfg = TrainerConfig(lr=0.1, momentum=0.9, weight_decay=1e-4, batch_size=32)
        rule = StopRule(loss_threshold=0.0, max_rounds=60000, window=10)
        modes = []
        for seed in (1, 2):
            p = init_params(g, seed).copy_data()
            train_until(Plan(g, p, np.empty_like(p)), train, cfg, rule, np.random.default_rng(seed))
            modes.append(g.wrap(p))
        _cache["modes"] = tuple(modes)
    return _cache["modes"]


def same_sphere_record():
    if "m2m_record" not in _cache:
        train, test = blobs_data()
        g = desk_graph()
        a, b = desk_modes()
        plan = PhasePlan(
            (Phase(tuple(g.slice_names()), 3000, StepParams(step_f=1e-3), StopRule(0.0, 5, 10)),)
        )
        settings = SearchSettings(seed=0, checkpoint_stride=10, mode_acceptance_loss=0.05)
        _cache["m2m_record"] = llpf_m2m(
            a, b, plan, TrainerConfig(lr=1e-3, batch_size=64), train, test,
            settings=settings, graph=g,
        )
    return _cache["m2m_record"]


def test_variance_correction_suite():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    eps = np.finfo(np.float64).eps
    for _ in range(1000):
        n = int(np.exp(rng.uniform(np.log(10), np.log(10_000))))
        mean = rng.uniform(-1.0, 1.0)
        std = rng.uniform(0.1, 2.0)
        w = rng.normal(mean, std, size=n)
        stats = layer_stats(w)
        v = stats.variance * rng.uniform(0.25, 4.0)
        out = w.copy()
        variance_correction(out, v)
        out_stats = layer_stats(out)
        assert abs(out_stats.variance - v) / max(v, EPS_VAR) <= 1e-10
        assert abs(out_stats.mean - stats.mean) <= 8 * eps * (1 + abs(stats.mean))
        again = out.copy()
        variance_correction(again, v)
        assert np.allclose(again, out, rtol=1e-12, atol=1e-12 * std)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\n[PASS] variance-correction suite: 1000 layers, {elapsed:.1f}s")


def test_distance_variance_proportionality():
    started = time.monotonic()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1000, 20_000))
        std = rng.uniform(0.05, 3.0)
        mean = rng.uniform(-0.01, 0.01) * std
        w = rng.normal(mean, std, size=n)
        # enforce the small-mean regime the law assumes
        s = layer_stats(w)
        if abs(s.mean) > 0.01 * np.sqrt(s.variance):
            w = w - s.mean + 0.009 * np.sqrt(s.variance)
            s = layer_stats(w)
        norm_sq = radial_norm_sq(w)
        rel = abs(norm_sq - s.n * s.variance) / norm_sq
        worst = max(worst, rel)
        assert rel < 0.01
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    print(f"\n[PASS] radial-norm vs variance law: worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_gradient_correctness():
    started = time.monotonic()

    def check(graph, seed=0, batch=3, h=1e-5, jitter=0.05):
        rng = np.random.default_rng(seed)
        params = init_params(graph, seed, np.float64)
        data = params.copy_data()
        data += rng.normal(0, jitter, data.shape)
        params = graph.wrap(data)
        x = rng.normal(size=(batch,) + graph.input_shape)
        y = rng.integers(0, graph.shapes[graph.sink][0], size=batch)
        _, grad = loss_and_grad(graph, params, x, y)
        base = params.copy_data()
        worst = 0.0
        for i in range(len(base)):
            plus, minus = base.copy(), base.copy()
            plus[i] += h
            minus[i] -= h
            lp, _ = loss_and_grad(graph, graph.wrap(plus), x, y)
            lm, _ = loss_and_grad(graph, graph.wrap(minus), x, y)
            fd = (lp - lm) / (2 * h)
            worst = max(worst, abs(grad.data[i] - fd) / (abs(grad.data[i]) + 1e-8))
        return worst

    cases = {
        "dense+cross-entropy": mlp2(5, 4, 3),
        "conv2d strided": ModelGraph(
            [
                GraphNode("c", "conv2d", (), {"out_channels": 3, "kernel": 3, "stride": 2, "pad": 1}),
                GraphNode("r", "relu", ("c",)),
                GraphNode("f", "flatten", ("r",)),
                GraphNode("d", "dense", ("f",), {"out": 3}),
            ],
            (2, 7, 7),
        ),
        "batch_norm train mode": ModelGraph(
            [
                GraphNode("c", "conv2d", (), {"out_channels": 3, "kernel": 3, "pad": 1}),
                GraphNode("r", "relu", ("c",)),
                GraphNode("b", "batch_norm", ("r",)),
                GraphNode("f", "flatten", ("b",)),
                GraphNode("d", "dense", ("f",), {"out": 3}),
            ],
            (2, 6, 6),
        ),
        "pooling": ModelGraph(
            [
                GraphNode("c", "conv2d", (), {"out_channels": 2, "kernel": 3, "pad": 1}),
                GraphNode("m", "max_pool", ("c",), {"kernel": 2}),
                GraphNode("a", "avg_pool", ("m",), {"kernel": 2}),
                GraphNode("f", "flatten", ("a",)),
                GraphNode("d", "dense", ("f",), {"out": 3}),
            ],
            (1, 8, 8),
        ),
        "residual_add": ModelGraph(
            [
                GraphNode("c1", "conv2d", (), {"out_channels": 2, "kernel": 3, "pad": 1}),
                GraphNode("c2", "conv2d", ("c1",), {"out_channels": 2, "kernel": 3, "pad": 1}),
                GraphNode("add", "residual_add", ("c1", "c2")),
                GraphNode("f", "flatten", ("add",)),
                GraphNode("d", "dense", ("f",), {"out": 3}),
            ],
            (2, 6, 6),
        ),
    }
    worst_by_case = {}
    for label, graph in cases.items():
        batch = 4 if label == "batch_norm train mode" else 3
        worst_by_case[label] = check(graph, batch=batch)
        assert worst_by_case[label] < 1e-4, (label, worst_by_case[label])
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    summary = ", ".join(f"{k} {v:.1e}" for k, v in worst_by_case.items())
    print(f"\n[PASS] gradients vs central differences: {summary}, {elapsed:.1f}s")


def test_trained_mode_statistics():
    started = time.monotonic()
    train, _ = blobs_data()
    g = desk_graph()
    cfg = TrainerConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, batch_size=32)
    table = seed_variance_study(
        g, cfg, list(range(10)), train,
        rule=StopRule(loss_threshold=0.0, max_rounds=20000, window=10),
        acceptance_loss=0.05,
    )
    assert not table.failed_seeds
    for name, stats in table.summary.items():
        assert stats["variance_cov"] < 0.25, (name, stats)
        assert stats["max_abs_mean_over_std"] < 0.1, (name, stats)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    worst_cov = max(s["variance_cov"] for s in table.summary.values())
    worst_mean = max(s["max_abs_mean_over_std"] for s in table.summary.values())
    print(
        f"\n[PASS] 10-seed mode statistics: worst variance CoV {worst_cov:.3f}, "
        f"worst |mean|/std {worst_mean:.3f}, {elapsed:.0f}s"
    )


def test_same_sphere_path():
    started = time.monotonic()
    train, test = blobs_data()
    g = desk_graph()
    a, b = desk_modes()
    for mode in (a, b):
        loss, _ = evaluate(g, mode, train)
        assert loss < 0.05
    record = same_sphere_record()
    assert len(record.points) == 3001

    rolled = rolling_average([p.rolling_train_loss for p in record.points], 10)
    assert max(rolled) <= 0.1

    first, last = record.points[0], record.points[-1]
    for name in g.slice_names():
        initial = first.per_layer_dist[name]
        assert last.per_layer_dist[name] <= 0.05 * initial, (name, initial)

    _, acc_a = evaluate(g, a, test, accuracy=True)
    _, acc_b = evaluate(g, b, test, accuracy=True)
    assert abs(last.test_acc - acc_a) <= 0.02
    assert abs(last.test_acc - acc_b) <= 0.02

    # approach is monotone over 100-iteration windows: 10% relative slack for
    # training noise plus an absolute floor once a layer has fully converged
    for name in g.slice_names():
        windowed = rolling_average([p.per_layer_dist[name] for p in record.points], 100)
        for earlier, later in zip(windowed, windowed[100:]):
            assert later <= earlier * 1.1 + 1e-6, name
    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    worst_ratio = max(
        last.per_layer_dist[n] / max(first.per_layer_dist[n], 1e-12)
        for n in g.slice_names()
    )
    print(
        f"\n[PASS] same-sphere path: max rolled loss {max(rolled):.4f}, "
        f"worst final/initial distance {worst_ratio:.4f}, "
        f"final test acc {last.test_acc:.4f}, {elapsed:.0f}s"
    )


def test_path_continuity():
    started = time.monotonic()
    train, _ = blobs_data()
    g = desk_graph()
    record = same_sphere_record()
    report = interpolation_continuity(
        {p.iteration: p.params for p in record.stored_points()}, 50, g, train
    )
    assert report.samples == 50
    assert len(report.segment_bounds) == len(record.stored_points()) - 1
    pointwise_max = max(p.rolling_train_loss for p in record.points)
    assert report.global_max_loss <= pointwise_max + 0.05
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(
        f"\n[PASS] segment continuity: {len(report.segment_bounds)} segments x 50, "
        f"global max {report.global_max_loss:.4f} vs pointwise {pointwise_max:.4f}, {elapsed:.0f}s"
    )


def test_origin_collapse():
    started = time.monotonic()
    train, test = blobs_data()
    g = desk_graph()
    a, _ = desk_modes()
    cfg = M2OConfig(
        iterations=900,
        step=StepParams(step_a=1e-3),
        stop=StopRule(loss_threshold=0.09, max_rounds=600, window=5),
        eta_base=2.5e-4,
        batch_size=64,
    )
    settings = SearchSettings(seed=0, checkpoint_stride=10, mode_acceptance_loss=0.05)
    record = llpf_m2o(a, cfg, train, test, settings=settings, graph=g)

    totals = [np.sqrt(sum(v * v for v in p.per_layer_dist.values())) for p in record.points]
    reach = next((i for i, v in enumerate(totals) if totals[0] / v >= 2.0), None)
    assert reach is not None, "total radial shrinkage never reached 2x"

    upto = record.points[: reach + 1]
    rolled = rolling_average([p.rolling_train_loss for p in upto], 10)
    assert max(rolled) <= 0.1

    for name in upto[0].per_layer_dist:
        series = rolling_average([p.per_layer_dist[name] for p in upto], 10)
        for earlier, later in zip(series, series[1:]):
            assert later <= earlier * 1.01, name

    norm_slices = [s.name for s in g.layout if s.kind in ("norm_scale", "norm_shift")]
    assert not norm_slices  # the desk model is norm-free; exclusion is vacuous here
    v_base = {n: layer_stats(a.get(n)).variance for n in g.slice_names()}
    for point in record.stored_points():
        rates = angle_conformal(point.params.data, point.params.layout, v_base, cfg.eta_base)
        assert all(r <= cfg.eta_base * (1 + 1e-9) for r in rates.values())

    elapsed = time.monotonic() - started
    assert elapsed < 600.0
    print(
        f"\n[PASS] origin collapse: 2x radial shrink at iteration {reach}, "
        f"max rolled loss {max(rolled):.4f}, rates <= base, {elapsed:.0f}s"
    )


def test_cross_sphere_connection():
    started = time.monotonic()
    train, test = blobs_data()
    g = desk_graph()

    def make(seed, wd, rounds):
        p = init_params(g, seed).copy_data()
        cfg = TrainerConfig(lr=0.1, momentum=0.9, weight_decay=wd, batch_size=32)
        rule = StopRule(loss_threshold=0.0, max_rounds=rounds, window=10)
        train_until(Plan(g, p, np.empty_like(p)), train, cfg, rule, np.random.default_rng(seed))
        return g.wrap(p)

    outer = make(3, 0.0, 300)        # no decay: stays on the large init sphere
    inner = make(4, 1e-2, 1000)      # strong decay: equilibrates near the origin

    ratios = [
        layer_stats(outer.get(n)).variance / layer_stats(inner.get(n)).variance
        for n in ("fc1.weight", "fc2.weight")
    ]
    assert max(ratios) >= 1.2

    cfg = CrossVarianceConfig(
        m2o=M2OConfig(
            iterations=2500,
            step=StepParams(step_a=3e-3),
            stop=StopRule(loss_threshold=0.05, max_rounds=300, window=5),
            eta_base=3e-3,
            batch_size=64,
        ),
        m2m_plan=PhasePlan(
            (Phase(tuple(g.slice_names()), 800, StepParams(step_a=1e-3, step_f=1e-3), StopRule(0.0, 5, 10)),)
        ),
        sphere_match_rtol=1.05,
    )
    settings = SearchSettings(seed=0, checkpoint_stride=1, mode_acceptance_loss=0.1)
    record = connect_cross_variance(
        outer, inner, cfg, TrainerConfig(lr=1e-3, batch_size=64), train, test,
        settings=settings, graph=g,
    )
    assert record.stage_boundary is not None

    _, acc_outer = evaluate(g, outer, train, accuracy=True)
    _, acc_inner = evaluate(g, inner, train, accuracy=True)
    floor = 0.95 * min(acc_outer, acc_inner)
    worst = 1.0
    for point in record.points:
        assert point.params is not None
        _, acc = evaluate(g, point.params, train, accuracy=True)
        worst = min(worst, acc)
        assert acc >= floor
    elapsed = time.monotonic() - started
    assert elapsed < 900.0
    print(
        f"\n[PASS] cross-sphere connection: variance ratio {max(ratios):.0f}, "
        f"{len(record.points)} points (hand-off at {record.stage_boundary}), "
        f"min train acc {worst:.4f} >= {floor:.4f}, {elapsed:.0f}s"
    )


def test_data_flow_plan():
    started = time.monotonic()
    g = resnet_micro(1, 8, 3, width=2)
    step = StepParams(step_a=1e-3)
    stop = StopRule(loss_threshold=0.05, max_rounds=5, window=5)
    plan = fdf_phase_plan(g, 100, step, stop)
    again = fdf_phase_plan(g, 100, step, stop)
    assert plan == again

    previous: set = set()
    added_blocks = []
    for phase in plan.phases[:-1]:
        added = set(phase.active_layers) - previous
        added_blocks.append({name.rsplit(".", 1)[0] for name in added})
        previous = set(phase.active_layers)
    assert added_blocks == [
        {"stem.conv", "stem.bn"},
        {"block1.conv_a", "block1.bn_a", "block1.conv_b", "block1.bn_b"},
        {"block2.conv_a", "block2.bn_a", "block2.conv_b", "block2.bn_b"},
        {"block2.skip_conv", "block2.skip_bn"},
        {"head.fc"},
    ]
    assert set(plan.phases[-1].active_layers) == set(g.slice_names())
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"\n[PASS] data-flow plan: {len(plan.phases)} cumulative phases, {elapsed:.2f}s")


def test_determinism_and_round_trips(tmp_path):
    started = time.monotonic()
    g = desk_graph()

    # checkpoint round trip, corruption, and wrong-model rejection
    params = init_params(g, 5)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(params, g, ckpt)
    assert np.array_equal(load_checkpoint(g, ckpt).data, params.data)
    blob = bytearray(ckpt.read_bytes())
    blob[-12] ^= 0x01
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_checkpoint(g, bad)
    with pytest.raises(CheckpointError):
        load_checkpoint(mlp2(20, 16, 4), ckpt)

    # CSV round trip is byte-exact
    rows = [{"iteration": i, "value": float(np.sin(i))} for i in range(50)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(["iteration", "value"], rows, p1)
    header, parsed = read_csv(p1)
    emit_csv(header, parsed, p2)
    assert p1.read_bytes() == p2.read_bytes()

    # identical configs reproduce metrics.csv byte-identically
    base = f"""
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

[modes]
seeds = 1, 2
lr = 0.1
momentum = 0.9
weight_decay = 1e-3
batch_size = 32
max_rounds = 600
"""
    train_cfg = tmp_path / "train.cfg"
    train_cfg.write_text(base + "\n[output]\ndir = modes\n")
    assert cli_main(["train-modes", "--config", str(train_cfg)]) == 0

    runs = []
    for out_name in ("run_a", "run_b"):
        cfg = tmp_path / f"{out_name}.cfg"
        cfg.write_text(
            base
            + f"""
[m2m]
start = modes/mode_1.ckpt
dest = modes/mode_2.ckpt
iterations = 50
step_f = 1e-3
lr = 1e-3
batch_size = 32
train_rounds = 3
mode_acceptance_loss = 0.2
variance_ratio_bound = 4.0

[output]
dir = {out_name}
seed = 3
"""
        )
        assert cli_main(["connect-m2m", "--config", str(cfg)]) == 0
        runs.append((tmp_path / out_name / "metrics.csv").read_bytes())
    assert runs[0] == runs[1]
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(f"\n[PASS] determinism and round trips: metrics byte-identical, {elapsed:.0f}s")
