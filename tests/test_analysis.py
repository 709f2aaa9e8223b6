import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from llpf import analysis
from llpf.analysis import (
    interpolation_continuity,
    path_metrics,
    rolling_average,
    seed_variance_study,
)
from llpf.llpf_core import (
    PathPoint,
    PathRecord,
    Phase,
    PhasePlan,
    SearchSettings,
    StepParams,
    llpf_m2m,
)
from llpf.nn_engine import (
    Dataset,
    Plan,
    StopRule,
    TrainerConfig,
    evaluate,
    fixed_subset,
    init_params,
    lenet_micro,
    mlp2,
    norm_rows,
    resnet_micro,
    train_until,
)
from llpf.harness_cli.datasets import gen_blobs
from llpf.nn_engine.trainer import eval_chunk_rows
from llpf.param_space import LayoutMismatch, ParamVector, l2_distance, radial_norm_sq


class TestRollingAverage:
    def test_window_one_is_identity(self):
        series = [3.0, 1.0, 4.0, 1.5]
        assert rolling_average(series, 1) == series

    def test_constant_series(self):
        assert rolling_average([2.5] * 6, 4) == [2.5] * 6

    def test_hand_case(self):
        assert rolling_average([1, 2, 3, 4], 2) == [1.0, 1.5, 2.5, 3.5]

    def test_empty_series(self):
        assert rolling_average([], 5) == []

    def test_bad_window(self):
        with pytest.raises(ValueError):
            rolling_average([1.0], 0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=60),
        st.floats(min_value=-10, max_value=10),
    )
    def test_translation_equivariance_and_bounds(self, series, window, shift):
        base = rolling_average(series, window)
        shifted = rolling_average([x + shift for x in series], window)
        assert all(abs(a + shift - b) < 1e-9 for a, b in zip(base, shifted))
        assert all(min(series) - 1e-9 <= v <= max(series) + 1e-9 for v in base)


@pytest.fixture(scope="module")
def blobs():
    return gen_blobs(3, 20, 1500, seed=9)


@pytest.fixture(scope="module")
def short_path(blobs):
    """A small same-sphere search with params stored at every point."""
    train, test = blobs
    g = mlp2(20, 16, 3)

    def make(seed):
        p = init_params(g, seed).copy_data()
        rng = np.random.default_rng(seed)
        cfg = TrainerConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, batch_size=32)
        train_until(Plan(g, p, np.empty_like(p)), train, cfg, StopRule(0.0, 3000, 10), rng)
        return g.wrap(p)

    a, b = make(1), make(2)
    plan = PhasePlan(
        (Phase(tuple(g.slice_names()), 30, StepParams(step_f=1e-3), StopRule(0.0, 2, 10)),)
    )
    settings_ = SearchSettings(
        seed=0, checkpoint_stride=1, mode_acceptance_loss=0.5, variance_ratio_bound=4.0
    )
    record = llpf_m2m(
        a, b, plan, TrainerConfig(lr=1e-3, batch_size=32), train, test,
        settings=settings_, graph=g,
    )
    return g, record, a, b


@pytest.fixture(scope="module")
def strided_path(blobs, short_path):
    """The short search again, keeping params (and test metrics) every 4th
    point."""
    train, test = blobs
    g, _, a, b = short_path
    plan = PhasePlan(
        (Phase(tuple(g.slice_names()), 30, StepParams(step_f=1e-3), StopRule(0.0, 2, 10)),)
    )
    settings_ = SearchSettings(
        seed=0, checkpoint_stride=4, mode_acceptance_loss=0.5, variance_ratio_bound=4.0
    )
    return llpf_m2m(
        a, b, plan, TrainerConfig(lr=1e-3, batch_size=32), train, test,
        settings=settings_, graph=g,
    )


@pytest.fixture(scope="module")
def bn_path():
    """A short resnet-micro search from two inits with test metrics at every
    point, and its training set."""
    rng = np.random.default_rng(3)
    train, test = (
        Dataset(
            rng.normal(size=(n, 1, 8, 8)).astype(np.float32),
            rng.integers(0, 3, size=n), split, 3,
        )
        for split, n in (("train", 96), ("test", 40))
    )
    g = resnet_micro(1, 8, 3, width=2)
    a, b = init_params(g, 1), init_params(g, 2)
    plan = PhasePlan(
        (Phase(tuple(g.slice_names()), 4, StepParams(step_a=0.2), StopRule(0.0, 2, 10)),)
    )
    settings_ = SearchSettings(
        seed=0, checkpoint_stride=1, mode_acceptance_loss=0.0, variance_ratio_bound=10.0
    )
    record = llpf_m2m(
        a, b, plan, TrainerConfig(lr=1e-2, batch_size=16), train, test,
        settings=settings_, graph=g,
    )
    return g, record, b, train, test


@pytest.fixture(scope="module")
def lenet_points():
    """Three stored lenet-micro points, a set of 28x28 noise images, and an
    eval size whose subset runs as a 74-row and a 48-row chunk, so a plan
    held across evaluations rebinds back and forth between the two."""
    g = lenet_micro()
    assert eval_chunk_rows(g, 4) == 74
    rng = np.random.default_rng(6)
    train = Dataset(
        rng.normal(size=(160, 1, 28, 28)).astype(np.float32), rng.integers(0, 10, 160), "train", 10
    )
    record = PathRecord(
        points=[
            PathPoint(i, 0, 1.0, {}, params=init_params(g, seed))
            for i, seed in enumerate((4, 5, 6))
        ]
    )
    return g, record, train, 74 + 48


def stored_params(record):
    """What ``interpolation_continuity`` takes: each stored iteration's params."""
    return {p.iteration: p.params for p in record.stored_points()}


def _naive_continuity(path, samples, graph, data, eval_size=2048):
    """Every blend evaluated, the segment ends included: the oracle the
    one-evaluation-per-stored-point check must match bit for bit."""
    subset = fixed_subset(data, eval_size)
    norm_x = norm_rows(data)
    stored = path.stored_points()
    out = []
    for a, b in zip(stored, stored[1:]):
        pa = a.params.data.astype(np.float64)
        pb = b.params.data.astype(np.float64)
        losses = []
        for alpha in np.linspace(0.0, 1.0, samples):
            blend = ((1.0 - alpha) * pa + alpha * pb).astype(a.params.dtype)
            losses.append(evaluate(graph, ParamVector(blend, a.params.layout), subset, norm_x)[0])
        out.append(losses)
    return out


class TestInterpolationContinuity:
    @pytest.fixture
    def eval_calls(self, monkeypatch):
        """The bytes of the parameters each evaluation is handed, copied at
        call time: the check rewrites one buffer between evaluations."""
        calls = []

        def spy(graph, params, data, norm_x=None, **kwargs):
            calls.append((params.data if isinstance(params, ParamVector) else params).tobytes())
            return evaluate(graph, params, data, norm_x, **kwargs)

        monkeypatch.setattr(analysis, "evaluate", spy)
        return calls

    @pytest.mark.parametrize("samples", [2, 3, 5])
    def test_each_stored_point_evaluated_once(
        self, short_path, strided_path, blobs, eval_calls, samples
    ):
        train, _ = blobs
        g = short_path[0]
        for record in (short_path[1], strided_path):
            eval_calls.clear()
            report = interpolation_continuity(
                stored_params(record), samples, g, train, eval_size=256
            )
            stored = record.stored_points()
            segments = len(stored) - 1
            assert len(report.segment_losses) == segments
            assert len(eval_calls) == len(stored) + (samples - 2) * segments
            if samples == 2:
                # only the stored points themselves, each once, in order
                assert eval_calls == [p.params.data.tobytes() for p in stored]

    @pytest.mark.parametrize("samples", [2, 4])
    def test_losses_equal_every_blend_evaluated(
        self, short_path, strided_path, lenet_points, blobs, samples
    ):
        train, _ = blobs
        g = short_path[0]
        cases = [(g, short_path[1], train, 256), (g, strided_path, train, 256), lenet_points]
        for graph, record, data, size in cases:
            report = interpolation_continuity(
                stored_params(record), samples, graph, data, eval_size=size
            )
            naive = _naive_continuity(record, samples, graph, data, eval_size=size)
            assert [[v.hex() for v in seg] for seg in report.segment_losses] == [
                [v.hex() for v in seg] for seg in naive
            ]

    def test_identical_endpoints_flat_segment(self, blobs):
        train, _ = blobs
        g = mlp2(20, 8, 3)
        params = init_params(g, 0)
        points = [
            PathPoint(0, 0, 1.0, {}, params=params),
            PathPoint(1, 0, 1.0, {}, params=params),
        ]
        record = PathRecord(points=points)
        report = interpolation_continuity(stored_params(record), 7, g, train)
        assert len(report.segment_losses) == 1
        assert len(set(report.segment_losses[0])) == 1

    def test_two_samples_are_endpoints(self, short_path, blobs):
        train, _ = blobs
        g, record, _, _ = short_path
        report = interpolation_continuity(stored_params(record), 2, g, train)
        stored = record.stored_points()
        # alpha=1 of segment k equals alpha=0 of segment k+1: same parameters
        for k in range(len(stored) - 2):
            assert report.segment_losses[k][1] == report.segment_losses[k + 1][0]

    def test_needs_two_stored_points(self, blobs):
        train, _ = blobs
        g = mlp2(20, 8, 3)
        record = PathRecord(points=[PathPoint(0, 0, 1.0, {}, params=init_params(g, 0))])
        with pytest.raises(ValueError, match="two stored"):
            interpolation_continuity(stored_params(record), 5, g, train)

    def test_points_out_of_order_or_of_two_dtypes_rejected(self, blobs):
        train, _ = blobs
        g = mlp2(20, 8, 3)
        a, b = init_params(g, 0), init_params(g, 1)
        with pytest.raises(ValueError, match="increasing"):
            interpolation_continuity({4: a, 2: b}, 3, g, train)
        # one held buffer would cast the float64 point down to float32
        with pytest.raises(ValueError, match="dtype"):
            interpolation_continuity({0: a, 1: init_params(g, 1, np.float64)}, 3, g, train)

    def test_sample_count_validated(self, short_path, blobs):
        train, _ = blobs
        g, record, _, _ = short_path
        with pytest.raises(ValueError, match="samples"):
            interpolation_continuity(stored_params(record), 1, g, train)

    def test_deterministic(self, short_path, blobs):
        train, _ = blobs
        g, record, _, _ = short_path
        r1 = interpolation_continuity(stored_params(record), 5, g, train, eval_size=256)
        r2 = interpolation_continuity(stored_params(record), 5, g, train, eval_size=256)
        assert r1.segment_losses == r2.segment_losses


class TestPathMetrics:
    def test_single_point_distance_row(self, blobs):
        g = mlp2(20, 8, 3)
        a = init_params(g, 0)
        b = init_params(g, 1)
        dists = l2_distance(a.data, b, g.slice_names())
        record = PathRecord(points=[PathPoint(0, 0, 0.5, dists, params=a)])
        rows = path_metrics(record, b)
        assert len(rows) == 1
        for name, value in dists.items():
            assert rows[0][f"dist:{name}"] == value

    def test_origin_rows_are_norms(self, blobs):
        g = mlp2(20, 8, 3)
        a = init_params(g, 0)
        norms = {n: float(np.sqrt(radial_norm_sq(a.get(n)))) for n in g.slice_names()}
        record = PathRecord(points=[PathPoint(0, 0, 0.5, norms, params=a)])
        rows = path_metrics(record, "origin", recompute=True)
        for name, value in norms.items():
            assert rows[0][f"dist:{name}"] == pytest.approx(value, rel=1e-6)

    def test_recompute_matches_recorded(self, short_path, strided_path, blobs, bn_path):
        train, test = blobs
        g, record, a, b = short_path
        bn_graph, bn_record, bn_dest, bn_train, bn_test = bn_path
        assert len(strided_path.stored_points()) == 9  # 0, 4, ..., 28 and 30
        # the same params (and, with batch norm, the same training rows) give
        # the recorded test metrics exactly; points without params record NaN
        for graph, rec, dest, test_data, norm_x in (
            (g, record, b, test, None),
            (g, strided_path, b, test, None),
            (bn_graph, bn_record, bn_dest, bn_test, norm_rows(bn_train)),
        ):
            recorded = path_metrics(rec, dest)
            recomputed = path_metrics(
                rec, dest, graph=graph, test_data=test_data, recompute=True, norm_x=norm_x
            )
            by_iter = {row["iteration"]: row for row in recomputed}
            assert list(by_iter) == [p.iteration for p in rec.stored_points()]
            for row in recorded:
                other = by_iter.get(row["iteration"])
                if other is None:
                    assert np.isnan([row["test_loss"], row["test_acc"]]).all()
                    continue
                for key, value in row.items():
                    if key.startswith("dist:"):
                        assert value == pytest.approx(other[key], rel=1e-5, abs=1e-7)
                assert np.isfinite(row["test_loss"])
                assert row["test_loss"] == other["test_loss"]
                assert row["test_acc"] == other["test_acc"]

    def test_recompute_rejects_a_mismatched_destination(self):
        a = init_params(mlp2(20, 8, 3), 0)
        other = init_params(mlp2(20, 6, 3), 0)
        record = PathRecord(points=[PathPoint(0, 0, 0.5, {"fc1.weight": 0.0}, params=a)])
        with pytest.raises(LayoutMismatch):
            path_metrics(record, other, recompute=True)

    def test_row_order_and_columns(self, short_path, blobs):
        g, record, _, b = short_path
        rows = path_metrics(record, b)
        assert [row["iteration"] for row in rows] == list(range(len(record.points)))
        assert all("rolling_train_loss" in row for row in rows)


class TestSeedVarianceStudy:
    def test_identical_seeds_zero_spread(self, blobs):
        train, _ = blobs
        g = mlp2(20, 8, 3)
        cfg = TrainerConfig(lr=0.05, batch_size=32)
        table = seed_variance_study(g, cfg, [5, 5], train, rule=StopRule(0.0, 20, 10))
        for name, stats in table.summary.items():
            assert stats["variance_cov"] == pytest.approx(0.0, abs=1e-12)

    def test_failed_seed_excluded_with_warning(self, blobs, caplog):
        train, _ = blobs
        g = mlp2(20, 8, 3)
        cfg = TrainerConfig(lr=1e-6, batch_size=16)
        with caplog.at_level(logging.WARNING):
            table = seed_variance_study(
                g, cfg, [1, 2], train,
                rule=StopRule(0.0, 5, 10),
                acceptance_loss=1e-9,  # nothing passes
            )
        assert table.failed_seeds == [1, 2]
        assert all(len(rows) == 0 for rows in table.per_layer.values())
        assert "acceptance" in caplog.text

    def test_needs_two_seeds(self, blobs):
        train, _ = blobs
        with pytest.raises(ValueError):
            seed_variance_study(
                mlp2(20, 8, 3), TrainerConfig(lr=0.1), [1], train, StopRule(0.0, 1, 10)
            )

    def test_summary_covers_exactly_weight_slices(self, blobs):
        train, _ = blobs
        from llpf.nn_engine import resnet_micro

        g = resnet_micro(1, 8, 3, width=2)
        data = train.__class__(
            inputs=np.zeros((12, 1, 8, 8), dtype=np.float32),
            labels=np.zeros(12, dtype=np.int64),
            split="train",
            num_classes=3,
        )
        table = seed_variance_study(g, TrainerConfig(lr=0.1), [0, 1, 2], data, StopRule(0.0, 1, 10))
        weight_names = {s.name for s in g.layout if s.kind == "weight"}
        assert set(table.summary) == weight_names


class TestContinuityFullSet:
    def test_eval_size_at_least_the_set_uses_every_sample(self, short_path, blobs):
        train, _ = blobs
        g, record, _, _ = short_path
        stored = record.stored_points()
        endpoints = [
            [evaluate(g, a.params, train)[0], evaluate(g, b.params, train)[0]]
            for a, b in zip(stored, stored[1:])
        ]
        for size in (len(train), len(train) + 1):
            full = interpolation_continuity(stored_params(record), 2, g, train, eval_size=size)
            assert full.segment_losses == endpoints
        small = interpolation_continuity(stored_params(record), 2, g, train, eval_size=64)
        assert small.segment_losses != endpoints
