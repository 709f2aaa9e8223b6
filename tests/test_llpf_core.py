import hashlib
import logging
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from llpf import llpf_core
from llpf.llpf_core import (
    CrossVarianceConfig,
    M2OConfig,
    PathPoint,
    PathRecord,
    Phase,
    PhasePlan,
    PrerequisiteError,
    SearchSettings,
    StepParams,
    angle_conformal,
    connect_cross_variance,
    fdf_phase_plan,
    llpf_m2m,
    llpf_m2o,
    move_toward,
)
from llpf.nn_engine import (
    GraphNode,
    ModelGraph,
    Plan,
    StopRule,
    TrainerConfig,
    evaluate,
    init_params,
    lenet_micro,
    mlp2,
    resnet_micro,
    train_until,
)
from llpf.harness_cli.datasets import gen_blobs
from llpf.param_space import ParamVector, SliceInfo, layer_stats


def vector(mapping, kinds=None):
    kinds = kinds or {}
    layout = []
    chunks = []
    offset = 0
    for name, values in mapping.items():
        values = np.asarray(values, dtype=np.float64)
        layout.append(SliceInfo(name, offset, len(values), kinds.get(name, "weight")))
        chunks.append(values)
        offset += len(values)
    return ParamVector(np.concatenate(chunks), tuple(layout))


def moved(p, dest, arc0, step, layers):
    """A copy of ``p`` moved toward ``dest`` by :func:`move_toward`."""
    buf = p.copy_data()
    move_toward(buf, dest, arc0, step, layers)
    return ParamVector(buf, p.layout)


def trained(g, params, data, cfg, rule, rng):
    """A copy of ``params`` trained by :func:`train_until`."""
    p = params.copy_data()
    train_until(Plan(g, p, np.empty_like(p)), data, cfg, rule, rng)
    return g.wrap(p)


def assert_test_metrics_where_params(record):
    """Finite test metrics on exactly the points that keep params, NaN elsewhere."""
    for p in record.points:
        metrics = np.array([p.test_loss, p.test_acc])
        if p.params is None:
            assert np.isnan(metrics).all(), p.iteration
        else:
            assert np.isfinite(metrics).all(), p.iteration


@pytest.fixture(scope="module")
def blobs():
    return gen_blobs(3, 20, 1500, seed=9)


@pytest.fixture(scope="module")
def quick_mode(blobs):
    train, _ = blobs
    g = mlp2(20, 16, 3)
    params = init_params(g, 1)
    rng = np.random.default_rng(1)
    cfg = TrainerConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, batch_size=32)
    return g, trained(g, params, train, cfg, StopRule(0.0, 3000, 10), rng)


class TestStepParams:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            StepParams()

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StepParams(step_a=-0.1)


class TestMoveToward:
    def test_hand_case(self):
        p = vector({"w": [0.0, 0.0]})
        d = vector({"w": [10.0, 0.0]})
        step = StepParams(step_a=0.1, step_f=1.0)
        out = moved(p, d, None, step, ["w"])
        assert out.get("w") == pytest.approx([2.0, 0.0])

    def test_coincident_points_no_division(self):
        p = vector({"w": [1.0, 2.0]})
        out = moved(p, p, None, StepParams(step_f=1.0), ["w"])
        assert np.array_equal(out.get("w"), p.get("w"))

    def test_clamp_lands_exactly_on_destination(self):
        p = vector({"w": [0.0, 0.0]})
        d = vector({"w": [0.3, 0.4]})
        out = moved(p, d, None, StepParams(step_f=100.0), ["w"])
        assert out.get("w") == pytest.approx([0.3, 0.4])

    def test_inactive_layers_copied(self):
        p = vector({"w": [0.0], "v": [0.0]})
        d = vector({"w": [5.0], "v": [5.0]})
        out = moved(p, d, None, StepParams(step_f=1.0), ["w"])
        assert out.get("w")[0] == pytest.approx(1.0)
        assert out.get("v")[0] == 0.0

    def test_arc_term_requires_anchor(self):
        p = vector({"w": [0.0, 1.0]})
        d = vector({"w": [1.0, 0.0]})
        with pytest.raises(ValueError, match="arc"):
            moved(p, d, None, StepParams(step_c=0.5), ["w"])
        out = moved(p, d, {"w": 2.0}, StepParams(step_c=0.5), ["w"])
        length = float(np.linalg.norm(out.get("w") - p.get("w")))
        assert length == pytest.approx(1.0)  # step = 0.5 * 2.0


class TestAngleConformal:
    def test_equal_variance_gives_base_rate(self):
        n = vector({"w": [1.0, -1.0]})  # variance 1
        rates = angle_conformal(n.data, n.layout, {"w": 1.0}, 1e-3)
        assert rates["w"] == pytest.approx(1e-3)

    def test_ratio_formula(self):
        n = vector({"w": [0.1, -0.1]})  # variance 0.01
        rates = angle_conformal(n.data, n.layout, {"w": 0.04}, 1e-3)
        assert rates["w"] == pytest.approx(2.5e-4)

    def test_nonpositive_base_rejected(self):
        n = vector({"w": [1.0, -1.0]})
        with pytest.raises(ValueError, match="positive"):
            angle_conformal(n.data, n.layout, {"w": 0.0}, 1e-3)


def single_phase_plan(graph, iterations, step, stop):
    return PhasePlan((Phase(tuple(graph.slice_names()), iterations, step, stop),))


class TestM2M:
    def test_fixed_point_when_endpoints_equal(self, blobs, quick_mode):
        train, test = blobs
        g, mode = quick_mode
        plan = single_phase_plan(g, 5, StepParams(step_f=1e-3), StopRule(0.0, 1, 1))
        trainer = TrainerConfig(lr=1e-7, batch_size=32)
        record = llpf_m2m(
            mode, mode, plan, trainer, train, None,
            settings=SearchSettings(seed=0, mode_acceptance_loss=0.5),
            graph=g,
        )
        for point in record.points:
            assert max(point.per_layer_dist.values()) < 1e-3

    def test_variance_prerequisite_error(self, blobs, quick_mode):
        train, _ = blobs
        g, mode = quick_mode
        far = mode.with_slices(
            {"fc1.weight": mode.get("fc1.weight") * 3.0}
        )
        plan = single_phase_plan(g, 2, StepParams(step_f=1e-3), StopRule(0.0, 1, 1))
        with pytest.raises(PrerequisiteError, match="connect_cross_variance"):
            llpf_m2m(
                mode, far, plan, TrainerConfig(lr=1e-3), train, None,
                settings=SearchSettings(mode_acceptance_loss=0.5), graph=g,
            )

    def test_mode_acceptance_error(self, blobs):
        train, _ = blobs
        g = mlp2(20, 16, 3)
        raw = init_params(g, 0)  # untrained, loss ~ ln 3
        plan = single_phase_plan(g, 2, StepParams(step_f=1e-3), StopRule(0.0, 1, 1))
        with pytest.raises(PrerequisiteError, match="acceptance"):
            llpf_m2m(
                raw, raw, plan, TrainerConfig(lr=1e-3), train, None,
                settings=SearchSettings(mode_acceptance_loss=0.05), graph=g,
            )

    @pytest.mark.parametrize("field", ["checkpoint_stride", "eval_subset"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_stride_and_subset_must_be_positive(self, field, value):
        # a zero stride would build, then fail mid-walk on `iteration % 0`
        with pytest.raises(ValueError, match="checkpoint_stride and eval_subset must be >= 1"):
            SearchSettings(**{field: value})

    @pytest.mark.parametrize("bound", [1.0, 0.5, float("nan")])
    def test_variance_ratio_bound_must_exceed_one(self, bound):
        with pytest.raises(ValueError, match="variance_ratio_bound must exceed 1"):
            SearchSettings(variance_ratio_bound=bound)

    @pytest.mark.parametrize(
        "make",
        [
            lambda nan: TrainerConfig(lr=nan),
            lambda nan: TrainerConfig(lr=1e-2, weight_decay=nan),
            lambda nan: StepParams(step_f=nan),
            lambda nan: M2OConfig(2, StepParams(step_a=1e-2), StopRule(0.0, 1, 1), eta_base=nan),
            lambda nan: SearchSettings(mode_acceptance_loss=nan),
            lambda nan: StopRule(nan, 5, 10),
        ],
        ids=["lr", "weight_decay", "step_f", "eta_base", "mode_acceptance_loss", "loss_threshold"],
    )
    def test_nan_setting_rejected(self, make):
        with pytest.raises(ValueError):
            make(float("nan"))

    def test_final_phase_must_cover_all(self, quick_mode):
        g, _ = quick_mode
        plan = PhasePlan(
            (Phase(("fc1.weight",), 2, StepParams(step_f=1e-3), StopRule(0.0, 1, 1)),)
        )
        with pytest.raises(ValueError, match="cover all"):
            plan.validate_against(g)


class TestRepairRunsPlainSgd:
    """A repair config with momentum or weight decay is rejected by both
    searches that take one; it used to be run as plain SGD without a word."""

    @pytest.mark.parametrize("field, trainer", [
        ("momentum", TrainerConfig(lr=1e-2, momentum=0.9)),
        ("weight_decay", TrainerConfig(lr=1e-2, weight_decay=1e-2)),
    ])
    @pytest.mark.parametrize("search", ["llpf_m2m", "connect_cross_variance"])
    def test_rejected_naming_the_field(self, blobs, search, field, trainer):
        train, _ = blobs
        g = mlp2(20, 16, 3)
        start, dest = init_params(g, 0), init_params(g, 1)
        plan = single_phase_plan(g, 2, StepParams(step_f=1e-3), StopRule(0.0, 1, 1))
        settings = SearchSettings(mode_acceptance_loss=0.0)
        with pytest.raises(ValueError, match=f"TrainerConfig.{field} must be 0"):
            if search == "llpf_m2m":
                llpf_m2m(start, dest, plan, trainer, train, None, settings=settings, graph=g)
            else:
                m2o = M2OConfig(2, StepParams(step_a=1e-2), StopRule(0.0, 1, 1), eta_base=1e-3)
                connect_cross_variance(
                    start, dest, CrossVarianceConfig(m2o, plan), trainer, train,
                    settings=settings, graph=g,
                )

    def test_sphere_invariance_and_record_shape(self, blobs, quick_mode):
        train, test = blobs
        g, mode_a = quick_mode
        params = init_params(g, 2)
        rng = np.random.default_rng(2)
        cfg = TrainerConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, batch_size=32)
        mode_b = trained(g, params, train, cfg, StopRule(0.0, 3000, 10), rng)
        plan = single_phase_plan(g, 40, StepParams(step_f=1e-3), StopRule(0.0, 2, 10))
        # short quick_mode training leaves the variance knee seed-scattered;
        # widen the prerequisite, which is not what this test is about
        settings = SearchSettings(
            seed=0, checkpoint_stride=10, mode_acceptance_loss=0.5,
            variance_ratio_bound=4.0,
        )
        record = llpf_m2m(
            mode_a, mode_b, plan, TrainerConfig(lr=1e-3, batch_size=32),
            train, test, settings=settings, graph=g,
        )
        assert len(record.points) == 41
        assert record.points[0].params is mode_a
        targets = {
            name: layer_stats(mode_a.get(name)).variance
            for name in ("fc1.weight", "fc2.weight")
        }
        for point in record.stored_points():
            for name, target in targets.items():
                got = layer_stats(point.params.get(name)).variance
                assert abs(got - target) / target < 1e-5
        # params stored at stride plus endpoints
        stored_iters = [p.iteration for p in record.stored_points()]
        assert stored_iters == [0, 10, 20, 30, 40]

    def test_determinism(self, blobs, quick_mode):
        train, _ = blobs
        g, mode = quick_mode
        noisy = mode.with_slices(
            {"fc1.weight": mode.get("fc1.weight") + np.float32(0.01)
             * np.ones(mode.info("fc1.weight").length, dtype=np.float32)}
        )
        plan = single_phase_plan(g, 10, StepParams(step_f=1e-3), StopRule(0.0, 2, 10))
        settings = SearchSettings(seed=4, mode_acceptance_loss=0.5)
        runs = [
            llpf_m2m(mode, noisy, plan, TrainerConfig(lr=1e-3), train, None,
                     settings=settings, graph=g)
            for _ in range(2)
        ]
        for p, q in zip(runs[0].points, runs[1].points):
            assert p.rolling_train_loss == q.rolling_train_loss
            assert p.per_layer_dist == q.per_layer_dist
        assert np.array_equal(runs[0].points[-1].params.data, runs[1].points[-1].params.data)


class TestM2O:
    def test_zero_iterations_returns_start(self, blobs, quick_mode):
        train, _ = blobs
        g, mode = quick_mode
        cfg = M2OConfig(
            iterations=0, step=StepParams(step_a=1e-3),
            stop=StopRule(0.0, 1, 1), eta_base=1e-3,
        )
        with pytest.raises(ValueError):
            M2OConfig(iterations=0, step=StepParams(step_a=1e-3), stop=StopRule(0.0, 1, 1), eta_base=0.0)
        with pytest.raises(ValueError, match="batch_size"):
            M2OConfig(iterations=0, step=StepParams(step_a=1e-3), stop=StopRule(0.0, 1, 1),
                      eta_base=1e-3, batch_size=0)
        record = llpf_m2o(
            mode, cfg, train, None,
            settings=SearchSettings(mode_acceptance_loss=0.5), graph=g,
        )
        assert len(record.points) == 1
        assert record.points[0].params is mode
        assert record.endpoints[1] == "origin"

    def test_nonpositive_acceptance_threshold_warns(self, blobs, quick_mode, caplog):
        train, _ = blobs
        g, mode = quick_mode
        cfg = M2OConfig(
            iterations=0, step=StepParams(step_a=1e-3), stop=StopRule(0.0, 1, 1), eta_base=1e-3,
        )
        with caplog.at_level(logging.WARNING, logger="llpf.llpf_core"):
            llpf_m2o(
                mode, cfg, train, None,
                settings=SearchSettings(mode_acceptance_loss=0.0), graph=g,
            )
        assert "no positive mode-acceptance threshold" in caplog.text

    def test_excluded_layers_bit_identical(self, blobs):
        rng = np.random.default_rng(0)
        g = resnet_micro(1, 8, 3, width=2)
        x = rng.normal(size=(64, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=64)
        from llpf.nn_engine import Dataset

        data = Dataset(x, y.astype(np.int64), "train", 3)
        params = init_params(g, 0)
        # give norm slices a recognizable value and biases some variance
        params = params.with_slices(
            {
                "stem.bn.scale": np.full(2, 1.25, dtype=np.float32),
                "head.fc.bias": rng.normal(0, 0.1, 3).astype(np.float32),
            }
        )
        cfg = M2OConfig(
            iterations=3, step=StepParams(step_a=1e-2),
            stop=StopRule(0.0, 2, 10), eta_base=1e-3, batch_size=16,
        )
        record = llpf_m2o(
            params, cfg, data, None,
            settings=SearchSettings(mode_acceptance_loss=0.0, checkpoint_stride=1),
            graph=g,
        )
        norm_slices = [s.name for s in g.layout if s.kind in ("norm_scale", "norm_shift")]
        assert norm_slices
        for point in record.stored_points():
            for name in norm_slices:
                assert np.array_equal(point.params.get(name), params.get(name))
        for point in record.points:
            # frozen slices stay in the distance report and read exactly 0.0
            assert all(point.per_layer_dist[name] == 0.0 for name in norm_slices)

    def test_rates_never_exceed_base(self, blobs, quick_mode):
        train, _ = blobs
        g, mode = quick_mode
        cfg = M2OConfig(
            iterations=20, step=StepParams(step_a=2e-3),
            stop=StopRule(0.0, 2, 10), eta_base=1e-3,
        )
        record = llpf_m2o(
            mode, cfg, train, None,
            settings=SearchSettings(seed=0, mode_acceptance_loss=0.5, checkpoint_stride=5),
            graph=g,
        )
        v_base = {n: layer_stats(mode.get(n)).variance for n in g.slice_names()}
        for point in record.stored_points():
            rates = angle_conformal(point.params.data, point.params.layout, v_base, cfg.eta_base)
            assert all(r <= cfg.eta_base * (1 + 1e-9) for r in rates.values())


class TestTestMetricCadence:
    def test_m2m_evaluates_only_kept_points(self, blobs, quick_mode):
        train, test = blobs
        g, mode = quick_mode
        partner = mode.with_slices({"fc1.weight": mode.get("fc1.weight")[::-1]})
        step, stop = StepParams(step_f=1e-3), StopRule(0.0, 2, 10)
        plan = PhasePlan(
            (
                Phase(("fc1.weight", "fc1.bias"), 4, step, stop),
                Phase(tuple(g.slice_names()), 3, step, stop),
            )
        )
        record = llpf_m2m(
            mode, partner, plan, TrainerConfig(lr=1e-3, batch_size=32), train, test,
            settings=SearchSettings(seed=1, checkpoint_stride=3, mode_acceptance_loss=0.0),
            graph=g,
        )
        assert [p.iteration for p in record.stored_points()] == [0, 3, 6, 7]
        assert_test_metrics_where_params(record)

    def test_m2o_stopped_off_stride_keeps_and_evaluates_its_end(self, blobs, quick_mode):
        train, test = blobs
        g, mode = quick_mode
        weights = ("fc1.weight", "fc2.weight")
        bigger = mode.with_slices({n: mode.get(n) * 1.1 for n in weights})
        targets = {n: layer_stats(mode.get(n)).variance for n in weights}
        spans = mode.layout.spans

        def on_mode_spheres(current):
            return all(
                1 / 1.05 <= layer_stats(current[spans[n]]).variance / targets[n] <= 1.05
                for n in weights
            )

        cfg = M2OConfig(iterations=500, step=StepParams(step_a=5e-3),
                        stop=StopRule(0.0, 2, 1), eta_base=1e-3)
        stride = 4
        record = llpf_m2o(
            bigger, cfg, train, test,
            settings=SearchSettings(seed=3, checkpoint_stride=stride, mode_acceptance_loss=0.5),
            graph=g, stop_when=on_mode_spheres,
        )
        end = record.points[-1]
        assert end.iteration < cfg.iterations and end.iteration % stride != 0
        assert end.params is not None and np.isfinite([end.test_loss, end.test_acc]).all()
        assert_test_metrics_where_params(record)


class TestCrossVariance:
    @pytest.mark.parametrize("rtol", [1.0, 0.5, 0.0])
    def test_sphere_match_rtol_must_exceed_one(self, quick_mode, rtol):
        g, _ = quick_mode
        m2o = M2OConfig(2, StepParams(step_a=1e-3), StopRule(0.0, 1, 1), eta_base=1e-3)
        plan = single_phase_plan(g, 2, StepParams(step_f=1e-3), StopRule(0.0, 1, 1))
        with pytest.raises(ValueError, match="sphere_match_rtol must exceed 1"):
            CrossVarianceConfig(m2o, plan, sphere_match_rtol=rtol)

    def test_direction_constraint(self, blobs, quick_mode):
        train, _ = blobs
        g, mode = quick_mode
        bigger = mode.with_slices(
            {
                "fc1.weight": mode.get("fc1.weight") * 2.0,
                "fc2.weight": mode.get("fc2.weight") * 2.0,
            }
        )
        cfg = CrossVarianceConfig(
            m2o=M2OConfig(iterations=2, step=StepParams(step_a=1e-3),
                          stop=StopRule(0.0, 1, 1), eta_base=1e-3),
            m2m_plan=single_phase_plan(g, 2, StepParams(step_f=1e-3), StopRule(0.0, 1, 1)),
        )
        with pytest.raises(PrerequisiteError, match="swap endpoints"):
            connect_cross_variance(
                mode, bigger, cfg, TrainerConfig(lr=1e-3), train, None,
                settings=SearchSettings(mode_acceptance_loss=0.5), graph=g,
            )

    def test_same_sphere_degenerates_to_m2m(self, blobs, quick_mode):
        train, _ = blobs
        g, mode = quick_mode
        cfg = CrossVarianceConfig(
            m2o=M2OConfig(iterations=50, step=StepParams(step_a=1e-3),
                          stop=StopRule(0.0, 1, 10), eta_base=1e-3),
            m2m_plan=single_phase_plan(g, 5, StepParams(step_f=1e-3), StopRule(0.0, 1, 10)),
            sphere_match_rtol=1.05,
        )
        record = connect_cross_variance(
            mode, mode, cfg, TrainerConfig(lr=1e-6, batch_size=32), train, None,
            settings=SearchSettings(seed=0, mode_acceptance_loss=0.5, checkpoint_stride=1),
            graph=g,
        )
        # start already satisfies the sphere-match tolerance: stage 1 is trivial
        assert record.stage_boundary == 0
        assert len(record.points) == 6
        boundary = record.points[record.stage_boundary]
        assert boundary.params is not None
        iters = [p.iteration for p in record.points]
        assert iters == sorted(iters) and len(set(iters)) == len(iters)

    def test_stage_one_short_of_the_spheres_fails_before_stage_two(
        self, blobs, quick_mode, monkeypatch
    ):
        train, _ = blobs
        g, mode = quick_mode
        doubled = mode.with_slices({n: mode.get(n) * 2.0 for n in ("fc1.weight", "fc2.weight")})
        cfg = CrossVarianceConfig(
            m2o=M2OConfig(iterations=2, step=StepParams(step_a=1e-3),
                          stop=StopRule(0.0, 1, 1), eta_base=1e-3),
            m2m_plan=single_phase_plan(g, 2, StepParams(step_f=1e-3), StopRule(0.0, 1, 1)),
        )
        repairs = []
        real_train = llpf_core.train_until

        def spy(engine_plan, *args, **kw):
            repairs.append("origin walk" if "lr" in kw else "same-sphere walk")
            return real_train(engine_plan, *args, **kw)

        monkeypatch.setattr(llpf_core, "train_until", spy)
        with pytest.raises(PrerequisiteError) as err:
            connect_cross_variance(
                doubled, mode, cfg, TrainerConfig(lr=1e-3), train, None,
                settings=SearchSettings(mode_acceptance_loss=0.5), graph=g,
            )
        message = str(err.value)
        assert message.startswith("stage 1 ended at iteration 2 off the destination's")
        for name in ("fc1.weight", "fc2.weight"):
            assert f"layer '{name}' ratio 3.9" in message
        assert "more iterations or a larger step" in message
        assert "connect_cross_variance" not in message
        assert repairs == ["origin walk"] * 2

    def test_dest_scored_once(self, blobs, quick_mode, monkeypatch):
        """The chain scores ``dest`` before stage 1, and stage 2 reuses that
        score (``TestPinnedWalks`` pins the chain's bytes)."""
        train, _ = blobs
        g, mode = quick_mode
        bigger = mode.with_slices({n: mode.get(n) * 1.1 for n in ("fc1.weight", "fc2.weight")})
        stop = StopRule(0.0, 1, 1)
        cfg = CrossVarianceConfig(
            m2o=M2OConfig(iterations=200, step=StepParams(step_a=1e-2), stop=stop, eta_base=1e-3),
            m2m_plan=single_phase_plan(g, 3, StepParams(step_f=1e-3), stop),
        )
        scored = []
        real_evaluate = llpf_core.evaluate

        def spy(graph, params, *args, **kw):
            scored.append(params is mode)
            return real_evaluate(graph, params, *args, **kw)

        monkeypatch.setattr(llpf_core, "evaluate", spy)
        record = connect_cross_variance(
            bigger, mode, cfg, TrainerConfig(lr=1e-3, batch_size=32), train, None,
            settings=SearchSettings(seed=1, mode_acceptance_loss=0.5, checkpoint_stride=1),
            graph=g,
        )
        assert record.stage_boundary > 0 and scored.count(True) == 1


class TestStoredPointsOwnTheirParams:
    """A walk updates one working array in place; a stored point that kept a
    view of it would change as the walk went on."""

    def test_no_shared_memory_and_read_only(self, blobs, quick_mode):
        train, _ = blobs
        g, mode = quick_mode
        trainer = TrainerConfig(lr=1e-3, batch_size=32)
        settings = SearchSettings(seed=2, checkpoint_stride=2, mode_acceptance_loss=0.5)
        stop = StopRule(0.0, 2, 1)
        step = StepParams(step_a=2e-2, step_f=1e-3)
        partner = mode.with_slices({"fc1.weight": mode.get("fc1.weight")[::-1]})
        bigger = mode.with_slices({n: mode.get(n) * 1.1 for n in ("fc1.weight", "fc2.weight")})
        m2m = llpf_m2m(
            mode, partner, single_phase_plan(g, 7, step, stop), trainer, train,
            settings=replace(settings, mode_acceptance_loss=0.0), graph=g,
        )
        m2o = llpf_m2o(
            mode, M2OConfig(iterations=7, step=step, stop=stop, eta_base=1e-3), train,
            settings=settings, graph=g,
        )
        avs = connect_cross_variance(
            bigger, mode,
            CrossVarianceConfig(
                m2o=M2OConfig(iterations=2000, step=step, stop=stop, eta_base=1e-3),
                m2m_plan=single_phase_plan(g, 7, step, stop),
            ),
            trainer, train, settings=settings, graph=g,
        )
        assert avs.stage_boundary > 0
        for record in (m2m, m2o, avs):
            stored = [p.params.data for p in record.stored_points()]
            assert len(stored) >= 5
            for i, data in enumerate(stored):
                assert not data.flags.writeable
                assert not any(np.shares_memory(data, other) for other in stored[i + 1 :])


class TestRepairTrainsTheWorkingArray:
    """Every repair round trains the walk's own working array through the
    one training plan the walk holds, and a walk builds a ParamVector only
    for the points it keeps, plus a fixed number per walk that does not grow
    with its length."""

    @pytest.mark.parametrize("search", ["m2m", "m2o"])
    def test_one_buffer_and_vectors_only_for_kept_points(
        self, search, blobs, quick_mode, monkeypatch
    ):
        train, _ = blobs
        g, mode = quick_mode
        trainer = TrainerConfig(lr=1e-3, batch_size=32)
        settings = SearchSettings(seed=4, checkpoint_stride=4, mode_acceptance_loss=0.0)
        stop = StopRule(0.0, 2, 1)
        step = StepParams(step_a=1e-2, step_f=1e-3)
        partner = mode.with_slices({"fc1.weight": mode.get("fc1.weight")[::-1]})

        def walk(iterations):
            if search == "m2m":
                plan = single_phase_plan(g, iterations, step, stop)
                return llpf_m2m(mode, partner, plan, trainer, train, settings=settings, graph=g)
            cfg = M2OConfig(iterations=iterations, step=step, stop=stop, eta_base=1e-3)
            return llpf_m2o(mode, cfg, train, settings=settings, graph=g)

        plans, built = [], []
        real_train, real_init = llpf_core.train_until, ParamVector.__init__

        def spy(engine_plan, *args, **kw):
            plans.append(engine_plan)
            return real_train(engine_plan, *args, **kw)

        def counting_init(self, *args, **kw):
            built.append(1)
            real_init(self, *args, **kw)

        monkeypatch.setattr(llpf_core, "train_until", spy)
        monkeypatch.setattr(ParamVector, "__init__", counting_init)
        extra = []
        for iterations in (4, 12):
            plans.clear()
            built.clear()
            record = walk(iterations)
            assert len(plans) == iterations
            assert all(p is plans[0] for p in plans)
            assert plans[0].params.flags.writeable and plans[0].grad is not None
            assert not np.shares_memory(plans[0].params, record.points[0].params.data)
            extra.append(len(built) - len(record.stored_points()))
        assert extra[0] == extra[1]


class TestCrossVarianceTestMetrics:
    def test_each_stored_point_evaluated_once(self, blobs, quick_mode, monkeypatch):
        train, test = blobs
        g, mode = quick_mode
        calls = []

        def spy(graph, params, data, norm_x=None, **kwargs):
            if data is test:
                calls.append(params.data.tobytes())
            return evaluate(graph, params, data, norm_x, **kwargs)

        monkeypatch.setattr(llpf_core, "evaluate", spy)
        bigger = mode.with_slices({n: mode.get(n) * 1.1 for n in ("fc1.weight", "fc2.weight")})
        cfg = CrossVarianceConfig(
            m2o=M2OConfig(iterations=5000, step=StepParams(step_a=5e-3),
                          stop=StopRule(0.0, 2, 1), eta_base=1e-3),
            m2m_plan=single_phase_plan(g, 8, StepParams(step_f=2e-3), StopRule(0.0, 2, 1)),
        )
        record = connect_cross_variance(
            bigger, mode, cfg, TrainerConfig(lr=1e-3, batch_size=32), train, test,
            settings=SearchSettings(seed=3, checkpoint_stride=4, mode_acceptance_loss=0.5),
            graph=g,
        )
        # stage 1 stores 0, 4, ..., 280 and hands off at 280; stage 2 adds
        # 284 and 288.  The hand-off is evaluated once, not again as stage
        # 2's start.
        assert record.points[record.stage_boundary].iteration == 280
        stored = record.stored_points()
        assert len(stored) == 73
        assert calls == [p.params.data.tobytes() for p in stored]
        assert_test_metrics_where_params(record)


class TestCrossVarianceEarlyStop:
    """Stage 1 ends on the sphere match long before its iteration cap, with a
    checkpoint stride larger than the whole chain."""

    STRIDE = 1000
    RTOL = 1.05

    @pytest.fixture(scope="class")
    def chain(self, blobs, quick_mode):
        train, test = blobs
        g, mode = quick_mode
        bigger = mode.with_slices({n: mode.get(n) * 1.1 for n in ("fc1.weight", "fc2.weight")})
        # a repair threshold no point reaches: every stage-2 repair runs out of rounds
        plan = single_phase_plan(g, 4, StepParams(step_f=2e-3), StopRule(1e-12, 2, 1))
        cfg = CrossVarianceConfig(
            m2o=M2OConfig(iterations=5000, step=StepParams(step_a=5e-3),
                          stop=StopRule(0.0, 2, 1), eta_base=1e-3),
            m2m_plan=plan,
            sphere_match_rtol=self.RTOL,
        )
        trainer = TrainerConfig(lr=1e-3, batch_size=32)
        settings = SearchSettings(seed=3, checkpoint_stride=self.STRIDE, mode_acceptance_loss=0.5)
        record = connect_cross_variance(
            bigger, mode, cfg, trainer, train, test, settings=settings, graph=g,
        )
        hand_off = record.points[record.stage_boundary]
        standalone = llpf_m2m(
            hand_off.params, mode, plan, trainer, train, test, settings=settings, graph=g,
        )
        return g, mode, record, standalone

    def test_hand_off_and_final_points_keep_params(self, chain):
        g, mode, record, _ = chain
        hand_off = record.points[record.stage_boundary]
        assert 0 < hand_off.iteration < self.STRIDE
        assert record.points[record.stage_boundary - 1].params is None
        assert record.points[record.stage_boundary + 1].phase == 1
        assert all(p.phase == 0 for p in record.points[: record.stage_boundary + 1])
        assert [p.iteration for p in record.stored_points()] == [
            0, hand_off.iteration, record.points[-1].iteration,
        ]
        # stage 1 stopped because the hand-off sits on the destination's spheres
        for name in ("fc1.weight", "fc2.weight"):
            ratio = (layer_stats(hand_off.params.get(name)).variance
                     / layer_stats(mode.get(name)).variance)
            assert 1 / self.RTOL <= ratio <= self.RTOL

    def test_test_metrics_where_params_across_the_boundary(self, chain):
        _, _, record, _ = chain
        assert_test_metrics_where_params(record)

    def test_merged_stage_two_equals_standalone(self, chain):
        _, _, record, standalone = chain
        hand_off = record.points[record.stage_boundary]
        merged = record.points[record.stage_boundary + 1 :]
        assert len(merged) == len(standalone.points) - 1
        for m, s in zip(merged, standalone.points[1:]):
            assert m.iteration == s.iteration + hand_off.iteration
            assert m.phase == s.phase + 1
            assert m.train_exhausted is True
            for f in fields(PathPoint):
                if f.name in ("iteration", "phase"):
                    continue
                a, b = getattr(m, f.name), getattr(s, f.name)
                if f.name == "params":
                    assert (a is None) == (b is None)
                    assert a is None or np.array_equal(a.data, b.data)
                else:
                    assert a == b or (a != a and b != b), f.name  # NaN test metrics match


class TestFdfPhasePlan:
    def test_linear_chain(self):
        nodes = [
            GraphNode("b1", "dense", (), {"out": 4}),
            GraphNode("r1", "relu", ("b1",)),
            GraphNode("b2", "dense", ("r1",), {"out": 4}),
            GraphNode("r2", "relu", ("b2",)),
            GraphNode("b3", "dense", ("r2",), {"out": 2}),
        ]
        g = ModelGraph(nodes, (4,))
        plan = fdf_phase_plan(g, 10, StepParams(step_f=1e-3), StopRule(0.0, 1, 1))
        actives = [set(p.active_layers) for p in plan.phases]
        b1 = {"b1.weight", "b1.bias"}
        b2 = {"b2.weight", "b2.bias"}
        b3 = {"b3.weight", "b3.bias"}
        assert actives == [b1, b1 | b2, b1 | b2 | b3, b1 | b2 | b3]

    def test_resnet_micro_branch_ordering(self):
        g = resnet_micro(1, 8, 3, width=2)
        plan = fdf_phase_plan(g, 10, StepParams(step_a=1e-3), StopRule(0.0, 1, 1))
        previous = set()
        added_nodes = []
        for phase in plan.phases[:-1]:
            added = set(phase.active_layers) - previous
            added_nodes.append({name.rsplit(".", 1)[0] for name in added})
            previous = set(phase.active_layers)
        assert added_nodes == [
            {"stem.conv", "stem.bn"},
            {"block1.conv_a", "block1.bn_a", "block1.conv_b", "block1.bn_b"},
            {"block2.conv_a", "block2.bn_a", "block2.conv_b", "block2.bn_b"},
            {"block2.skip_conv", "block2.skip_bn"},
            {"head.fc"},
        ]
        assert set(plan.phases[-1].active_layers) == set(g.slice_names())

    def test_deterministic(self):
        g = resnet_micro(1, 8, 3, width=2)
        a = fdf_phase_plan(g, 10, StepParams(step_a=1e-3), StopRule(0.0, 1, 1))
        b = fdf_phase_plan(g, 10, StepParams(step_a=1e-3), StopRule(0.0, 1, 1))
        assert a == b

    @staticmethod
    def _actives(nodes, in_dim=3):
        plan = fdf_phase_plan(
            ModelGraph(nodes, (in_dim,)), 10, StepParams(step_f=1e-3), StopRule(0.0, 1, 1)
        )
        return [phase.active_layers for phase in plan.phases]

    @staticmethod
    def _dense(*names):
        return tuple(f"{name}.{leaf}" for name in names for leaf in ("weight", "bias"))

    def test_parallel_branches_ordered_by_head_name(self):
        # "z.fc" is declared first; "a.fc" still comes first, by name
        nodes = [
            GraphNode("stem", "dense", (), {"out": 3}),
            GraphNode("z.fc", "dense", ("stem",), {"out": 3}),
            GraphNode("a.fc", "dense", ("stem",), {"out": 3}),
            GraphNode("join", "residual_add", ("z.fc", "a.fc")),
            GraphNode("head", "dense", ("join",), {"out": 2}),
        ]
        assert self._actives(nodes) == [
            self._dense("stem"),
            self._dense("stem", "a.fc"),
            self._dense("stem", "a.fc", "z.fc"),
            self._dense("stem", "a.fc", "z.fc", "head"),
            self._dense("stem", "a.fc", "z.fc", "head"),
        ]

    def test_fork_with_three_consumers(self):
        # each reader of the fork heads a chain of its own, so the three
        # branches are three phases although they share the block prefix
        nodes = [
            GraphNode("stem", "dense", (), {"out": 3}),
            GraphNode("fork.c", "dense", ("stem",), {"out": 3}),
            GraphNode("fork.b", "dense", ("stem",), {"out": 3}),
            GraphNode("fork.a", "dense", ("stem",), {"out": 3}),
            GraphNode("fork.add_ab", "residual_add", ("fork.a", "fork.b")),
            GraphNode("fork.add", "residual_add", ("fork.add_ab", "fork.c")),
            GraphNode("head", "dense", ("fork.add",), {"out": 2}),
        ]
        assert self._actives(nodes) == [
            self._dense("stem"),
            self._dense("stem", "fork.a"),
            self._dense("stem", "fork.a", "fork.b"),
            self._dense("stem", "fork.a", "fork.b", "fork.c"),
            self._dense("stem", "fork.a", "fork.b", "fork.c", "head"),
            self._dense("stem", "fork.a", "fork.b", "fork.c", "head"),
        ]

    def test_chain_ordered_as_a_unit(self):
        # the chain "b" -> "z" ends in a fork whose readers "c" and "d" come
        # before "b"'s sibling "y": chains are ordered by their heads, although
        # the node order reaches "y" before "z" and so before "c" and "d"
        nodes = [
            GraphNode("stem", "dense", (), {"out": 3}),
            GraphNode("b", "dense", ("stem",), {"out": 3}),
            GraphNode("z", "relu", ("b",)),
            GraphNode("c", "dense", ("z",), {"out": 3}),
            GraphNode("d", "dense", ("z",), {"out": 3}),
            GraphNode("cd", "residual_add", ("c", "d")),
            GraphNode("y", "dense", ("stem",), {"out": 3}),
            GraphNode("join", "residual_add", ("cd", "y")),
            GraphNode("head", "dense", ("join",), {"out": 2}),
        ]
        assert [node.name for node in ModelGraph(nodes, (3,)).plan][:4] == ["stem", "b", "y", "z"]
        assert self._actives(nodes) == [
            self._dense("stem"),
            self._dense("stem", "b"),
            self._dense("stem", "b", "c"),
            self._dense("stem", "b", "c", "d"),
            self._dense("stem", "b", "y", "c", "d"),
            self._dense("stem", "b", "y", "c", "d", "head"),
            self._dense("stem", "b", "y", "c", "d", "head"),
        ]


class TestPathRecord:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PathRecord(points=[])

    def test_iterations_strictly_increasing(self):
        p = PathPoint(0, 0, 0.1, {})
        q = PathPoint(0, 0, 0.1, {})
        with pytest.raises(ValueError, match="increasing"):
            PathRecord(points=[p, q])

    def test_points_report_the_same_layers(self):
        """A record's columns are its first point's, so a point that adds or
        drops a layer is rejected."""
        p = PathPoint(0, 0, 0.1, {"a": 1.0, "b": 2.0})
        for dists in ({"a": 1.0}, {"a": 1.0, "b": 2.0, "c": 3.0}, {"a": 1.0, "c": 3.0}):
            with pytest.raises(ValueError, match="same layers"):
                PathRecord(points=[p, PathPoint(1, 0, 0.1, dists)])


class TestMultiPhase:
    def test_every_correctable_layer_stays_on_its_sphere(self, blobs, quick_mode):
        """A phase moves only its active layers, but repair trains them all;
        the layers a phase does not move are re-projected too."""
        train, _ = blobs
        g, mode = quick_mode
        partner = mode.with_slices({n: mode.get(n)[::-1] for n in ("fc1.weight", "fc2.weight")})
        step, stop = StepParams(step_f=1e-2), StopRule(0.0, 5, 1)
        plan = PhasePlan(
            (
                Phase(("fc1.weight", "fc1.bias"), 20, step, stop),
                Phase(tuple(g.slice_names()), 5, step, stop),
            )
        )
        record = llpf_m2m(
            mode, partner, plan, TrainerConfig(lr=1e-2, batch_size=32), train, None,
            settings=SearchSettings(seed=0, checkpoint_stride=1, mode_acceptance_loss=0.0),
            graph=g,
        )
        targets = {n: layer_stats(mode.get(n)).variance for n in g.slice_names()}
        correctable = llpf_core.correctable_layers(mode, targets)
        assert correctable == ("fc1.weight", "fc2.weight")
        stored = record.stored_points()
        assert len(stored) == 26
        for point in stored:
            for name in correctable:
                variance = layer_stats(point.params.get(name)).variance
                assert variance == pytest.approx(targets[name], rel=1e-6), (point.iteration, name)

    def test_two_phase_plan_runs_and_labels_phases(self, blobs, quick_mode):
        train, _ = blobs
        g, mode = quick_mode
        partner = mode.with_slices(
            {"fc1.weight": mode.get("fc1.weight")[::-1]}  # same variance, permuted
        )
        plan = PhasePlan(
            (
                Phase(("fc1.weight", "fc1.bias"), 5, StepParams(step_f=1e-3), StopRule(0.0, 1, 10)),
                Phase(tuple(g.slice_names()), 5, StepParams(step_f=1e-3), StopRule(0.0, 1, 10)),
            )
        )
        record = llpf_m2m(
            mode, partner, plan, TrainerConfig(lr=1e-4, batch_size=32), train, None,
            settings=SearchSettings(seed=0, mode_acceptance_loss=0.0), graph=g,
        )
        assert [p.phase for p in record.points] == [0] * 6 + [1] * 5
        # phase 1 must not move fc2
        start_fc2 = record.points[0].per_layer_dist["fc2.weight"]
        for point in record.points[1:6]:
            moved = abs(point.per_layer_dist["fc2.weight"] - start_fc2)
            assert moved < 0.05  # training jitter only, no directed movement

    def test_arc_anchored_step_in_driver(self, blobs, quick_mode):
        train, _ = blobs
        g, mode = quick_mode
        partner = mode.with_slices({"fc1.weight": mode.get("fc1.weight")[::-1]})
        plan = PhasePlan(
            (Phase(tuple(g.slice_names()), 3, StepParams(step_c=1e-3), StopRule(0.0, 1, 10)),)
        )
        record = llpf_m2m(
            mode, partner, plan, TrainerConfig(lr=1e-5, batch_size=32), train, None,
            settings=SearchSettings(seed=0, mode_acceptance_loss=0.0), graph=g,
        )
        d0 = record.points[0].per_layer_dist["fc1.weight"]
        d3 = record.points[-1].per_layer_dist["fc1.weight"]
        assert d3 < d0  # the arc term alone produces forward progress

    def test_arc_anchors_recaptured_at_each_phase_start(self, blobs, quick_mode, monkeypatch):
        train, _ = blobs
        g, mode = quick_mode
        partner = mode.with_slices({"fc1.weight": mode.get("fc1.weight")[::-1]})
        step, stop = StepParams(step_c=1e-3), StopRule(0.0, 1, 10)
        plan = PhasePlan(
            (
                Phase(("fc1.weight", "fc1.bias"), 3, step, stop),
                Phase(tuple(g.slice_names()), 3, step, stop),
            )
        )
        anchored = []
        real = llpf_core._phase_arcs

        def spy(current, dest, phase):
            # the walk's working array: keep what it holds now
            anchored.append((current.copy(), phase.active_layers))
            return real(current, dest, phase)

        monkeypatch.setattr(llpf_core, "_phase_arcs", spy)
        record = llpf_m2m(
            mode, partner, plan, TrainerConfig(lr=1e-5, batch_size=32), train, None,
            settings=SearchSettings(seed=0, mode_acceptance_loss=0.0, checkpoint_stride=1),
            graph=g,
        )
        assert [layers for _, layers in anchored] == [p.active_layers for p in plan.phases]
        assert np.array_equal(anchored[0][0], mode.data)
        # the last point of phase 1
        assert np.array_equal(anchored[1][0], record.points[3].params.data)


class TestPhaseArcs:
    CURRENT = {"w": [3.0, 4.0], "v": [0.0, 0.0]}

    @pytest.mark.parametrize(
        "dest, expected",
        [
            # toward an all-zero slice: the current radius, also 0 from the center
            ({"w": [0.0, 0.0], "v": [0.0, 0.0]}, {"w": 5.0, "v": 0.0}),
            # toward a nonzero slice: arc_length, and 0 from the center
            ({"w": [-4.0, 3.0], "v": [1.0, 0.0]}, {"w": 2.5 * np.pi, "v": 0.0}),
        ],
    )
    def test_anchors(self, dest, expected):
        phase = Phase(("w", "v"), 1, StepParams(step_c=1.0), StopRule(0.0, 1, 1))
        arcs = llpf_core._phase_arcs(vector(self.CURRENT).data, vector(dest), phase)
        assert arcs == pytest.approx(expected)

    def test_radius_toward_origin_is_float64(self):
        values = np.random.default_rng(0).normal(size=101).astype(np.float32)
        layout = (SliceInfo("w", 0, 101, "weight"),)
        current = ParamVector(values, layout)
        origin = ParamVector(np.zeros(101, dtype=np.float32), layout)
        phase = Phase(("w",), 1, StepParams(step_c=1.0), StopRule(0.0, 1, 1))
        arcs = llpf_core._phase_arcs(current.data, origin, phase)
        wide = values.astype(np.float64)
        assert arcs["w"] == float(np.sqrt(np.add.reduce(wide * wide)))

    def test_no_arc_term_gives_none(self):
        phase = Phase(("w", "v"), 1, StepParams(step_a=1.0), StopRule(0.0, 1, 1))
        current = vector(self.CURRENT)
        assert llpf_core._phase_arcs(current.data, current, phase) is None


def spy_generators(monkeypatch):
    """Record each repair round's generator and its state at the call."""
    seen = []
    real = llpf_core.train_until

    def spy(engine_plan, data, trainer, stop, rng, **kw):
        seen.append((rng, rng.bit_generator.state))
        return real(engine_plan, data, trainer, stop, rng, **kw)

    monkeypatch.setattr(llpf_core, "train_until", spy)
    return seen


def assert_one_fresh_generator_each(walks, seed):
    fresh = np.random.default_rng(seed).bit_generator.state
    for walk in walks:
        assert all(rng is walk[0][0] for rng, _ in walk)
        assert walk[0][1] == fresh
    assert walks[0][0][0] is not walks[1][0][0]


class TestHeldTrainingPlan:
    def test_each_walk_stage_binds_its_plan_once(self, blobs, quick_mode, monkeypatch):
        """The m2o stage binds one training plan for its 16-row batches and
        the two-phase m2m stage another for its 32-row batches, each once,
        however many repairs run."""
        train, _ = blobs
        g, mode = quick_mode
        bigger = mode.with_slices({n: mode.get(n) * 1.1 for n in ("fc1.weight", "fc2.weight")})
        stop, step = StopRule(0.0, 2, 1), StepParams(step_f=1e-3)
        cfg = CrossVarianceConfig(
            m2o=M2OConfig(iterations=5000, step=StepParams(step_a=5e-3), stop=stop, eta_base=1e-3,
                          batch_size=16),
            m2m_plan=PhasePlan((
                Phase(("fc1.weight", "fc1.bias"), 2, step, stop),
                Phase(tuple(g.slice_names()), 2, step, stop),
            )),
        )
        binds, repairs = [], []
        real_bind, real_train = Plan._bind, llpf_core.train_until

        def bind_spy(plan, n, xdtype):
            if plan.grad is not None:
                binds.append((plan, n))
            real_bind(plan, n, xdtype)

        def train_spy(engine_plan, *args, **kw):
            repairs.append(engine_plan)
            return real_train(engine_plan, *args, **kw)

        monkeypatch.setattr(Plan, "_bind", bind_spy)
        monkeypatch.setattr(llpf_core, "train_until", train_spy)
        record = connect_cross_variance(
            bigger, mode, cfg, TrainerConfig(lr=1e-3, batch_size=32), train, None,
            settings=SearchSettings(seed=3, mode_acceptance_loss=0.5), graph=g,
        )
        split = record.stage_boundary
        assert split > 1 and len(repairs) == split + 4
        assert [n for _, n in binds] == [16, 32]
        assert [plan for plan, _ in binds] == [repairs[0], repairs[split]]
        assert all(p is repairs[0] for p in repairs[:split])
        assert all(p is repairs[split] for p in repairs[split:])

    def test_walk_releases_its_plan_before_the_test_evaluations(
        self, blobs, quick_mode, monkeypatch
    ):
        train, test = blobs
        g, mode = quick_mode
        partner = mode.with_slices({"fc1.weight": mode.get("fc1.weight")[::-1]})
        plan = single_phase_plan(g, 3, StepParams(step_f=1e-3), StopRule(0.0, 1, 1))
        held, alive = [], []
        real_train, real_metrics = llpf_core.train_until, llpf_core._test_metrics

        def train_spy(engine_plan, *args, **kw):
            held.append(weakref.ref(engine_plan))
            return real_train(engine_plan, *args, **kw)

        def metrics_spy(*args):
            alive.extend(ref() is not None for ref in held)
            return real_metrics(*args)

        monkeypatch.setattr(llpf_core, "train_until", train_spy)
        monkeypatch.setattr(llpf_core, "_test_metrics", metrics_spy)
        settings = SearchSettings(seed=2, mode_acceptance_loss=0.0)
        llpf_m2m(mode, partner, plan, TrainerConfig(lr=1e-3), train, test, settings=settings, graph=g)
        assert alive == [False] * 3


class TestWalkGenerator:
    SEED = 11

    def test_one_generator_per_walk(self, blobs, quick_mode, monkeypatch):
        train, _ = blobs
        g, mode = quick_mode
        partner = mode.with_slices({"fc1.weight": mode.get("fc1.weight")[::-1]})
        step, stop = StepParams(step_f=1e-3), StopRule(0.0, 1, 10)
        plan = PhasePlan(
            (
                Phase(("fc1.weight", "fc1.bias"), 3, step, stop),
                Phase(tuple(g.slice_names()), 3, step, stop),
            )
        )
        settings = SearchSettings(seed=self.SEED, mode_acceptance_loss=0.0)
        trainer = TrainerConfig(lr=1e-5, batch_size=32)
        seen = spy_generators(monkeypatch)
        llpf_m2m(mode, partner, plan, trainer, train, None, settings=settings, graph=g)
        cfg = M2OConfig(iterations=3, step=StepParams(step_a=1e-3), stop=stop, eta_base=1e-3)
        llpf_m2o(mode, cfg, train, None, settings=settings, graph=g)
        assert len(seen) == 9
        assert_one_fresh_generator_each([seen[:6], seen[6:]], self.SEED)

    def test_cross_variance_stages_get_fresh_generators(self, blobs, quick_mode, monkeypatch):
        train, _ = blobs
        g, mode = quick_mode
        bigger = mode.with_slices({n: mode.get(n) * 1.1 for n in ("fc1.weight", "fc2.weight")})
        stop = StopRule(0.0, 1, 1)
        cfg = CrossVarianceConfig(
            m2o=M2OConfig(iterations=5000, step=StepParams(step_a=5e-3), stop=stop, eta_base=1e-3),
            m2m_plan=single_phase_plan(g, 3, StepParams(step_f=1e-3), stop),
        )
        seen = spy_generators(monkeypatch)
        record = connect_cross_variance(
            bigger, mode, cfg, TrainerConfig(lr=1e-3, batch_size=32), train, None,
            settings=SearchSettings(seed=self.SEED, mode_acceptance_loss=0.5), graph=g,
        )
        split = record.stage_boundary
        assert split > 0 and len(seen) == len(record.points) - 1
        assert_one_fresh_generator_each([seen[:split], seen[split:]], self.SEED)


def record_digest(records) -> str:
    """sha256 over every point's fields and every kept param, in order."""
    h = hashlib.sha256()
    for record in records:
        h.update(repr((record.endpoints, record.stage_boundary)).encode())
        for p in record.points:
            h.update(repr((
                p.iteration, p.phase, p.rolling_train_loss, sorted(p.per_layer_dist.items()),
                p.test_loss, p.test_acc, p.train_exhausted,
            )).encode())
            if p.params is not None:
                h.update(p.params.data.tobytes())
    return h.hexdigest()


class TestPinnedWalks:
    """Byte-level pins for the walks the benchmark never runs: an arc-anchored
    origin walk, a two-phase arc-anchored m2m and a cross-sphere chain."""

    DIGEST = "a325b21cc61d4425332466bd9743f6284cd9d7499e00478abd32241aa3b9fc98"

    def test_digest(self):
        train, test = gen_blobs(3, 20, 600, seed=7)
        g = mlp2(20, 16, 3)
        cfg = TrainerConfig(lr=0.1, momentum=0.9, weight_decay=1e-3, batch_size=32)
        a, b = (
            trained(g, init_params(g, s), train, cfg, StopRule(0.0, 600, 10),
                    np.random.default_rng(s))
            for s in (1, 2)
        )
        trainer = TrainerConfig(lr=1e-3, batch_size=32)
        settings = SearchSettings(seed=5, checkpoint_stride=3, mode_acceptance_loss=0.5)
        stop = StopRule(0.0, 2, 10)
        m2o = llpf_m2o(
            a, M2OConfig(iterations=8, step=StepParams(step_a=1e-2, step_c=2e-2), stop=stop,
                         eta_base=1e-3),
            train, test, settings=settings, graph=g,
        )
        arc_step = StepParams(step_a=1e-2, step_c=1e-2, step_f=1e-3)
        plan = PhasePlan((
            Phase(("fc1.weight", "fc1.bias"), 4, arc_step, stop),
            Phase(tuple(g.slice_names()), 4, arc_step, stop),
        ))
        partner = a.with_slices({"fc1.weight": a.get("fc1.weight")[::-1]})
        m2m = llpf_m2m(a, partner, plan, trainer, train, test, graph=g,
                       settings=replace(settings, mode_acceptance_loss=0.0))
        avs = connect_cross_variance(
            b, a,
            CrossVarianceConfig(
                m2o=M2OConfig(iterations=2000, step=StepParams(step_a=2e-2, step_c=1e-2),
                              stop=stop, eta_base=1e-3),
                m2m_plan=plan,
            ),
            trainer, train, test, settings=settings, graph=g,
        )
        assert avs.stage_boundary > 0
        assert record_digest([m2o, m2m, avs]) == self.DIGEST


class TestBatchNormPath:
    def test_m2m_over_fdf_phases_with_norm_layers(self):
        from llpf.nn_engine import Dataset

        rng = np.random.default_rng(3)
        g = resnet_micro(1, 8, 3, width=2)
        x = rng.normal(size=(96, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=96).astype(np.int64)
        data = Dataset(x, y, "train", 3)

        def quick(seed):
            cfg = TrainerConfig(lr=0.05, momentum=0.9, batch_size=16)
            return trained(
                g, init_params(g, seed), data, cfg, StopRule(0.0, 150, 10),
                np.random.default_rng(seed),
            )

        a, b = quick(1), quick(2)
        plan = fdf_phase_plan(g, 2, StepParams(step_f=1e-3), StopRule(0.0, 1, 10))
        record = llpf_m2m(
            a, b, plan, TrainerConfig(lr=1e-4, batch_size=16), data, None,
            settings=SearchSettings(
                seed=0, mode_acceptance_loss=0.0, variance_ratio_bound=50.0,
                checkpoint_stride=1,
            ),
            graph=g,
        )
        assert len(record.points) == 1 + 2 * len(plan.phases)
        # norm slices are moved but never variance-corrected: their recorded
        # variance tracks training, not the start mode's captured target
        targets = {n: layer_stats(a.get(n)).variance for n in g.slice_names()}
        for point in record.stored_points():
            for info in point.params.layout:
                if info.kind == "weight" and targets[info.name] > 1e-12:
                    got = layer_stats(point.params.get(info.name)).variance
                    assert abs(got - targets[info.name]) / targets[info.name] < 1e-4


class TestMoveTowardProperties:
    def test_never_overshoots_and_reduces_distance(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            n = int(rng.integers(2, 40))
            p = vector({"w": rng.normal(size=n)})
            d = vector({"w": rng.normal(size=n)})
            step = StepParams(
                step_a=float(rng.uniform(0, 0.5)),
                step_f=float(rng.uniform(0, 0.5)) + 1e-9,
            )
            before = float(np.linalg.norm(d.get("w") - p.get("w")))
            out = moved(p, d, None, step, ["w"])
            after = float(np.linalg.norm(d.get("w") - out.get("w")))
            expected = max(0.0, before - (step.step_a * before + step.step_f))
            assert after <= before + 1e-12
            assert after == pytest.approx(expected, abs=1e-9)


class TestPathStepAugmentation:
    def test_repair_rounds_ignore_the_dataset_spec(self):
        from llpf.nn_engine import AugmentSpec, Dataset

        rng = np.random.default_rng(6)
        x = rng.normal(size=(80, 1, 8, 8)).astype(np.float32)
        y = rng.integers(0, 3, size=80).astype(np.int64)
        plain = Dataset(x, y, "train", 3)
        spec = AugmentSpec(rotate_deg=5, crop_pad=2, fill=0.0)
        augmented = replace(plain, augment=spec)
        g = lenet_micro(in_channels=1, hw=8, classes=3)
        mode = init_params(g, 0)
        trainer = TrainerConfig(lr=1e-2, batch_size=8)
        settings = SearchSettings(seed=0, mode_acceptance_loss=0.0, checkpoint_stride=1)
        stop = StopRule(0.0, 2, 10)
        plan = PhasePlan((Phase(tuple(g.slice_names()), 2, StepParams(step_f=1e-3), stop),))
        m2o_cfg = M2OConfig(
            iterations=2, step=StepParams(step_a=1e-2), stop=stop, eta_base=1e-2,
            excluded_layers=tuple(n for n in g.slice_names() if n.endswith(".bias")),
            batch_size=trainer.batch_size,
        )

        def m2m(data):
            return llpf_m2m(mode, mode, plan, trainer, data, None, settings=settings, graph=g)

        def m2o(data):
            return llpf_m2o(mode, m2o_cfg, data, None, settings=settings, graph=g)

        for run in (m2m, m2o):
            a, b = run(plain), run(augmented)
            assert len(a.points) == len(b.points) == 3
            for p, q in zip(a.points, b.points):
                assert p.rolling_train_loss == q.rolling_train_loss
                assert p.params.data.tobytes() == q.params.data.tobytes()
            # the repair rounds did train: the walk left the start mode
            assert a.points[-1].params.data.tobytes() != mode.data.tobytes()
