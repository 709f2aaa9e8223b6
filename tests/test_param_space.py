import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from llpf.harness_cli.checkpoint import load_checkpoint, save_checkpoint
from llpf.llpf_core import StepParams, move_toward
from llpf.nn_engine import Dataset, Plan, StopRule, TrainerConfig, init_params, mlp2, train_until
from llpf.param_space import (
    EPS_VAR,
    DegenerateVariance,
    Layout,
    LayoutMismatch,
    ParamVector,
    SliceInfo,
    arc_length,
    l2_distance,
    layer_stats,
    radial_norm_sq,
    variance_correction,
)


def two_layer_vector(values_a, values_b, dtype=np.float64):
    data = np.concatenate([values_a, values_b]).astype(dtype)
    layout = (
        SliceInfo("a.weight", 0, len(values_a), "weight"),
        SliceInfo("b.weight", len(values_a), len(values_b), "weight"),
    )
    return ParamVector(data, layout)


class TestParamVector:
    def test_layout_must_cover_data(self):
        with pytest.raises(ValueError, match="covers"):
            ParamVector(np.zeros(5), (SliceInfo("w", 0, 4, "weight"),))

    def test_layout_gaps_rejected(self):
        layout = (SliceInfo("a", 0, 2, "weight"), SliceInfo("b", 3, 2, "weight"))
        with pytest.raises(ValueError, match="offset"):
            ParamVector(np.zeros(5), layout)

    def test_duplicate_names_rejected(self):
        layout = (SliceInfo("a", 0, 2, "weight"), SliceInfo("a", 2, 2, "bias"))
        with pytest.raises(ValueError, match="duplicate"):
            ParamVector(np.zeros(4), layout)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ParamVector(np.zeros(2), (SliceInfo("a", 0, 2, "gamma"),))

    def test_data_is_read_only(self):
        pv = two_layer_vector([1.0, 2.0], [3.0])
        with pytest.raises(ValueError):
            pv.data[0] = 9.0
        with pytest.raises(ValueError):
            pv.get("a.weight")[0] = 9.0

    def test_with_slices_is_pure(self):
        pv = two_layer_vector([1.0, 2.0], [3.0])
        out = pv.with_slices({"b.weight": np.array([7.0])})
        assert out.get("b.weight")[0] == 7.0
        assert pv.get("b.weight")[0] == 3.0
        assert out.layout == pv.layout

    def test_compatibility(self):
        a = two_layer_vector([1.0, 2.0], [3.0])
        b = two_layer_vector([0.0, 0.0], [0.0])
        c = two_layer_vector([0.0], [0.0, 0.0])
        assert a.layout_compatible(b)
        assert not a.layout_compatible(c)
        with pytest.raises(LayoutMismatch):
            a.require_compatible(c)


class TestLayout:
    def test_plain_sequence_validated_once(self):
        pv = two_layer_vector([1.0, 2.0], [3.0])
        assert isinstance(pv.layout, Layout)
        assert pv.layout.size == 3 and pv.layout.index["b.weight"].offset == 2
        assert pv.names() == ("a.weight", "b.weight")

    def test_derived_vectors_share_the_graph_layout(self, monkeypatch, tmp_path):
        g = mlp2(4, 3, 2)
        layout = g.layout

        def revalidate(cls, slices):
            raise AssertionError("layout validated again")

        monkeypatch.setattr(Layout, "__new__", revalidate)
        a = init_params(g, 1)
        # train_until and move_toward update flat arrays; the graph wraps them
        data = Dataset(np.ones((4, 4), dtype=np.float32), np.zeros(4, dtype=np.int64), "train", 2)
        p = a.copy_data()
        rng = np.random.default_rng(0)
        train_until(Plan(g, p, np.empty_like(p)), data, TrainerConfig(lr=0.1), StopRule(0.0, 1), rng)
        stepped = g.wrap(p)
        replaced = a.with_slices({"fc2.bias": np.ones(2)})
        p = a.copy_data()
        move_toward(p, init_params(g, 2), None, StepParams(step_f=0.1), ["fc1.weight"])
        moved = g.wrap(p)
        save_checkpoint(a, g, tmp_path / "a.ckpt")
        loaded = load_checkpoint(g, tmp_path / "a.ckpt")
        for pv in (a, stepped, replaced, moved, loaded):
            assert pv.layout is layout


class TestLayerStats:
    def test_hand_case(self):
        s = layer_stats(np.array([1.0, 2.0, 3.0]))
        assert s.mean == pytest.approx(2.0)
        assert s.variance == pytest.approx(2.0 / 3.0)
        assert s.n == 3

    def test_constant_vector(self):
        s = layer_stats(np.full(17, 3.25))
        assert s.mean == 3.25
        assert s.variance == 0.0

    def test_symmetric_pair(self):
        s = layer_stats(np.array([1.0, -1.0]))
        assert s.mean == 0.0
        assert s.variance == pytest.approx(1.0)

    def test_empty_slice(self):
        with pytest.raises(ValueError, match="empty layer"):
            layer_stats(np.array([]))

    def test_wide_accumulation_from_f32(self):
        # many identical f32 values: naive f32 accumulation would drift
        values = np.full(10**6, 0.1, dtype=np.float32)
        s = layer_stats(values)
        assert s.mean == pytest.approx(float(np.float32(0.1)), rel=1e-12)
        assert s.variance < 1e-18


def corrected(w, v):
    """A corrected copy of ``w``."""
    out = np.array(w, copy=True)
    assert variance_correction(out, v) is None
    return out


class TestVarianceCorrection:
    def test_hand_case_doubling(self):
        out = corrected(np.array([1.0, -1.0]), 4.0)
        assert out == pytest.approx([2.0, -2.0])

    def test_hand_case_offset(self):
        out = corrected(np.array([0.5, 1.5]), 1.0)
        assert out == pytest.approx([0.0, 2.0])

    def test_already_on_target_unchanged(self):
        w = np.array([0.5, 1.5, 2.5, -0.5])
        v = layer_stats(w).variance
        assert np.array_equal(corrected(w, v), w)

    def test_zero_target_collapses_to_mean(self):
        out = corrected(np.array([1.0, 2.0, 3.0]), 0.0)
        assert out == pytest.approx([2.0, 2.0, 2.0])

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVariance, match="degenerate variance"):
            variance_correction(np.full(8, 1.0), 0.5)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError):
            variance_correction(np.array([1.0, -1.0]), -1.0)

    def test_failed_correction_leaves_the_slice_untouched(self):
        w = np.array([1.0, 1.0 + 1e-9, 1.0])
        before = w.copy()
        with pytest.raises(DegenerateVariance):
            variance_correction(w, 2.0)
        assert np.array_equal(w, before)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("v", [0.0, 0.37])
    def test_in_place_matches_the_allocating_reference(self, dtype, v):
        """Rescaling a slice of a larger array in place gives the bits of
        the earlier allocating form and leaves the rest of the array as it
        was."""
        rng = np.random.default_rng(4)
        data = rng.normal(0.2, 0.6, size=300).astype(dtype)
        view = data[50:250]
        wide = view.astype(np.float64)
        mean = np.add.reduce(wide) / wide.size
        dev = wide - mean
        dev -= np.add.reduce(dev) / wide.size
        var = float(np.add.reduce(dev * dev) / wide.size)
        ref = np.full_like(wide, mean) if v == 0.0 else mean + math.sqrt(v / var) * dev
        expect = data.copy()
        expect[50:250] = ref.astype(dtype)
        variance_correction(view, v)
        assert data.tobytes() == expect.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=2, max_value=200),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=2.0),
        st.floats(min_value=0.25, max_value=4.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_correction_properties(self, n, mean, std, scale, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(mean, std, size=n)
        if layer_stats(w).variance <= EPS_VAR:
            return
        v = layer_stats(w).variance * scale
        out = corrected(w, v)
        stats = layer_stats(out)
        eps = np.finfo(np.float64).eps
        assert abs(stats.mean - layer_stats(w).mean) <= 8 * eps * (1 + abs(mean))
        assert abs(stats.variance - v) / max(v, EPS_VAR) <= 1e-10
        again = corrected(out, v)
        assert np.allclose(again, out, rtol=1e-12, atol=1e-13 * std)

    def test_storage_precision_tolerance(self):
        rng = np.random.default_rng(3)
        w = rng.normal(0.3, 0.7, size=500).astype(np.float32)
        v = 0.9
        out = corrected(w, v)
        assert out.dtype == np.float32
        assert abs(layer_stats(out).variance - v) / v <= 1e-5


class TestL2Distance:
    def test_three_four_five(self):
        a = two_layer_vector([0.0, 0.0], [1.0])
        b = two_layer_vector([3.0, 4.0], [1.0])
        d = l2_distance(a.data, b, ["a.weight"])
        assert d["a.weight"] == pytest.approx(5.0)

    def test_identity(self):
        a = two_layer_vector([1.0, 2.0], [3.0])
        d = l2_distance(a.data, a, a.names())
        assert all(v == 0.0 for v in d.values())

    def test_against_fsum_oracle(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=400).astype(np.float32)
        y = rng.normal(size=400).astype(np.float32)
        a = two_layer_vector(x[:300], x[300:], np.float32)
        b = two_layer_vector(y[:300], y[300:], np.float32)
        d = l2_distance(a.data, b, a.names())
        for name, lo, hi in (("a.weight", 0, 300), ("b.weight", 300, 400)):
            expected = math.sqrt(
                math.fsum((float(x[i]) - float(y[i])) ** 2 for i in range(lo, hi))
            )
            assert d[name] == pytest.approx(expected, rel=1e-12)

    def test_empty_layers_rejected(self):
        a = two_layer_vector([1.0, 2.0], [3.0])
        with pytest.raises(ValueError, match="non-empty"):
            l2_distance(a.data, a, [])


class TestRadialNormSq:
    def test_hand_cases(self):
        assert radial_norm_sq(np.array([3.0, 4.0])) == pytest.approx(25.0)
        assert radial_norm_sq(np.zeros(10)) == 0.0

    def test_matches_population_variance_at_zero_mean(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, size=1000)
        x -= x.mean()  # force exact zero mean
        n_var = x.size * layer_stats(x).variance
        assert abs(radial_norm_sq(x) - n_var) / radial_norm_sq(x) < 1e-12


class TestArcLength:
    def test_quarter_circle(self):
        r = 2.5
        assert arc_length([r, 0.0], [0.0, r]) == pytest.approx(np.pi / 2 * r)

    def test_coincident_points(self):
        assert arc_length([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_antipodal(self):
        p = np.array([1.0, -2.0, 0.5])
        assert arc_length(p, -p) == pytest.approx(np.pi * np.linalg.norm(p))

    def test_zero_norm_rejected(self):
        with pytest.raises(ValueError, match="arc undefined at center"):
            arc_length([0.0, 0.0], [1.0, 0.0])
        with pytest.raises(ValueError, match="arc undefined at center"):
            arc_length([1.0, 0.0], [0.0, 0.0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.normal(size=6)
        q = rng.normal(size=6)
        if np.linalg.norm(p) == 0 or np.linalg.norm(q) == 0:
            return
        assert arc_length(p, q) == pytest.approx(arc_length(q, p), rel=1e-12)

    def test_small_angle_matches_chord(self):
        # rotate by a tiny angle in the plane of the first two coordinates
        phi = 5e-4
        r = 3.0
        p = np.array([r, 0.0, 0.0])
        q = np.array([r * np.cos(phi), r * np.sin(phi), 0.0])
        arc = arc_length(p, q)
        chord = float(np.linalg.norm(p - q))
        assert abs(arc - chord) / arc < 1e-6
