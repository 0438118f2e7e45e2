import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcslab as q

SQRT_2_OVER_PI = 0.7978845608028654


class TestDynamicRange:
    def test_max_magnitude(self):
        assert q.dynamic_range(np.array([-0.2, 0.7, -0.9])) == pytest.approx(0.9)

    def test_all_zero_degenerate(self):
        with pytest.raises(q.DegenerateRangeError):
            q.dynamic_range(np.array([0.0]))

    def test_empty_rejected(self):
        with pytest.raises(q.InvalidParameterError):
            q.dynamic_range(np.array([]))

    def test_grows_with_length(self):
        # Order-statistics property: the peak of a longer Gaussian draw is
        # larger on average (brute sampling oracle).
        rng = np.random.default_rng(21)
        short, full = [], []
        for _ in range(50):
            v = rng.standard_normal(3000)
            short.append(q.dynamic_range(v[:100]))
            full.append(q.dynamic_range(v))
        assert np.mean(full) > np.mean(short)


class TestUniformQuantize:
    def test_midpoint_examples(self):
        assert q.uniform_quantize(np.array([0.3]), 1.0, 2)[0] == pytest.approx(0.25)
        assert q.uniform_quantize(np.array([5.0]), 1.0, 2)[0] == pytest.approx(0.75)
        assert q.uniform_quantize(np.array([-1.0]), 1.0, 3)[0] == pytest.approx(-0.875)

    @pytest.mark.parametrize("b", range(1, 9))
    def test_error_within_half_cell_on_grid(self, b):
        t = 1.7
        delta = t * 2.0 ** (1 - b)
        v = np.linspace(-t, t, 10_001)
        err = np.abs(v - q.uniform_quantize(v, t, b))
        assert np.max(err) <= delta / 2 + 1e-12

    def test_idempotent_and_alphabet(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(5000)
        out = q.uniform_quantize(v, 2.0, 4)
        assert np.array_equal(q.uniform_quantize(out, 2.0, 4), out)
        assert np.unique(out).size <= 2**4
        delta = 2.0 * 2.0 ** (1 - 4)
        assert np.max(np.abs(out)) <= 2.0 - delta / 2 + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(q.InvalidParameterError):
            q.uniform_quantize(np.array([np.nan]), 1.0, 2)
        with pytest.raises(q.InvalidParameterError):
            q.uniform_quantize(np.array([0.0]), 0.0, 2)
        with pytest.raises(q.InvalidParameterError):
            q.uniform_quantize(np.array([0.0]), 1.0, 0)
        with pytest.raises(q.InvalidParameterError):
            q.uniform_quantize(np.array([0.0]), 1.0, 33)

    @given(
        st.floats(min_value=0.1, max_value=100.0),
        st.integers(min_value=1, max_value=10),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_error_bound_property(self, t, b, frac):
        v = np.array([frac * t])
        out = q.uniform_quantize(v, t, b)
        assert abs(out[0] - v[0]) <= t * 2.0 ** (1 - b) / 2 + 1e-9 * t


class TestLloydMax:
    def test_one_bit_levels(self):
        spec = q.lloyd_max(1, 1.0)
        assert spec.converged
        assert spec.levels == pytest.approx([-SQRT_2_OVER_PI, SQRT_2_OVER_PI], abs=1e-9)
        assert spec.thresholds == pytest.approx([0.0], abs=1e-12)
        # 1 - 2/pi is the half-Gaussian conditional variance.
        assert spec.mse == pytest.approx(1.0 - 2.0 / math.pi, rel=1e-9)

    def test_scale_equivariance(self):
        unit = q.lloyd_max(1, 1.0)
        scaled = q.lloyd_max(1, 4.0)
        assert scaled.levels == pytest.approx(2.0 * unit.levels, rel=1e-9)

    def test_two_bit_fixed_point(self):
        spec = q.lloyd_max(2, 1.0)
        # Frozen from an independent dense-grid fixed-point oracle.
        assert spec.levels == pytest.approx(
            [-1.510420, -0.452780, 0.452780, 1.510420], abs=2e-5
        )
        assert spec.mse == pytest.approx(0.1174818478, abs=1e-6)

    def test_nearest_neighbor_condition(self):
        spec = q.lloyd_max(3, 2.0)
        mids = 0.5 * (spec.levels[:-1] + spec.levels[1:])
        assert np.allclose(spec.thresholds, mids, atol=1e-12)

    def test_distortion_decreases_with_bits(self):
        mses = [q.lloyd_max(b, 1.0).mse for b in range(1, 6)]
        assert all(a > b for a, b in zip(mses, mses[1:]))

    def test_beats_wide_uniform_quantizer(self):
        rng = np.random.default_rng(31)
        samples = rng.standard_normal(400_000)
        for b in range(1, 7):
            spec = q.lloyd_max(b, 1.0)
            lm = q.distortion(samples, q.apply_codebook(samples, spec))
            uni = q.distortion(samples, q.uniform_quantize(samples, 4.0, b))
            assert lm <= uni

    def test_converges_to_fixed_point(self):
        for b in range(1, 13):
            assert q.lloyd_max(b, 1.0).converged, b
        # Panter-Dite high-resolution distortion (pi sqrt(3) / 2) 4^-b at b = 8.
        assert q.lloyd_max(8, 1.0).mse <= math.pi * math.sqrt(3.0) / 2.0 * 4.0**-8

    def test_invalid_parameters(self):
        with pytest.raises(q.InvalidParameterError):
            q.lloyd_max(0, 1.0)
        with pytest.raises(q.InvalidParameterError):
            q.lloyd_max(2, 0.0)
        with pytest.raises(q.InvalidParameterError):
            q.lloyd_max(2, 1.0, max_iter=0)

    def test_spec_invariants_enforced(self):
        with pytest.raises(q.InvalidParameterError):
            q.LloydMaxSpec(levels=np.array([-1.0, 1.0]), thresholds=np.array([0.0, 0.5]))
        with pytest.raises(q.InvalidParameterError):
            q.LloydMaxSpec(levels=np.array([1.0, -1.0]), thresholds=np.array([0.0]))


class TestApplyCodebook:
    def test_sign_convention(self):
        out = q.apply_codebook(np.array([-0.1, 0.0, 2.0]), q.SignSpec())
        assert np.array_equal(out, [-1.0, 1.0, 1.0])

    def test_lloyd_nearest_level(self):
        spec = q.lloyd_max(1, 1.0)
        assert q.apply_codebook(np.array([0.3]), spec)[0] == pytest.approx(
            SQRT_2_OVER_PI, abs=1e-9
        )

    def test_uniform_dispatch(self):
        out = q.apply_codebook(np.array([-1.0]), q.UniformSpec(t=1.0, b=3))
        assert out[0] == pytest.approx(-0.875)

    def test_unknown_spec(self):
        with pytest.raises(q.InvalidParameterError):
            q.apply_codebook(np.array([0.0]), object())

    @pytest.mark.parametrize("c", [0.5, 1.0, 7.3])
    def test_sign_scale_invariance(self, c):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(100)
        assert np.array_equal(q.sign_quantize(c * v), q.sign_quantize(v))


class TestDistortion:
    def test_basics(self):
        v = np.array([1.0, -1.0])
        assert q.distortion(v, v) == 0.0
        assert q.distortion(v, np.zeros(2)) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(q.DimensionMismatchError):
            q.distortion(np.zeros(3), np.zeros(2))


def test_import_does_not_load_scipy():
    code = (
        "import qcslab, sys; "
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
