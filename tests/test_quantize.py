import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcslab as q


class TestDynamicRange:
    def test_max_magnitude(self):
        assert q.dynamic_range(np.array([-0.2, 0.7, -0.9])) == pytest.approx(0.9)

    def test_all_zero_degenerate(self):
        with pytest.raises(q.QcsLabError, match="all-zero input has no usable range"):
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


class TestSignQuantize:
    def test_sign_convention(self):
        out = q.sign_quantize(np.array([-0.1, 0.0, 2.0]))
        assert np.array_equal(out, [-1.0, 1.0, 1.0])

    @pytest.mark.parametrize("c", [0.5, 1.0, 7.3])
    def test_sign_scale_invariance(self, c):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(100)
        assert np.array_equal(q.sign_quantize(c * v), q.sign_quantize(v))


def test_import_does_not_load_scipy(child_env):
    code = (
        "import qcslab, sys; "
        "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr


def test_import_does_not_load_statistics(child_env):
    code = "import qcslab, sys; assert 'statistics' not in sys.modules"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 0, proc.stderr
