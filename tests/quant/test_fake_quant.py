"""Tests for absmax W8A8 fake quantization."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigError
from repro.quant import absmax_scale, dequantize, quantize, quantize_per_channel


class TestAbsmaxScale:
    def test_scale_maps_absmax_to_127(self):
        x = np.array([-2.0, 1.0, 0.5])
        assert absmax_scale(x, bits=8) == pytest.approx(2.0 / 127)

    def test_zero_tensor_gets_safe_scale(self):
        scale = absmax_scale(np.zeros(4), bits=8)
        assert float(scale) > 0

    def test_per_axis_scales(self):
        x = np.array([[1.0, -1.0], [10.0, 5.0]])
        scales = absmax_scale(x, bits=8, axis=1)
        assert scales.shape == (2, 1)
        assert scales[1, 0] == pytest.approx(10.0 / 127)

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigError):
            absmax_scale(np.ones(3), bits=7)


class TestQuantize:
    def test_range_is_symmetric(self):
        q = quantize(np.array([-4.0, 4.0]), bits=8)
        assert q.data.tolist() == [-127, 127]

    def test_roundtrip_error_bounded_by_half_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=1000)
        q = quantize(x, bits=8)
        step = float(q.scale)
        assert np.abs(q.dequantize() - x).max() <= step / 2 + 1e-12

    def test_int4_uses_int8_storage(self):
        q = quantize(np.linspace(-1, 1, 16), bits=4)
        assert q.data.dtype == np.int8
        assert q.data.max() <= 7

    def test_int16(self):
        q = quantize(np.linspace(-1, 1, 16), bits=16)
        assert q.data.dtype == np.int16

    def test_dequantize_helper_matches_method(self):
        q = quantize(np.array([0.5, -0.25]))
        assert np.array_equal(dequantize(q), q.dequantize())

    @given(
        hnp.arrays(
            np.float64,
            st.integers(1, 64),
            elements=st.floats(-100, 100, allow_nan=False),
        )
    )
    # max|x| / 127 underflows to 0.0 here: the scale must still be
    # positive, and quantizing must not divide by it.
    @example(np.array([5e-324, 0.0]))
    def test_quantized_values_in_range(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # Per tensor, and per slice along the only axis.
            for q in (quantize(x, bits=8), quantize(x, bits=8, axis=0)):
                assert np.all(q.scale > 0)
                assert q.data.max(initial=0) <= 127
                assert q.data.min(initial=0) >= -127


class TestPerChannel:
    def test_channel_scales_isolate_outliers(self):
        w = np.ones((2, 8))
        w[0] *= 100.0
        q = quantize_per_channel(w)
        # Both rows should quantize to full-scale 127 despite the 100x gap.
        assert np.all(q.data == 127)

    def test_rejects_non_2d(self):
        with pytest.raises(ConfigError):
            quantize_per_channel(np.ones(5))

    def test_per_channel_beats_per_tensor_on_imbalanced_rows(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=(4, 128))
        w[0] *= 50.0
        per_tensor = quantize(w)
        per_channel = quantize_per_channel(w)
        err_t = np.linalg.norm(per_tensor.dequantize() - w)
        err_c = np.linalg.norm(per_channel.dequantize() - w)
        assert err_c < err_t
