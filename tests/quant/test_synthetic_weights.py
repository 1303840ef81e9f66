"""Tests for the calibrated synthetic weight generator.

The generator substitutes for the unavailable OPT checkpoints; these
tests pin it to the chunk statistics the paper reports (DESIGN.md,
calibration notes).
"""

import zlib

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.models import OPT_125M, OpKind
from repro.packing import encode_matrix
from repro.quant import (
    WeightProfile,
    generate_int8_weights,
    generate_layer_weights,
    layer_weight_specs,
    profile_for_op,
    stable_seed,
    weight_shape_for_op,
)


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        p = WeightProfile("x", 1.5)
        a = generate_int8_weights((64, 64), p, seed=7)
        b = generate_int8_weights((64, 64), p, seed=7)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        p = WeightProfile("x", 1.5)
        a = generate_int8_weights((64, 64), p, seed=7)
        b = generate_int8_weights((64, 64), p, seed=8)
        assert not np.array_equal(a, b)

    def test_distribution_is_peaked_at_zero(self):
        p = WeightProfile("x", 1.0, outlier_frac=0.0)
        w = generate_int8_weights((256, 256), p, seed=0)
        zero_frac = np.mean(w == 0)
        assert zero_frac > 0.3  # Laplace(b=1) discretized: ~39% zeros

    def test_outliers_present_at_requested_rate(self):
        p = WeightProfile("x", 1.0, outlier_frac=0.01, outlier_min=100)
        w = generate_int8_weights((128, 128), p, seed=0)
        big = np.mean(np.abs(w.astype(np.int32)) >= 100)
        assert big == pytest.approx(0.01, abs=0.003)

    def test_weights_of_a_fixed_seed_are_pinned(self):
        """Weight-level golden: the draws behind every packed statistic.

        The packing statistics, and so every modeled packed-weight
        number, derive from numpy's ``laplace`` / ``choice`` /
        ``integers`` streams. A numpy release that changes one of them
        fails here, naming the cause, rather than as a drift in the
        model-level goldens.
        """
        profile = profile_for_op(OpKind.Q_PROJ, 0, 12)
        w = generate_int8_weights(
            (64, 96), profile, seed=stable_seed("opt-125m", "q_proj", 0, 0)
        )
        assert w.ravel()[:64].tolist() == [
            -1, -6, 2, 22, 2, 0, 3, -2, 7, 7, -6, 1, 0, -2, 1, -4,
            3, -7, 9, 0, 1, 0, 0, -2, -6, -1, 7, -4, 2, 1, 0, 0,
            18, 1, 0, 2, 0, -4, 8, -1, 1, -8, -2, -11, 9, -2, -4, 6,
            -3, 1, -2, 2, -1, -1, 3, 7, -4, -1, 1, 3, 4, 0, 7, -7,
        ]
        # The whole matrix, outlier positions and magnitudes included.
        assert zlib.crc32(w.tobytes()) == 460110202

    def test_rejects_bad_profile(self):
        with pytest.raises(ConfigError):
            WeightProfile("x", 0.0)
        with pytest.raises(ConfigError):
            WeightProfile("x", 1.0, outlier_frac=0.5)
        with pytest.raises(ConfigError):
            WeightProfile("x", 1.0, outlier_min=0)


class TestPaperCalibration:
    def test_mlp1_unique_chunks_match_sec63(self):
        """OPT-125M decoder-1 MLP1: ~1.3k unique chunks, 11-bit IDs."""
        profile = profile_for_op(OpKind.MLP_FC1, 0, OPT_125M.n_layers)
        w = generate_int8_weights(
            weight_shape_for_op(OPT_125M, OpKind.MLP_FC1), profile, seed=1
        )
        encoded = encode_matrix(w, chunk_size=2)
        assert 800 <= encoded.unique.n_unique <= 2600
        assert encoded.id_bits in (10, 11, 12)

    def test_mlp_reduction_ratio_in_fig4a_band(self):
        """Reduction ratios of 10^2 - 10^3 (Fig. 4a)."""
        profile = profile_for_op(OpKind.MLP_FC1, 0, OPT_125M.n_layers)
        w = generate_int8_weights((3072, 768), profile, seed=2)
        ratio = encode_matrix(w, chunk_size=2).reduction_ratio
        assert 100 <= ratio <= 2000

    def test_attention_less_redundant_than_mlp(self):
        mlp = profile_for_op(OpKind.MLP_FC1, 0, OPT_125M.n_layers)
        attn = profile_for_op(OpKind.Q_PROJ, 0, OPT_125M.n_layers)
        assert attn.core_scale > mlp.core_scale

    def test_redundancy_decays_with_depth(self):
        first = profile_for_op(OpKind.MLP_FC1, 0, 12)
        last = profile_for_op(OpKind.MLP_FC1, 11, 12)
        assert last.core_scale > first.core_scale


class TestLayerSpecs:
    def test_six_matrices_per_layer(self):
        specs = list(layer_weight_specs(OPT_125M, 0))
        assert len(specs) == 6
        kinds = {k for k, _, _ in specs}
        assert OpKind.MLP_FC2 in kinds

    def test_shapes_follow_model_dims(self):
        assert weight_shape_for_op(OPT_125M, OpKind.MLP_FC1) == (3072, 768)
        assert weight_shape_for_op(OPT_125M, OpKind.OUT_PROJ) == (768, 768)

    def test_weight_free_op_rejected(self):
        with pytest.raises(ConfigError):
            weight_shape_for_op(OPT_125M, OpKind.QKT)
        with pytest.raises(ConfigError):
            profile_for_op(OpKind.SOFTMAX, 0, 12)

    def test_generate_layer_weights_is_deterministic(self):
        tiny = OPT_125M
        a = generate_layer_weights(tiny, 0)[OpKind.Q_PROJ]
        b = generate_layer_weights(tiny, 0)[OpKind.Q_PROJ]
        assert np.array_equal(a, b)

    def test_stable_seed_varies_with_inputs(self):
        assert stable_seed("a", 1) != stable_seed("a", 2)
        assert stable_seed("a", 1) == stable_seed("a", 1)
