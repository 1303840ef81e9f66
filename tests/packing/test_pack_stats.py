"""Tests for packing statistics and the planner cache."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.errors import ConfigError
from repro.models import OPT_125M, OpKind, TransformerConfig
from repro.packing import (
    PackingConfig,
    PackingLevel,
    PackingPlanner,
    id_histogram,
    layer_reduction_ratios,
    model_reduction_ratio_table,
    packed_size_bits,
    reduction_ratio,
)
from repro.quant import (
    generate_int8_weights,
    profile_for_op,
    stable_seed,
    weight_shape_for_op,
)

#: Prints one model's effective-bits table as sorted JSON.
_BITS_TABLE_SCRIPT = """
import json
from repro.models import TransformerConfig
from repro.packing import PackingPlanner
model = TransformerConfig("hash-seed-probe", 2, 128, 4, 256, max_seq_len=256)
table = PackingPlanner(depth_buckets=None).effective_bits_table(model)
print(json.dumps({k.value: v for k, v in table.items()}, sort_keys=True))
"""


class TestStats:
    def test_reduction_ratio_shortcut(self, rng):
        w = np.zeros((16, 16), dtype=np.int8)
        assert reduction_ratio(w, 2) == 128.0

    def test_id_histogram_shapes(self, rng):
        w = rng.integers(-8, 9, size=(32, 32)).astype(np.int8)
        edges, counts = id_histogram(w, bins=16)
        assert len(edges) == 17
        assert counts.sum() == 32 * 32 // 2

    def test_reindexed_histogram_concentrates_low_ids(self, rng):
        w = np.clip(np.round(rng.laplace(0, 2.0, size=(64, 64))), -127, 127).astype(np.int8)
        _, before = id_histogram(w, bins=8, reindexed=False)
        _, after = id_histogram(w, bins=8, reindexed=True)
        assert after[0] >= before[0]

    def test_layer_reduction_ratios_cover_all_weight_ops(self):
        tiny = TransformerConfig("t", 2, 64, 4, 256)
        ratios = layer_reduction_ratios(tiny, 0)
        assert set(ratios) == {
            OpKind.Q_PROJ,
            OpKind.K_PROJ,
            OpKind.V_PROJ,
            OpKind.OUT_PROJ,
            OpKind.MLP_FC1,
            OpKind.MLP_FC2,
        }
        assert all(r >= 1.0 for r in ratios.values())

    def test_model_table_has_one_row_per_layer(self):
        tiny = TransformerConfig("t", 3, 64, 4, 256)
        table = model_reduction_ratio_table(tiny)
        assert [layer for layer, _ in table] == [0, 1, 2]


class TestPlanner:
    def test_stats_cached_within_process(self, small_model):
        planner = PackingPlanner(depth_buckets=1)
        first = planner.stats_for(small_model, OpKind.Q_PROJ, 0)
        second = planner.stats_for(small_model, OpKind.Q_PROJ, 0)
        assert first is second

    def test_depth_buckets_reuse_representative_layers(self, small_model):
        planner = PackingPlanner(depth_buckets=1)
        a = planner.stats_for(small_model, OpKind.MLP_FC1, 0)
        b = planner.stats_for(small_model, OpKind.MLP_FC1, small_model.n_layers - 1)
        assert a is b  # same bucket -> same cached object

    def test_exact_mode_distinguishes_layers(self, small_model):
        planner = PackingPlanner(depth_buckets=None)
        a = planner.stats_for(small_model, OpKind.MLP_FC1, 0)
        b = planner.stats_for(small_model, OpKind.MLP_FC1, small_model.n_layers - 1)
        assert a.packed_bits != b.packed_bits

    def test_effective_bits_never_exceed_raw(self, small_model):
        planner = PackingPlanner()
        stats = planner.stats_for(small_model, OpKind.MLP_FC2, 0)
        assert stats.effective_bits <= stats.raw_bits
        assert stats.compression > 0

    def test_naive_level_compresses_less_than_reindex(self, small_model):
        naive = PackingPlanner(PackingConfig(level=PackingLevel.NAIVE), depth_buckets=1)
        reindex = PackingPlanner(PackingConfig(level=PackingLevel.REINDEX), depth_buckets=1)
        n = naive.stats_for(small_model, OpKind.MLP_FC1, 0)
        r = reindex.stats_for(small_model, OpKind.MLP_FC1, 0)
        assert r.packed_bits < n.packed_bits

    def test_weight_free_op_rejected(self, small_model):
        with pytest.raises(ConfigError):
            PackingPlanner().stats_for(small_model, OpKind.SOFTMAX, 0)

    def test_bad_bucket_count_rejected(self):
        with pytest.raises(ConfigError):
            PackingPlanner(depth_buckets=0)

    def test_same_shape_matrices_keep_their_own_stats(self, small_model):
        """Q, K, V and OUT share shape and profile at one depth but are
        different draws: each is priced from its own matrix, never from
        whichever same-shape matrix happened to be cached first."""
        planner = PackingPlanner(depth_buckets=None)
        n_layers = small_model.n_layers
        for kind in (OpKind.Q_PROJ, OpKind.K_PROJ, OpKind.V_PROJ, OpKind.OUT_PROJ):
            w = generate_int8_weights(
                weight_shape_for_op(small_model, kind),
                profile_for_op(kind, 0, n_layers),
                seed=stable_seed(small_model.name, kind.value, 0, 0),
            )
            stats = planner.stats_for(small_model, kind, 0)
            assert stats.packed_bits == packed_size_bits(w, planner.config), kind

    def test_effective_bits_table_independent_of_hash_seed(self, tmp_path):
        """Same table under two hash seeds, each from an empty disk cache.

        Set iteration order follows ``PYTHONHASHSEED``; a statistic that
        depends on which kind is computed first differs between the two
        processes. Each gets a fresh cache file so that no earlier run
        can mask the difference.
        """
        src = Path(repro.__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=str(src),
                REPRO_PACKING_CACHE=str(tmp_path / f"stats-{hash_seed}.json"),
            )
            proc = subprocess.run(
                [sys.executable, "-c", _BITS_TABLE_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_opt125m_model_compression_in_band(self, shared_planner):
        """Whole-model packing ~1.5-1.9x (implied by the decode gains)."""
        compression = shared_planner.model_compression(OPT_125M)
        assert 1.4 <= compression <= 2.0
