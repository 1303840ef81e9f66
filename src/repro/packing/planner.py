"""Packing planner: cached weight-transfer statistics for the simulator.

The performance model needs one number per weight matrix: how many bits
cross the DRAM interface when the matrix is fetched packed. Measuring it
means generating the synthetic matrix and running the packer — cheap once
but wasteful inside bandwidth sweeps, so the planner caches results keyed
by everything that determines the matrix and its packing: (shape,
distribution, packing config, the matrix's own RNG seed). The seed
matters because matrices of one depth often share shape and distribution
(Q, K, V and OUT under multi-head attention) yet are different draws.
The cross-process disk cache adds :data:`STATS_VERSION` to that key, so
entries written under an older keying are never read back.

Because the synthetic profile varies smoothly with layer depth, large
models can optionally quantize depth into a few buckets (default 4),
bounding the number of distinct matrices ever generated while preserving
the depth trend of Fig. 4a.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..errors import ConfigError, check_count
from ..models import OpKind, TransformerConfig, WEIGHT_OP_KINDS
from ..quant.synthetic import (
    generate_int8_weights,
    profile_for_op,
    stable_seed,
    weight_shape_for_op,
)
from .pipeline import PackingConfig, packed_size_bits

__all__ = ["STATS_VERSION", "WeightTransferStats", "PackingPlanner"]

#: Version of the statistics' disk-cache keys; bump whenever the key or
#: the statistic itself changes meaning. Version 2 keys each matrix by
#: its own RNG seed (version 1 let same-shape matrices share one entry).
STATS_VERSION = 2

_STATS_CACHE: Dict[Tuple, "WeightTransferStats"] = {}

_DISK_CACHE_PATH = Path(
    os.environ.get(
        "REPRO_PACKING_CACHE",
        os.path.join(tempfile.gettempdir(), "repro_meadow_packing_stats.json"),
    )
)
_DISK_CACHE: Dict[str, Tuple[int, int]] | None = None


def _disk_cache() -> Dict[str, Tuple[int, int]]:
    """Lazily load the cross-process packed-size cache (best effort)."""
    global _DISK_CACHE
    if _DISK_CACHE is None:
        try:
            with open(_DISK_CACHE_PATH, "r", encoding="utf-8") as fh:
                _DISK_CACHE = {k: tuple(v) for k, v in json.load(fh).items()}
        except (OSError, ValueError):
            _DISK_CACHE = {}
    return _DISK_CACHE


def _disk_cache_store(key: str, stats: "WeightTransferStats") -> None:
    """Persist one entry; failures are silently ignored (cache only)."""
    cache = _disk_cache()
    cache[key] = (stats.raw_bits, stats.packed_bits)
    try:
        tmp = str(_DISK_CACHE_PATH) + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(cache, fh)
        os.replace(tmp, _DISK_CACHE_PATH)
    except OSError:
        pass


@dataclass(frozen=True)
class WeightTransferStats:
    """DRAM transfer volume of one weight matrix, raw vs packed."""

    raw_bits: int
    packed_bits: int

    @property
    def compression(self) -> float:
        """Raw bits over packed bits (>1 when packing helps)."""
        return self.raw_bits / self.packed_bits

    @property
    def effective_bits(self) -> int:
        """Bits actually transferred when packing is enabled."""
        return min(self.raw_bits, self.packed_bits)


class PackingPlanner:
    """Computes and caches per-matrix packed transfer sizes."""

    def __init__(
        self,
        config: Optional[PackingConfig] = None,
        depth_buckets: Optional[int] = 4,
        base_seed: int = 0,
    ) -> None:
        """Args:
        config: packing knobs (defaults to the paper's REINDEX level).
        depth_buckets: quantize layer depth into this many representative
            layers when generating statistics (``None`` = exact per-layer).
        base_seed: RNG stream selector for the synthetic weights.
        """
        if depth_buckets is not None:
            depth_buckets = check_count("depth_buckets", depth_buckets)
        self.config = config or PackingConfig()
        self.depth_buckets = depth_buckets
        self.base_seed = check_count("base_seed", base_seed, None)
        self._bits_tables: Dict[TransformerConfig, Dict[OpKind, Tuple[int, ...]]] = {}

    def _representative_layer(self, layer_index: int, n_layers: int) -> int:
        if self.depth_buckets is None or self.depth_buckets >= n_layers:
            return layer_index
        bucket = min(self.depth_buckets - 1, layer_index * self.depth_buckets // n_layers)
        # Bucket centre, clamped into range.
        centre = (2 * bucket + 1) * n_layers // (2 * self.depth_buckets)
        return min(centre, n_layers - 1)

    def stats_for(
        self, model: TransformerConfig, kind: OpKind, layer_index: int
    ) -> WeightTransferStats:
        """Transfer stats of one weight matrix (cached)."""
        if kind not in WEIGHT_OP_KINDS:
            raise ConfigError(f"{kind} carries no trained weights")
        rep_layer = self._representative_layer(layer_index, model.n_layers)
        shape = weight_shape_for_op(model, kind)
        profile = profile_for_op(kind, rep_layer, model.n_layers)
        seed = stable_seed(model.name, kind.value, rep_layer, self.base_seed)
        cfg = self.config
        key = (
            shape,
            profile.cache_key(),
            cfg.chunk_size,
            cfg.packet_size,
            cfg.level,
            cfg.n_modes,
            cfg.optimize_modes,
            seed,
        )
        cached = _STATS_CACHE.get(key)
        if cached is not None:
            return cached
        disk_key = repr((STATS_VERSION,) + key)
        disk_hit = _disk_cache().get(disk_key)
        if disk_hit is not None:
            stats = WeightTransferStats(raw_bits=disk_hit[0], packed_bits=disk_hit[1])
            _STATS_CACHE[key] = stats
            return stats
        w = generate_int8_weights(shape, profile, seed=seed)
        stats = WeightTransferStats(
            raw_bits=w.size * 8, packed_bits=packed_size_bits(w, cfg)
        )
        _STATS_CACHE[key] = stats
        _disk_cache_store(disk_key, stats)
        return stats

    def effective_bits_table(
        self, model: TransformerConfig
    ) -> Dict[OpKind, Tuple[int, ...]]:
        """Per-layer effective transfer bits for every weight kind.

        One batched lookup replaces ``n_layers x n_kinds`` individual
        :meth:`stats_for` calls (each of which rebuilds its cache key):
        the whole table is assembled once per (planner, model) and the
        simulator's fast path indexes it directly.
        """
        table = self._bits_tables.get(model)
        if table is None:
            table = {
                kind: tuple(
                    self.stats_for(model, kind, layer).effective_bits
                    for layer in range(model.n_layers)
                )
                for kind in WEIGHT_OP_KINDS
            }
            self._bits_tables[model] = table
        return table

    def model_bits(self, model: TransformerConfig) -> Tuple[int, int]:
        """Whole-model ``(raw, effective)`` weight transfer bits."""
        raw = packed = 0
        for layer in range(model.n_layers):
            for kind in WEIGHT_OP_KINDS:
                stats = self.stats_for(model, kind, layer)
                raw += stats.raw_bits
                packed += stats.effective_bits
        return raw, packed

    def model_compression(self, model: TransformerConfig) -> float:
        """Whole-model raw/packed ratio (the average packing win)."""
        raw, packed = self.model_bits(model)
        return raw / packed
