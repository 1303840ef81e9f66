"""Explicit GEMM tiling: loop-nest schedules under RF/BRAM capacities.

The analytic model in :mod:`repro.sim.gemm_executor` prices a GEMM as
work divided by PE throughput. This module constructs the *actual* tiled
schedule the hybrid PEs would run — tile shapes bounded by the
double-buffered register files, operand residency bounded by the BRAMs —
and prices it tile by tile. Two uses:

* cross-validation: the tiled cycle count must closely match (and never
  beat) the analytic lower bound — property-tested;
* honesty about re-fetches: when an operand exceeds its BRAM, the
  schedule re-streams it once per outer tile pass, which the analytic
  model's single-transfer assumption misses. The multiplier is exposed
  as :attr:`TiledGemm.weight_refetch_factor` etc. so configuration sweeps
  with tiny BRAMs degrade honestly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator, Tuple

from ..errors import CapacityError, ScheduleError
from ..hardware import Bram, HardwareConfig, OnChipMemorySystem
from ..utils import ceil_div

__all__ = ["TileShape", "TiledGemm", "RefetchModel", "plan_tiled_gemm"]


@dataclass(frozen=True)
class TileShape:
    """One tile of the output matrix and its reduction span."""

    rows: int  # token rows per tile
    reduce: int  # reduction elements staged per pass
    cols: int  # output columns per tile

    def __post_init__(self) -> None:
        if min(self.rows, self.reduce, self.cols) < 1:
            raise ScheduleError(f"tile dims must be >= 1, got {self}")

    @property
    def weight_elements(self) -> int:
        """Weights staged per tile pass."""
        return self.reduce * self.cols

    @property
    def input_elements(self) -> int:
        """Activations staged per tile pass."""
        return self.rows * self.reduce

    @property
    def output_elements(self) -> int:
        """Outputs accumulated per tile."""
        return self.rows * self.cols


@dataclass(frozen=True)
class TiledGemm:
    """A complete tiled schedule for ``[rows, reduce] x [reduce, cols]``."""

    rows: int
    reduce: int
    cols: int
    tile: TileShape
    config: HardwareConfig

    @property
    def grid(self) -> Tuple[int, int, int]:
        """Tile counts along (rows, reduce, cols)."""
        return (
            ceil_div(self.rows, self.tile.rows),
            ceil_div(self.reduce, self.tile.reduce),
            ceil_div(self.cols, self.tile.cols),
        )

    def tiles(self) -> Iterator[TileShape]:
        """Yield every tile pass with boundary clipping."""
        for r0 in range(0, self.rows, self.tile.rows):
            for c0 in range(0, self.cols, self.tile.cols):
                for k0 in range(0, self.reduce, self.tile.reduce):
                    yield TileShape(
                        rows=min(self.tile.rows, self.rows - r0),
                        reduce=min(self.tile.reduce, self.reduce - k0),
                        cols=min(self.tile.cols, self.cols - c0),
                    )

    # ------------------------------------------------------------- cycles
    def compute_cycles(self) -> int:
        """Cycle count of the full tiled execution.

        Each tile pass distributes its ``rows*cols`` outputs over the PE
        pool; every output needs ``ceil(reduce/d_mult)`` slice-cycles.
        """
        d_mult = self.config.mults_per_pe
        n_pes = self.config.n_total_pe
        total = 0
        for tile in self.tiles():
            per_output = ceil_div(tile.reduce, d_mult)
            outputs_per_pe = ceil_div(tile.rows * tile.cols, n_pes)
            total += outputs_per_pe * per_output
        return total

    # ------------------------------------------------------------ refetch
    @cached_property
    def _refetch_factors(self) -> Tuple[int, int]:
        """(weight, input) stream counts; see :meth:`RefetchModel.factors`."""
        return RefetchModel.for_shape(self.config, self.reduce, self.cols).factors(
            self.rows
        )

    @property
    def weight_refetch_factor(self) -> int:
        """How many times the full weight matrix streams from DRAM."""
        return self._refetch_factors[0]

    @property
    def input_refetch_factor(self) -> int:
        """How many times the activations stream from DRAM."""
        return self._refetch_factors[1]


@dataclass(frozen=True)
class RefetchModel:
    """BRAM residency of one ``reduce x cols`` weight matrix, for any rows.

    The refetch analysis depends on the GEMM's row count only through
    its activation side, so everything about the weights is resolved
    once per (config, weight shape) and :meth:`factors` answers for a
    given row count with a few integer operations.
    """

    reduce: int
    act_bits: int
    weight_bytes: int
    weight_fits: bool
    input_bram: Bram
    rows_resident: int
    col_blocks: int

    @classmethod
    def for_shape(cls, config: HardwareConfig, reduce: int, cols: int) -> "RefetchModel":
        """The residency model of a ``reduce x cols`` weight on ``config``."""
        mem = OnChipMemorySystem.from_config(config)
        weight_bytes = reduce * cols * config.weight_bits // 8
        row_bytes = max(1, reduce * config.act_bits // 8)
        col_bytes = max(1, reduce * config.weight_bits // 8)
        cols_resident = max(1, mem.weight_bram.capacity_bytes // col_bytes)
        return cls(
            reduce=reduce,
            act_bits=config.act_bits,
            weight_bytes=weight_bytes,
            weight_fits=mem.weight_bram.fits(weight_bytes),
            input_bram=mem.input_bram,
            rows_resident=max(1, mem.input_bram.capacity_bytes // row_bytes),
            col_blocks=ceil_div(cols, cols_resident),
        )

    def factors(self, rows: int) -> Tuple[int, int]:
        """(weight, input) DRAM stream counts under the best loop order.

        If either operand is fully BRAM-resident, the other streams
        exactly once. Otherwise the scheduler blocks the resident side:
        holding an input *row block* re-streams the weights once per row
        block; holding a weight *column block* re-streams the inputs once
        per column block. It picks whichever total traffic is lower —
        the standard blocked-GEMM result, at BRAM (not RF) granularity.
        """
        input_bytes = rows * self.reduce * self.act_bits // 8
        if self.weight_fits or self.input_bram.fits(input_bytes):
            return 1, 1
        weight_bytes = self.weight_bytes
        row_blocks = ceil_div(rows, self.rows_resident)
        if weight_bytes * row_blocks + input_bytes <= weight_bytes + input_bytes * self.col_blocks:
            return row_blocks, 1
        return 1, self.col_blocks


@lru_cache(maxsize=16384)
def plan_tiled_gemm(
    config: HardwareConfig, rows: int, reduce: int, cols: int
) -> TiledGemm:
    """Choose tile dimensions honouring the double-buffered RFs.

    The weight RF bounds ``reduce x cols`` per PE pass, the input RF
    bounds ``rows x reduce``, and the output RF bounds ``rows x cols``
    accumulators. Tiles prefer full reduction depth (output-stationary
    accumulation), then wide columns, then rows.

    Results are memoized on ``(config, rows, reduce, cols)`` — configs
    are frozen and GEMM shapes repeat across layers, decode steps and
    sweeps, so the schedule (and its refetch analysis, cached on the
    returned :class:`TiledGemm`) is constructed once per distinct shape.
    """
    if min(rows, reduce, cols) < 1:
        raise ScheduleError(f"GEMM dims must be >= 1, got {rows}x{reduce}x{cols}")
    mem = OnChipMemorySystem.from_config(config)
    w_cap = mem.weight_rf.max_elements(config.weight_bits)
    i_cap = mem.input_rf.max_elements(config.act_bits)
    o_cap = mem.output_rf.max_elements(config.accumulator_bits)
    if min(w_cap, i_cap, o_cap) < 1:
        raise CapacityError("register files too small for any tile")

    t_reduce = min(reduce, max(config.mults_per_pe, 1))
    # Weight tile: t_reduce x t_cols must fit the weight RF.
    t_cols = max(1, min(cols, w_cap // t_reduce))
    # Output tile: t_rows x t_cols int32 accumulators must fit.
    t_rows = max(1, min(rows, o_cap // t_cols, i_cap // t_reduce))
    tile = TileShape(rows=t_rows, reduce=t_reduce, cols=t_cols)
    return TiledGemm(rows=rows, reduce=reduce, cols=cols, tile=tile, config=config)
