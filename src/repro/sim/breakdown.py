"""Latency accounting records used across the performance simulator.

The paper's distribution figures (Figs. 1, 8, 9, 11) split latency into
**data fetch**, **compute** and **data store**; we further split fetch
into weight and activation traffic because weight packing only touches
the former. Totals honour double buffering: within one op, tile fetch
overlaps tile compute, so the op finishes in
``max(fetch, compute) + store`` cycles (serial mode sums everything).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..hardware import EnergyLedger, HardwareConfig
from ..models import OpKind, Workload

__all__ = ["LatencyBreakdown", "OpLatency", "StageReport"]


@dataclass(frozen=True)
class LatencyBreakdown:
    """Cycle counts of one op split by activity."""

    weight_fetch: float = 0.0
    input_fetch: float = 0.0
    compute: float = 0.0
    store: float = 0.0

    def __post_init__(self) -> None:
        # One chained test on the hot path; name the field only on failure.
        if self.weight_fetch < 0 or self.input_fetch < 0 or self.compute < 0 or self.store < 0:
            for name in ("weight_fetch", "input_fetch", "compute", "store"):
                if getattr(self, name) < 0:
                    raise ValueError(f"{name} cycles must be non-negative")

    @property
    def fetch(self) -> float:
        """All DRAM read cycles (weights + activations)."""
        return self.weight_fetch + self.input_fetch

    @property
    def serial_total(self) -> float:
        """Total with no overlap (single-buffered hardware)."""
        return self.fetch + self.compute + self.store

    def total(self, double_buffered: bool = True) -> float:
        """Op latency under the configured buffering policy."""
        if not double_buffered:
            return self.serial_total
        return max(self.fetch, self.compute) + self.store

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            weight_fetch=self.weight_fetch + other.weight_fetch,
            input_fetch=self.input_fetch + other.input_fetch,
            compute=self.compute + other.compute,
            store=self.store + other.store,
        )

    def scaled(self, factor: float) -> "LatencyBreakdown":
        """Uniformly scale every component (e.g. by layer count)."""
        return LatencyBreakdown(
            weight_fetch=self.weight_fetch * factor,
            input_fetch=self.input_fetch * factor,
            compute=self.compute * factor,
            store=self.store * factor,
        )


@dataclass(frozen=True)
class OpLatency:
    """One op instance's latency within a layer simulation.

    ``dataflow`` records how the op ran: ``"gemm"``, ``"tphs"`` (the fused
    attention pipeline, attributed to its Q_PROJ slot), ``"vector"`` (LN /
    softmax / activation units), or ``"fused"`` for ops absorbed into a
    TPHS block (zero standalone cost).
    """

    kind: OpKind
    dataflow: str
    breakdown: LatencyBreakdown
    macs: int = 0

    def total(self, double_buffered: bool = True) -> float:
        """Latency of this op under the buffering policy."""
        return self.breakdown.total(double_buffered)


@dataclass
class StageReport:
    """Aggregated result of simulating one workload on one config.

    ``layer_totals`` optionally carries each layer's cycle total, summed
    by the producer exactly as :meth:`layer_total_cycles` would sum it
    (the simulator sums each layer class once); ``None`` sums on demand.
    """

    workload: Workload
    config: HardwareConfig
    plan_name: str
    layer_ops: List[List[OpLatency]]  # [n_layers][ops]
    energy: EnergyLedger = field(default_factory=EnergyLedger)
    layer_totals: Optional[List[float]] = field(default=None, repr=False, compare=False)

    @property
    def n_layers(self) -> int:
        """Simulated block count."""
        return len(self.layer_ops)

    def layer_total_cycles(self, layer: int) -> float:
        """Latency of one block (ops execute back to back)."""
        if self.layer_totals is not None:
            return self.layer_totals[layer]
        db = self.config.double_buffered
        return sum(op.total(db) for op in self.layer_ops[layer])

    @property
    def total_cycles(self) -> float:
        """End-to-end cycles of the whole stack."""
        if self.layer_totals is not None:
            return sum(self.layer_totals)
        return sum(self.layer_total_cycles(i) for i in range(self.n_layers))

    @property
    def latency_s(self) -> float:
        """End-to-end seconds at the configured clock."""
        return self.config.cycles_to_seconds(self.total_cycles)

    @property
    def latency_ms(self) -> float:
        """End-to-end milliseconds at the configured clock."""
        return self.config.cycles_to_ms(self.total_cycles)

    def breakdown(self) -> LatencyBreakdown:
        """Component sums across the whole stack (for stacked-bar figures)."""
        acc = LatencyBreakdown()
        for ops in self.layer_ops:
            for op in ops:
                acc = acc + op.breakdown
        return acc

    def layer_breakdown(self, layer: int = 0) -> LatencyBreakdown:
        """Component sums of one block (the paper plots single layers)."""
        acc = LatencyBreakdown()
        for op in self.layer_ops[layer]:
            acc = acc + op.breakdown
        return acc

    def by_op_kind(self) -> Dict[OpKind, LatencyBreakdown]:
        """Component sums grouped by op kind across the stack."""
        acc: Dict[OpKind, LatencyBreakdown] = {}
        for ops in self.layer_ops:
            for op in ops:
                acc[op.kind] = acc.get(op.kind, LatencyBreakdown()) + op.breakdown
        return acc

    def traffic_bits(self) -> Tuple[float, float]:
        """(fetch_bits, store_bits) crossing DRAM for the whole stack."""
        bd = self.breakdown()
        bpc = self.config.effective_dram_bits_per_cycle
        return bd.fetch * bpc, bd.store * bpc
