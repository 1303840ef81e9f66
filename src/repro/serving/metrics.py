"""Fleet-level serving metrics: percentile latencies, throughput, KV use.

Aggregates one :class:`~repro.serving.scheduler.ServingResult` into the
numbers a capacity planner reads: TTFT / TBT / end-to-end latency
percentiles (p50/p95/p99), aggregate token throughput, queueing depth
and KV-memory occupancy. All division is guarded so degenerate streams
(a single instantaneous request, an all-queued scenario) summarize to
zeros rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..hardware.config import MB as _MB
from ..sim.metrics import LatencySummary, ValueCounts, tokens_per_second
from .scheduler import RequestRecord, ServingResult

__all__ = ["FleetMetrics", "LatencyPopulations"]


@dataclass(frozen=True)
class LatencyPopulations:
    """The latency populations of a set of request records, folded once.

    TTFT and E2E hold one value per request; TBT holds one gap per token
    after each request's first, read straight from the records' gap
    arrays. Each is a :class:`~repro.sim.metrics.ValueCounts` table, so
    the fold keeps no Python object per request or per token. Folds of
    disjoint record sets :meth:`merge` without re-reading a record,
    which is how the fleet summary reuses its shards' folds.
    """

    ttft: ValueCounts
    e2e: ValueCounts
    tbt: ValueCounts

    @classmethod
    def of_records(cls, records: Sequence[RequestRecord]) -> "LatencyPopulations":
        """Fold records (e.g. one shard's) into their three populations."""
        return cls(
            ttft=ValueCounts.of(rec.ttft_s for rec in records),
            e2e=ValueCounts.of(rec.e2e_s for rec in records),
            tbt=ValueCounts.of_arrays(rec.tbt_s for rec in records),
        )

    @classmethod
    def merge(cls, parts: Sequence["LatencyPopulations"]) -> "LatencyPopulations":
        """The populations of the union of one or more parts' records."""
        return cls(
            ttft=ValueCounts.merge([p.ttft for p in parts]),
            e2e=ValueCounts.merge([p.e2e for p in parts]),
            tbt=ValueCounts.merge([p.tbt for p in parts]),
        )

    @property
    def generated_tokens(self) -> int:
        """Tokens emitted: each request's first, plus one per gap."""
        return len(self.ttft) + len(self.tbt)


@dataclass(frozen=True)
class FleetMetrics:
    """Summary statistics of one serving simulation."""

    n_requests: int
    duration_s: float
    total_generated_tokens: int
    throughput_tok_s: float
    ttft: LatencySummary
    tbt: LatencySummary
    e2e: LatencySummary
    max_queue_depth: int
    peak_kv_bytes: int
    kv_budget_bytes: int

    @classmethod
    def from_result(cls, result: ServingResult) -> "FleetMetrics":
        """Fold a scheduler result into fleet statistics."""
        return cls.from_populations(
            LatencyPopulations.of_records(result.records),
            duration_s=result.duration_s,
            max_queue_depth=result.max_queue_depth,
            peak_kv_bytes=result.peak_kv_bytes,
            kv_budget_bytes=result.kv_budget_bytes,
        )

    @classmethod
    def from_populations(
        cls,
        populations: LatencyPopulations,
        *,
        duration_s: float,
        max_queue_depth: int,
        peak_kv_bytes: int,
        kv_budget_bytes: int,
    ) -> "FleetMetrics":
        """Summarize folded populations over a run of ``duration_s``."""
        tokens = populations.generated_tokens
        return cls(
            n_requests=len(populations.ttft),
            duration_s=duration_s,
            total_generated_tokens=tokens,
            throughput_tok_s=tokens_per_second(tokens, duration_s),
            ttft=LatencySummary.of_sorted(populations.ttft),
            tbt=LatencySummary.of_sorted(populations.tbt),
            e2e=LatencySummary.of_sorted(populations.e2e),
            max_queue_depth=max_queue_depth,
            peak_kv_bytes=peak_kv_bytes,
            kv_budget_bytes=kv_budget_bytes,
        )

    @property
    def peak_kv_fraction(self) -> float:
        """Peak KV reservation as a fraction of the budget."""
        if self.kv_budget_bytes == 0:
            return 0.0
        return self.peak_kv_bytes / self.kv_budget_bytes

    def format_report(self, title: str = "") -> str:
        """Fixed-precision text report (byte-stable for a given seed)."""
        lines = []
        if title:
            lines.append(title)
        lines += [
            (
                f"requests: {self.n_requests}   "
                f"generated tokens: {self.total_generated_tokens}   "
                f"makespan: {self.duration_s:.3f} s"
            ),
            (
                f"throughput: {self.throughput_tok_s:.2f} tok/s   "
                f"max queue depth: {self.max_queue_depth}   "
                f"peak KV: {self.peak_kv_bytes / _MB:.2f} MB "
                f"/ {self.kv_budget_bytes / _MB:.2f} MB "
                f"({self.peak_kv_fraction:.1%})"
            ),
            (
                f"TTFT ms   p50 {self.ttft.p50_s * 1e3:.3f}   "
                f"p95 {self.ttft.p95_s * 1e3:.3f}   "
                f"p99 {self.ttft.p99_s * 1e3:.3f}"
            ),
            (
                f"TBT  ms   p50 {self.tbt.p50_s * 1e3:.3f}   "
                f"p95 {self.tbt.p95_s * 1e3:.3f}   "
                f"p99 {self.tbt.p99_s * 1e3:.3f}"
            ),
            (
                f"E2E  s    p50 {self.e2e.p50_s:.3f}   "
                f"p95 {self.e2e.p95_s:.3f}   "
                f"p99 {self.e2e.p99_s:.3f}"
            ),
        ]
        return "\n".join(lines)
