"""Merging per-shard serving results into one fleet-level summary.

The fleet simulator produces one :class:`~repro.serving.ServingResult`
per shard; capacity planning needs the *global* picture — percentiles
over every request regardless of where it was served, throughput over
the fleet-wide makespan, and the exact peak of summed KV reservations.
The merge reuses :class:`~repro.serving.FleetMetrics` as the summary
type, with one invariant the tests pin down: **merging the results of a
one-shard fleet reproduces the single-engine metrics field for field**
(same sorted latency populations, same makespan arithmetic), so fleet
numbers are directly comparable with `repro serve` output.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..serving.metrics import FleetMetrics, LatencyPopulations
from ..serving.scheduler import ServingResult

__all__ = ["merged_peak_kv_bytes", "merge_results", "summarize_shards"]


def merged_peak_kv_bytes(shard_results: Sequence[ServingResult]) -> int:
    """Exact peak of summed KV reservations across the fleet timeline.

    Every scheduler event snapshots its shard's reserved bytes *after*
    the change, so sweeping all events in global time order while
    tracking the latest value per shard yields the true fleet-wide
    peak — not the (looser) sum of per-shard peaks, which generally
    occur at different instants. Simultaneous events are applied in
    (time, shard id, shard-local order); the running sum after a tied
    group is order-independent, so the peak is deterministic.

    The sweep runs on the logs' columns: each event adds its change
    against its shard's previous event to the fleet total, so the
    running totals are one cumulative sum over the events in sweep
    order. A shard's clock never runs back, so its own events keep
    their log order in the sweep, and a stable sort by time of the
    events concatenated in (shard id, log order) is the sweep order.
    """
    logs = [result.events for result in shard_results]
    if not any(logs):
        return 0
    order = np.argsort(
        np.concatenate([np.frombuffer(log.t_s, dtype=np.float64) for log in logs]),
        kind="stable",
    )
    totals = np.concatenate(
        [
            np.diff(np.frombuffer(log.kv_reserved_bytes, dtype=np.int64), prepend=0)
            for log in logs
        ]
    )[order]
    np.cumsum(totals, out=totals)
    return max(0, int(totals.max()))


def merge_results(shard_results: Sequence[ServingResult]) -> FleetMetrics:
    """Fold per-shard results into one fleet-wide :class:`FleetMetrics`.

    * latency percentiles are computed over the union of all records;
    * the makespan runs from the earliest arrival to the latest
      completion anywhere in the fleet;
    * ``max_queue_depth`` is the worst single-shard backlog (queues are
      per shard, so depths do not add);
    * ``kv_budget_bytes`` is the fleet's aggregate budget, and
      ``peak_kv_bytes`` the exact merged-timeline peak.
    """
    return summarize_shards(shard_results)[0]


def summarize_shards(
    shard_results: Sequence[ServingResult],
) -> Tuple[FleetMetrics, Tuple[FleetMetrics, ...]]:
    """The fleet-wide metrics (:func:`merge_results`) and each shard's
    (:meth:`FleetMetrics.from_result`), folding each shard's records once.

    The merge combines the shards' folds instead of re-reading every
    record and gap.
    """
    if not shard_results:
        raise ConfigError("cannot merge an empty fleet")
    # Before the folds: the sweep's arrays and the folds' tables are
    # never alive together.
    peak_kv = merged_peak_kv_bytes(shard_results)
    populations = [
        LatencyPopulations.of_records(r.records) for r in shard_results
    ]
    per_shard = tuple(
        FleetMetrics.from_populations(
            pops,
            duration_s=r.duration_s,
            max_queue_depth=r.max_queue_depth,
            peak_kv_bytes=r.peak_kv_bytes,
            kv_budget_bytes=r.kv_budget_bytes,
        )
        for r, pops in zip(shard_results, populations)
    )
    first_arrival = min(
        (rec.request.arrival_s for r in shard_results for rec in r.records),
        default=None,
    )
    if first_arrival is None:
        duration = 0.0
    else:
        last_finish = max(rec.finish_s for r in shard_results for rec in r.records)
        duration = last_finish - first_arrival
    merged = FleetMetrics.from_populations(
        LatencyPopulations.merge(populations),
        duration_s=duration,
        max_queue_depth=max(r.max_queue_depth for r in shard_results),
        peak_kv_bytes=peak_kv,
        kv_budget_bytes=sum(r.kv_budget_bytes for r in shard_results),
    )
    return merged, per_shard
