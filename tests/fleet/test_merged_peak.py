"""Fleet metric merging: the incremental peak sweep and shard summaries.

``merged_peak_kv_bytes`` maintains the fleet-wide running KV total by
per-shard delta — O(events), not O(shards * events). These tests check
it against a brute-force re-sum over all shards at every event, and
check that the report's one-fold-per-shard summary equals the separate
merge and per-shard folds.
"""

from __future__ import annotations

import random
from collections import defaultdict
from types import SimpleNamespace

from repro.fleet import FleetSimulator, merge_results
from repro.fleet.metrics import merged_peak_kv_bytes, summarize_shards
from repro.serving import EventLog, FleetMetrics
from repro.sim import LatencySummary


def _log(*events):
    """A shard result holding only an event log of ``(t_s, kv)`` pairs."""
    log = EventLog()
    for t_s, kv in events:
        log.t_s.append(t_s)
        log.kind.append(0)
        log.request_id.append(0)
        log.kv_reserved_bytes.append(kv)
        log.queue_depth.append(0)
    return SimpleNamespace(events=log)


def _brute_force_peak(shard_results):
    """Recompute the merged peak by summing every shard at every event."""
    tagged = []
    for shard_id, result in enumerate(shard_results):
        tagged.extend(
            (ev.t_s, shard_id, seq, ev.kv_reserved_bytes)
            for seq, ev in enumerate(result.events)
        )
    tagged.sort(key=lambda item: (item[0], item[1], item[2]))
    current = {}
    peak = 0
    for _, shard_id, _, reserved in tagged:
        current[shard_id] = reserved
        peak = max(peak, sum(current.values()))
    return peak


class TestMergedPeak:
    def test_incremental_sweep_matches_brute_force(
        self, fast_engine, slow_engine, shard_budget, make_stream
    ):
        fleet = FleetSimulator(
            [fast_engine, slow_engine, fast_engine],
            policy="jsq",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        report = fleet.run(make_stream("bursty", n=24, seed=1))
        shard_results = report.result.shard_results
        assert merged_peak_kv_bytes(shard_results) == _brute_force_peak(shard_results)
        assert report.metrics.peak_kv_bytes == _brute_force_peak(shard_results)

    def test_simultaneous_events_on_different_shards(
        self, fast_engine, shard_budget, make_stream
    ):
        """A burst split over identical idle shards logs events at the
        same instant on several shards; the (time, shard, log order)
        replay must still match the brute-force re-sum."""
        fleet = FleetSimulator(
            [fast_engine] * 3,
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        report = fleet.run(make_stream("bursty", n=24, seed=1))
        shard_results = report.result.shard_results
        shards_at = defaultdict(set)
        for shard_id, result in enumerate(shard_results):
            for ev in result.events:
                shards_at[ev.t_s].add(shard_id)
        assert any(len(ids) > 1 for ids in shards_at.values())
        assert merged_peak_kv_bytes(shard_results) == _brute_force_peak(shard_results)
        assert report.metrics.peak_kv_bytes == _brute_force_peak(shard_results)

    def test_ties_apply_in_shard_then_log_order(self):
        """At one instant shard 0 releases its KV and then shard 1
        reserves, one event at a time: swept in (time, shard, log
        order) the two reservations never overlap."""
        shard0 = _log((0.0, 100), *[(1.0, 0)] * 40)
        shard1 = _log(*[(1.0, 100)] * 40)
        assert _brute_force_peak([shard0, shard1]) == 100
        assert merged_peak_kv_bytes([shard0, shard1]) == 100
        # Shard order decides: shard 1 first reserves on top of shard 0.
        assert merged_peak_kv_bytes([shard1, shard0]) == 200

    def test_many_ties_match_brute_force(self):
        """Three shards whose events share a handful of instants."""
        rng = random.Random(7)
        shards = [
            _log(*(
                (float(t), rng.randrange(0, 1000))
                for t in sorted(rng.randrange(20) for _ in range(300))
            ))
            for _ in range(3)
        ]
        assert merged_peak_kv_bytes(shards) == _brute_force_peak(shards)

    def test_shards_without_events(self, fast_engine, shard_budget, make_stream):
        """A shard that was never routed a request contributes nothing."""
        fleet = FleetSimulator(
            [fast_engine] * 2,
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        report = fleet.run(make_stream("poisson", n=1, seed=0))
        shard_results = report.result.shard_results
        assert not len(shard_results[1].events)
        assert merged_peak_kv_bytes(shard_results) == _brute_force_peak(shard_results)
        assert merged_peak_kv_bytes(shard_results[1:]) == 0
        assert merged_peak_kv_bytes(()) == 0

    def test_merged_peak_exceeds_any_single_shard(
        self, fast_engine, shard_budget, make_stream
    ):
        fleet = FleetSimulator(
            [fast_engine, fast_engine],
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        report = fleet.run(make_stream("bursty", n=16, seed=0))
        per_shard = [s.peak_kv_bytes for s in report.result.shard_results]
        merged = report.metrics.peak_kv_bytes
        # The merged-timeline peak is at least the worst shard and at
        # most the (generally looser) sum of per-shard peaks.
        assert max(per_shard) <= merged <= sum(per_shard)


class TestShardSummaries:
    def test_merged_tables_equal_the_flat_fold(
        self, fast_engine, slow_engine, shard_budget, make_stream
    ):
        """The report folds each shard once and merges the shards'
        tables; the result equals flattening every record and gap."""
        fleet = FleetSimulator(
            [fast_engine, slow_engine, fast_engine],
            policy="jsq",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        report = fleet.run(make_stream("bursty", n=24, seed=4))
        shard_results = report.result.shard_results
        merged, per_shard = summarize_shards(shard_results)
        assert merged == merge_results(shard_results) == report.metrics
        assert per_shard == tuple(
            FleetMetrics.from_result(r) for r in shard_results
        ) == report.shard_metrics
        records = [rec for r in shard_results for rec in r.records]
        assert merged.ttft == LatencySummary.of([rec.ttft_s for rec in records])
        assert merged.e2e == LatencySummary.of([rec.e2e_s for rec in records])
        assert merged.tbt == LatencySummary.of(
            [t for rec in records for t in rec.tbt_s]
        )
        assert merged.total_generated_tokens == sum(
            rec.generated_tokens for rec in records
        )
