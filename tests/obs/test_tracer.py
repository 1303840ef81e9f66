"""Unit tests for ShardObs / FleetObserver / ObsBundle."""

from __future__ import annotations

import json

import pytest

from repro.obs import FleetObserver, MetricsRegistry, ObsBundle
from repro.obs.spans import CAT_FAULT, CAT_STEP, FleetTrace, Span


def _shard(tick_s: float = 0.05):
    obs = FleetObserver(tick_s=tick_s)
    return obs, obs.shard(0)


class TestShardLifecycle:
    def test_complete_request_emits_three_phase_spans(self):
        obs, shard = _shard()
        shard.request_event(0.0, "arrival", 1)
        shard.request_event(0.1, "admit", 1)
        shard.request_event(0.2, "prefill_start", 1)
        shard.first_token(0.5, 1)
        shard.request_event(1.5, "complete", 1)
        by_name = {s.name: s for s in shard.drain_spans()}
        assert by_name["QUEUE"].t0_s == 0.0
        assert by_name["QUEUE"].t1_s == 0.2
        assert by_name["PREFILL"].t0_s == 0.2
        assert by_name["PREFILL"].t1_s == 0.5
        assert by_name["DECODE"].t0_s == 0.5
        assert by_name["DECODE"].t1_s == 1.5
        assert all(s.shard_id == 0 and s.request_id == 1 for s in by_name.values())

    def test_withdraw_emits_queue_span_with_outcome(self):
        obs, shard = _shard()
        shard.request_event(0.0, "arrival", 3)
        shard.request_event(0.4, "withdraw", 3)
        (span,) = shard.drain_spans()
        assert span.name == "QUEUE"
        assert span.attrs_dict == {"outcome": "withdrawn"}

    def test_interrupted_request_reports_known_phases_only(self):
        obs, shard = _shard()
        shard.request_event(0.0, "arrival", 5)
        shard.request_event(0.1, "admit", 5)
        shard.request_event(0.2, "prefill_start", 5)
        shard.first_token(0.6, 5)
        # No complete: the shard crashed. Partial spans only.
        names = sorted(s.name for s in shard.drain_spans())
        assert names == ["PREFILL", "QUEUE"]
        prefill = next(
            s for s in shard.drain_spans() if s.name == "PREFILL"
        )
        assert prefill.attrs_dict == {"outcome": "interrupted"}

    def test_unknown_request_events_are_ignored(self):
        obs, shard = _shard()
        shard.request_event(0.0, "complete", 99)
        shard.first_token(0.0, 99)
        assert shard.drain_spans() == []


class TestStepsAndSamples:
    def test_step_spans_and_decode_metrics(self):
        obs, shard = _shard()
        shard.step(0.0, 0.1, "prefill", 1, 1, 7)
        shard.step(0.1, 0.9, "decode", 8, 4)
        spans = [s for s in shard.drain_spans() if s.cat == CAT_STEP]
        by_name = {s.name: s for s in spans}
        assert by_name["PREFILL_STEP"].request_id == 7
        assert by_name["DECODE_RUN"].attrs_dict == {"k": 8, "batch": 4}
        reg = obs.registry
        assert reg.counter("decode_iterations", shard="0").value == 8
        # batch_size counts decode iterations: one run of 8 over 4.
        batch = reg.histogram("batch_size", shard="0")
        assert batch.n == 8
        assert batch.total == 32

    def test_sampling_is_tick_rate_limited(self):
        obs, shard = _shard(tick_s=1.0)
        shard.sample(0.0, 10, 1, 2, 3)
        shard.sample(0.5, 20, 1, 2, 3)   # inside the tick: dropped
        shard.sample(1.0, 30, 1, 2, 3)
        g = obs.registry.gauge("kv_reserved_bytes", shard="0")
        assert [v for _, v in g.points] == [10.0, 30.0]


class TestFleetObserver:
    def test_fleet_level_events_and_build(self):
        obs = FleetObserver()
        obs.instant("SUBMIT", 0.0, request_id=1)
        obs.span("CRASH", 1.0, 2.0, shard_id=1, n_requests_hit=2)
        obs.count("retries")
        obs.gauge("shards_up", 1.0, 1.0)
        obs.shard(1).request_event(0.0, "arrival", 1)
        bundle = obs.build()
        assert bundle.trace.n_shards == 2
        crash = next(s for s in bundle.trace.spans if s.name == "CRASH")
        assert crash.cat == CAT_FAULT
        assert crash.attrs_dict == {"n_requests_hit": 2}
        assert bundle.metrics.counter("retries").value == 1.0

    def test_build_snapshot_isolates_later_mutation(self):
        obs = FleetObserver()
        shard = obs.shard(0)
        shard.request_event(0.0, "arrival", 1)
        shard.request_event(0.1, "prefill_start", 1)
        bundle = obs.build()
        # Events recorded after the snapshot must not leak in.
        shard.request_event(0.2, "withdraw", 1)
        assert [s.name for s in bundle.trace.spans] == ["QUEUE"]
        assert bundle.trace.spans[0].attrs == ()


class TestObsBundle:
    def test_lazy_trace_is_cached(self):
        obs = FleetObserver()
        obs.shard(0).request_event(0.0, "arrival", 1)
        bundle = obs.build()
        assert "lazy" in repr(bundle)
        assert bundle.trace is bundle.trace
        assert "lazy" not in repr(bundle)

    def test_requires_trace_or_assembler(self):
        with pytest.raises(ValueError):
            ObsBundle(metrics=MetricsRegistry())

    def test_write_trace_and_metrics(self, tmp_path):
        obs = FleetObserver()
        shard = obs.shard(0)
        shard.request_event(0.0, "arrival", 1)
        shard.request_event(0.1, "prefill_start", 1)
        obs.count("requests_routed", shard=0)
        bundle = obs.build()

        trace_path = tmp_path / "trace.json"
        bundle.write_trace(str(trace_path))
        doc = json.loads(trace_path.read_text())
        assert doc["otherData"]["schema"] == "repro.obs.trace"
        assert doc["traceEvents"]

        json_path = tmp_path / "metrics.json"
        bundle.write_metrics(str(json_path))
        assert json.loads(json_path.read_text())["schema"] == "repro.obs.metrics"

        csv_path = tmp_path / "metrics.csv"
        bundle.write_metrics(str(csv_path))
        assert csv_path.read_text().startswith("kind,name,labels,t_s,value")

    def test_explicit_trace_construction(self):
        trace = FleetTrace.build([Span.make("X", "request", 0.0, 1.0)])
        bundle = ObsBundle(metrics=MetricsRegistry(), trace=trace)
        assert bundle.trace is trace
