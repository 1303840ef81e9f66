"""Unit tests for the log-built lifecycle, ShardObs, FleetObserver, ObsBundle."""

from __future__ import annotations

import json
import math
from collections import Counter

import pytest

from repro.errors import ConfigError, SimulationError
from repro.obs import FleetObserver, MetricsRegistry, ObsBundle, ShardObs
from repro.obs.bridge import lifecycle_rows, record_first_tokens
from repro.obs.spans import CAT_FAULT, CAT_STEP, FleetTrace, Span
from repro.serving import (
    ContinuousBatchingScheduler,
    EventKind,
    EventLog,
    Request,
    ServingSimulator,
)


def _log(*events) -> EventLog:
    """An event log holding ``(t_s, EventKind, request_id)`` events."""
    log = EventLog()
    for t_s, kind, request_id in events:
        log.t_s.append(t_s)
        log.kind.append(EventLog.KINDS.index(kind))
        log.request_id.append(request_id)
        log.kv_reserved_bytes.append(0)
        log.queue_depth.append(0)
    return log


def _spans(log, first_tokens, shard_id=0):
    return FleetTrace(lifecycle_rows(shard_id, log, first_tokens), [], 1).spans


A, M, P, C, W = (
    EventKind.ARRIVAL, EventKind.ADMIT, EventKind.PREFILL_START,
    EventKind.COMPLETE, EventKind.WITHDRAW,
)


class TestShardLifecycle:
    """Lifecycle spans built from a hand-made event log."""

    def test_complete_request_emits_three_phase_spans(self):
        log = _log((0.0, A, 1), (0.1, M, 1), (0.2, P, 1), (1.5, C, 1))
        by_name = {s.name: s for s in _spans(log, [0.5], shard_id=3)}
        assert (by_name["QUEUE"].t0_s, by_name["QUEUE"].t1_s) == (0.0, 0.2)
        assert (by_name["PREFILL"].t0_s, by_name["PREFILL"].t1_s) == (0.2, 0.5)
        assert (by_name["DECODE"].t0_s, by_name["DECODE"].t1_s) == (0.5, 1.5)
        assert all(
            s.shard_id == 3 and s.request_id == 1 and s.attrs == ()
            for s in by_name.values()
        )

    def test_withdraw_emits_queue_span_with_outcome(self):
        log = _log((0.0, A, 3), (0.4, W, 3))
        (span,) = _spans(log, [])
        assert (span.name, span.t0_s, span.t1_s) == ("QUEUE", 0.0, 0.4)
        assert span.attrs_dict == {"outcome": "withdrawn"}

    def test_interrupted_request_reports_known_phases_only(self):
        # A crash evicts request 5 mid-decode (its WITHDRAW follows its
        # prefill): one QUEUE, the whole PREFILL, an interrupted DECODE.
        log = _log((0.0, A, 5), (0.1, M, 5), (0.2, P, 5), (0.9, W, 5))
        spans = _spans(log, [0.6])
        assert [(s.name, s.t0_s, s.t1_s, s.attrs_dict) for s in spans] == [
            ("QUEUE", 0.0, 0.2, {}),
            ("PREFILL", 0.2, 0.6, {}),
            ("DECODE", 0.6, 0.9, {"outcome": "interrupted"}),
        ]
        # Without the first-token instant only the QUEUE is bounded.
        assert [s.name for s in _spans(log, [None])] == ["QUEUE"]

    def test_request_still_decoding_has_no_decode_yet(self):
        log = _log((0.0, A, 6), (0.1, M, 6), (0.2, P, 6))
        spans = _spans(log, [0.6])
        assert [(s.name, s.attrs) for s in spans] == [("QUEUE", ()), ("PREFILL", ())]

    def test_unknown_request_events_are_ignored(self):
        log = _log((0.0, C, 99), (0.1, P, 98), (0.2, W, 97))
        assert _spans(log, [0.5]) == ()

    def test_unknown_first_token_leaves_only_queue(self):
        log = _log((0.0, A, 2), (0.2, P, 2), (0.9, C, 2))
        assert [s.name for s in _spans(log, [None])] == ["QUEUE"]

    def test_a_resubmitted_id_starts_a_new_lifecycle(self):
        log = _log(
            (0.0, A, 4), (0.1, W, 4),
            (0.3, A, 4), (0.4, P, 4), (1.0, C, 4),
        )
        spans = _spans(log, [0.6])
        assert [(s.name, s.t0_s, s.t1_s) for s in spans] == [
            ("QUEUE", 0.0, 0.1), ("QUEUE", 0.3, 0.4),
            ("PREFILL", 0.4, 0.6), ("DECODE", 0.6, 1.0),
        ]

    def test_a_reversed_log_built_span_is_rejected(self):
        # A first token before its prefill start can only come from a
        # misaligned first-token source; no trace holds the span.
        log = _log((0.0, A, 1), (0.2, P, 1), (0.9, C, 1))
        with pytest.raises(SimulationError, match="PREFILL"):
            FleetTrace(lifecycle_rows(0, log, [0.1]), [], 1)

    def test_record_first_tokens_take_the_completing_prefill(self):
        class Rec:
            class request:
                request_id = 7
            first_token_s = 2.5

        log = _log(
            (0.0, A, 7), (0.1, P, 7), (1.0, W, 7),
            (1.5, A, 7), (2.0, P, 7), (3.0, C, 7),
            (0.0, A, 8), (0.1, P, 8),
        )
        assert record_first_tokens(log, [Rec]) == [None, 2.5, None]


def _scheduler(fast_engine, obs):
    return ContinuousBatchingScheduler(fast_engine, max_batch=4, obs=obs)


class TestStepsAndSamples:
    def test_step_spans_and_decode_metrics(self):
        obs = FleetObserver()
        shard = obs.shard(0)
        shard.step(0.0, 0.1, "prefill", 1, 1, 7)
        shard.step(0.1, 0.9, "decode", 8, 4)
        spans = [s for s in obs.build().trace.spans if s.cat == CAT_STEP]
        by_name = {s.name: s for s in spans}
        assert by_name["PREFILL_STEP"].request_id == 7
        assert by_name["PREFILL_STEP"].attrs_dict == {"k": 1, "batch": 1}
        assert by_name["DECODE_RUN"].attrs_dict == {"k": 8, "batch": 4}
        assert by_name["DECODE_RUN"].request_id is None
        reg = obs.registry
        assert reg.counter("decode_iterations", shard="0").value == 8
        # batch_size counts decode iterations: one run of 8 over 4.
        batch = reg.histogram("batch_size", shard="0")
        assert batch.n == 8
        assert batch.total == 32

    def test_sampling_is_tick_rate_limited(self):
        obs = FleetObserver(tick_s=1.0)
        shard = obs.shard(0)
        shard.sample(0.0, 10, 1, 2, 3)
        shard.sample(0.5, 20, 1, 2, 3)   # inside the tick: dropped
        shard.sample(1.0, 30, 1, 2, 3)
        g = obs.registry.gauge("kv_reserved_bytes", shard="0")
        assert [v for _, v in g.points] == [10.0, 30.0]


class TestFleetObserver:
    def test_fleet_level_events_and_build(self):
        from repro.fleet import AppliedFault, FaultKind

        obs = FleetObserver()
        obs.instant("SUBMIT", 0.0, request_id=1)
        obs.bind_routing("jsq", [], [
            AppliedFault(FaultKind.CRASH, 1, 1.0, 2.5, 2.0, 1.0, 2, 5),
        ])
        obs.count("retries")
        obs.gauge("shards_up", 1.0, 1.0)
        obs.shard(1)
        bundle = obs.build()
        assert bundle.trace.n_shards == 2
        # The crash's outage, then its re-warm until the shard serves.
        crash, rewarm = bundle.trace.spans
        assert (crash.name, crash.cat, crash.shard_id) == ("CRASH", CAT_FAULT, 1)
        assert (crash.t0_s, crash.t1_s) == (1.0, 2.0)
        assert crash.attrs_dict == {"n_requests_hit": 2, "lost_generated_tokens": 5}
        assert (rewarm.name, rewarm.t0_s, rewarm.t1_s) == ("REWARM", 2.0, 2.5)
        assert rewarm.attrs == ()
        assert bundle.metrics.counter("retries").value == 1.0

    @pytest.mark.parametrize("tick_s", [math.nan, 0.0, -1.0])
    def test_non_positive_tick_is_rejected(self, tick_s):
        with pytest.raises(ConfigError, match="tick_s must be positive"):
            FleetObserver(tick_s=tick_s)
        with pytest.raises(ConfigError, match="tick_s must be positive"):
            ShardObs(0, MetricsRegistry(), tick_s)

    def test_bound_scheduler_lifecycle_and_counters(self, fast_engine):
        obs = FleetObserver()
        sched = _scheduler(fast_engine, obs.shard(0))
        for i in range(3):
            sched.submit(Request(i, 0.0, 16, 4))
        sched.advance_until(math.inf)
        bundle = obs.build()
        names = sorted(s.name for s in bundle.trace.spans if s.request_id == 1)
        assert names == ["DECODE", "PREFILL", "PREFILL_STEP", "QUEUE"]
        reg = bundle.metrics
        assert reg.counter("requests_admitted", shard="0").value == 3.0
        assert reg.counter("requests_completed", shard="0").value == 3.0
        # Rebuilding sets the log counters again; it does not add.
        obs.build()
        assert reg.counter("requests_completed", shard="0").value == 3.0

    def test_build_snapshot_isolates_later_mutation(self, fast_engine):
        obs = FleetObserver()
        sched = _scheduler(fast_engine, obs.shard(0))
        sched.submit(Request(1, 0.0, 16, 4))
        sched.submit(Request(2, 0.0, 16, 4))
        sched.advance_one()  # request 1's prefill; request 2 waits
        bundle = obs.build()
        # Events recorded after the snapshot must not leak in.
        sched.withdraw(2)
        sched.advance_until(math.inf)
        # Request 1 is decoding: its PREFILL is known, its DECODE not.
        assert [(s.name, s.request_id) for s in bundle.trace.spans] == [
            ("QUEUE", 1), ("PREFILL", 1), ("PREFILL_STEP", 1),
        ]
        later = obs.build().trace
        assert {s.name for s in later.spans} >= {"DECODE", "DECODE_RUN"}
        withdrawn = [s for s in later.spans if s.request_id == 2]
        assert [s.attrs_dict for s in withdrawn] == [{"outcome": "withdrawn"}]

    def test_lifecycle_follows_the_log_past_a_mid_run_result(self, fast_engine):
        # result() hands the log out, so the next event goes to a copy;
        # the observer must read the copy.
        obs = FleetObserver()
        sched = _scheduler(fast_engine, obs.shard(0))
        sched.submit(Request(1, 0.0, 16, 4))
        sched.advance_one()
        assert len(sched.result().events)
        sched.advance_until(math.inf)
        names = [s.name for s in obs.build().trace.spans if s.cat == "request"]
        assert names == ["QUEUE", "PREFILL", "DECODE"]

    def test_each_run_keeps_its_own_lifecycles(self, fast_engine, make_stream):
        # Each run builds a fresh scheduler on the same shard view; a
        # run's first tokens come from its own prefill slices.
        def observe(n_runs):
            obs = FleetObserver(tick_s=0.001)
            sim = ServingSimulator(fast_engine, max_batch=4, ctx_bucket=16, obs=obs)
            for _ in range(n_runs):
                sim.run(make_stream())
            return obs.build()

        once, twice = observe(1), observe(2)
        assert Counter(twice.trace.spans) == Counter(
            {span: 2 for span in once.trace.spans}
        )
        for name in ("requests_admitted", "requests_completed", "decode_iterations"):
            assert (
                twice.metrics.counter(name, shard="0").value
                == 2 * once.metrics.counter(name, shard="0").value
            )
        # Each run samples its gauges from its own start.
        points = once.metrics.gauge("queue_depth", shard="0").points
        assert len(points) > 1
        assert twice.metrics.gauge("queue_depth", shard="0").points == points * 2

    def test_each_fleet_run_keeps_its_routing(self, make_fleet, make_stream):
        obs = FleetObserver()
        fleet = make_fleet(obs=obs, steal=True)
        once = fleet.run(make_stream()).obs.trace
        twice = fleet.run(make_stream()).obs.trace
        assert Counter(twice.instants) == Counter(
            {instant: 2 for instant in once.instants}
        )
        assert Counter(twice.spans) == Counter({span: 2 for span in once.spans})

    def test_routing_decisions_become_instants_and_counters(self):
        from repro.fleet import RoutingDecision

        obs = FleetObserver()
        decisions = [RoutingDecision(1, 0.5, 0, 0.25)]
        obs.bind_routing("jsq", decisions, [])
        decisions.append(RoutingDecision(1, 0.75, 1, migrated_from=0))
        bundle = obs.build()
        route, migrate = bundle.trace.instants
        assert (route.name, route.shard_id, route.t_s) == ("ROUTE", 0, 0.5)
        assert route.attrs_dict == {"policy": "jsq", "predicted_ttft_s": 0.25}
        assert (migrate.name, migrate.shard_id) == ("MIGRATE", 1)
        assert migrate.attrs_dict == {"from_shard": 0}
        reg = bundle.metrics
        assert reg.counter("requests_routed", shard=0).value == 1.0
        assert reg.counter("migrations", thief=1, donor=0).value == 1.0


class TestObsBundle:
    def test_lazy_trace_is_cached(self):
        obs = FleetObserver()
        obs.instant("SUBMIT", 0.0, request_id=1)
        bundle = obs.build()
        assert "lazy" in repr(bundle)
        assert bundle.trace is bundle.trace
        assert "lazy" not in repr(bundle)

    def test_requires_trace_or_assembler(self):
        with pytest.raises(ValueError):
            ObsBundle(metrics=MetricsRegistry())

    def test_write_trace_and_metrics(self, tmp_path, fast_engine):
        obs = FleetObserver()
        sched = _scheduler(fast_engine, obs.shard(0))
        sched.submit(Request(1, 0.0, 16, 4))
        sched.advance_until(math.inf)
        obs.count("requests_routed", shard=0)
        bundle = obs.build()

        trace_path = tmp_path / "trace.json"
        bundle.write_trace(str(trace_path))
        doc = json.loads(trace_path.read_text())
        assert doc["otherData"]["schema"] == "repro.obs.trace"
        assert doc == bundle.perfetto()
        assert {ev["name"] for ev in doc["traceEvents"]} >= {"QUEUE", "DECODE"}

        json_path = tmp_path / "metrics.json"
        bundle.write_metrics(str(json_path))
        assert json.loads(json_path.read_text())["schema"] == "repro.obs.metrics"

        csv_path = tmp_path / "metrics.csv"
        bundle.write_metrics(str(csv_path))
        assert csv_path.read_text().startswith("kind,name,labels,t_s,value")

    def test_explicit_trace_construction(self, tmp_path):
        trace = FleetTrace.build([Span.make("X", "request", 0.0, 1.0)])
        bundle = ObsBundle(metrics=MetricsRegistry(), trace=trace)
        assert bundle.trace is trace
        bundle.write_trace(str(tmp_path / "trace.json"))
        assert json.loads((tmp_path / "trace.json").read_text()) == bundle.perfetto()
