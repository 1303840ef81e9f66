"""Unit tests for the log-built lifecycle, FleetObserver and ObsBundle."""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

from repro.errors import ConfigError, SimulationError
from repro.obs import FleetObserver, MetricsRegistry, ObsBundle
from repro.obs.bridge import lifecycle_rows
from repro.obs.spans import CAT_FAULT, CAT_STEP, FleetTrace, Span
from repro.serving import (
    ContinuousBatchingScheduler,
    EventKind,
    EventLog,
    Request,
    ServingSimulator,
    StepLog,
)


def _log(*events) -> EventLog:
    """An event log holding ``(t_s, EventKind, request_id)`` events,
    or ``(t_s, EventKind, request_id, kv_reserved_bytes, queue_depth)``."""
    log = EventLog()
    for t_s, kind, request_id, *state in events:
        kv, queue = state or (0, 0)
        log.t_s.append(t_s)
        log.kind.append(EventLog.KINDS.index(kind))
        log.request_id.append(request_id)
        log.kv_reserved_bytes.append(kv)
        log.queue_depth.append(queue)
    return log


def _steps(*rows) -> StepLog:
    """A step log holding ``(t0_s, t1_s, k, batch, events)`` rows."""
    steps = StepLog()
    for row in rows:
        for column, value in zip(StepLog.__slots__, row):
            getattr(steps, column).append(value)
    return steps


def _shard(log, steps):
    """A one-shard result as :meth:`FleetObserver.build` reads it."""
    return SimpleNamespace(events=log, steps=steps)


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

    def test_first_tokens_come_from_the_prefill_steps(self):
        # Request 7's first prefill is cut short by a crash (its DECODE
        # is interrupted), its second completes; request 8 prefills in
        # one step and completes in it (one output token), so that
        # step's last event is its COMPLETE.
        log = _log(
            (0.0, A, 7), (0.1, P, 7), (1.0, W, 7),
            (1.5, A, 7), (2.0, P, 7), (3.0, C, 7),
            (3.0, A, 8), (3.0, P, 8), (3.2, C, 8),
        )
        steps = _steps(
            (0.1, 0.4, 0, 1, 2), (2.0, 2.5, 0, 1, 5), (2.5, 3.0, 4, 1, 6),
            (3.0, 3.2, 0, 1, 9),
        )
        trace = FleetObserver().build(_shard(log, steps)).trace
        assert [
            (s.name, s.request_id, s.t0_s, s.t1_s, s.attrs_dict)
            for s in trace.spans if s.name in ("PREFILL", "DECODE")
        ] == [
            ("PREFILL", 7, 0.1, 0.4, {}),
            ("DECODE", 7, 0.4, 1.0, {"outcome": "interrupted"}),
            ("PREFILL", 7, 2.0, 2.5, {}),
            ("DECODE", 7, 2.5, 3.0, {}),
            ("PREFILL", 8, 3.0, 3.2, {}),
            ("DECODE", 8, 3.2, 3.2, {}),
        ]
        assert [
            s.request_id for s in trace.spans if s.name == "PREFILL_STEP"
        ] == [7, 7, 8]


def _scheduler(fast_engine):
    return ContinuousBatchingScheduler(fast_engine, max_batch=4)


class TestStepsAndSamples:
    def test_step_spans_and_decode_metrics(self):
        log = _log((0.0, A, 7), (0.0, M, 7), (0.0, P, 7))
        bundle = FleetObserver().build(
            _shard(log, _steps((0.0, 0.1, 0, 1, 3), (0.1, 0.9, 8, 4, 3)))
        )
        spans = [s for s in bundle.trace.spans if s.cat == CAT_STEP]
        by_name = {s.name: s for s in spans}
        assert by_name["PREFILL_STEP"].request_id == 7
        assert by_name["PREFILL_STEP"].attrs_dict == {"k": 1, "batch": 1}
        assert by_name["DECODE_RUN"].attrs_dict == {"k": 8, "batch": 4}
        assert by_name["DECODE_RUN"].request_id is None
        reg = bundle.metrics
        assert reg.counter("decode_iterations", shard="0").value == 8
        # batch_size counts decode iterations: one run of 8 over 4.
        batch = reg.histogram("batch_size", shard="0")
        assert batch.n == 8
        assert batch.total == 32

    def test_sampling_is_tick_rate_limited(self):
        # Two requests arrive; 1 is admitted and prefilled, then decodes
        # while 2 waits in the queue until 1 completes.
        log = _log(
            (0.0, A, 1, 0, 1), (0.0, A, 2, 0, 2), (0.0, M, 1, 10, 1),
            (0.0, P, 1, 10, 1), (0.6, C, 1, 0, 1), (0.6, M, 2, 20, 0),
            (0.6, P, 2, 20, 0),
        )
        steps = _steps(
            (0.0, 0.2, 0, 1, 4),  # sampled: the shard's first step
            (0.2, 0.6, 3, 1, 5),  # inside the tick: dropped
            (0.6, 1.0, 0, 1, 7),
        )
        bundle = FleetObserver(tick_s=0.5).build(_shard(log, steps))
        gauges = {
            name: bundle.metrics.gauge(name, shard="0").points
            for name in ("kv_reserved_bytes", "queue_depth",
                         "inflight_decodes", "waiting_requests")
        }
        assert gauges == {
            "kv_reserved_bytes": [(0.2, 10.0), (1.0, 20.0)],
            "queue_depth": [(0.2, 1.0), (1.0, 0.0)],
            "inflight_decodes": [(0.2, 1.0), (1.0, 1.0)],
            "waiting_requests": [(0.2, 1.0), (1.0, 0.0)],
        }


class TestFleetObserver:
    def test_fleet_level_events_and_build(self):
        from repro.fleet import AppliedFault, FaultKind

        empty = _shard(EventLog(), StepLog())
        report = SimpleNamespace(
            result=SimpleNamespace(
                shard_results=(empty, empty), decisions=(),
                submitted=(Request(1, 0.0, 16, 4),), n_initial=1,
            ),
            resilience=SimpleNamespace(
                faults=(AppliedFault(FaultKind.CRASH, 1, 1.0, 2.5, 2.0, 1.0, 2, 5),),
                ledger=(
                    (1.0, "SHARDS_UP", 1),
                    (1.0, "RETRY", 1, 1, 0.25),
                    (2.5, "SHARDS_UP", 2),
                ),
            ),
        )
        bundle = FleetObserver().build(report)
        assert bundle.trace.n_shards == 2
        # The crash's outage, then its re-warm until the shard serves.
        crash, rewarm = bundle.trace.spans
        assert (crash.name, crash.cat, crash.shard_id) == ("CRASH", CAT_FAULT, 1)
        assert (crash.t0_s, crash.t1_s) == (1.0, 2.0)
        assert crash.attrs_dict == {"n_requests_hit": 2, "lost_generated_tokens": 5}
        assert (rewarm.name, rewarm.t0_s, rewarm.t1_s) == ("REWARM", 2.0, 2.5)
        assert rewarm.attrs == ()
        submit, retry = bundle.trace.instants
        assert (submit.name, submit.request_id, submit.attrs) == ("SUBMIT", 1, ())
        assert (retry.name, retry.t_s) == ("RETRY", 1.0)
        assert retry.attrs_dict == {"attempt": 1, "backoff_s": 0.25}
        reg = bundle.metrics
        assert reg.counter("retries").value == 1.0
        assert reg.counter("crashes", shard=1).value == 1.0
        assert reg.gauge("shards_up").points == [(1.0, 1.0), (2.5, 2.0)]

    @pytest.mark.parametrize("tick_s", [math.nan, 0.0, -1.0])
    def test_non_positive_tick_is_rejected(self, tick_s):
        with pytest.raises(ConfigError, match="tick_s must be positive"):
            FleetObserver(tick_s=tick_s)

    def test_bound_scheduler_lifecycle_and_counters(self, fast_engine):
        sched = _scheduler(fast_engine)
        for i in range(3):
            sched.submit(Request(i, 0.0, 16, 4))
        sched.advance_until(math.inf)
        result = sched.result()
        bundle = FleetObserver().build(result)
        names = sorted(s.name for s in bundle.trace.spans if s.request_id == 1)
        assert names == ["DECODE", "PREFILL", "PREFILL_STEP", "QUEUE"]
        reg = bundle.metrics
        assert reg.counter("requests_admitted", shard="0").value == 3.0
        assert reg.counter("requests_completed", shard="0").value == 3.0
        # Building again reads the same logs into a fresh registry.
        again = FleetObserver().build(result)
        assert again.metrics.to_json() == reg.to_json()
        assert again.trace == bundle.trace

    def test_build_snapshot_isolates_later_mutation(self, fast_engine):
        sched = _scheduler(fast_engine)
        sched.submit(Request(1, 0.0, 16, 4))
        sched.submit(Request(2, 0.0, 16, 4))
        sched.advance_one()  # request 1's prefill; request 2 waits
        bundle = FleetObserver().build(sched.result())
        # Events and steps after the result must not leak in.
        sched.withdraw(2)
        sched.advance_until(math.inf)
        # Request 1 is decoding: its PREFILL is known, its DECODE not.
        assert [(s.name, s.request_id) for s in bundle.trace.spans] == [
            ("QUEUE", 1), ("PREFILL", 1), ("PREFILL_STEP", 1),
        ]
        later = FleetObserver().build(sched.result()).trace
        assert {s.name for s in later.spans} >= {"DECODE", "DECODE_RUN"}
        withdrawn = [s for s in later.spans if s.request_id == 2]
        assert [s.attrs_dict for s in withdrawn] == [{"outcome": "withdrawn"}]

    def test_lifecycle_follows_the_log_past_a_mid_run_result(self, fast_engine):
        # result() hands the logs out, so the next row of either goes
        # to a copy of both; the final result reads the copies.
        sched = _scheduler(fast_engine)
        sched.submit(Request(1, 0.0, 16, 4))
        sched.advance_one()
        first = sched.result()
        assert (len(first.events), len(first.steps)) == (3, 1)
        sched.advance_until(math.inf)
        assert (len(first.events), len(first.steps)) == (3, 1)
        trace = FleetObserver().build(sched.result()).trace
        names = [s.name for s in trace.spans if s.cat == "request"]
        assert names == ["QUEUE", "PREFILL", "DECODE"]

    def test_a_reused_observer_builds_each_run_alone(self, fast_engine, make_stream):
        obs = FleetObserver(tick_s=0.001)
        sim = ServingSimulator(fast_engine, max_batch=4, ctx_bucket=16)
        once, twice = (obs.build(sim.run(make_stream())) for _ in range(2))
        assert twice.trace == once.trace
        assert twice.metrics.to_json() == once.metrics.to_json()
        # Each run samples its gauges from its own start.
        points = once.metrics.gauge("queue_depth", shard="0").points
        assert len(points) > 1 and points[0][0] < points[-1][0]

    def test_a_reused_observer_builds_each_fleet_run_alone(
        self, make_fleet, make_stream
    ):
        obs = FleetObserver()
        fleet = make_fleet(obs=obs, steal=True)
        once = fleet.run(make_stream()).obs
        twice = fleet.run(make_stream()).obs
        assert twice.trace == once.trace
        assert twice.metrics.to_json() == once.metrics.to_json()

    def test_routing_decisions_become_instants_and_counters(self):
        from repro.fleet import RoutingDecision

        empty = _shard(EventLog(), StepLog())
        result = SimpleNamespace(
            shard_results=(empty, empty), policy_name="jsq",
            decisions=(
                RoutingDecision(1, 0.5, 0, 0.25),
                RoutingDecision(1, 0.75, 1, migrated_from=0),
            ),
        )
        bundle = FleetObserver().build(result)
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
        bundle = FleetObserver().build(_shard(EventLog(), StepLog()))
        assert "lazy" in repr(bundle)
        assert bundle.trace is bundle.trace
        assert "lazy" not in repr(bundle)

    def test_requires_trace_or_assembler(self):
        with pytest.raises(ValueError):
            ObsBundle(metrics=MetricsRegistry())

    def test_write_trace_and_metrics(self, tmp_path, fast_engine):
        sched = _scheduler(fast_engine)
        sched.submit(Request(1, 0.0, 16, 4))
        sched.advance_until(math.inf)
        bundle = FleetObserver().build(sched.result())

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
