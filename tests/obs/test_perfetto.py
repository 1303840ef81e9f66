"""Perfetto/Chrome trace_event export and its structural validator."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles.obs_reference import document_text, reference_trace
from repro.errors import SimulationError
from repro.obs import (
    CAT_FAULT,
    CAT_REQUEST,
    CAT_STEP,
    FleetObserver,
    FleetTrace,
    Instant,
    Span,
    to_perfetto,
    validate_trace_events,
    write_perfetto,
)
from repro.obs.perfetto import FLEET_PID, WRITE_BATCH


def _sample_trace() -> FleetTrace:
    return FleetTrace.build(
        [
            Span.make("QUEUE", CAT_REQUEST, 0.0, 0.2, shard_id=0, request_id=1),
            Span.make("PREFILL", CAT_REQUEST, 0.2, 0.5, shard_id=0, request_id=1),
            Span.make("CRASH", CAT_FAULT, 1.0, 2.0, shard_id=1),
        ],
        [
            Instant.make("SUBMIT", CAT_REQUEST, 0.0, request_id=1),
            Instant.make("ROUTE", CAT_REQUEST, 0.0, request_id=1, shard_id=0),
        ],
        n_shards=2,
    )


class TestExport:
    def test_document_shape_and_schema(self):
        doc = to_perfetto(_sample_trace())
        assert doc["displayTimeUnit"] == "ms"
        assert doc["otherData"]["schema"] == "repro.obs.trace"
        assert doc["otherData"]["schema_version"] == 1
        assert validate_trace_events(doc)["events"] == len(doc["traceEvents"])

    def test_one_process_per_shard(self):
        doc = to_perfetto(_sample_trace())
        names = {
            (ev["pid"], ev["args"]["name"])
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert (FLEET_PID, "fleet") in names
        assert (FLEET_PID + 1, "shard 0") in names
        assert (FLEET_PID + 2, "shard 1") in names

    def test_complete_events_in_microseconds(self):
        doc = to_perfetto(_sample_trace())
        prefill = next(
            ev for ev in doc["traceEvents"]
            if ev["ph"] == "X" and ev["name"] == "PREFILL"
        )
        assert prefill["ts"] == pytest.approx(0.2e6)
        assert prefill["dur"] == pytest.approx(0.3e6)
        assert prefill["args"]["request_id"] == 1

    def test_route_flows_bind_router_to_queue_span(self):
        doc = to_perfetto(_sample_trace())
        flows = [ev for ev in doc["traceEvents"] if ev.get("cat") == "flow"]
        assert {ev["ph"] for ev in flows} == {"s", "f"}
        start = next(ev for ev in flows if ev["ph"] == "s")
        finish = next(ev for ev in flows if ev["ph"] == "f")
        assert start["id"] == finish["id"]
        assert finish["bp"] == "e"
        assert finish["pid"] == FLEET_PID + 1  # lands on shard 0's track

    def test_fleet_run_produces_flows_per_request(self, chaos_reports):
        _, report_on = chaos_reports
        counts = validate_trace_events(to_perfetto(report_on.obs.trace))
        assert counts["flow"] >= 2
        assert counts["flow"] % 2 == 0


class TestValidator:
    def test_rejects_non_object_events(self):
        with pytest.raises(SimulationError):
            validate_trace_events({"traceEvents": ["nope"]})

    def test_rejects_unknown_phase(self):
        bad = {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0}]}
        with pytest.raises(SimulationError):
            validate_trace_events(bad)

    def test_rejects_negative_duration(self):
        bad = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0, "dur": -5}
            ]
        }
        with pytest.raises(SimulationError):
            validate_trace_events(bad)

    def test_rejects_unmatched_flow_finish(self):
        bad = {
            "traceEvents": [
                {
                    "ph": "f", "name": "route", "cat": "flow", "id": "req1.0",
                    "pid": 1, "tid": 1, "ts": 0, "bp": "e",
                }
            ]
        }
        with pytest.raises(SimulationError):
            validate_trace_events(bad)

    def test_rejects_flow_finishing_before_its_start(self):
        # Retry arrow req1157.1 of the seed-0 perfbench chaos trace, as
        # n-th-ROUTE-to-n-th-QUEUE pairing drew it: from the route on
        # shard 2 at 150.001 s back to a QUEUE on shard 0 at 148.693 s.
        bad = {
            "traceEvents": [
                {"ph": "s", "name": "route", "cat": "flow", "id": "req1157.1",
                 "pid": 4, "tid": 1, "ts": 150001000.0},
                {"ph": "f", "name": "route", "cat": "flow", "id": "req1157.1",
                 "pid": 2, "tid": 1, "ts": 148693000.0, "bp": "e"},
            ]
        }
        with pytest.raises(SimulationError, match="before its start"):
            validate_trace_events(bad)

    def test_counts_by_phase(self):
        doc = to_perfetto(_sample_trace())
        counts = validate_trace_events(doc)
        assert counts["complete"] == 3
        assert counts["instant"] == 2
        assert counts["flow"] == 2
        assert counts["metadata"] > 0


class TestRouteFlows:
    """Each ROUTE lands on the routed shard's next QUEUE span."""

    def _retried_chaos(self, make_fleet, make_stream):
        # Seed 2's chaos run crashes two requests mid-flight and retries
        # them onto the other shard.
        return make_fleet(obs=FleetObserver(tick_s=0.01), faults="chaos").run(
            make_stream("bursty", 12, 2)
        )

    def test_a_stolen_request_keeps_its_arrow_on_the_routed_shard(self):
        # Request 7 is routed to shard 0 and stolen by idle shard 1 at
        # the same instant, so its QUEUE on shard 1 sorts before the
        # withdrawn one on shard 0. The arrow still lands on shard 0.
        trace = FleetTrace.build(
            [
                Span.make("QUEUE", CAT_REQUEST, 0.0, 0.0, shard_id=1, request_id=7),
                Span.make("QUEUE", CAT_REQUEST, 0.0, 0.25, shard_id=0,
                          request_id=7, outcome="withdrawn"),
            ],
            [
                Instant.make("ROUTE", CAT_REQUEST, 0.0, shard_id=0, request_id=7),
                Instant.make("MIGRATE", CAT_REQUEST, 0.0, shard_id=1,
                             request_id=7, from_shard=0),
            ],
            n_shards=2,
        )
        flows = [ev for ev in to_perfetto(trace)["traceEvents"] if ev["ph"] in "sf"]
        assert [(ev["ph"], ev["pid"]) for ev in flows] == [
            ("s", FLEET_PID + 1), ("f", FLEET_PID + 1),
        ]

    def test_original_pairing_is_rejected(self, make_fleet, make_stream):
        report = self._retried_chaos(make_fleet, make_stream)
        original = json.loads(document_text(reference_trace(report), fixed=False))
        with pytest.raises(SimulationError, match="before its start"):
            validate_trace_events(original)

    def test_arrows_land_on_the_routed_shard_no_earlier(
        self, make_fleet, make_stream
    ):
        report = self._retried_chaos(make_fleet, make_stream)
        doc = report.obs.perfetto()
        validate_trace_events(doc)
        flows = {}
        for ev in doc["traceEvents"]:
            if ev["ph"] in ("s", "f"):
                flows.setdefault(ev["id"], {})[ev["ph"]] = ev
        queues = {
            (ev["args"]["request_id"], ev["pid"], ev["ts"])
            for ev in doc["traceEvents"]
            if ev["ph"] == "X" and ev["name"] == "QUEUE"
        }
        retried = [fid for fid in flows if not fid.endswith(".0")]
        assert retried
        for fid, pair in flows.items():
            start, finish = pair["s"], pair["f"]
            assert start["pid"] == finish["pid"]
            assert finish["ts"] >= start["ts"]
            rid = int(fid[3:].split(".")[0])
            assert (rid, finish["pid"], finish["ts"]) in queues


class TestFleetRunExport:
    def test_chaos_trace_validates_and_carries_faults(self, chaos_reports):
        _, report_on = chaos_reports
        doc = to_perfetto(report_on.obs.trace)
        validate_trace_events(doc)
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert "PREFILL" in names and "DECODE" in names
        assert "SUBMIT" in names and "ROUTE" in names

    def test_shard_tracks_cover_all_shards(self, chaos_reports):
        _, report_on = chaos_reports
        trace = report_on.obs.trace
        assert trace.n_shards == 2
        assert trace.for_shard(0).spans and trace.for_shard(1).spans


def _trace_of(n_events: int) -> FleetTrace:
    """A trace whose document holds exactly ``n_events`` events.

    Three are metadata (the fleet and shard 0 processes, shard 0's
    request track); the rest are DECODE spans with float times and
    int and string attributes.
    """
    spans = [
        Span.make(
            "DECODE", CAT_REQUEST, k * 0.1, k * 0.1 + 0.07,
            shard_id=0, request_id=k, k=k % 5, outcome="done",
        )
        for k in range(n_events - 3)
    ]
    return FleetTrace.build(spans, n_shards=1)


#: Attribute values that compare or hash alike across types
#: (``True == 1 == 1.0``, ``0.0 == -0.0``), non-finite floats, and floats
#: whose shortest text is easy to get wrong.
HOSTILE = (
    True, 1, 1.0, 0.0, -0.0, float("nan"), float("inf"), -float("inf"),
    5e-324, 1e16, 1e22,
)
#: Event times: int and float, finite (a trace time is never NaN).
TIMES = st.sampled_from((0, 1, 3, 0.0, -0.0, 1.0, 0.25, 5e-324, 1e16)) | st.floats(
    0, 1e4
)
#: Strings with template, quote, escape and non-ASCII characters.
TEXTS = st.text(alphabet='ab%"\\\u00e9\u20ac\U0001F600', max_size=5)
#: Attribute names; some sort after ``request_id``. Not a ``make`` argument.
KEYS = (TEXTS | st.sampled_from(("k", "shard_note", "zz"))).filter(
    lambda k: k not in {"name", "cat", "t0_s", "t1_s", "t_s", "shard_id", "request_id"}
)
EVENTS = st.lists(
    st.tuples(
        st.booleans(),  # span or instant
        st.sampled_from((CAT_REQUEST, CAT_STEP, CAT_FAULT, 'o%"\u00e9')),
        TEXTS.filter(bool) | st.sampled_from(("ROUTE", "QUEUE")),
        TIMES,
        st.sampled_from((0, 1, 0.5, 1e-7, 3.0)),
        st.none() | st.integers(0, 3),
        st.none() | st.integers(0, 99),
        st.dictionaries(
            KEYS, st.sampled_from(HOSTILE) | TEXTS | st.none() | st.integers(),
            max_size=3,
        ),
    ),
    max_size=12,
)


class TestWritePerfetto:
    """The streamed file is the one-shot compact dump, byte for byte."""

    def _assert_streams_compact_dump(self, trace, path) -> None:
        write_perfetto(trace, str(path))
        text = path.read_text()
        doc = to_perfetto(trace)
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert json.loads(text) == doc

    def test_metadata_only_trace(self, tmp_path):
        trace = FleetTrace.build([], [])
        assert {ev["ph"] for ev in to_perfetto(trace)["traceEvents"]} == {"M"}
        self._assert_streams_compact_dump(trace, tmp_path / "trace.json")

    @pytest.mark.parametrize(
        "n_events", [WRITE_BATCH, WRITE_BATCH + 1], ids=["one-batch", "batch-plus-one"]
    )
    def test_batch_edges(self, tmp_path, n_events):
        trace = _trace_of(n_events)
        assert len(to_perfetto(trace)["traceEvents"]) == n_events
        self._assert_streams_compact_dump(trace, tmp_path / "trace.json")

    def test_observed_chaos_fleet(self, tmp_path, chaos_reports):
        _, report_on = chaos_reports
        self._assert_streams_compact_dump(report_on.obs.trace, tmp_path / "trace.json")
        report_on.obs.write_trace(str(tmp_path / "bundle.json"))
        assert (tmp_path / "bundle.json").read_text() == (
            tmp_path / "trace.json"
        ).read_text()

    @given(st.permutations(HOSTILE), EVENTS)
    @settings(
        max_examples=60, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_hostile_values_write_the_encoders_text(self, tmp_path, hostile, drawn):
        # Every draw holds every hostile value, as attributes of one
        # request's span and instant on shard 0 and at times of its own.
        attrs = {f"v{i}": v for i, v in enumerate(hostile)}
        spans = [Span.make("QUEUE", CAT_REQUEST, 0, 1.0, shard_id=0, request_id=7,
                           **attrs)]
        instants = [
            Instant.make("ROUTE", CAT_REQUEST, 0.0, shard_id=0, request_id=7,
                         **attrs),
            Instant.make("MARK", CAT_REQUEST, -0.0, shard_id=0, note='"%\u00e9'),
        ]
        finite = [h for h in hostile if type(h) is float and math.isfinite(h)]
        for i, t in enumerate(finite):
            spans.append(Span.make("T", CAT_STEP, t, t + i, shard_id=1, k=t))
        for span, cat, name, t0, dur, shard, rid, extra in drawn:
            if span:
                spans.append(Span.make(name, cat, t0, t0 + dur, shard, rid, **extra))
            else:
                instants.append(Instant.make(name, cat, t0, shard, rid, **extra))
        trace = FleetTrace.build(spans, instants, n_shards=4)
        self._assert_streams_compact_dump(trace, tmp_path / "trace.json")
        # The same bytes as the dict-per-event oracle, whose values never
        # pass through the writers.
        assert (tmp_path / "trace.json").read_text() == document_text(
            trace, fixed=True
        )
