"""Bridging op-level cycle traces and report-reconstructed timelines."""

from __future__ import annotations

import pytest

from repro import MeadowEngine, zcu102_config
from repro.core import ExecutionPlan
from repro.errors import SimulationError
from repro.fleet import FleetSimulator, RetryPolicy
from repro.models import TransformerConfig, get_model, prefill_workload
from repro.obs import (
    CAT_FAULT,
    CAT_OP,
    CAT_REQUEST,
    FleetObserver,
    FleetTrace,
    Span,
    nest_op_trace,
    op_spans,
    render_fleet_timeline,
)
from repro.packing import PackingPlanner
from repro.serving import EventKind, LengthDistribution, bursty_stream
from repro.sim import WorkloadSimulator


@pytest.fixture(scope="module")
def stage_report():
    model = TransformerConfig("bridge-tiny", 2, 64, 4, 128, max_seq_len=256)
    sim = WorkloadSimulator(
        model, zcu102_config(12.0), ExecutionPlan.meadow(),
        PackingPlanner(depth_buckets=1),
    )
    return sim.simulate(prefill_workload(model, 32))


class TestOpSpans:
    def test_clock_mode_converts_cycles_at_configured_hz(self, stage_report):
        spans = op_spans(stage_report, 0.0)
        hz = stage_report.config.clock_hz
        assert spans[0].t0_s == 0.0
        assert spans[-1].t1_s == pytest.approx(
            stage_report.total_cycles / hz
        )
        assert all(s.cat == CAT_OP for s in spans)

    def test_duration_mode_stretches_to_fill_window(self, stage_report):
        spans = op_spans(stage_report, 2.0, duration_s=0.5, shard_id=1,
                         request_id=9)
        assert spans[0].t0_s == pytest.approx(2.0)
        assert spans[-1].t1_s == pytest.approx(2.5)
        assert all(s.shard_id == 1 and s.request_id == 9 for s in spans)
        assert all("cycles" in s.attrs_dict for s in spans)

    def test_span_names_carry_layer_and_op(self, stage_report):
        names = {s.name for s in op_spans(stage_report, 0.0)}
        assert any(n.startswith("L0.") for n in names)
        assert any(n.startswith("L1.") for n in names)


class TestNestOpTrace:
    def _lifecycle(self):
        return FleetTrace.build(
            [
                Span.make("QUEUE", CAT_REQUEST, 0.0, 0.2, shard_id=0,
                          request_id=4),
                Span.make("PREFILL", CAT_REQUEST, 0.2, 0.7, shard_id=0,
                          request_id=4),
            ],
            n_shards=1,
        )

    def test_ops_fill_the_prefill_span(self, stage_report):
        nested = nest_op_trace(self._lifecycle(), 4, stage_report)
        ops = [s for s in nested.spans if s.cat == CAT_OP]
        assert ops
        assert min(s.t0_s for s in ops) == pytest.approx(0.2)
        assert max(s.t1_s for s in ops) == pytest.approx(0.7)
        assert all(s.request_id == 4 for s in ops)
        # Lifecycle spans survive the merge.
        assert "QUEUE" in nested.span_names()

    def test_unknown_request_rejected(self, stage_report):
        with pytest.raises(SimulationError):
            nest_op_trace(self._lifecycle(), 99, stage_report)

    def test_missing_phase_rejected(self, stage_report):
        with pytest.raises(SimulationError):
            nest_op_trace(self._lifecycle(), 4, stage_report, phase="DECODE")


class TestTraceFromReport:
    """An unobserved report builds the observed run's trace."""

    def test_unobserved_report_reconstructs_lifecycle(
        self, make_fleet, make_stream
    ):
        plain = make_fleet(steal=True).run(make_stream())
        observed = make_fleet(obs=FleetObserver(), steal=True).run(make_stream())
        trace = FleetObserver().build(plain).trace
        assert trace.n_shards == 2
        assert {"QUEUE", "PREFILL", "DECODE"} <= set(trace.span_names())
        assert trace == observed.obs.trace
        assert {"SUBMIT", "ROUTE"} <= {i.name for i in trace.instants}

    def test_queue_ends_at_prefill_start(self, make_fleet, make_stream):
        report = make_fleet().run(make_stream())
        trace = FleetObserver().build(report).trace
        for shard in report.result.shard_results:
            starts = {
                ev.request_id: ev.t_s for ev in shard.events
                if ev.kind is EventKind.PREFILL_START
            }
            for rec in shard.records:
                rid = rec.request.request_id
                (queue,) = [
                    s for s in trace.for_request(rid).spans if s.name == "QUEUE"
                ]
                assert queue.t1_s == starts[rid] >= rec.admit_s

    def test_chaos_report_carries_fault_spans(
        self, chaos_reports, make_fleet, make_stream
    ):
        report_off, _ = chaos_reports
        assert "CRASH" in set(FleetObserver().build(report_off).trace.span_names())
        # One builder draws the fault windows of both runs from the
        # ledger: the unobserved CRASH, REWARM and BROWNOUT spans are
        # the observed ones, attributes included.
        brownout = [
            make_fleet(obs=obs, faults="brownout").run(make_stream())
            for obs in (None, FleetObserver())
        ]
        for off, on in (chaos_reports, brownout):
            faults = [
                s for s in FleetObserver().build(off).trace.spans
                if s.cat == CAT_FAULT
            ]
            assert faults and faults == [
                s for s in on.obs.trace.spans if s.cat == CAT_FAULT
            ]

    def test_unobserved_crash_victims_match_the_observed_trace(
        self, crash_fleet
    ):
        # The `repro fleet ... --faults crash --retry-budget 2 --steal`
        # run of the export golden: its crash evicts three requests
        # mid-decode, which the trace shows as PREFILL plus an
        # interrupted DECODE, with their RETRY instants.
        plain, observed = (crash_fleet(obs).run(stream) for obs, stream in (
            (None, _crash_stream()), (FleetObserver(), _crash_stream()),
        ))
        assert plain == observed
        trace = FleetObserver().build(plain).trace
        assert trace.spans == observed.obs.trace.spans
        assert trace.instants == observed.obs.trace.instants
        interrupted = [
            s for s in trace.spans
            if s.name == "DECODE" and s.attrs_dict.get("outcome") == "interrupted"
        ]
        assert len(interrupted) == 3
        retried = {i.request_id for i in trace.instants if i.name == "RETRY"}
        assert {s.request_id for s in interrupted} <= retried


def _crash_stream():
    """The fleet CLI's default bursty stream at 24 requests, seed 0."""
    return bursty_stream(
        24, 8, 0.25,
        LengthDistribution("uniform", 64, 256),
        LengthDistribution("geometric", 24, 96),
        seed=0,
    )


@pytest.fixture(scope="module")
def crash_fleet():
    """A factory for the fleet CLI's 12/1 Gbps OPT-125M crash fleet."""
    base = MeadowEngine(get_model("opt-125m"), zcu102_config(12.0),
                        ExecutionPlan.meadow())
    engines = [base, base.clone(config=base.config.with_bandwidth(1.0))]

    def _make(obs):
        return FleetSimulator(
            engines, policy="predicted-latency", max_batch=16, ctx_bucket=16,
            steal=True, faults="crash", retry=RetryPolicy(max_retries=2),
            obs=obs,
        )

    return _make


class TestRenderFleetTimeline:
    def test_renders_header_rows_and_legend(self, chaos_reports):
        _, report_on = chaos_reports
        text = render_fleet_timeline(report_on.obs.trace, width=60)
        lines = text.splitlines()
        assert lines[0].startswith("fleet timeline — 2 shard(s)")
        assert lines[1].startswith("shard 0 |")
        assert lines[2].startswith("shard 1 |")
        assert lines[3].startswith("legend:")
        assert "X" in text or "#" in text

    def test_rejects_narrow_width_and_empty_trace(self):
        with pytest.raises(SimulationError):
            render_fleet_timeline(FleetTrace.build([]), width=5)
        with pytest.raises(SimulationError):
            render_fleet_timeline(FleetTrace.build([]))


class TestFleetReportTimeline:
    def test_observed_and_fallback_paths_both_render(self, make_fleet,
                                                     make_stream):
        observed = make_fleet(obs=FleetObserver()).run(make_stream())
        plain = make_fleet().run(make_stream())
        text = plain.timeline(width=50)
        assert text.startswith("fleet timeline — 2 shard(s)")
        assert text.splitlines()[-1].startswith("legend:")
        # Both render the one trace the report builds.
        assert observed.timeline(width=50) == text
