"""The columnar event log and the gap arrays of a scheduler's results.

A scheduler keeps its state-change events as the columns of an
:class:`~repro.serving.EventLog` and each record's TBT gaps as an
``array('d')`` sliced from its shard's token clock. These tests pin
what readers of a :class:`~repro.serving.ServingResult` rely on: the
log reads back the exact events the scheduler reported (checked against
a probe on the scheduler's ``_log`` that saw each one as it was
logged), ``==`` sees every column, and a result is a snapshot that
later simulation never changes.
"""

from __future__ import annotations

import math
from array import array

import pytest

from oracles.source_loop import run_source
from repro.serving import (
    ContinuousBatchingScheduler,
    EventKind,
    EventLog,
    Request,
    SchedulerEvent,
    poisson_stream,
)

COLUMNS = ("t_s", "kind", "request_id", "kv_reserved_bytes", "queue_depth")


def _record_logging(sched):
    """Wrap the scheduler's ``_log`` so each event's whole tuple is
    noted, from the scheduler's own state, at the moment it is logged."""
    seen = []
    log = sched._log

    def recording(kind, request_id):
        seen.append(
            (sched._clock, EventLog.KINDS[kind], request_id,
             sched._kv_reserved, len(sched._pending))
        )
        log(kind, request_id)

    sched._log = recording
    return seen


@pytest.fixture
def make_sched(serving_engine, serving_model, prompt_dist, output_dist):
    """A backlogged ``(scheduler, source)``: 40 req/s into four slots and
    a KV budget of three worst-case requests."""
    worst = serving_model.n_layers * serving_model.kv_cache_bytes_per_layer(
        serving_model.max_seq_len, serving_engine.config.act_bits
    )

    def _make(n=24, seed=3):
        source = poisson_stream(n, 40.0, prompt_dist, output_dist, seed=seed)
        sched = ContinuousBatchingScheduler(
            serving_engine, kv_budget_bytes=3 * worst, max_batch=4,
        )
        return sched, source

    return _make


class TestEventLogReadsBack:
    def test_events_match_the_observer_side_recording(self, make_sched):
        sched, source = make_sched()
        recorded = _record_logging(sched)
        events = run_source(sched, source).events
        assert isinstance(events, EventLog)
        assert len(events) == len(recorded) > 0
        assert [
            (ev.t_s, ev.kind, ev.request_id, ev.kv_reserved_bytes, ev.queue_depth)
            for ev in events
        ] == recorded
        for i, seen in enumerate(recorded):
            assert events[i] == SchedulerEvent(*seen)
            assert events[i - len(events)] == SchedulerEvent(*seen)
        assert events[-1] == SchedulerEvent(*recorded[-1])
        assert events[2:5] == tuple(SchedulerEvent(*s) for s in recorded[2:5])
        with pytest.raises(IndexError):
            events[len(events)]

    def test_every_kind_reads_back(self, make_sched):
        sched, _ = make_sched()
        for i in range(6):  # a burst: two of six wait for a slot
            sched.submit(Request(i, 0.0, 32, 8))
        sched.advance_one()
        sched.withdraw(5)
        sched.advance_until(math.inf)
        assert {ev.kind for ev in sched.result().events} == set(EventKind)


class TestEventLogEquality:
    @pytest.mark.parametrize("column", COLUMNS)
    def test_logs_differing_in_one_column_are_unequal(self, make_sched, column):
        log = run_source(*make_sched()).events
        twin = log.copy()
        assert twin == log and twin is not log
        values = getattr(twin, column)
        i = len(values) // 2
        if column == "t_s":
            values[i] = math.nextafter(values[i], math.inf)
        elif column == "kind":
            values[i] = (values[i] + 1) % len(EventKind)
        else:
            values[i] += 1
        assert twin != log
        assert list(twin) != list(log)
        for other in COLUMNS:
            if other != column:
                assert getattr(twin, other) == getattr(log, other)

    def test_logs_are_not_hashable(self):
        with pytest.raises(TypeError):
            hash(EventLog())


class TestResultsAreSnapshots:
    def test_mid_run_result_unchanged_by_later_advance(self, make_sched):
        sched, source = make_sched(n=16)
        for req in source.initial():
            sched.submit(req)
        sched.advance_until(0.5 * source.initial()[-1].arrival_s)
        mid = sched.result()
        again = sched.result()  # a second hand-out of the same log
        assert mid.records and len(mid.events)
        events_before = mid.events.copy()
        gaps_before = [array("d", rec.tbt_s) for rec in mid.records]
        sched.advance_until(math.inf)
        final = sched.result()
        assert len(final.events) > len(mid.events)
        assert mid.events == events_before == again.events
        assert [rec.tbt_s for rec in mid.records] == gaps_before
        # The later log extends the earlier one.
        assert final.events[: len(mid.events)] == tuple(mid.events)


class TestGapArrays:
    def test_records_hold_gap_arrays(self, make_sched):
        for rec in run_source(*make_sched()).records:
            assert isinstance(rec.tbt_s, array) and rec.tbt_s.typecode == "d"
            assert rec.generated_tokens == 1 + len(rec.tbt_s)
            assert rec.ttft_s + sum(rec.tbt_s) == pytest.approx(rec.e2e_s)

    def test_records_compare_equal_but_are_not_hashable(self, make_sched):
        a = run_source(*make_sched())
        b = run_source(*make_sched())
        assert a.records == b.records
        with pytest.raises(TypeError):
            hash(a.records[0])
