"""Bridges between the obs schema and the rest of the stack.

Two directions:

* **down** — :func:`op_spans` / :func:`nest_op_trace` rescale the
  op-level cycle timeline of :func:`repro.sim.trace.build_trace` into
  wall-clock seconds inside a request's PREFILL (or DECODE) span, so a
  single Perfetto file shows where the *cycles* went inside where the
  *seconds* went.  This deduplicates the two ``TraceEvent`` notions:
  :class:`repro.sim.trace.TraceEvent` stays the cycle-domain record,
  and this module is the one place that converts it to an obs
  :class:`~repro.obs.spans.Span`.
* **up** — after the run, for :meth:`repro.obs.FleetObserver.build`:
  :func:`lifecycle_rows` builds request lifecycle spans from a shard's
  event log and :func:`step_rows` its step slices from its step log;
  :func:`fleet_rows` builds SUBMIT instants from the fleet's submitted
  requests and RETRY / EXPIRED / LOST / SHED from its decision ledger,
  :func:`routing_rows` ROUTE / MIGRATE from its routing decisions and
  :func:`fault_rows` fault windows from its fault ledger.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..errors import SimulationError
from ..serving.scheduler import EventKind, EventLog, StepLog
from .spans import (
    CAT_FAULT,
    CAT_OP,
    CAT_REQUEST,
    CAT_STEP,
    FleetTrace,
    Span,
    event_row,
    row_kind,
)

__all__ = [
    "op_spans",
    "nest_op_trace",
    "lifecycle_rows",
    "step_rows",
    "fleet_rows",
    "routing_rows",
    "fault_rows",
]

#: Each event kind's code in a log's ``kind`` column.
_ARRIVAL, _ADMIT, _PREFILL_START, _COMPLETE, _WITHDRAW = map(
    EventLog.KINDS.index,
    (EventKind.ARRIVAL, EventKind.ADMIT, EventKind.PREFILL_START,
     EventKind.COMPLETE, EventKind.WITHDRAW),
)

_QUEUE, _PREFILL, _DECODE = (
    row_kind("X", CAT_REQUEST, name) for name in ("QUEUE", "PREFILL", "DECODE")
)
_QUEUE_OUT = row_kind("X", CAT_REQUEST, "QUEUE", ("outcome",))
_DECODE_OUT = row_kind("X", CAT_REQUEST, "DECODE", ("outcome",))
_ROUTE = row_kind("i", CAT_REQUEST, "ROUTE", ("policy", "predicted_ttft_s"))
_MIGRATE = row_kind("i", CAT_REQUEST, "MIGRATE", ("from_shard",))
_PREFILL_STEP = row_kind("X", CAT_STEP, "PREFILL_STEP", ("batch", "k"))
_DECODE_RUN = row_kind("X", CAT_STEP, "DECODE_RUN", ("batch", "k"), False)


def op_spans(
    stage_report,
    t0_s: float,
    duration_s: Optional[float] = None,
    shard_id: Optional[int] = None,
    request_id: Optional[int] = None,
) -> List[Span]:
    """Lay a :class:`~repro.sim.StageReport`'s ops onto the wall clock.

    With ``duration_s`` the op timeline is stretched to exactly fill
    ``[t0_s, t0_s + duration_s)`` (the usual case: nesting cycles under
    a measured span); without it, cycles convert at the report's
    configured clock.
    """
    from ..sim.trace import build_trace

    events = build_trace(stage_report)
    if not events:
        raise SimulationError("stage report produced no op events")
    total_cycles = events[-1].end
    if duration_s is not None:
        if total_cycles <= 0:
            raise SimulationError("op timeline has zero cycles; cannot rescale")
        scale = duration_s / total_cycles
    else:
        scale = 1.0 / stage_report.config.clock_hz
    return [
        Span.make(
            f"L{ev.layer}.{ev.op}",
            CAT_OP,
            t0_s + ev.start * scale,
            t0_s + ev.end * scale,
            shard_id=shard_id,
            request_id=request_id,
            layer=ev.layer,
            dataflow=ev.dataflow,
            cycles=ev.duration,
        )
        for ev in events
    ]


def nest_op_trace(
    trace: FleetTrace,
    request_id: int,
    stage_report,
    phase: str = "PREFILL",
) -> FleetTrace:
    """Nest a stage report's op cycles under one request's phase span.

    Finds the request's first ``phase`` span in ``trace``, stretches the
    op timeline across it, and returns a new trace with the op spans
    merged in — load the result in Perfetto to drill from request
    lifecycle into per-op cycle breakdowns.
    """
    for s in trace.for_request(request_id).spans:
        if s.name == phase and s.cat == CAT_REQUEST:
            return trace.merged(
                op_spans(stage_report, s.t0_s, s.duration_s, s.shard_id, request_id)
            )
    raise SimulationError(f"request {request_id} has no {phase} span in this trace")


def lifecycle_rows(
    shard_id: int, log: EventLog, first_token_s: Iterable[Optional[float]]
) -> List[tuple]:
    """One shard's QUEUE, PREFILL and DECODE span rows, from its log.

    ``first_token_s`` yields, per PREFILL_START event in log order, that
    prefill's first-token instant (``None`` where unknown). QUEUE runs
    from arrival to prefill start, or to a withdrawal before it
    (``outcome: withdrawn``); PREFILL to the first token; DECODE to
    completion, or to the crash that evicted the request after its
    prefill (``outcome: interrupted``: a prefill step is atomic, so
    only DECODE can be cut short). A phase with an unknown end is left
    out, such as the DECODE of a request still decoding.
    """
    rows: List[tuple] = []
    first = iter(first_token_s)
    open_reqs = {}  # request id -> [arrival, prefill start, first token]

    def add(t0, t1, kind, rid, values=()):
        rows.append((t0, t1, CAT_REQUEST, kind.name, rid, shard_id, kind, values))

    for t, code, rid in zip(log.t_s, log.kind, log.request_id):
        if code == _ARRIVAL:
            open_reqs[rid] = [t, None, None]
        elif code == _PREFILL_START:
            token = next(first, None)
            if rid in open_reqs:
                rec = open_reqs[rid]
                rec[1:] = t, token
                add(rec[0], t, _QUEUE, rid)
        elif code != _ADMIT and rid in open_reqs:  # COMPLETE or WITHDRAW
            arrival, start, token = open_reqs.pop(rid)
            if start is None:  # stolen, shed or crashed while waiting
                add(arrival, t, _QUEUE_OUT, rid, ("withdrawn",))
            elif token is not None:
                add(start, token, _PREFILL, rid)
                if code == _COMPLETE:
                    add(token, t, _DECODE, rid)
                else:
                    add(token, t, _DECODE_OUT, rid, ("interrupted",))
    for rid, (_, start, token) in open_reqs.items():
        if start is not None and token is not None:
            add(start, token, _PREFILL, rid)
    return rows


def step_rows(shard_id: int, log: EventLog, steps: StepLog) -> List[tuple]:
    """One shard's PREFILL_STEP and DECODE_RUN slices, from its step log.

    A prefill step names its request (the event log's row before the
    step's ``events`` mark) and runs one iteration of batch 1; a decode
    run names none and runs ``k`` iterations over ``batch`` requests.
    """
    rids = log.request_id
    return [
        (t0, t1, CAT_STEP, "DECODE_RUN", -1, shard_id, _DECODE_RUN, (batch, k))
        if k else
        (t0, t1, CAT_STEP, "PREFILL_STEP", rids[end - 1], shard_id,
         _PREFILL_STEP, (batch, 1))
        for t0, t1, k, batch, end in zip(
            steps.t0_s, steps.t1_s, steps.k, steps.batch, steps.events
        )
    ]


def routing_rows(decisions: Sequence, policy_name: str) -> List[tuple]:
    """ROUTE and MIGRATE instant rows of a fleet's routing decisions."""
    return [
        (d.arrival_s, d.arrival_s, CAT_REQUEST, "ROUTE", d.request_id,
         d.shard_id, _ROUTE, (policy_name, d.predicted_ttft_s))
        if d.migrated_from is None else
        (d.arrival_s, d.arrival_s, CAT_REQUEST, "MIGRATE", d.request_id,
         d.shard_id, _MIGRATE, (d.migrated_from,))
        for d in decisions
    ]


def fault_rows(faults: Iterable) -> List[tuple]:
    """CRASH, REWARM and BROWNOUT rows of a run's ``AppliedFault`` ledger.

    A crash is its outage (CRASH, with the requests and generated tokens
    it destroyed), then its re-warm (REWARM) until the shard serves
    again; a brownout is one window (BROWNOUT, with its bandwidth factor).
    """
    rows: List[tuple] = []
    for f in faults:
        if f.kind.value == "crash":
            hit = (("lost_generated_tokens", f.lost_generated_tokens),
                   ("n_requests_hit", f.n_requests_hit))
            rows.append(event_row("X", f.at_s, f.outage_end_s, CAT_FAULT,
                                  "CRASH", None, f.shard_id, hit))
            rows.append(event_row("X", f.outage_end_s, f.until_s, CAT_FAULT,
                                  "REWARM", None, f.shard_id, ()))
        else:
            rows.append(event_row("X", f.at_s, f.until_s, CAT_FAULT, "BROWNOUT",
                                  None, f.shard_id,
                                  (("bandwidth_factor", f.bandwidth_factor),)))
    return rows


def fleet_rows(submitted: Sequence, n_initial: int, ledger: Iterable) -> List[tuple]:
    """The fleet's SUBMIT, RETRY, EXPIRED, LOST and SHED instant rows.

    SUBMIT marks each accepted request's arrival; those past the first
    ``n_initial`` are closed-loop follow-ups. The others come from the
    decision ledger (``ResilienceReport.ledger``): a retry carries its
    attempt and backoff, a shed its reason, and an eviction lands on the
    evicting shard's track. ``SHARDS_UP`` entries are a gauge's.
    """
    rows = [
        event_row("i", req.arrival_s, req.arrival_s, CAT_REQUEST, "SUBMIT",
                  req.request_id, None,
                  (("follow_up", True),) if i >= n_initial else ())
        for i, req in enumerate(submitted)
    ]
    for t, name, *rest in ledger:
        shard, attrs = None, ()
        if name == "RETRY":
            attrs = (("attempt", rest[1]), ("backoff_s", rest[2]))
        elif name == "SHED":
            attrs, shard = (("reason", rest[1]),), rest[2]
        elif name == "SHARDS_UP":
            continue
        rows.append(event_row("i", t, t, CAT_REQUEST, name, rest[0], shard, attrs))
    return rows
