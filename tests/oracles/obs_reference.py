"""Reference observer: the live lifecycle state machine and dict writer.

:mod:`repro.obs` builds request lifecycles after a run, from each
shard's event log (:func:`repro.obs.bridge.lifecycle_rows`), derives
ROUTE and MIGRATE instants from the routing decisions, and writes the
Perfetto document through per-kind ``%``-templates. This module keeps
what that replaced, as the equivalence oracle:

* :class:`LifecycleMachine` — the per-request state machine the
  scheduler used to feed live, one ``request_event`` per logged event
  and a ``first_token`` call after each prefill step;
* :func:`events` — the generator that built one dict per exported
  event, and :func:`document_text`, its compact key-sorted encoding.

Both take ``fixed=``. ``False`` reproduces the original behaviour: a
request a crash evicted mid-decode gets a second, ``withdrawn`` QUEUE
span instead of its PREFILL and DECODE, and a request's n-th ROUTE
pairs with its n-th QUEUE span, whichever shard it is on. ``True``
applies the two corrections :mod:`repro.obs` makes: PREFILL plus an
``interrupted`` DECODE, and each ROUTE paired with the first QUEUE span
on the routed shard that starts at or after it (and before the
request's next ROUTE to that shard).

Nothing under ``src/`` imports it. Import it as ``from
oracles.obs_reference import reference_trace`` with the ``tests``
directory on ``sys.path`` (pytest puts it there through
``tests/conftest.py``).
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import CAT_FAULT, CAT_OP, CAT_REQUEST, CAT_STEP, FleetTrace, Instant, Span
from repro.serving import EventKind

__all__ = [
    "LifecycleMachine",
    "replay",
    "reference_trace",
    "reference_counters",
    "events",
    "document_text",
]

_ARRIVAL, _ADMIT, _PREFILL_START, _FIRST_TOKEN = range(4)

_TIDS = {CAT_REQUEST: 1, CAT_STEP: 2, CAT_FAULT: 3, CAT_OP: 4}
_TID_NAMES = {
    CAT_REQUEST: "requests",
    CAT_STEP: "steps",
    CAT_FAULT: "faults",
    CAT_OP: "ops",
}


def _tid(cat: str) -> int:
    return _TIDS.get(cat, 9)


class LifecycleMachine(object):
    """One shard's request lifecycles, mirrored event by event."""

    def __init__(self, shard_id: int, fixed: bool = False) -> None:
        self.shard_id = shard_id
        self.fixed = fixed
        self.admitted = self.completed = self.withdrawn = 0
        #: request_id -> [arrival_s, admit_s, prefill_start_s, first_token_s]
        self._open: Dict[int, List[Optional[float]]] = {}
        #: (name, t0_s, t1_s, request_id, outcome)
        self._lifecycle: List[Tuple[str, float, float, int, Optional[str]]] = []

    def request_event(self, t_s: float, kind: str, request_id: int) -> None:
        if kind == "arrival":
            self._open[request_id] = [t_s, None, None, None]
            return
        rec = self._open.get(request_id)
        if rec is None:
            return
        if kind == "admit":
            rec[_ADMIT] = t_s
            self.admitted += 1
        elif kind == "prefill_start":
            rec[_PREFILL_START] = t_s
            self._lifecycle.append(("QUEUE", rec[_ARRIVAL], t_s, request_id, None))
        elif kind == "complete":
            self._close(request_id, rec, t_s, None)
            self.completed += 1
        elif kind == "withdraw":
            if self.fixed and rec[_PREFILL_START] is not None:
                self._close(request_id, rec, t_s, "interrupted")
            else:
                self._lifecycle.append(
                    ("QUEUE", rec[_ARRIVAL], t_s, request_id, "withdrawn")
                )
                del self._open[request_id]
            self.withdrawn += 1

    def first_token(self, t_s: float, request_id: int) -> None:
        rec = self._open.get(request_id)
        if rec is not None:
            rec[_FIRST_TOKEN] = t_s

    def _close(self, request_id, rec, t_s, outcome) -> None:
        prefill_start = rec[_PREFILL_START]
        first_token = rec[_FIRST_TOKEN]
        if prefill_start is not None and first_token is not None:
            self._lifecycle.append(
                ("PREFILL", prefill_start, first_token, request_id, None)
            )
        if first_token is not None:
            self._lifecycle.append(
                ("DECODE", first_token, t_s, request_id, outcome)
            )
        del self._open[request_id]

    def spans(self) -> List[Span]:
        """Closed phases in closing order, then requests still open."""
        out = [
            Span(
                name, CAT_REQUEST, t0, t1, self.shard_id, request_id,
                (("outcome", outcome),) if outcome is not None else (),
            )
            for name, t0, t1, request_id, outcome in self._lifecycle
        ]
        for request_id, rec in self._open.items():
            prefill_start, first_token = rec[_PREFILL_START], rec[_FIRST_TOKEN]
            if prefill_start is not None and first_token is not None:
                attrs = {} if self.fixed else {"outcome": "interrupted"}
                out.append(
                    Span.make(
                        "PREFILL", CAT_REQUEST, prefill_start, first_token,
                        shard_id=self.shard_id, request_id=request_id, **attrs,
                    )
                )
        return out


def replay(shard_id: int, log, prefill_ends, fixed: bool = False) -> LifecycleMachine:
    """Feed one shard's log through a machine as the scheduler fed it
    live: every event in order, and after each PREFILL_START the end of
    that prefill step (its first token)."""
    machine = LifecycleMachine(shard_id, fixed)
    ends = iter(prefill_ends)
    for ev in log:
        machine.request_event(ev.t_s, ev.kind.value, ev.request_id)
        if ev.kind is EventKind.PREFILL_START:
            machine.first_token(next(ends), ev.request_id)
    return machine


def _machines(report, fixed: bool) -> List[LifecycleMachine]:
    steps = [s for s in report.obs.trace.spans if s.name == "PREFILL_STEP"]
    machines = []
    for shard_id, shard in enumerate(report.result.shard_results):
        ends = sorted(
            (s.t0_s, s.t1_s) for s in steps if s.shard_id == shard_id
        )
        machines.append(
            replay(shard_id, shard.events, [t1 for _, t1 in ends], fixed)
        )
    return machines


def reference_trace(report, fixed: bool = False) -> FleetTrace:
    """An observed fleet report's trace, rebuilt the original way.

    Step slices, fault windows and live fleet instants are taken from
    the report's trace as recorded; request lifecycles are replayed
    through :class:`LifecycleMachine`, and ROUTE / MIGRATE instants are
    made from the routing decisions as the fleet loop used to make them
    at each decision.
    """
    trace = report.obs.trace
    spans = [s for s in trace.spans if s.cat != CAT_REQUEST]
    for machine in _machines(report, fixed):
        spans.extend(machine.spans())
    instants = [i for i in trace.instants if i.name not in ("ROUTE", "MIGRATE")]
    result = report.result
    for d in result.decisions:
        if d.migrated_from is None:
            instants.append(
                Instant.make(
                    "ROUTE", CAT_REQUEST, d.arrival_s, d.shard_id, d.request_id,
                    policy=result.policy_name, predicted_ttft_s=d.predicted_ttft_s,
                )
            )
        else:
            instants.append(
                Instant.make(
                    "MIGRATE", CAT_REQUEST, d.arrival_s, d.shard_id, d.request_id,
                    from_shard=d.migrated_from,
                )
            )
    return FleetTrace.build(spans, instants, n_shards=trace.n_shards)


def reference_counters(report) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """The lifecycle and routing counters, counted the original way."""
    out: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}

    def bump(name: str, **labels) -> None:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        out[key] = out.get(key, 0.0) + 1.0

    for machine in _machines(report, fixed=False):
        shard = machine.shard_id
        for name, n in (
            ("requests_admitted", machine.admitted),
            ("requests_completed", machine.completed),
            ("requests_withdrawn", machine.withdrawn),
        ):
            out[(name, (("shard", str(shard)),))] = float(n)
    for d in report.result.decisions:
        if d.migrated_from is None:
            bump("requests_routed", shard=d.shard_id)
        else:
            bump("migrations", thief=d.shard_id, donor=d.migrated_from)
    return out


def _pid(shard_id: Optional[int]) -> int:
    return 1 if shard_id is None else 2 + shard_id


def events(trace: FleetTrace, fixed: bool = False) -> Iterator[Dict[str, object]]:
    """The document's ``traceEvents``, one dict each, in order."""
    pids = {None} | {s.shard_id for s in trace.spans} | {
        i.shard_id for i in trace.instants
    }
    cats_by_pid: Dict[Optional[int], set] = {}
    for s in trace.spans:
        cats_by_pid.setdefault(s.shard_id, set()).add(s.cat)
    for i in trace.instants:
        cats_by_pid.setdefault(i.shard_id, set()).add(i.cat)
    for shard_id in sorted(pids, key=lambda x: -1 if x is None else x):
        pid = _pid(shard_id)
        name = "fleet" if shard_id is None else f"shard {shard_id}"
        yield {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
               "args": {"name": name}}
        for cat in sorted(cats_by_pid.get(shard_id, ())):
            yield {"ph": "M", "name": "thread_name", "pid": pid, "tid": _tid(cat),
                   "args": {"name": _TID_NAMES.get(cat, cat)}}

    for s in trace.spans:
        ev: Dict[str, object] = {
            "ph": "X", "name": s.name, "cat": s.cat, "ts": s.t0_s * 1e6,
            "dur": s.duration_s * 1e6, "pid": _pid(s.shard_id), "tid": _tid(s.cat),
        }
        args = s.attrs_dict
        if s.request_id is not None:
            args["request_id"] = s.request_id
        if args:
            ev["args"] = args
        yield ev

    for i in trace.instants:
        ev = {
            "ph": "i", "name": i.name, "cat": i.cat, "ts": i.t_s * 1e6,
            "pid": _pid(i.shard_id), "tid": _tid(i.cat), "s": "t",
        }
        args = i.attrs_dict
        if i.request_id is not None:
            args["request_id"] = i.request_id
        if args:
            ev["args"] = args
        yield ev

    yield from _flows(trace, fixed)


def _flows(trace: FleetTrace, fixed: bool) -> Iterator[Dict[str, object]]:
    routes: Dict[int, List[Instant]] = {}
    for i in trace.instants:
        if i.name == "ROUTE" and i.request_id is not None:
            routes.setdefault(i.request_id, []).append(i)
    queues: Dict[int, List[Span]] = {}
    for s in trace.spans:
        if s.cat == CAT_REQUEST and s.name == "QUEUE" and s.request_id is not None:
            queues.setdefault(s.request_id, []).append(s)
    for request_id, route_list in sorted(routes.items()):
        landings = queues.get(request_id, [])
        if fixed:
            pairs = []
            for attempt, route in enumerate(route_list):
                later = [
                    r.t_s for r in route_list[attempt + 1:]
                    if r.shard_id == route.shard_id
                ]
                until = later[0] if later else float("inf")
                landed = next(
                    (
                        q for q in landings
                        if q.shard_id == route.shard_id
                        and route.t_s <= q.t0_s < until
                    ),
                    None,
                )
                if landed is not None:
                    pairs.append((attempt, route, landed))
        else:
            pairs = [
                (attempt, route, landed)
                for attempt, (route, landed) in enumerate(zip(route_list, landings))
            ]
        for attempt, route, landed in pairs:
            base = {"cat": "flow", "name": "route", "id": f"req{request_id}.{attempt}"}
            yield dict(base, ph="s", ts=route.t_s * 1e6, pid=_pid(route.shard_id),
                       tid=_tid(CAT_REQUEST))
            yield dict(base, ph="f", bp="e", ts=landed.t0_s * 1e6,
                       pid=_pid(landed.shard_id), tid=_tid(CAT_REQUEST))


def document_text(trace: FleetTrace, fixed: bool = False) -> str:
    """The whole document as compact, key-sorted JSON, in one dump."""
    return json.dumps(
        {
            "traceEvents": list(events(trace, fixed)),
            "displayTimeUnit": "ms",
            "otherData": {"schema": "repro.obs.trace", "schema_version": 1},
        },
        sort_keys=True,
        separators=(",", ":"),
    )
