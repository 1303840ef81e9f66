"""Perfetto / Chrome ``trace_event`` JSON export.

Produces the classic JSON-array trace format understood by
https://ui.perfetto.dev and ``chrome://tracing``:

* one *process* per shard (plus a ``fleet`` process for global events
  like SUBMIT/ROUTE instants), named via ``M`` metadata events;
* one *thread* (track) per span category inside each process —
  request lifecycle, scheduler steps, faults, bridged op cycles;
* spans as ``X`` complete events (``ts``/``dur`` in microseconds of
  simulated time), instants as ``i`` events;
* request hand-offs as flow events: a ``s`` (flow start) at the ROUTE
  decision on the fleet track connects to a ``f`` (flow finish) at the
  request's QUEUE span on the owning shard, so Perfetto draws the
  arrow from router to shard — one arrow per attempt when retries
  re-route a request.

:func:`to_perfetto` returns the whole document as a dict.
:func:`write_perfetto` streams the same document to a file as compact,
key-sorted JSON, encoding :data:`WRITE_BATCH` events per call to the C
JSON encoder, so the full event list is never held in memory.
:func:`validate_trace_events` is the structural checker used by tests
and the CI ``obs-smoke`` job.
"""

from __future__ import annotations

import json
from itertools import islice
from typing import Dict, Iterator, List, Optional

from ..errors import SimulationError
from .spans import (
    CAT_FAULT,
    CAT_OP,
    CAT_REQUEST,
    CAT_STEP,
    OBS_SCHEMA,
    OBS_SCHEMA_VERSION,
    FleetTrace,
)

__all__ = ["to_perfetto", "write_perfetto", "validate_trace_events"]

#: pid of the synthetic process holding fleet-global events.
FLEET_PID = 1

#: Events per encoder call in :func:`write_perfetto`. Large enough that
#: the per-call overhead vanishes, small enough that a batch's dicts and
#: text stay a small part of a large trace.
WRITE_BATCH = 2048

_OTHER_DATA = {"schema": OBS_SCHEMA, "schema_version": OBS_SCHEMA_VERSION}

_TIDS = {CAT_REQUEST: 1, CAT_STEP: 2, CAT_FAULT: 3, CAT_OP: 4}
_TID_NAMES = {
    CAT_REQUEST: "requests",
    CAT_STEP: "steps",
    CAT_FAULT: "faults",
    CAT_OP: "ops",
}
_VALID_PHASES = frozenset({"X", "M", "i", "I", "s", "t", "f", "b", "e", "C"})


def _pid(shard_id: Optional[int]) -> int:
    return FLEET_PID if shard_id is None else FLEET_PID + 1 + shard_id


def _tid(cat: str) -> int:
    return _TIDS.get(cat, 9)


def _us(t_s: float) -> float:
    return t_s * 1e6


def to_perfetto(trace: FleetTrace) -> Dict[str, object]:
    """Render a :class:`FleetTrace` as a ``trace_event`` document."""
    return {
        "traceEvents": list(_events(trace)),
        "displayTimeUnit": "ms",
        "otherData": dict(_OTHER_DATA),
    }


def write_perfetto(trace: FleetTrace, path: str) -> None:
    """Write :func:`to_perfetto`'s document to ``path`` as compact JSON.

    The file is byte-identical to ``json.dumps(to_perfetto(trace),
    sort_keys=True, separators=(",", ":"))``. Events are encoded
    :data:`WRITE_BATCH` at a time: one C-encoder call per batch, with
    the batch's brackets stripped and batches joined by commas.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    events = _events(trace)
    with open(path, "w") as fh:
        fh.write('{"displayTimeUnit":"ms","otherData":')
        fh.write(encode(_OTHER_DATA))
        fh.write(',"traceEvents":[')
        sep = ""
        for batch in iter(lambda: list(islice(events, WRITE_BATCH)), []):
            fh.write(sep)
            fh.write(encode(batch)[1:-1])
            sep = ","
        fh.write("]}")


def _events(trace: FleetTrace) -> Iterator[Dict[str, object]]:
    """The document's ``traceEvents``, in order, one at a time."""
    # Process/thread naming metadata.
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
            "ph": "X",
            "name": s.name,
            "cat": s.cat,
            "ts": _us(s.t0_s),
            "dur": _us(s.duration_s),
            "pid": _pid(s.shard_id),
            "tid": _tid(s.cat),
        }
        args = s.attrs_dict
        if s.request_id is not None:
            args["request_id"] = s.request_id
        if args:
            ev["args"] = args
        yield ev

    for i in trace.instants:
        ev = {
            "ph": "i",
            "name": i.name,
            "cat": i.cat,
            "ts": _us(i.t_s),
            "pid": _pid(i.shard_id),
            "tid": _tid(i.cat),
            "s": "t",
        }
        args = i.attrs_dict
        if i.request_id is not None:
            args["request_id"] = i.request_id
        if args:
            ev["args"] = args
        yield ev

    yield from _flow_events(trace)


def _flow_events(trace: FleetTrace) -> Iterator[Dict[str, object]]:
    """Router→shard arrows: one flow per (request, attempt) hand-off."""
    routes: Dict[int, List] = {}
    for i in trace.instants:
        if i.name == "ROUTE" and i.request_id is not None:
            routes.setdefault(i.request_id, []).append(i)
    arrivals: Dict[int, List] = {}
    for s in trace.spans:
        if s.cat == CAT_REQUEST and s.name == "QUEUE" and s.request_id is not None:
            arrivals.setdefault(s.request_id, []).append(s)

    for request_id, route_list in sorted(routes.items()):
        landings = arrivals.get(request_id, [])
        for attempt, (route, landed) in enumerate(zip(route_list, landings)):
            flow_id = f"req{request_id}.{attempt}"
            base = {"cat": "flow", "name": "route", "id": flow_id}
            yield dict(base, ph="s", ts=_us(route.t_s), pid=_pid(route.shard_id),
                       tid=_tid(CAT_REQUEST))
            yield dict(base, ph="f", bp="e", ts=_us(landed.t0_s),
                       pid=_pid(landed.shard_id), tid=_tid(CAT_REQUEST))


def validate_trace_events(doc: object) -> Dict[str, int]:
    """Structurally validate a ``trace_event`` document.

    Checks the invariants Perfetto's legacy JSON importer relies on and
    returns summary counts; raises :class:`SimulationError` on the
    first violation.  Used by tests and the CI ``obs-smoke`` job.
    """
    if not isinstance(doc, dict):
        raise SimulationError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise SimulationError("traceEvents must be a non-empty list")

    counts = {"events": 0, "complete": 0, "instant": 0, "metadata": 0, "flow": 0}
    flow_starts = set()
    flow_ends = set()
    for n, ev in enumerate(events):
        where = f"traceEvents[{n}]"
        if not isinstance(ev, dict):
            raise SimulationError(f"{where}: event must be an object")
        ph = ev.get("ph")
        if ph not in _VALID_PHASES:
            raise SimulationError(f"{where}: unknown phase {ph!r}")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                raise SimulationError(f"{where}: {key} must be an integer")
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            raise SimulationError(f"{where}: name must be a non-empty string")
        counts["events"] += 1
        if ph == "M":
            if not isinstance(ev.get("args"), dict):
                raise SimulationError(f"{where}: metadata event needs args")
            counts["metadata"] += 1
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            raise SimulationError(f"{where}: ts must be a non-negative number")
        if ph == "X":
            dur = ev.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise SimulationError(f"{where}: dur must be a non-negative number")
            counts["complete"] += 1
        elif ph in ("i", "I"):
            if ev.get("s") not in (None, "g", "p", "t"):
                raise SimulationError(f"{where}: instant scope must be g/p/t")
            counts["instant"] += 1
        elif ph in ("s", "t", "f"):
            flow_id = ev.get("id")
            if flow_id is None:
                raise SimulationError(f"{where}: flow event needs an id")
            counts["flow"] += 1
            (flow_starts if ph == "s" else flow_ends).add(flow_id)
    unmatched = flow_ends - flow_starts
    if unmatched:
        raise SimulationError(
            f"flow finish without start for ids: {sorted(unmatched)[:5]}"
        )
    return counts
