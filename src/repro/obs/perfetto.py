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
  decision connects to a ``f`` (flow finish) at the request's QUEUE
  span on the routed shard — one arrow per attempt when retries
  re-route a request.

One formatter writes every export: each of a trace's rows (see
:mod:`repro.obs.spans`) through its kind's writer and every number
through one :class:`~repro.obs.spans.NumberTexts`, built per export, so
no per-event dict, span or instant is built. :func:`write_perfetto`
writes the text :data:`WRITE_BATCH` events per write; :func:`to_perfetto`
parses the same text back into the document dict.
:func:`validate_trace_events` is the structural checker used by tests
and the CI ``obs-smoke`` job.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from itertools import chain, islice
from operator import itemgetter
from typing import Dict, Iterator, List, Tuple

from ..errors import SimulationError
from .spans import (
    CAT_FAULT,
    CAT_OP,
    CAT_REQUEST,
    CAT_STEP,
    ENCODE,
    OBS_SCHEMA,
    OBS_SCHEMA_VERSION,
    TIDS,
    FleetTrace,
    NumberTexts,
)

__all__ = ["to_perfetto", "write_perfetto", "validate_trace_events"]

#: pid of the synthetic process holding fleet-global events.
FLEET_PID = 1

#: Events per write in :func:`write_perfetto`. Large enough that the
#: per-write overhead vanishes, small enough that a batch's text stays
#: a small part of a large trace.
WRITE_BATCH = 2048

_HEAD = '{"displayTimeUnit":"ms","otherData":%s,"traceEvents":[' % ENCODE(
    {"schema": OBS_SCHEMA, "schema_version": OBS_SCHEMA_VERSION}
)
_FLOW = (
    '{%s"cat":"flow","id":"req%%d.%%d","name":"route","ph":"%s","pid":%%d,'
    '"tid":1,"ts":%%s}'
)
_FLOW_START, _FLOW_FINISH = _FLOW % ("", "s"), _FLOW % ('"bp":"e",', "f")

_TID_NAMES = {
    CAT_REQUEST: "requests",
    CAT_STEP: "steps",
    CAT_FAULT: "faults",
    CAT_OP: "ops",
}
_VALID_PHASES = frozenset({"X", "M", "i", "I", "s", "t", "f", "b", "e", "C"})


def _metadata(trace: FleetTrace) -> Iterator[str]:
    """Process and thread naming events, fleet process first."""
    tracks = set(map(itemgetter(5, 2), chain(trace.span_rows, trace.instant_rows)))
    for shard in sorted({-1} | {shard for shard, _ in tracks}):
        pid = FLEET_PID + 1 + shard
        name = "fleet" if shard < 0 else f"shard {shard}"
        yield (
            '{"args":{"name":%s},"name":"process_name","ph":"M","pid":%d,'
            '"tid":0}' % (ENCODE(name), pid)
        )
        for cat in sorted(cat for s, cat in tracks if s == shard):
            yield (
                '{"args":{"name":%s},"name":"thread_name","ph":"M","pid":%d,'
                '"tid":%d}' % (ENCODE(_TID_NAMES.get(cat, cat)), pid, TIDS.get(cat, 9))
            )


def _flows(trace: FleetTrace, num: NumberTexts) -> Iterator[str]:
    """Router→shard arrows: one flow per (request, attempt) hand-off.

    Attempt ``n`` is a request's n-th ROUTE in trace order. It lands on
    the first QUEUE span of the request on the routed shard that starts
    at or after the route and before the request's next ROUTE to that
    shard; a route the shard withdrew before it saw the request gets
    no arrow.
    """
    routes: Dict[int, List[tuple]] = {}
    for row in trace.instant_rows:
        if row[3] == "ROUTE" and row[4] >= 0:
            routes.setdefault(row[4], []).append(row)
    starts: Dict[Tuple[int, int], List[float]] = {}
    for row in trace.span_rows:
        if row[3] == "QUEUE" and row[2] == CAT_REQUEST and row[4] >= 0:
            starts.setdefault((row[4], row[5]), []).append(row[0])
    for rid in sorted(routes):
        attempts = routes[rid]
        for attempt, (t, _, _, _, _, shard, _, _) in enumerate(attempts):
            queued = starts.get((rid, shard), ())
            i = bisect_left(queued, t)
            if i == len(queued):
                continue
            later = [r[0] for r in attempts[attempt + 1 :] if r[5] == shard]
            if later and queued[i] >= later[0]:
                continue
            pid = FLEET_PID + 1 + shard
            yield _FLOW_START % (rid, attempt, pid, num[t * 1e6])
            yield _FLOW_FINISH % (rid, attempt, pid, num[queued[i] * 1e6])


def _chunks(trace: FleetTrace) -> Iterator[str]:
    """The document's text, :data:`WRITE_BATCH` events per chunk."""
    num = NumberTexts()
    rows = trace.span_rows + trace.instant_rows
    writers = {kind: kind.writer(num) for kind in set(map(itemgetter(6), rows))}
    texts = chain(
        _metadata(trace),
        (writers[kind](t0, t1, rid, shard, values)
         for t0, t1, _, _, rid, shard, kind, values in rows),
        _flows(trace, num),
    )
    yield _HEAD
    sep = ""
    for batch in iter(lambda: list(islice(texts, WRITE_BATCH)), []):
        yield sep + ",".join(batch)
        sep = ","
    yield "]}"


def to_perfetto(trace: FleetTrace) -> Dict[str, object]:
    """Render a :class:`FleetTrace` as a ``trace_event`` document."""
    return json.loads("".join(_chunks(trace)))


def write_perfetto(trace: FleetTrace, path: str) -> None:
    """Write :func:`to_perfetto`'s document to ``path`` as compact JSON.

    The file is byte-identical to ``json.dumps(to_perfetto(trace),
    sort_keys=True, separators=(",", ":"))``.
    """
    with open(path, "w") as fh:
        fh.writelines(_chunks(trace))


def validate_trace_events(doc: object) -> Dict[str, int]:
    """Structurally validate a ``trace_event`` document.

    Checks the invariants Perfetto's legacy JSON importer relies on
    (known phases, integer pids and tids, non-negative times, every flow
    finish matched by a start no later than it) and returns summary
    counts; raises :class:`SimulationError` on the first violation.
    Used by tests and the CI ``obs-smoke`` job.
    """
    if not isinstance(doc, dict):
        raise SimulationError("trace document must be a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise SimulationError("traceEvents must be a non-empty list")

    counts = {"events": 0, "complete": 0, "instant": 0, "metadata": 0, "flow": 0}
    flow_starts: Dict[object, float] = {}
    flow_ends: Dict[object, float] = {}
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
            (flow_starts if ph == "s" else flow_ends)[flow_id] = ts
    unmatched = flow_ends.keys() - flow_starts.keys()
    if unmatched:
        raise SimulationError(
            f"flow finish without start for ids: {sorted(unmatched)[:5]}"
        )
    backward = sorted(
        flow_id for flow_id, ts in flow_ends.items() if ts < flow_starts[flow_id]
    )
    if backward:
        raise SimulationError(
            f"flow finish before its start for ids: {backward[:5]}"
        )
    return counts
