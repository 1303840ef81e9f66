"""Span and event schema shared by every observability producer.

One vocabulary covers the whole stack: request-lifecycle spans built
from the serving scheduler's and fleet's logs, fault spans from the
chaos layer, iteration-level step slices, and (via :mod:`repro.obs.bridge`)
op-level cycles from :mod:`repro.sim.trace` rescaled into wall-clock
seconds.  Everything downstream — the Perfetto exporter, the ASCII
fleet timeline, the metrics bundle — consumes only these types.

A :class:`FleetTrace` holds its events as *rows*: ``(t0_s, t1_s, cat,
name, request_id, shard_id, kind, values)`` tuples whose first six
fields are the trace's sort key (an instant has ``t1_s == t0_s``, an
absent id is ``-1``: ids are non-negative). ``kind`` is a
:class:`RowKind`, one per event shape, holding the ``%``-template the
event's ``trace_event`` JSON is written with; ``values`` are the
attribute values in sorted-name order. Producers append rows, the
exporter writes them, and :class:`Span` / :class:`Instant` objects are
made from them only when a trace's ``spans`` or ``instants`` are read.

The schema is deliberately dependency-light (no imports from the
serving / fleet / sim layers) so any module can emit spans without
creating an import cycle.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from ..errors import SimulationError

__all__ = [
    "OBS_SCHEMA",
    "OBS_SCHEMA_VERSION",
    "CAT_REQUEST",
    "CAT_STEP",
    "CAT_FAULT",
    "CAT_OP",
    "Span",
    "Instant",
    "NumberTexts",
    "RowKind",
    "row_kind",
    "event_row",
    "FleetTrace",
]

#: Schema identifier stamped into every exported trace document.
OBS_SCHEMA = "repro.obs.trace"
#: Bump when the span vocabulary or field layout changes incompatibly.
OBS_SCHEMA_VERSION = 1

#: Span categories — one Perfetto track per (process, category).
CAT_REQUEST = "request"  # lifecycle: QUEUE / PREFILL / DECODE
CAT_STEP = "step"  # scheduler iterations: prefill steps, decode runs
CAT_FAULT = "fault"  # chaos layer: CRASH / REWARM / BROWNOUT
CAT_OP = "op"  # per-op cycles bridged from repro.sim.trace

#: Each category's track (thread) id within a process.
TIDS = {CAT_REQUEST: 1, CAT_STEP: 2, CAT_FAULT: 3, CAT_OP: 4}

Attrs = Tuple[Tuple[str, object], ...]

ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _freeze_attrs(attrs: Optional[Dict[str, object]]) -> Attrs:
    if not attrs:
        return ()
    return tuple(sorted(attrs.items()))


class NumberTexts(dict):
    """One export's value texts as :data:`ENCODE` writes them: call it on
    any value, index it with a float. Finite non-zero floats are formatted
    once; only floats key that cache (``True == 1 == 1.0``, ``0.0 == -0.0``)."""

    def __missing__(self, value: float) -> str:
        if not math.isfinite(value):
            return ENCODE(value)
        text = float.__repr__(value)
        if value:
            self[value] = text
        return text

    def __call__(self, value: object) -> str:
        kind = type(value)
        if kind is float:
            return self[value]
        if kind is int:
            return repr(value)
        if kind is bool:
            return "true" if value else "false"
        return ENCODE(value)


def _check_interval(name: str, t0_s: float, t1_s: float) -> None:
    if t1_s < t0_s:
        raise SimulationError(
            f"span {name!r} ends before it starts ({t0_s} -> {t1_s})"
        )


def _literal(value: object) -> str:
    """``value`` as JSON text, escaped for use inside a %-template."""
    return ENCODE(value).replace("%", "%%")


class RowKind(object):
    """One event shape — phase, category, name, attribute names, with or
    without a request id — and the template its JSON is written with.

    The template takes the JSON text of the ``args`` values in key order
    (the request id among them), then ``dur`` for a span, then ``pid``
    and ``ts``.
    """

    __slots__ = ("span", "cat", "name", "keys", "rid_at", "template")

    def __init__(self, ph, cat, name, keys, has_rid) -> None:
        self.span = ph == "X"
        self.cat, self.name, self.keys = cat, name, keys
        self.rid_at = bisect_left(keys, "request_id") if has_rid else None
        args = [f"{_literal(key)}:%s" for key in keys]
        if has_rid:
            args.insert(self.rid_at, '"request_id":%d')
        fields = [f'"args":{{{",".join(args)}}}'] if args else []
        fields.append(f'"cat":{_literal(cat)}')
        if self.span:
            fields.append('"dur":%s')
        fields.append(f'"name":{_literal(name)},"ph":"{ph}","pid":%d')
        if not self.span:
            fields.append('"s":"t"')
        fields.append(f'"tid":{TIDS.get(cat, 9)},"ts":%s')
        self.template = "{%s}" % ",".join(fields)

    def writer(self, num: NumberTexts) -> Callable[..., str]:
        """This kind's writer for one export: a row's ``(t0, t1, rid, shard,
        values)`` to its event's JSON text, values and times as ``num`` has them."""
        template, at, span = self.template, self.rid_at, self.span

        def write(t0, t1, rid, shard, values):
            args = [*map(num, values)]
            if at is not None:
                args.insert(at, rid)
            if span:
                args.append(num[(t1 - t0) * 1e6])
            return template % (*args, shard + 2, num[t0 * 1e6])

        return write


_KINDS: Dict[tuple, RowKind] = {}


def row_kind(
    ph: str, cat: str, name: str, keys: Tuple[str, ...] = (), has_rid: bool = True
) -> RowKind:
    """The (cached) kind of events of this shape; ``keys`` sorted."""
    key = (ph, cat, name, keys, has_rid)
    kind = _KINDS.get(key)
    if kind is None:
        kind = _KINDS[key] = RowKind(ph, cat, name, keys, has_rid)
    return kind


def event_row(ph, t0, t1, cat, name, rid, shard, attrs) -> tuple:
    """One event's row; ``attrs`` are sorted ``(name, value)`` pairs."""
    _check_interval(name, t0, t1)
    return (
        float(t0), float(t1), cat, name,
        -1 if rid is None else rid, -1 if shard is None else shard,
        row_kind(ph, cat, name, tuple(k for k, _ in attrs), rid is not None),
        tuple(v for _, v in attrs),
    )


def _id(value: int) -> Optional[int]:
    return None if value < 0 else value


@dataclass(frozen=True)
class Span(object):
    """A half-open interval ``[t0_s, t1_s)`` on the simulated clock."""

    name: str
    cat: str
    t0_s: float
    t1_s: float
    shard_id: Optional[int] = None
    request_id: Optional[int] = None
    attrs: Attrs = ()

    def __post_init__(self) -> None:
        _check_interval(self.name, self.t0_s, self.t1_s)

    @property
    def duration_s(self) -> float:
        """Span length in simulated seconds."""
        return self.t1_s - self.t0_s

    @property
    def attrs_dict(self) -> Dict[str, object]:
        """The frozen attribute pairs as a plain dict."""
        return dict(self.attrs)

    @staticmethod
    def make(
        name: str,
        cat: str,
        t0_s: float,
        t1_s: float,
        shard_id: Optional[int] = None,
        request_id: Optional[int] = None,
        **attrs: object,
    ) -> "Span":
        """Construct a span with keyword attributes (order-insensitive)."""
        return Span(name, cat, t0_s, t1_s, shard_id, request_id, _freeze_attrs(attrs))

    def row(self) -> tuple:
        """This span as a trace row."""
        return event_row("X", self.t0_s, self.t1_s, self.cat, self.name,
                         self.request_id, self.shard_id, self.attrs)


@dataclass(frozen=True)
class Instant(object):
    """A point event on the simulated clock (SUBMIT, ROUTE, RETRY...)."""

    name: str
    cat: str
    t_s: float
    shard_id: Optional[int] = None
    request_id: Optional[int] = None
    attrs: Attrs = ()

    @property
    def attrs_dict(self) -> Dict[str, object]:
        """The frozen attribute pairs as a plain dict."""
        return dict(self.attrs)

    @staticmethod
    def make(
        name: str,
        cat: str,
        t_s: float,
        shard_id: Optional[int] = None,
        request_id: Optional[int] = None,
        **attrs: object,
    ) -> "Instant":
        """Construct an instant with keyword attributes."""
        return Instant(name, cat, t_s, shard_id, request_id, _freeze_attrs(attrs))

    def row(self) -> tuple:
        """This instant as a trace row."""
        return event_row("i", self.t_s, self.t_s, self.cat, self.name,
                         self.request_id, self.shard_id, self.attrs)


class FleetTrace(object):
    """An immutable, sorted trace of spans and instants for one run.

    Holds span and instant rows sorted (stably) by their first six
    fields, so traces built from identical runs compare equal regardless
    of emission order; one sort per field builds no key tuple for the
    garbage collector to scan. :attr:`spans` and :attr:`instants` are
    made from the rows on first access. A span row that ends before it
    starts raises :class:`SimulationError`, so no export writes one.
    """

    __slots__ = ("span_rows", "instant_rows", "n_shards", "_spans", "_instants")
    schema = OBS_SCHEMA
    schema_version = OBS_SCHEMA_VERSION

    def __init__(
        self,
        span_rows: Iterable[tuple],
        instant_rows: Iterable[tuple] = (),
        n_shards: int = 0,
    ) -> None:
        spans, instants = list(span_rows), list(instant_rows)
        for field in (5, 4, 3, 2, 1, 0):  # the last key field first
            spans.sort(key=itemgetter(field))
            instants.sort(key=itemgetter(field))
        self.span_rows, self.instant_rows = tuple(spans), tuple(instants)
        for row in self.span_rows:
            if row[1] < row[0]:
                _check_interval(row[3], row[0], row[1])
        self.n_shards = n_shards
        self._spans = self._instants = None

    @staticmethod
    def build(
        spans: Iterable[Span],
        instants: Iterable[Instant] = (),
        n_shards: int = 0,
    ) -> "FleetTrace":
        """Freeze span/instant iterables into a trace (sorted as rows)."""
        return FleetTrace(
            [s.row() for s in spans], [i.row() for i in instants], n_shards
        )

    @property
    def spans(self) -> Tuple[Span, ...]:
        """The span rows as :class:`Span` objects, in trace order."""
        if self._spans is None:
            self._spans = tuple(
                Span(name, cat, t0, t1, _id(shard), _id(rid),
                     tuple(zip(kind.keys, values)))
                for t0, t1, cat, name, rid, shard, kind, values in self.span_rows
            )
        return self._spans

    @property
    def instants(self) -> Tuple[Instant, ...]:
        """The instant rows as :class:`Instant` objects, in trace order."""
        if self._instants is None:
            self._instants = tuple(
                Instant(name, cat, t, _id(shard), _id(rid),
                        tuple(zip(kind.keys, values)))
                for t, _, cat, name, rid, shard, kind, values in self.instant_rows
            )
        return self._instants

    def __eq__(self, other) -> bool:
        if not isinstance(other, FleetTrace):
            return NotImplemented
        return (self.spans, self.instants, self.n_shards) == (
            other.spans, other.instants, other.n_shards
        )

    __hash__ = None

    def _select(self, index: int, value: Optional[int]) -> "FleetTrace":
        key = -1 if value is None else value
        return FleetTrace(
            [r for r in self.span_rows if r[index] == key],
            [r for r in self.instant_rows if r[index] == key],
            self.n_shards,
        )

    def for_request(self, request_id: int) -> "FleetTrace":
        """The sub-trace touching one request id."""
        return self._select(4, request_id)

    def for_shard(self, shard_id: int) -> "FleetTrace":
        """The sub-trace of one shard's track."""
        return self._select(5, shard_id)

    def span_names(self) -> List[str]:
        """Distinct span names, sorted (handy in tests and reports)."""
        return sorted({row[3] for row in self.span_rows})

    @property
    def end_s(self) -> float:
        """Latest timestamp in the trace (0.0 when empty)."""
        rows = self.span_rows + self.instant_rows
        return max(row[1] for row in rows) if rows else 0.0

    def merged(self, extra_spans: Iterable[Span]) -> "FleetTrace":
        """A new trace with ``extra_spans`` folded in (re-sorted)."""
        return FleetTrace(
            self.span_rows + tuple(s.row() for s in extra_spans),
            self.instant_rows,
            self.n_shards,
        )
