"""Continuous-batching scheduler: a discrete-event serving simulator.

The scheduler drives one :class:`~repro.core.MeadowEngine` through a
request stream at *iteration* granularity (Orca-style continuous
batching): each scheduling step runs either one prefill pass for the
oldest admitted-but-unprefilled request, or one batched decode iteration
advancing every in-flight generation by one token. The simulated clock
advances by the engine's modeled latency for that step, so fleet metrics
inherit the full MEADOW performance model (packing, dataflow choice,
bandwidth) without re-deriving any of it. Step latencies come from the
engine's :class:`~repro.sim.surface.LatencySurface` — the same numbers a
full :class:`~repro.sim.breakdown.StageReport` would carry, but each
distinct (stage, context, batch) point is simulated once and held as a
few floats, so simulator overhead no longer dominates long streams.

**The hot loop is event-compressed.** A decode batch is *stable* until
a member completes, the next submitted arrival is due, or the
``advance_until`` horizon is reached. :meth:`advance_until` advances
such runs of ``k`` iterations with O(k) scalar clock arithmetic and no
per-slot work: the slots share a *token clock* (each decode iteration's
end instant and gap, two ``array('d')`` columns a run extends once),
and a slot is fixed at prefill as the indices of its first and last
token on it. The result is **bit-identical** to the per-token walk
(same records, same events, same clock: the clock series is reproduced
by the very float additions the walk would issue). A run may cross
context buckets (``ctx_bucket`` consecutive contexts share one surface
point); it looks up each bucket's point when its clock reaches that
bucket. There is one step loop and one decode step: :meth:`advance_one`
is :meth:`advance_until` bounded just past the next event. The
per-token walk, which swaps a one-iteration decode step in for the
coalesced run, is a test oracle (``tests/oracles/token_walk.py``),
beside the simulator's layer-by-layer walk
(``tests/oracles/layer_walk.py``).

Admission is slot- and KV-memory constrained and strictly FCFS: a
request is admitted only while fewer than ``max_batch`` requests hold a
slot (awaiting prefill or decoding — vLLM's ``max_num_seqs``) and its
*worst-case* KV footprint (prompt + every output token, across all
layers) fits in the remaining DRAM budget. The head of the queue never
yields to a smaller request behind it — so a request's KV reservation
can never be stranded by later arrivals — and every decode iteration
advances every in-flight generation.

**Ordering is explicitly deterministic.** FCFS position is the total
order ``(arrival_s, request_id)``: requests arriving at the *same
simulated instant* (a burst, simultaneous closed-loop wake-ups) are
processed in ascending request id, never in heap- or insertion-order
accident. Because seeded sources assign ids in generation order, one
seed yields exactly one timeline — submitting the same requests in any
order produces the identical event log (property-tested in
``tests/serving/test_scheduler_properties.py``).

The scheduler can run a whole scenario in one call (:meth:`run`) or be
driven incrementally — :meth:`submit` individual requests, interleave
:meth:`advance_until` with outside decisions, then :meth:`result` — the
mode the fleet simulator (:mod:`repro.fleet`) uses to interleave N
shards on one global clock. Both modes execute the identical iteration
sequence for the same requests: ``advance_until`` defers its boundary
work (arrival ingestion, admission) when the clock has reached the
horizon, so pausing between iterations can never reorder the event log
relative to a one-shot run.

Every state change (ARRIVAL, ADMIT, PREFILL_START, COMPLETE, WITHDRAW)
is appended to an event log, kept as columns (:class:`EventLog`);
tokens are not logged, their gaps live in each record's ``array('d')``.
Each prefill step and each decode run appends one row to a step log
(:class:`StepLog`) beside it; :mod:`repro.obs` builds traces and
metrics from the two logs after the run.
The property tests in ``tests/serving/`` assert the scheduler's
invariants (clock monotonicity, budget respect, FCFS order) against
the log and the records. Routing-facing state is served as read-only
properties named like the :class:`SchedulerSnapshot` fields. The
queue-side figures (the prompt histogram and its prefill sum, waiting
and reserved KV) are aggregates kept at submit / admit / prefill /
complete / withdraw time, O(1) in queue depth; the decode-side figures
(tokens left to decode, deepest context) are a sum or max over the
slots' fixed indices when read. The fleet's policies read a live
shard directly, and :meth:`snapshot` is the frozen copy of the same
properties.
"""

from __future__ import annotations

import enum
import heapq
import math
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field, fields
from functools import reduce
from itertools import accumulate, repeat
from operator import add as _float_add, attrgetter, sub as _float_sub
from typing import Callable, Deque, Dict, Iterator, List, Optional, Tuple

from ..core.meadow import MeadowEngine
from ..errors import (
    CapacityError,
    ConfigError,
    SchedulerClosedError,
    UnknownRequestError,
    check_count,
    check_real,
)
from ..hardware.memory import kv_cache_budget_bytes
from .request import Request, RequestSource

__all__ = [
    "EventKind",
    "SchedulerEvent",
    "EventLog",
    "StepLog",
    "RequestRecord",
    "ServingResult",
    "SchedulerSnapshot",
    "ContinuousBatchingScheduler",
]


class EventKind(enum.Enum):
    """What happened at one point of the serving timeline."""

    ARRIVAL = "arrival"
    ADMIT = "admit"
    PREFILL_START = "prefill_start"
    COMPLETE = "complete"
    #: A queued request was withdrawn (work stealing): it leaves this
    #: shard before running, releasing any ADMIT-time KV reservation.
    WITHDRAW = "withdraw"


#: The event log's ``kind`` column holds each kind's index in this tuple.
_KINDS = (
    EventKind.ARRIVAL,
    EventKind.ADMIT,
    EventKind.PREFILL_START,
    EventKind.COMPLETE,
    EventKind.WITHDRAW,
)
_ARRIVAL, _ADMIT, _PREFILL_START, _COMPLETE, _WITHDRAW = range(len(_KINDS))


# A long run keeps a record and a routing decision per request alive;
# both classes (RoutingDecision is in fleet) are slotted, which cuts
# the memory they retain by about a sixth. What grows with tokens and
# events is held in arrays, not objects: a record's gaps are one
# ``array('d')`` and a shard's events are the columns of an EventLog,
# so nothing per token or per event is a Python object the garbage
# collector tracks.
@dataclass(frozen=True, slots=True)
class SchedulerEvent:
    """One timeline entry; snapshots the KV / queue state after it.

    Timestamps are *scheduler observation* times, so the log is
    monotone: an ARRIVAL landing mid-iteration is logged at the
    iteration boundary where the scheduler first sees it (a real
    scheduler cannot react earlier). Queueing delay against the true
    arrival instant lives in :attr:`RequestRecord.ttft_s` /
    ``admit_s - request.arrival_s``.
    """

    t_s: float
    kind: EventKind
    request_id: int
    kv_reserved_bytes: int
    queue_depth: int


class _Columns:
    """A log held as one ``array`` per column (``_TYPECODES``, by slot)."""

    __slots__ = ()
    _TYPECODES = ""

    def __init__(self) -> None:
        for name, code in zip(self.__slots__, self._TYPECODES):
            setattr(self, name, array(code))

    def copy(self):
        """An independent log of the same rows (a memcpy per column)."""
        new = type(self).__new__(type(self))
        for name in self.__slots__:
            setattr(new, name, getattr(self, name)[:])
        return new

    def __len__(self) -> int:
        return len(getattr(self, self.__slots__[0]))

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in self.__slots__
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self)} rows)"


class EventLog(_Columns):
    """A scheduler's event log, held as columns and read as events.

    One ``array`` per :class:`SchedulerEvent` field: ``t_s`` (``'d'``),
    ``kind`` (``'b'``, the :class:`EventKind`'s index in :attr:`KINDS`)
    and ``request_id``, ``kv_reserved_bytes`` and ``queue_depth``
    (``'q'``), so an event costs 33 bytes and no object. ``len``,
    iteration and indexing (negative indices and slices included)
    rebuild the :class:`SchedulerEvent` values exactly as logged; ``==``
    compares the columns. Like a list, a log is not hashable.
    """

    __slots__ = ("t_s", "kind", "request_id", "kv_reserved_bytes", "queue_depth")
    _TYPECODES = "dbqqq"

    #: The kinds the ``kind`` column's codes index.
    KINDS = _KINDS

    def __iter__(self) -> Iterator[SchedulerEvent]:
        return map(
            SchedulerEvent, self.t_s, map(_KINDS.__getitem__, self.kind),
            self.request_id, self.kv_reserved_bytes, self.queue_depth,
        )

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, range(*i.indices(len(self)))))
        return SchedulerEvent(
            self.t_s[i], _KINDS[self.kind[i]], self.request_id[i],
            self.kv_reserved_bytes[i], self.queue_depth[i],
        )


class StepLog(_Columns):
    """One row per prefill step and per coalesced decode run, as columns.

    ``t0_s`` and ``t1_s`` (``'d'``) bound the step, ``k`` (``'i'``) is
    its decode iterations (0 for a prefill), ``batch`` (``'i'``) the
    requests it ran and ``events`` (``'i'``) the event log's length when
    it ended: a prefill row's request is ``request_id[events - 1]``,
    its PREFILL_START or, if the prefill emitted every token, its
    COMPLETE. A row costs 28 bytes.
    """

    __slots__ = ("t0_s", "t1_s", "k", "batch", "events")
    _TYPECODES = "ddiii"


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """Lifecycle timestamps and latencies of one served request.

    Records compare with ``==`` (field by field, gaps included) but are
    not hashable: :attr:`tbt_s` is an array.
    """

    request: Request
    admit_s: float
    first_token_s: float
    finish_s: float
    #: Wall-clock gap before each subsequent token (stalls included), so
    #: ``ttft_s + sum(tbt_s)`` equals ``e2e_s`` up to rounding. An
    #: ``array('d')`` sliced from the shard's token clock when the
    #: request completes: 8 bytes a gap.
    tbt_s: array

    __hash__ = None

    @property
    def ttft_s(self) -> float:
        """Arrival to first token (queueing + prefill)."""
        return self.first_token_s - self.request.arrival_s

    @property
    def e2e_s(self) -> float:
        """Arrival to last token."""
        return self.finish_s - self.request.arrival_s

    @property
    def generated_tokens(self) -> int:
        """Tokens emitted (first token + one per decode step)."""
        return 1 + len(self.tbt_s)


@dataclass(frozen=True)
class ServingResult:
    """Everything one serving simulation produced."""

    model_name: str
    plan_name: str
    source_name: str
    records: Tuple[RequestRecord, ...]
    #: State changes only (ARRIVAL / ADMIT / PREFILL_START / COMPLETE /
    #: WITHDRAW), in log order, read as :class:`SchedulerEvent` values;
    #: token instants live in :attr:`records`.
    events: EventLog
    #: Not compared: the per-token walk logs a row per decode iteration.
    steps: StepLog = field(compare=False, repr=False)
    kv_budget_bytes: int
    peak_kv_bytes: int
    max_queue_depth: int
    duration_s: float
    #: Closed-loop follow-ups whose drawn lengths could never fit the KV
    #: budget or model context; rejected at submission, never simulated.
    n_rejected_followups: int = 0
    #: Modeled energy of every executed iteration (surface point energy,
    #: accumulated in iteration order so the coalesced and reference
    #: paths agree bit for bit).
    total_energy_uj: float = 0.0

    @property
    def n_prefill_iterations(self) -> int:
        """Prefill steps run: the step log's rows with no decode."""
        return self.steps.k.count(0)

    @property
    def n_decode_iterations(self) -> int:
        """Batched decode iterations run, over every decode run."""
        return sum(self.steps.k)

    @property
    def total_generated_tokens(self) -> int:
        """Tokens emitted across the whole fleet."""
        return sum(r.generated_tokens for r in self.records)

    @property
    def energy_per_token_uj(self) -> float:
        """Modeled energy per generated token (0 for an empty run)."""
        tokens = self.total_generated_tokens
        return self.total_energy_uj / tokens if tokens else 0.0


def check_kv_budget(name: str, value):
    """``value`` if it is ``None`` (the engine's default KV budget) or
    positive and finite, as :func:`~repro.errors.check_real` checks."""
    return value if value is None else check_real(name, value, 0, math.inf, "()")


def _kv_footprint(engine: MeadowEngine, tokens: int) -> int:
    """Worst-case KV bytes of ``tokens`` across all of the engine's layers."""
    model = engine.model
    return model.n_layers * model.kv_cache_bytes_per_layer(
        tokens, engine.config.act_bits
    )


def _view(attr: str, doc: str) -> property:
    """A read-only property answering ``self.<attr>`` (a C-level getter)."""
    return property(attrgetter(attr), doc=doc)


class _ShardLoad:
    """Load figures derived from a shard's aggregates, defined once for
    the live :class:`ContinuousBatchingScheduler` and its frozen
    :class:`SchedulerSnapshot`."""

    @property
    def n_in_system(self) -> int:
        """Requests anywhere in the shard (waiting or decoding)."""
        return self.n_waiting + self.n_decoding

    @property
    def kv_pressure(self) -> float:
        """Committed plus queued worst-case KV demand over the budget."""
        return (self.kv_reserved_bytes + self.waiting_kv_bytes) / self.kv_budget_bytes


@dataclass(frozen=True)
class SchedulerSnapshot(_ShardLoad):
    """Frozen copy of one scheduler's routing-facing state.

    :meth:`ContinuousBatchingScheduler.snapshot` copies the scheduler's
    read-only properties of the same names, so the fields describe one
    instant between iterations: the shard is busy until :attr:`clock_s`
    with the step it last started, everything in
    :attr:`waiting_prompt_hist` still owes a prefill, and
    :attr:`remaining_decode_tokens` tokens of in-flight generation
    remain after that. The fleet's routing policies read live shards
    instead; a snapshot answers the same reads (:attr:`queued_prefill_s`
    and :meth:`kv_bytes` included), for tests and callers that need a
    value that does not move.
    """

    shard_id: int
    #: The shard's simulated clock — it is busy until this instant.
    clock_s: float
    #: Requests submitted but not yet prefilled (future + pending + admitted).
    n_waiting: int
    #: Requests in the decode phase (never more than :attr:`max_batch`).
    n_decoding: int
    #: Histogram of prompt lengths still owing a prefill pass, as sorted
    #: ``(prompt_tokens, count)`` pairs — the run-length form of the old
    #: per-request tuple, sized by *distinct* lengths, not queue depth.
    waiting_prompt_hist: Tuple[Tuple[int, int], ...]
    #: Output tokens still to decode across all in-flight requests.
    remaining_decode_tokens: int
    #: Deepest in-flight context (0 when nothing is decoding).
    decode_context: int
    kv_reserved_bytes: int
    #: Worst-case KV bytes the waiting (not yet admitted) requests will claim.
    waiting_kv_bytes: int
    kv_budget_bytes: int
    max_batch: int
    #: The shard's engine (latency surface access for predictive routers).
    engine: MeadowEngine = field(repr=False, compare=False)
    #: The step-latency multiplier a transient bandwidth brownout
    #: imposes (1.0 = healthy; a brownout to ``f`` of nominal bandwidth
    #: scales step latencies by ``1/f`` — edge LLM steps are
    #: bandwidth-bound, which is MEADOW's operating regime).
    #: Health-aware predicted-TTFT models multiply their surface terms
    #: by this scale; at the 1.0 default that multiplication is an
    #: exact IEEE-754 no-op, so zero-fault runs stay bit-identical.
    latency_scale: float = 1.0

    @property
    def queued_prefill_s(self) -> float:
        """Batch-1 prefill seconds the waiting prompts owe, summed afresh."""
        return self.engine.surface.queued_prefill_s(self.waiting_prompt_hist)

    def kv_bytes(self, tokens: int) -> int:
        """Worst-case KV footprint of ``tokens`` on this shard's model."""
        return _kv_footprint(self.engine, tokens)


#: What :meth:`ContinuousBatchingScheduler.snapshot` copies, by name.
_SNAPSHOT_FIELDS = tuple(f.name for f in fields(SchedulerSnapshot))


@dataclass
class _Active:
    """Book-keeping for one admitted-but-unprefilled request; once its
    prefill runs it becomes a decode slot (``_d_*``), fixed from then on."""

    request: Request
    admit_s: float
    kv_reserved_bytes: int


class ContinuousBatchingScheduler(_ShardLoad):
    """Iteration-level scheduler over one engine and one request source.

    Args:
        engine: the deployed model/hardware/plan to serve on. All
            concurrent requests share its packing planner and latency
            surface (:attr:`MeadowEngine.surface`).
        source: scenario generator (open- or closed-loop). Optional —
            an externally driven scheduler (a fleet shard) passes
            ``None`` and feeds requests through :meth:`submit` instead.
        kv_budget_bytes: DRAM bytes available for KV caches; defaults to
            :func:`repro.hardware.kv_cache_budget_bytes` for the
            engine's hardware and model.
        max_batch: request slots — the most requests admitted at once
            (awaiting prefill or decoding). Everything else waits in the
            pending queue, so a decode iteration batches every in-flight
            generation and never more than ``max_batch``.
        ctx_bucket: decode contexts are rounded up to a multiple of this
            before simulation — a modeling quantization that makes long
            streams cache-friendly (1 = exact). It sets how many
            consecutive decode iterations share one surface lookup, not
            how long a coalesced run is.
        on_complete: override for the completion hook; defaults to
            ``source.on_complete``. The fleet simulator injects its own
            callback here so closed-loop follow-ups re-enter the global
            router instead of being pinned to the shard that happened
            to serve their predecessor.
        shard_id: the shard's index in a fleet (0 for a lone
            scheduler). A label policies report their choice by; it
            changes nothing the scheduler does.

    Pending prefills always run before decode iterations (the classic
    continuous-batching policy: it fills the decode batch fastest);
    alternative policies such as chunked prefill are ROADMAP follow-ons.
    """

    def __init__(
        self,
        engine: MeadowEngine,
        source: Optional[RequestSource] = None,
        kv_budget_bytes: Optional[int] = None,
        max_batch: int = 16,
        ctx_bucket: int = 1,
        on_complete: Optional[Callable[[Request, float], Optional[Request]]] = None,
        shard_id: int = 0,
    ) -> None:
        max_batch = check_count("max_batch", max_batch)
        ctx_bucket = check_count("ctx_bucket", ctx_bucket)
        kv_budget_bytes = check_kv_budget("kv_budget_bytes", kv_budget_bytes)
        self.engine = engine
        self.source = source
        if kv_budget_bytes is None:
            # When the plan packs weights, the resident image shrinks and
            # the reclaimed DRAM becomes KV headroom.
            packed_bits = None
            if engine.planner is not None and engine.plan.packing is not None:
                packed_bits = engine.packing_summary().packed_bits
            kv_budget_bytes = kv_cache_budget_bytes(
                engine.config, engine.model, packed_weight_bits=packed_bits
            )
        self.kv_budget_bytes = kv_budget_bytes
        self.max_batch = max_batch
        self.ctx_bucket = ctx_bucket
        self.shard_id = shard_id
        # The largest total_tokens this shard can ever admit: the model's
        # context limit, or less where the KV budget binds first. The
        # footprint is monotone in tokens, so bisection finds it once
        # and can_ever_admit is one comparison.
        lo, hi = 0, engine.model.max_seq_len
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if _kv_footprint(engine, mid) <= kv_budget_bytes:
                lo = mid
            else:
                hi = mid - 1
        self.max_total_tokens = lo
        #: Step-latency multiplier the fault layer sets during bandwidth
        #: brownouts (1.0 = nominal). Applied to every prefill/decode
        #: step latency; at the default the multiplication is an exact
        #: IEEE-754 no-op (x * 1.0 == x), so healthy runs are
        #: bit-identical to a build without the knob. Energy is *not*
        #: scaled: a brownout stretches time, not the modeled joules of
        #: the work performed.
        self.latency_scale = 1.0
        if on_complete is None and source is not None:
            on_complete = source.on_complete
        self._on_complete = on_complete

        # ---- live simulation state (consumed by one scenario) ----
        self._started = False
        self._clock = 0.0
        # (arrival_s, request_id, Request) heap: the deterministic FCFS
        # order — ids break arrival-time ties, so submission order is
        # irrelevant to the timeline.
        self._future: List[Tuple[float, int, Request]] = []
        self._pending: Deque[Request] = deque()  # arrived, awaiting KV admission
        self._prefill_queue: Deque[_Active] = deque()  # admitted, awaiting prefill
        # ---- decode state ----
        # The token clock: each decode iteration's end instant and gap
        # from the one before; entry i is iteration ``_tok_off + i``.
        self._tok_s = array("d")
        self._tok_gap = array("d")
        self._tok_off = 0
        # One slot per in-flight generation, parallel by index, FCFS by
        # admission, fixed at prefill: (request, admit instant, ADMIT-time
        # KV bytes, first-token instant, iteration of its first decode).
        # At ``at`` iterations a slot owes ``end - at`` tokens at context
        # ``base + at``: the hot loop's reductions are C-level min/max.
        self._d_slot: List[Tuple[Request, float, int, float, int]] = []
        self._d_end: List[int] = []  # iteration count at its last token
        self._d_base: List[int] = []  # prompt_tokens - start
        self._kv_reserved = 0
        self._peak_kv = 0
        self._max_queue_depth = 0
        self._n_rejected = 0  # infeasible closed-loop follow-ups
        self._energy_uj = 0.0
        self._events = EventLog()
        self._steps = StepLog()
        # Set when result() hands the logs out: the next row of either
        # goes to a copy of both, so a returned result never changes.
        self._logs_shared = False
        self._records: Dict[int, RequestRecord] = {}
        # Every id this shard currently holds or has completed; guards
        # duplicate submission (withdrawn ids are forgotten, so failover
        # resubmission after a crash or steal is legal).
        self._known_ids: set = set()
        # ---- incremental aggregates backing O(1) snapshots ----
        self._kv_bytes_cache: Dict[int, int] = {}  # token count -> KV bytes
        self._waiting_kv = 0  # worst-case KV over future + pending
        # Sorted (prompt len, count) pairs over the waiting requests. Each
        # submit / prefill / withdraw splices one pair (bisecting on
        # ``(len,)``, which sorts before every ``(len, count)``), so the
        # tuple is always ready to hand out and is never re-sorted.
        self._hist: Tuple[Tuple[int, int], ...] = ()
        # The queued-prefill sum and the histogram tuple it was taken
        # over: every splice replaces the tuple, so while ``_hist`` is
        # still that object the sum is still exact.
        self._queued_hist = self._hist
        self._queued_s = 0.0

    # ------------------------------------------------- live routing state
    # Read-only views named and meant like the SchedulerSnapshot
    # fields (snapshot() copies them): the incremental aggregates, and
    # the decode-slot figures computed when read. Routing, shedding and
    # work stealing read a live shard through these.
    clock_s = _view("_clock", "The simulated clock (busy until this instant).")
    waiting_prompt_hist = _view("_hist", "Sorted (prompt length, count) pairs.")
    kv_reserved_bytes = _view("_kv_reserved", "KV bytes admitted requests hold.")
    waiting_kv_bytes = _view("_waiting_kv", "Worst-case KV of unadmitted requests.")

    @property
    def n_waiting(self) -> int:
        """Requests submitted but not yet prefilled."""
        return len(self._future) + len(self._pending) + len(self._prefill_queue)

    @property
    def n_decoding(self) -> int:
        """Requests in the decode phase (never more than ``max_batch``)."""
        return len(self._d_end)

    @property
    def remaining_decode_tokens(self) -> int:
        """Tokens left to decode, summed over the decode slots."""
        at = self._tok_off + len(self._tok_s)
        return sum(self._d_end) - at * len(self._d_end)

    @property
    def decode_context(self) -> int:
        """Deepest in-flight context (0 if none)."""
        if not self._d_base:
            return 0
        return max(self._d_base) + self._tok_off + len(self._tok_s)

    @property
    def queued_prefill_s(self) -> float:
        """Batch-1 prefill seconds the waiting prompts owe.

        :meth:`LatencySurface.queued_prefill_s` over the histogram,
        summed again only after the histogram changed.
        """
        hist = self._hist
        if hist is not self._queued_hist:
            self._queued_s = self.engine.surface.queued_prefill_s(hist)
            self._queued_hist = hist
        return self._queued_s

    def kv_bytes(self, tokens: int) -> int:
        """Worst-case KV footprint of ``tokens`` across all layers.

        Memoized per token count: admission, withdrawal and the routing
        model ask for it on every request, and token counts repeat
        heavily across a stream.
        """
        need = self._kv_bytes_cache.get(tokens)
        if need is None:
            need = self._kv_bytes_cache[tokens] = _kv_footprint(self.engine, tokens)
        return need

    # ------------------------------------------------------------- helpers
    def _check(self, request: Request) -> int:
        """Validate one request against model and budget; return its KV."""
        model = self.engine.model
        if request.total_tokens > model.max_seq_len:
            raise ConfigError(
                f"request {request.request_id}: {request.total_tokens} tokens "
                f"exceed {model.name} max_seq_len {model.max_seq_len}"
            )
        need = self.kv_bytes(request.total_tokens)
        if need > self.kv_budget_bytes:
            raise CapacityError(
                f"request {request.request_id} needs {need} B of KV but the "
                f"budget is {self.kv_budget_bytes} B; it can never be admitted"
            )
        return need

    def can_ever_admit(self, request: Request) -> bool:
        """Whether the request fits this shard's model and KV budget at all.

        One comparison against :attr:`max_total_tokens`; :meth:`submit`
        rejects exactly the requests this refuses.
        """
        return request.total_tokens <= self.max_total_tokens

    # ------------------------------------------------------ incremental API
    def _enqueue(self, request: Request, need: int) -> None:
        """Push a validated request into the future heap (+ aggregates)."""
        if request.request_id in self._known_ids:
            raise UnknownRequestError(
                f"duplicate submission of request {request.request_id}: "
                f"this shard already holds or has completed it"
            )
        self._known_ids.add(request.request_id)
        heapq.heappush(
            self._future, (request.arrival_s, request.request_id, request)
        )
        self._waiting_kv += need
        hist = self._hist
        p = request.prompt_tokens
        i = bisect_left(hist, (p,))
        if i < len(hist) and hist[i][0] == p:
            self._hist = hist[:i] + ((p, hist[i][1] + 1),) + hist[i + 1 :]
        else:
            self._hist = hist[:i] + ((p, 1),) + hist[i:]

    def submit(self, request: Request) -> None:
        """Queue one request for its arrival time (validates feasibility).

        Requests may be submitted before or during a simulation; a
        request whose ``arrival_s`` is already in the shard's past is
        observed at the next iteration boundary (exactly how the
        event-log timestamps are defined). Submitting an id the shard
        already holds (or has completed) raises
        :class:`~repro.errors.UnknownRequestError`.
        """
        self._enqueue(request, self._check(request))

    def snapshot(self) -> SchedulerSnapshot:
        """A frozen copy of the live routing state (the properties of
        the same names). O(1) in queue depth: the prompt histogram is
        an immutable tuple, so the copy shares it."""
        return SchedulerSnapshot(
            **{name: getattr(self, name) for name in _SNAPSHOT_FIELDS}
        )

    def next_event_s(self) -> float:
        """The instant this scheduler's next iteration would start.

        The fleet calendar's heap key: a shard with runnable work
        (queued prefill, in-flight decode, or a pending request the
        next boundary may admit) acts at its own clock; a shard whose
        only work is a future arrival acts when that arrival is due
        (never before its clock — steps are non-preemptible); an idle
        shard never acts (``inf``). Advancing the globally minimal
        shard therefore executes fleet iterations in exactly the order
        the per-iteration walk does.
        """
        if self._prefill_queue or self._d_end or self._pending:
            return self._clock
        if self._future:
            return max(self._clock, self._future[0][0])
        return math.inf

    def record_for(self, request_id: int) -> Optional[RequestRecord]:
        """The completed record of one request, or ``None`` if not done.

        The fleet simulator reads this inside its completion hook to
        feed realized TTFT back into calibration-aware routing policies.
        """
        return self._records.get(request_id)

    # ------------------------------------------------------- work stealing
    def steal_candidates(self) -> List[Request]:
        """Every not-yet-prefilled request, in FCFS order.

        Candidates span the future heap, the pending (admission) queue
        and the admitted-but-unprefilled queue: all of them still owe
        their prefill, so migrating one discards no simulated work.
        """
        candidates = [req for _, _, req in self._future]
        candidates.extend(self._pending)
        candidates.extend(active.request for active in self._prefill_queue)
        candidates.sort(key=lambda r: (r.arrival_s, r.request_id))
        return candidates

    def _forget_waiting(self, request: Request) -> None:
        """Drop one waiting request from the prompt-histogram aggregate."""
        hist = self._hist
        p = request.prompt_tokens
        i = bisect_left(hist, (p,))
        count = hist[i][1] - 1
        if count:
            self._hist = hist[:i] + ((p, count),) + hist[i + 1 :]
        else:
            self._hist = hist[:i] + hist[i + 1 :]

    def withdraw(self, request_id: int) -> Request:
        """Remove a not-yet-prefilled request (the work-stealing donor op).

        Releases the ADMIT-time KV reservation when the request had
        already been admitted, and logs a WITHDRAW event whenever the
        shard had observed the request (so the event timeline stays an
        honest account of this shard's KV and queue state). Withdrawing
        a request the shard never heard of, one already prefilled, or
        one already *completed* is a caller bug and raises
        :class:`~repro.errors.UnknownRequestError` — the completed case
        matters for failover: silently "withdrawing" a finished request
        would corrupt the KV and histogram aggregates.
        """
        for i, active in enumerate(self._prefill_queue):
            if active.request.request_id == request_id:
                del self._prefill_queue[i]
                self._kv_reserved -= active.kv_reserved_bytes
                self._forget_waiting(active.request)
                self._known_ids.discard(request_id)
                self._log(_WITHDRAW, request_id)
                return active.request
        for i, req in enumerate(self._pending):
            if req.request_id == request_id:
                del self._pending[i]
                self._waiting_kv -= self.kv_bytes(req.total_tokens)
                self._forget_waiting(req)
                self._known_ids.discard(request_id)
                self._log(_WITHDRAW, request_id)
                return req
        for i, (_, _, req) in enumerate(self._future):
            if req.request_id == request_id:
                # Never ingested, so never logged: remove silently.
                self._future[i] = self._future[-1]
                self._future.pop()
                heapq.heapify(self._future)
                self._waiting_kv -= self.kv_bytes(req.total_tokens)
                self._forget_waiting(req)
                self._known_ids.discard(request_id)
                return req
        if request_id in self._records:
            raise UnknownRequestError(
                f"cannot withdraw request {request_id}: it already "
                f"completed on this shard"
            )
        raise UnknownRequestError(
            f"cannot withdraw request {request_id}: not waiting on this shard"
        )

    def crash_harvest(self) -> Tuple[List[Request], List[Tuple[Request, int]]]:
        """Evict every unfinished request — the shard just crashed.

        Waiting (not-yet-prefilled) requests leave through the
        :meth:`withdraw` path, releasing any ADMIT-time KV reservation.
        In-flight decodes are evicted with a WITHDRAW event each; their
        generated KV is *gone* (a crash loses the cache), so the caller
        charges those tokens as lost work and any retry re-prefills
        from scratch. Returns ``(waiting, inflight)`` where ``inflight``
        pairs each evicted request with the tokens it had generated.
        The shard is idle afterwards (its clock keeps its crash-time
        value; recovery cost is modeled fleet-side as the down window).
        """
        waiting = [
            self.withdraw(req.request_id) for req in self.steal_candidates()
        ]
        inflight: List[Tuple[Request, int]] = []
        at = self._tok_off + len(self._tok_s)
        for req, _, kv, _, start in self._d_slot:
            self._kv_reserved -= kv
            self._known_ids.discard(req.request_id)
            self._log(_WITHDRAW, req.request_id)
            inflight.append((req, 1 + at - start))
        del self._d_slot[:], self._d_end[:], self._d_base[:]
        self._trim_clock()
        return waiting, inflight

    def _trim_clock(self) -> None:
        """Empty the token clock with the decode set, or drop the prefix
        before the oldest slot's start once it passes half the clock."""
        if not self._d_slot:
            del self._tok_s[:], self._tok_gap[:]
            self._tok_off = 0
            return
        dead = self._d_slot[0][-1] - self._tok_off
        if 2 * dead > len(self._tok_s):
            del self._tok_s[:dead], self._tok_gap[:dead]
            self._tok_off += dead

    # ----------------------------------------------------------- internals
    def _unshare_logs(self) -> None:
        """Write to copies of the logs result() handed out."""
        self._events = self._events.copy()
        self._steps = self._steps.copy()
        self._logs_shared = False

    def _log(self, kind: int, request_id: int) -> None:
        """Append one event; ``kind`` is its index in ``_KINDS``."""
        if self._logs_shared:
            self._unshare_logs()
        log = self._events
        log.t_s.append(self._clock)
        log.kind.append(kind)
        log.request_id.append(request_id)
        log.kv_reserved_bytes.append(self._kv_reserved)
        log.queue_depth.append(len(self._pending))

    def _ingest_arrivals(self) -> None:
        while self._future and self._future[0][0] <= self._clock:
            _, _, req = heapq.heappop(self._future)
            self._pending.append(req)
            self._log(_ARRIVAL, req.request_id)

    def _admit(self) -> None:
        # Strict FCFS: stop at the first request that finds no free slot
        # or does not fit in KV.
        while (
            self._pending
            and len(self._prefill_queue) + len(self._d_end) < self.max_batch
        ):
            need = self.kv_bytes(self._pending[0].total_tokens)
            if self._kv_reserved + need > self.kv_budget_bytes:
                break
            req = self._pending.popleft()
            self._kv_reserved += need
            self._waiting_kv -= need
            self._peak_kv = max(self._peak_kv, self._kv_reserved)
            self._prefill_queue.append(
                _Active(request=req, admit_s=self._clock, kv_reserved_bytes=need)
            )
            self._log(_ADMIT, req.request_id)

    def _complete(
        self,
        request: Request,
        admit_s: float,
        kv_reserved_bytes: int,
        first_token_s: float,
        tbt_s: array,
    ) -> None:
        self._kv_reserved -= kv_reserved_bytes
        self._log(_COMPLETE, request.request_id)
        # The record takes the gap array as it is: a fresh, exact-size
        # slice of the token clock that nothing else holds.
        self._records[request.request_id] = RequestRecord(
            request=request,
            admit_s=admit_s,
            first_token_s=first_token_s,
            finish_s=self._clock,
            tbt_s=tbt_s,
        )
        if self._on_complete is None:
            return
        follow_up = self._on_complete(request, self._clock)
        if follow_up is not None:
            # Open-loop traces fail fast at start-up; a closed-loop
            # follow-up drawn mid-run must not abort the simulation
            # and discard completed work — an infeasible one is
            # rejected (a real frontend would return an error).
            if self.can_ever_admit(follow_up):
                self._enqueue(follow_up, self.kv_bytes(follow_up.total_tokens))
            else:
                self._n_rejected += 1

    def _log_step(self, t0_s: float, k: int, batch: int) -> None:
        """Append the step that ran from ``t0_s`` to the clock."""
        if self._logs_shared:
            self._unshare_logs()
        steps = self._steps
        steps.t0_s.append(t0_s)
        steps.t1_s.append(self._clock)
        steps.k.append(k)
        steps.batch.append(batch)
        steps.events.append(len(self._events.t_s))

    def _prefill_step(self) -> None:
        active = self._prefill_queue.popleft()
        req = active.request
        self._log(_PREFILL_START, req.request_id)
        point = self.engine.surface.prefill(req.prompt_tokens)
        t0 = self._clock
        self._clock += point.latency_s * self.latency_scale
        self._energy_uj += point.energy_uj
        self._forget_waiting(req)
        if req.output_tokens <= 1:  # prefill emits the first token
            self._complete(
                req, active.admit_s, active.kv_reserved_bytes, self._clock,
                array("d"),
            )
        else:
            start = self._tok_off + len(self._tok_s)
            self._d_slot.append(
                (req, active.admit_s, active.kv_reserved_bytes, self._clock, start)
            )
            self._d_end.append(start + req.output_tokens - 1)
            self._d_base.append(req.prompt_tokens - start)
        self._log_step(t0, 0, 1)

    def _retire_finished(self) -> None:
        """Complete every slot whose last token is the clock's latest, in
        slot order. Its gaps are the clock's from its start on, the first
        taken from its own first token."""
        instants, off = self._tok_s, self._tok_off
        at = off + len(instants)
        finished = []
        for i in reversed([i for i, end in enumerate(self._d_end) if end == at]):
            req, admit_s, kv, first_s, start = self._d_slot.pop(i)
            del self._d_end[i], self._d_base[i]
            tbt = self._tok_gap[start - off :]
            tbt[0] = instants[start - off] - first_s
            finished.append((req, admit_s, kv, first_s, tbt))
        self._trim_clock()
        for args in reversed(finished):
            self._complete(*args)

    def _decode_run(self, t_s: float) -> None:
        """Coalesce a stable run of decode iterations (bit-identical).

        A run lasts until the first member completes, cut short on the
        step whose end clock reaches ``stop``, the earlier of ``t_s``
        and the next submitted arrival (where the per-token walk would
        return or ingest it). Admission needs a completion or an
        arrival, so the batch, the KV reservation and the queue depth
        are constant within a run, and the per-iteration work collapses
        to extending the token clock: the run reads the slots only
        through the min and max of two fixed columns, and writes none.
        A run may span many ``ctx_bucket`` contexts: each bucket's
        surface point is looked up only when the clock reaches it, so a
        cold surface simulates the walk's points in the walk's order.
        The clock and energy series are still produced by the same
        sequential float additions the per-token walk performs, so
        every timestamp, TBT gap and accumulator matches bit for bit.
        """
        instants = self._tok_s
        at = self._tok_off + len(instants)
        n = len(self._d_end)
        to_complete = min(self._d_end) - at
        top = max(self._d_base) + at
        stop = min(t_s, self._future[0][0]) if self._future else t_s
        lookup = self.engine.surface.decode_run_many
        ctx_bucket = self.ctx_bucket
        scale = self.latency_scale
        energy = self._energy_uj
        # full[i] is the clock after i steps. Sequential float addition
        # is order-sensitive, so k*lat would drift in the last bits
        # where lat+lat+... does not: each bucket extends the series by
        # the walk's additions, through accumulate at C speed (one plain
        # addition for a one-step bucket). A step runs while its start
        # clock is before ``stop``; full[0] is, since the caller checked
        # the horizon and ingested every arrival up to the clock, and
        # lat > 0 keeps the series non-decreasing, so one bisection
        # finds a cut inside a bucket.
        full = [self._clock]
        k = 0
        while True:
            point, bucket_run = lookup((top + k,), n, ctx_bucket)
            lat = point.latency_s * scale
            m = min(bucket_run, to_complete - k)
            if m == 1:
                full.append(full[k] + lat)
                energy += point.energy_uj
                k += 1
            else:
                full[k:] = accumulate(repeat(lat, m), initial=full[k])
                end = bisect_left(full, stop, k + 1, k + m)
                del full[end + 1 :]
                energy = reduce(
                    _float_add, repeat(point.energy_uj, end - k), energy
                )
                k = end
            if k == to_complete or full[k] >= stop:
                break
        t0 = self._clock
        self._clock = full[k]
        self._energy_uj = energy
        # The run's instants extend the clock with their gaps; the first
        # is from the clock's last instant, stalls since included.
        if instants:
            full[0] = instants[-1]
        tail = full[1:]
        self._tok_gap.fromlist(list(map(_float_sub, tail, full)))
        instants.fromlist(tail)
        if k == to_complete:
            # Completions only happen on the run's final iteration (the
            # run ends at tokens-to-next-completion), so one retirement
            # reproduces the reference step's.
            self._retire_finished()
        self._log_step(t0, k, n)

    # ---------------------------------------------------------------- run
    @property
    def idle(self) -> bool:
        """True when nothing is queued, admitted or in flight."""
        return not (
            self._future or self._pending or self._prefill_queue or self._d_end
        )

    def advance_one(self) -> bool:
        """Run exactly one latency-consuming iteration (or none if idle).

        :meth:`advance_until` bounded by the first float past
        :meth:`next_event_s`: it ingests and admits whatever the clock
        has reached, jumps the clock over an idle gap, then executes one
        prefill or one batched decode step — the bound cuts a decode run
        after its first iteration, and every step has positive latency,
        so exactly one runs. Callers that interleave decisions between
        iterations therefore observe every boundary. Returns ``False``
        when there is nothing to do.
        """
        if self.idle:
            return False
        self.advance_until(math.nextafter(self.next_event_s(), math.inf))
        return True

    def advance_until(
        self,
        t_s: float = math.inf,
        interrupt: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Run scheduler iterations while the clock is before ``t_s``.

        The scheduler's one step loop: :meth:`run`, :meth:`advance_one`
        and every fleet advance go through it. Iterations are
        non-preemptible: a step *started* before ``t_s`` runs to
        completion even if its modeled latency carries the clock past it
        (so after this returns the clock may exceed ``t_s`` — the shard
        is busy until then); a bound of ``math.nextafter(x, math.inf)``
        therefore means "while the clock is at most ``x``". With the
        default ``inf`` this drains everything submitted so far.
        Chunking a simulation into arbitrary ``advance_until`` calls
        yields the identical timeline *and event log* to one call: the
        horizon check runs before any boundary work, so arrivals due
        exactly at the pause instant are ingested by the next call
        together with anything submitted in between — exactly as the
        one-shot walk would observe them.

        ``interrupt`` is polled at every iteration boundary — before
        any boundary work, so a stop here and a later resume observe
        exactly what the uninterrupted walk would. The fleet uses it to
        stop an advance the instant a completion injects a global
        follow-up arrival: completion hooks only fire at step ends, so
        polling each boundary reproduces the per-iteration walk's
        one-step-then-reroute behaviour at coalesced speed (coalesced
        decode runs already end at the first in-run completion).
        """
        self._started = True
        while True:
            if self._clock >= t_s:
                return
            if interrupt is not None and interrupt():
                return
            # Inlined fast-path guards: the ingest/admit bodies are
            # no-ops on the (dominant) iterations where nothing is due,
            # so skip the calls outright — identical state transitions.
            if self._future and self._future[0][0] <= self._clock:
                self._ingest_arrivals()
            if self._pending:
                self._admit()
                # Depth is measured after admission: only requests the
                # slot bound or KV budget actually held back count as
                # queued.
                if len(self._pending) > self._max_queue_depth:
                    self._max_queue_depth = len(self._pending)

            if self._prefill_queue:
                self._prefill_step()
            elif self._d_end:
                self._decode_run(t_s)
            elif self._pending:
                # Head blocked on KV with nothing in flight can only mean
                # an over-sized request, which _check() already rejected.
                raise CapacityError(
                    "scheduler wedged: pending head cannot be admitted into "
                    "an empty system"
                )
            elif self._future:
                next_arrival = self._future[0][0]
                if next_arrival > t_s:
                    return
                self._clock = max(self._clock, next_arrival)
            else:
                return

    def result(self) -> ServingResult:
        """Package everything simulated so far into a result."""
        # Stable total order: admit time, then request id.
        ordered = tuple(
            sorted(
                self._records.values(),
                key=lambda rec: (rec.admit_s, rec.request.request_id),
            )
        )
        if ordered:
            first_arrival = min(rec.request.arrival_s for rec in ordered)
            duration = self._clock - first_arrival
        else:
            duration = 0.0  # a shard that was never routed a request
        self._logs_shared = True
        return ServingResult(
            model_name=self.engine.model.name,
            plan_name=self.engine.plan.name,
            source_name=self.source.name if self.source is not None else "external",
            records=ordered,
            events=self._events,
            steps=self._steps,
            kv_budget_bytes=self.kv_budget_bytes,
            peak_kv_bytes=self._peak_kv,
            max_queue_depth=self._max_queue_depth,
            duration_s=duration,
            n_rejected_followups=self._n_rejected,
            total_energy_uj=self._energy_uj,
        )

    def run(self) -> ServingResult:
        """Simulate the bound source's scenario to completion."""
        if self.source is None:
            raise ConfigError(
                "scheduler has no request source: construct it with one or "
                "drive it via submit()/advance_until()"
            )
        if self._started:
            raise SchedulerClosedError(
                "scheduler state is consumed by one scenario: construct a "
                "fresh scheduler to re-run it"
            )
        for req in self.source.initial():
            self.submit(req)
        if not self._future:
            raise ConfigError(f"source {self.source.name!r} produced no requests")
        self.advance_until(math.inf)
        return self.result()
