"""The fleet observer: collects spans, instants, and metric samples.

A :class:`FleetObserver` is handed to :class:`~repro.fleet.FleetSimulator`
(or :class:`~repro.serving.ServingSimulator`) at construction.  The fleet
loop records routing / fault / disposition events directly; each shard's
:class:`~repro.serving.ContinuousBatchingScheduler` receives a bound
:class:`ShardObs` view and calls it from its step functions.

Design constraints, in priority order:

1. **Free when off.**  Every producer guards with a single
   ``if obs is not None`` — no observer object is ever allocated on the
   disabled path, and observers never feed back into scheduling
   decisions, so ``obs=None`` runs are bit-identical by construction
   (and verified by a hypothesis property test).
2. **Cheap when on.**  Hot-path hooks append small tuples or bump
   pre-bound gauges; lifecycle spans are assembled once, in
   :meth:`FleetObserver.build`.  Gauge sampling is rate-limited to the
   observer's ``tick_s`` of *simulated* time per shard.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .metrics import MetricsRegistry
from .spans import CAT_FAULT, CAT_REQUEST, CAT_STEP, FleetTrace, Instant, Span

__all__ = ["ShardObs", "FleetObserver", "ObsBundle"]

#: Batch-size histogram boundaries (requests per decode iteration).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

# Indices into a shard's open-request record.
_ARRIVAL, _ADMIT, _PREFILL_START, _FIRST_TOKEN = range(4)


class ShardObs(object):
    """One shard's view of the observer; called from scheduler steps."""

    __slots__ = (
        "shard_id",
        "_reg",
        "_tick_s",
        "_next_sample_s",
        "_open",
        "_steps",
        "_lifecycle",
        "_g_kv",
        "_g_queue",
        "_g_decoding",
        "_g_waiting",
        "_h_batch",
        "_c_admitted",
        "_c_completed",
        "_c_withdrawn",
        "_c_decode_iters",
    )

    def __init__(self, shard_id: int, registry: MetricsRegistry, tick_s: float) -> None:
        self.shard_id = shard_id
        self._reg = registry
        self._tick_s = tick_s
        self._next_sample_s = 0.0
        #: request_id -> [arrival_s, admit_s, prefill_start_s, first_token_s]
        self._open: Dict[int, List[Optional[float]]] = {}
        #: (t0_s, t1_s, kind, k, batch, request_id)
        self._steps: List[Tuple[float, float, str, int, int, Optional[int]]] = []
        #: (name, t0_s, t1_s, request_id, outcome) — materialized lazily
        #: in drain_spans() so the hot path only appends tuples.
        self._lifecycle: List[
            Tuple[str, float, float, int, Optional[str]]
        ] = []
        shard = str(shard_id)
        self._g_kv = registry.gauge("kv_reserved_bytes", shard=shard)
        self._g_queue = registry.gauge("queue_depth", shard=shard)
        self._g_decoding = registry.gauge("inflight_decodes", shard=shard)
        self._g_waiting = registry.gauge("waiting_requests", shard=shard)
        self._h_batch = registry.histogram("batch_size", BATCH_BUCKETS, shard=shard)
        self._c_admitted = registry.counter("requests_admitted", shard=shard)
        self._c_completed = registry.counter("requests_completed", shard=shard)
        self._c_withdrawn = registry.counter("requests_withdrawn", shard=shard)
        self._c_decode_iters = registry.counter("decode_iterations", shard=shard)

    # -- scheduler hooks (hot path; keep allocation-light) ------------
    def request_event(self, t_s: float, kind: str, request_id: int) -> None:
        """Mirror one scheduler event into the lifecycle FSM.

        ``kind`` is the :class:`~repro.serving.EventKind` value string.
        The event log holds state changes only, so the first-token
        instant arrives through :meth:`first_token`.
        """
        if kind == "arrival":
            self._open[request_id] = [t_s, None, None, None]
            return
        rec = self._open.get(request_id)
        if rec is None:
            return
        if kind == "admit":
            rec[_ADMIT] = t_s
            self._c_admitted.inc()
        elif kind == "prefill_start":
            rec[_PREFILL_START] = t_s
            self._lifecycle.append(
                ("QUEUE", rec[_ARRIVAL], t_s, request_id, None)
            )
        elif kind == "complete":
            self._close(request_id, rec, t_s)
        elif kind == "withdraw":
            self._lifecycle.append(
                ("QUEUE", rec[_ARRIVAL], t_s, request_id, "withdrawn")
            )
            self._c_withdrawn.inc()
            del self._open[request_id]

    def first_token(self, t_s: float, request_id: int) -> None:
        """Record the first-token instant."""
        rec = self._open.get(request_id)
        if rec is not None:
            rec[_FIRST_TOKEN] = t_s

    def step(
        self,
        t0_s: float,
        t1_s: float,
        kind: str,
        k: int,
        batch: int,
        request_id: Optional[int] = None,
    ) -> None:
        """One scheduler iteration slice: a prefill step or a decode run

        of ``k`` coalesced iterations over ``batch`` requests. The
        ``batch_size`` histogram counts decode iterations, not slices,
        so it reads the same however the iterations were coalesced.
        """
        self._steps.append((t0_s, t1_s, kind, k, batch, request_id))
        if kind == "decode":
            self._h_batch.observe(float(batch), k)
            self._c_decode_iters.inc(k)

    def sample(
        self,
        t_s: float,
        kv_reserved_bytes: int,
        queue_depth: int,
        n_decoding: int,
        n_waiting: int,
    ) -> None:
        """Rate-limited gauge sampling on the simulated clock."""
        if t_s < self._next_sample_s:
            return
        self._next_sample_s = t_s + self._tick_s
        self._g_kv.record(t_s, float(kv_reserved_bytes))
        self._g_queue.record(t_s, float(queue_depth))
        self._g_decoding.record(t_s, float(n_decoding))
        self._g_waiting.record(t_s, float(n_waiting))

    # -- assembly -----------------------------------------------------
    def _close(self, request_id: int, rec: List[Optional[float]], t_s: float) -> None:
        prefill_start = rec[_PREFILL_START]
        first_token = rec[_FIRST_TOKEN]
        if prefill_start is not None and first_token is not None:
            self._lifecycle.append(
                ("PREFILL", prefill_start, first_token, request_id, None)
            )
        if first_token is not None:
            self._lifecycle.append(
                ("DECODE", first_token, t_s, request_id, None)
            )
        self._c_completed.inc()
        del self._open[request_id]

    def _snapshot(self) -> "_ShardSnapshot":
        """An O(n) shallow copy of the raw event state — cheap enough
        for :meth:`FleetObserver.build` to take inside a timed run."""
        return (
            list(self._lifecycle),
            {rid: list(rec) for rid, rec in self._open.items()},
            list(self._steps),
        )

    def drain_spans(self) -> List[Span]:
        """All spans this shard produced (lifecycle + step slices).

        Requests still open (e.g. in flight when a crash harvested the
        shard) contribute only the phases with both endpoints known.
        """
        return _materialize_shard(self.shard_id, self._snapshot())


_ShardSnapshot = Tuple[
    List[Tuple[str, float, float, int, Optional[str]]],
    Dict[int, List[Optional[float]]],
    List[Tuple[float, float, str, int, int, Optional[int]]],
]


def _materialize_shard(shard_id: int, snap: _ShardSnapshot) -> List[Span]:
    """Turn one shard's raw event snapshot into Span objects."""
    lifecycle, open_reqs, steps = snap
    spans: List[Span] = []
    for name, t0, t1, request_id, outcome in lifecycle:
        spans.append(
            Span(
                name, CAT_REQUEST, t0, t1, shard_id, request_id,
                (("outcome", outcome),) if outcome is not None else (),
            )
        )
    for request_id, rec in open_reqs.items():
        prefill_start, first_token = rec[_PREFILL_START], rec[_FIRST_TOKEN]
        # QUEUE was already emitted at prefill_start; only the phases
        # with both endpoints known are reconstructed here.
        if prefill_start is not None and first_token is not None:
            spans.append(
                Span.make(
                    "PREFILL", CAT_REQUEST, prefill_start, first_token,
                    shard_id=shard_id, request_id=request_id,
                    outcome="interrupted",
                )
            )
    step_name = {"prefill": "PREFILL_STEP", "decode": "DECODE_RUN"}
    for t0, t1, kind, k, batch, request_id in steps:
        spans.append(
            Span.make(
                step_name.get(kind, kind.upper()), CAT_STEP, t0, t1,
                shard_id=shard_id, request_id=request_id,
                k=k, batch=batch,
            )
        )
    return spans


class FleetObserver(object):
    """Root observer: fleet-level events plus per-shard views."""

    def __init__(self, tick_s: float = 0.05) -> None:
        self.tick_s = tick_s
        self.registry = MetricsRegistry()
        self._spans: List[Span] = []
        self._instants: List[Instant] = []
        self._shards: Dict[int, ShardObs] = {}

    def shard(self, shard_id: int) -> ShardObs:
        """The (created-on-first-use) view bound to one shard."""
        got = self._shards.get(shard_id)
        if got is None:
            got = self._shards[shard_id] = ShardObs(
                shard_id, self.registry, self.tick_s
            )
        return got

    def instant(
        self,
        name: str,
        t_s: float,
        request_id: Optional[int] = None,
        shard_id: Optional[int] = None,
        cat: str = CAT_REQUEST,
        **attrs: object,
    ) -> None:
        """Record a fleet-level point event (SUBMIT, ROUTE, RETRY...)."""
        self._instants.append(
            Instant.make(name, cat, t_s, shard_id, request_id, **attrs)
        )

    def span(
        self,
        name: str,
        t0_s: float,
        t1_s: float,
        shard_id: Optional[int] = None,
        request_id: Optional[int] = None,
        cat: str = CAT_FAULT,
        **attrs: object,
    ) -> None:
        """Record a fleet-level interval (CRASH, REWARM, BROWNOUT...)."""
        self._spans.append(
            Span.make(name, cat, t0_s, t1_s, shard_id, request_id, **attrs)
        )

    def count(self, name: str, n: float = 1.0, **labels: object) -> None:
        """Bump a fleet-level counter."""
        self.registry.counter(name, **labels).inc(n)

    def gauge(self, name: str, t_s: float, value: float, **labels: object) -> None:
        """Record one fleet-level gauge sample."""
        self.registry.gauge(name, **labels).record(t_s, value)

    def build(self) -> "ObsBundle":
        """Snapshot the run into a trace + metrics bundle.

        The snapshot is O(events) shallow list copies; Span objects are
        materialized and sorted lazily on the bundle's first ``.trace``
        access, so a simulated run never pays for export assembly. The
        <= 1.5x enabled-mode overhead budget that
        ``benchmarks/bench_obs_overhead.py`` enforces covers the run
        alone; the bench records the export's own cost (``export_s``)
        beside it, unbounded.
        """
        fleet_spans = list(self._spans)
        instants = tuple(self._instants)
        snaps = [
            (shard_id, shard._snapshot())
            for shard_id, shard in self._shards.items()
        ]
        n_shards = (max(self._shards) + 1) if self._shards else 0

        def assemble() -> FleetTrace:
            spans = list(fleet_spans)
            for shard_id, snap in snaps:
                spans.extend(_materialize_shard(shard_id, snap))
            return FleetTrace.build(spans, instants, n_shards=n_shards)

        return ObsBundle(metrics=self.registry, _assemble=assemble)


class ObsBundle(object):
    """The exportable artifact pair attached to a report.

    ``trace`` is assembled lazily from the build-time snapshot on first
    access (then cached); ``metrics`` is the live registry. Construct
    with an explicit ``trace=`` for hand-built bundles in tests.
    """

    __slots__ = ("metrics", "_assemble", "_trace")

    def __init__(
        self,
        metrics: MetricsRegistry,
        trace: Optional[FleetTrace] = None,
        _assemble=None,
    ) -> None:
        if trace is None and _assemble is None:
            raise ValueError("ObsBundle needs a trace or an assembler")
        self.metrics = metrics
        self._assemble = _assemble
        self._trace = trace

    @property
    def trace(self) -> FleetTrace:
        """The immutable span/instant trace (materialized on demand)."""
        trace = self._trace
        if trace is None:
            trace = self._trace = self._assemble()
        return trace

    def __repr__(self) -> str:
        if self._trace is None:
            return "ObsBundle(trace=<lazy>)"
        return (
            f"ObsBundle(spans={len(self._trace.spans)}, "
            f"instants={len(self._trace.instants)})"
        )

    def perfetto(self) -> Dict[str, object]:
        """The trace as a Perfetto/Chrome ``trace_event`` document."""
        from .perfetto import to_perfetto

        return to_perfetto(self.trace)

    def write_trace(self, path: str) -> None:
        """Write the Perfetto JSON trace to ``path``.

        Streams compact, key-sorted JSON through
        :func:`~repro.obs.perfetto.write_perfetto`; the file parses to
        exactly :meth:`perfetto`'s document.
        """
        from .perfetto import write_perfetto

        write_perfetto(self.trace, path)

    def write_metrics(self, path: str) -> None:
        """Write the metrics export; ``.csv`` suffix selects CSV."""
        if path.endswith(".csv"):
            text = self.metrics.to_csv()
        else:
            text = self.metrics.to_json()
        with open(path, "w") as fh:
            fh.write(text)
