"""The fleet observer: collects step slices, fault windows and metrics.

A :class:`FleetObserver` is handed to :class:`~repro.fleet.FleetSimulator`
(or :class:`~repro.serving.ServingSimulator`) at construction.  The fleet
loop records request dispositions directly and binds its routing
decisions and fault ledger; each shard's
:class:`~repro.serving.ContinuousBatchingScheduler` hands a
:class:`ShardObs` view its event log and reports step slices and gauge
samples to it.
Nothing mirrors request lifecycles or fault windows live:
:meth:`FleetObserver.build` reads them, and their counters, from the
schedulers' event logs, the routing decisions and the fault ledger
once the run is over (:mod:`repro.obs.bridge`).

Design constraints, in priority order:

1. **Free when off.**  Every producer guards with a single
   ``if obs is not None`` — no observer object is ever allocated on the
   disabled path, and observers never feed back into scheduling
   decisions, so ``obs=None`` runs are bit-identical by construction
   (and verified by a hypothesis property test).
2. **Cheap when on.**  Hot-path hooks append event rows
   (:mod:`repro.obs.spans`) or bump pre-bound gauges; the trace is
   assembled, sorted and written once, after the run.  Gauge sampling
   is rate-limited to the observer's ``tick_s`` of *simulated* time per
   shard.
"""

from __future__ import annotations

from collections import Counter as _Tally
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..serving.scheduler import EventKind, EventLog
from .bridge import fault_rows, lifecycle_rows, routing_rows
from .metrics import MetricsRegistry
from .perfetto import to_perfetto, write_perfetto
from .spans import CAT_REQUEST, CAT_STEP, FleetTrace, event_row, row_kind

__all__ = ["ShardObs", "FleetObserver", "ObsBundle"]

#: Batch-size histogram boundaries (requests per decode iteration).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Step slices by kind: a prefill step names its request, a decode run not.
_STEPS = {
    kind: (name, row_kind("X", CAT_STEP, name, ("batch", "k"), has_rid))
    for kind, name, has_rid in (
        ("prefill", "PREFILL_STEP", True), ("decode", "DECODE_RUN", False)
    )
}

#: Counters of logged events: (counter name, the kind's code in a log).
_LOG_COUNTS = tuple(
    (name, EventLog.KINDS.index(kind))
    for name, kind in (
        ("requests_admitted", EventKind.ADMIT),
        ("requests_completed", EventKind.COMPLETE),
        ("requests_withdrawn", EventKind.WITHDRAW),
    )
)


class ShardObs(object):
    """One shard's view of the observer; called from scheduler steps."""

    __slots__ = (
        "shard_id",
        "_reg",
        "_tick_s",
        "_next_sample_s",
        "_runs",
        "_steps",
        "_g_kv",
        "_g_queue",
        "_g_decoding",
        "_g_waiting",
        "_h_batch",
        "_c_decode_iters",
    )

    def __init__(self, shard_id: int, registry: MetricsRegistry, tick_s: float) -> None:
        if not tick_s > 0:
            raise ConfigError(f"tick_s must be positive, got {tick_s}")
        self.shard_id = shard_id
        self._reg = registry
        self._tick_s = tick_s
        self._next_sample_s = 0.0
        self._steps: List[tuple] = []  # the current run's step slices, as span rows
        # [event log, step rows] of each scheduler bound, after the steps
        # recorded before any was.
        self._runs: List[list] = [[None, self._steps]]
        shard = str(shard_id)
        self._g_kv = registry.gauge("kv_reserved_bytes", shard=shard)
        self._g_queue = registry.gauge("queue_depth", shard=shard)
        self._g_decoding = registry.gauge("inflight_decodes", shard=shard)
        self._g_waiting = registry.gauge("waiting_requests", shard=shard)
        self._h_batch = registry.histogram("batch_size", BATCH_BUCKETS, shard=shard)
        for name, _ in _LOG_COUNTS:
            registry.counter(name, shard=shard)
        self._c_decode_iters = registry.counter("decode_iterations", shard=shard)

    def bind(self, log: EventLog) -> None:
        """Start a run for a new scheduler: :meth:`FleetObserver.build`
        reads ``log`` with the step slices recorded from now on, and
        gauge sampling starts over. A log refers to nothing, so no cycle
        keeps the scheduler alive."""
        self._steps = []
        self._runs.append([log, self._steps])
        self._next_sample_s = 0.0

    def rebind(self, log: EventLog) -> None:
        """Swap in the copy of its log that the current run's scheduler
        starts once it has handed the log out."""
        self._runs[-1][0] = log

    # -- scheduler hooks (hot path; keep allocation-light) ------------
    def step(
        self,
        t0_s: float,
        t1_s: float,
        kind: str,
        k: int,
        batch: int,
        request_id: Optional[int] = None,
    ) -> None:
        """One scheduler iteration slice: a prefill step of one request
        or a decode run of ``k`` coalesced iterations over ``batch``
        requests (``request_id`` ``None``). The ``batch_size`` histogram
        counts decode iterations, not slices, so it reads the same
        however the iterations were coalesced.
        """
        name, shape = _STEPS[kind]
        self._steps.append(
            (t0_s, t1_s, CAT_STEP, name,
             -1 if request_id is None else request_id, self.shard_id,
             shape, (batch, k))
        )
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

    def _snapshot(self) -> List[Tuple[Optional[EventLog], List[tuple]]]:
        """Copies of each run's log and step rows so far; sets the
        logged-event counters."""
        runs = [
            (None if log is None else log.copy(), list(steps))
            for log, steps in self._runs
        ]
        for name, code in _LOG_COUNTS:
            counter = self._reg.counter(name, shard=str(self.shard_id))
            counter.value = float(
                sum(log.kind.count(code) for log, _ in runs if log is not None)
            )
        return runs


class FleetObserver(object):
    """Root observer: fleet-level events plus per-shard views."""

    def __init__(self, tick_s: float = 0.05) -> None:
        if not tick_s > 0:
            raise ConfigError(f"tick_s must be positive, got {tick_s}")
        self.tick_s = tick_s
        self.registry = MetricsRegistry()
        self._instants: List[tuple] = []
        self._shards: Dict[int, ShardObs] = {}
        self._runs: List[Tuple[str, Sequence, Sequence]] = []

    def shard(self, shard_id: int) -> ShardObs:
        """The (created-on-first-use) view bound to one shard."""
        got = self._shards.get(shard_id)
        if got is None:
            got = self._shards[shard_id] = ShardObs(
                shard_id, self.registry, self.tick_s
            )
        return got

    def bind_routing(
        self, policy_name: str, decisions: Sequence, faults: Sequence
    ) -> None:
        """Attach a fleet run's (growing) lists of routing decisions and
        applied faults, from which :meth:`build` derives ROUTE and
        MIGRATE instants, the ``requests_routed`` and ``migrations``
        counters, and the CRASH, REWARM and BROWNOUT windows."""
        self._runs.append((policy_name, decisions, faults))

    def instant(
        self,
        name: str,
        t_s: float,
        request_id: Optional[int] = None,
        shard_id: Optional[int] = None,
        cat: str = CAT_REQUEST,
        **attrs: object,
    ) -> None:
        """Record a fleet-level point event (SUBMIT, RETRY, SHED...)."""
        self._instants.append(
            event_row("i", t_s, t_s, cat, name, request_id, shard_id,
                      sorted(attrs.items()))
        )

    def count(self, name: str, n: float = 1.0, **labels: object) -> None:
        """Bump a fleet-level counter."""
        self.registry.counter(name, **labels).inc(n)

    def gauge(self, name: str, t_s: float, value: float, **labels: object) -> None:
        """Record one fleet-level gauge sample."""
        self.registry.gauge(name, **labels).record(t_s, value)

    def build(self) -> "ObsBundle":
        """Snapshot the run into a trace + metrics bundle.

        Sets the counters read from the logs and decisions (building
        again sets them again, it does not add) and takes O(shards +
        decisions + faults) shallow copies; the trace is assembled from
        them on the bundle's first export or ``.trace`` read. The <= 1.5x
        enabled-mode overhead budget that
        ``benchmarks/bench_obs_overhead.py`` enforces covers the run
        alone; the bench records the export's own cost (``export_s``)
        beside it, unbounded.
        """
        instants = list(self._instants)
        runs = [
            (name, tuple(decisions), tuple(faults))
            for name, decisions, faults in self._runs
        ]
        decisions = [d for _, run, _ in runs for d in run]
        snaps = [(i, shard._snapshot()) for i, shard in self._shards.items()]
        n_shards = (max(self._shards) + 1) if self._shards else 0
        routed = _Tally(d.shard_id for d in decisions if d.migrated_from is None)
        for shard_id, n in routed.items():
            self.registry.counter("requests_routed", shard=shard_id).value = float(n)
        moved = _Tally(
            (d.shard_id, d.migrated_from) for d in decisions
            if d.migrated_from is not None
        )
        for (thief, donor), n in moved.items():
            self.registry.counter("migrations", thief=thief, donor=donor).value = float(n)

        def assemble() -> FleetTrace:
            spans: List[tuple] = []
            for policy_name, run, faults in runs:
                spans.extend(fault_rows(faults))
                instants.extend(routing_rows(run, policy_name))
            for shard_id, shard_runs in snaps:
                for log, steps in shard_runs:
                    if log is not None:
                        # A scheduler logs PREFILL_START, then runs that
                        # prefill: its n-th prefill slice ends at its
                        # n-th prefill's first token.
                        ends = [r[1] for r in steps if r[3] == "PREFILL_STEP"]
                        spans.extend(lifecycle_rows(shard_id, log, ends))
                    spans.extend(steps)
            return FleetTrace(spans, instants, n_shards)

        return ObsBundle(metrics=self.registry, _assemble=assemble)


class ObsBundle(object):
    """The exportable artifact pair attached to a report.

    ``trace`` is assembled from the build-time snapshot on first access
    (then cached): sorted rows, which the exports write directly, with
    span and instant objects made only if read. ``metrics`` is the live
    registry. Construct with an explicit ``trace=`` for hand-built
    bundles in tests.
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
        """The immutable span/instant trace (assembled on demand)."""
        if self._trace is None:
            self._trace = self._assemble()
        return self._trace

    def __repr__(self) -> str:
        if self._trace is None:
            return "ObsBundle(trace=<lazy>)"
        return (
            f"ObsBundle(spans={len(self._trace.span_rows)}, "
            f"instants={len(self._trace.instant_rows)})"
        )

    def perfetto(self) -> Dict[str, object]:
        """The trace as a Perfetto/Chrome ``trace_event`` document."""
        return to_perfetto(self.trace)

    def write_trace(self, path: str) -> None:
        """Write the Perfetto JSON trace to ``path`` (compact, key-sorted
        JSON that parses to exactly :meth:`perfetto`'s document)."""
        write_perfetto(self.trace, path)

    def write_metrics(self, path: str) -> None:
        """Write the metrics export; ``.csv`` suffix selects CSV."""
        if path.endswith(".csv"):
            text = self.metrics.to_csv()
        else:
            text = self.metrics.to_json()
        with open(path, "w") as fh:
            fh.write(text)
