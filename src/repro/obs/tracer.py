"""The fleet observer: a run's trace and metrics, built from its report.

:meth:`FleetObserver.build` reads a finished fleet or serving report:
each shard's event and step logs, and a fleet's submitted requests,
routing decisions and resilience ledgers (:mod:`repro.obs.bridge`).
Nothing is recorded while the simulation runs, so observing a run
cannot change it, and a report builds the same bundle whether or not
its run carried an observer.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Dict, List, Optional, Tuple

from ..errors import check_real
from ..serving.scheduler import EventLog, StepLog
from .bridge import _ADMIT, _ARRIVAL, _COMPLETE, _PREFILL_START, _WITHDRAW
from .bridge import fault_rows, fleet_rows, lifecycle_rows, routing_rows, step_rows
from .metrics import MetricsRegistry
from .perfetto import to_perfetto, write_perfetto
from .spans import FleetTrace

__all__ = ["FleetObserver", "ObsBundle"]

#: Batch-size histogram boundaries (requests per decode iteration).
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Counters of logged events: (counter name, the kind's code in a log).
_LOG_COUNTS = (
    ("requests_admitted", _ADMIT),
    ("requests_completed", _COMPLETE),
    ("requests_withdrawn", _WITHDRAW),
)

#: Fault counters by fault kind.
_FAULT_COUNTS = {"crash": "crashes", "brownout": "brownouts"}

#: The per-shard gauges, in the order :func:`_samples` returns values.
_GAUGES = ("kv_reserved_bytes", "queue_depth", "inflight_decodes", "waiting_requests")


def _samples(log: EventLog, steps: StepLog, tick_s: float) -> Tuple[List[float], ...]:
    """A shard's gauge samples as columns (times, then float values per
    gauge in :data:`_GAUGES` order), taken at its first step's end, then
    at each step end ``tick_s`` or more after the last, as a live sampler.

    KV and queue depth are the last logged event's; decoding and
    waiting requests come from replaying the log to the step's end.
    """
    events = zip(log.kind, log.request_id)
    columns = times, kv_col, queue_col, decoding_col, waiting_col = [], [], [], [], []
    decoding = set()
    waiting = done = 0
    next_s = 0.0
    for t_s, end in zip(steps.t1_s, steps.events):
        for code, rid in islice(events, end - done):
            if code == _ARRIVAL:
                waiting += 1
            elif code == _PREFILL_START:
                waiting -= 1
                decoding.add(rid)
            elif code == _WITHDRAW and rid not in decoding:
                waiting -= 1
            elif code != _ADMIT:  # a completion, or a crash mid-decode
                decoding.discard(rid)
        done = end
        if t_s >= next_s:
            next_s = t_s + tick_s
            times.append(t_s)
            kv_col.append(float(log.kv_reserved_bytes[end - 1]))
            queue_col.append(float(log.queue_depth[end - 1]))
            decoding_col.append(float(len(decoding)))
            waiting_col.append(float(waiting))
    return columns


class FleetObserver(object):
    """Builds a finished run's trace and metrics; ``tick_s`` is the
    simulated-time gauge sampling interval."""

    def __init__(self, tick_s: float = 0.05) -> None:
        self.tick_s = check_real("tick_s", tick_s, 0, math.inf, "(]")

    def build(self, report) -> "ObsBundle":
        """The trace and metrics of one finished run.

        ``report`` is a ``FleetReport``, a ``ServingReport`` or a
        ``ServingResult`` (shard 0). Metrics are computed now, in a
        registry of this run's own; the trace is assembled on the
        bundle's first export or ``.trace`` read. Building twice gives
        equal bundles.
        """
        result = getattr(report, "result", report)
        shards = getattr(result, "shard_results", (result,))
        decisions = getattr(result, "decisions", ())
        resilience = getattr(report, "resilience", None)
        faults = ledger = ()
        if resilience is not None:
            faults, ledger = resilience.faults, resilience.ledger
        registry = MetricsRegistry()
        for shard_id, shard in enumerate(shards):
            self._shard_metrics(registry, str(shard_id), shard.events, shard.steps)
        for d in decisions:
            if d.migrated_from is None:
                registry.counter("requests_routed", shard=d.shard_id).inc()
            else:
                registry.counter(
                    "migrations", thief=d.shard_id, donor=d.migrated_from
                ).inc()
        for f in faults:
            registry.counter(_FAULT_COUNTS[f.kind.value], shard=f.shard_id).inc()
        for t, name, *rest in ledger:
            if name == "SHARDS_UP":
                registry.gauge("shards_up").record(t, float(rest[0]))
            elif name == "RETRY":
                registry.counter("retries").inc()
            elif name == "SHED":
                registry.counter("requests_shed", reason=rest[1]).inc()
            else:
                registry.counter(f"requests_{name.lower()}").inc()

        def assemble() -> FleetTrace:
            spans = fault_rows(faults)
            for shard_id, shard in enumerate(shards):
                log, steps = shard.events, shard.steps
                # A scheduler logs PREFILL_START, then runs that prefill:
                # its n-th prefill step ends at its n-th prefill's first
                # token.
                first = [t1 for t1, k in zip(steps.t1_s, steps.k) if not k]
                spans.extend(lifecycle_rows(shard_id, log, first))
                spans.extend(step_rows(shard_id, log, steps))
            instants = fleet_rows(
                getattr(result, "submitted", ()), getattr(result, "n_initial", 0),
                ledger,
            )
            if decisions:
                instants.extend(routing_rows(decisions, result.policy_name))
            return FleetTrace(spans, instants, len(shards))

        return ObsBundle(metrics=registry, _assemble=assemble)

    def _shard_metrics(
        self, registry: MetricsRegistry, shard: str, log: EventLog, steps: StepLog
    ) -> None:
        """One shard's logged-event counters, decode iterations, batch
        histogram and gauges. The histogram counts decode iterations,
        not runs, so it reads the same however they were coalesced."""
        for name, code in _LOG_COUNTS:
            registry.counter(name, shard=shard).value = float(log.kind.count(code))
        batch = registry.histogram("batch_size", BATCH_BUCKETS, shard=shard)
        iterations = registry.counter("decode_iterations", shard=shard)
        for k, n in zip(steps.k, steps.batch):
            if k:
                batch.observe(float(n), k)
                iterations.inc(k)
        times, *columns = _samples(log, steps, self.tick_s)
        for name, values in zip(_GAUGES, columns):
            registry.gauge(name, shard=shard).extend(times, values)


class ObsBundle(object):
    """The exportable artifact pair attached to a report.

    ``trace`` is assembled from the report on first access (then
    cached): sorted rows, which the exports write directly, with span
    and instant objects made only if read. ``metrics`` is the run's
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
