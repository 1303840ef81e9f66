"""Unified observability: request spans, fleet metrics, trace export.

The reproduction's production-style telemetry layer.  A
:class:`FleetObserver` threads through the serving scheduler, the fleet
event calendar, routing, and the chaos layer, collecting:

* **spans & instants** — every request gets a lifecycle trace
  (SUBMIT → ROUTE → QUEUE → PREFILL → DECODE → COMPLETE, plus
  RETRY/SHED/EXPIRED/LOST dispositions, WITHDRAW/MIGRATE steals, and
  CRASH/REWARM/BROWNOUT fault windows). The QUEUE/PREFILL/DECODE spans
  are built after the run from the shards' event logs, and ROUTE and
  MIGRATE from the routing decisions (:mod:`repro.obs.bridge`);
* **metrics** — labeled counters/gauges/histograms sampled on
  simulated-time ticks (per-shard KV occupancy, queue depth, batch
  size, in-flight decodes, retry/shed rates), exported as versioned
  JSON or CSV;
* **exporters** — Perfetto/Chrome ``trace_event`` JSON written from
  compact rows through per-kind templates (one track per shard,
  router→shard flow arrows), an ASCII fleet timeline, and the
  :mod:`repro.obs.bridge` that nests op-level cycle traces from
  :mod:`repro.sim.trace` under a request's PREFILL span.

Observability is opt-in and free when off: with ``obs=None`` (the
default everywhere) no observer code runs and results are bit-identical
— a property test enforces it, and ``benchmarks/bench_obs_overhead.py``
bounds the enabled-mode cost in CI.
"""

from .bridge import nest_op_trace, op_spans, trace_from_report
from .gantt import render_fleet_timeline
from .metrics import (
    METRICS_SCHEMA,
    METRICS_SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .perfetto import to_perfetto, validate_trace_events, write_perfetto
from .spans import (
    CAT_FAULT,
    CAT_OP,
    CAT_REQUEST,
    CAT_STEP,
    OBS_SCHEMA,
    OBS_SCHEMA_VERSION,
    FleetTrace,
    Instant,
    Span,
)
from .tracer import FleetObserver, ObsBundle, ShardObs

__all__ = [
    "OBS_SCHEMA",
    "OBS_SCHEMA_VERSION",
    "CAT_REQUEST",
    "CAT_STEP",
    "CAT_FAULT",
    "CAT_OP",
    "Span",
    "Instant",
    "FleetTrace",
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FleetObserver",
    "ShardObs",
    "ObsBundle",
    "to_perfetto",
    "write_perfetto",
    "validate_trace_events",
    "render_fleet_timeline",
    "op_spans",
    "nest_op_trace",
    "trace_from_report",
]
