"""Unified observability: request spans, fleet metrics, trace export.

The reproduction's production-style telemetry layer. A run records
nothing for it, so observing a run cannot change it:
:meth:`FleetObserver.build` reads a finished fleet or serving report
(the shards' event and step logs, the routing decisions and the
resilience ledgers, :mod:`repro.obs.bridge`) and builds

* **spans & instants** — every request's lifecycle (SUBMIT → ROUTE →
  QUEUE → PREFILL → DECODE → COMPLETE, plus RETRY/SHED/EXPIRED/LOST
  dispositions, WITHDRAW/MIGRATE steals, and CRASH/REWARM/BROWNOUT
  fault windows) and each shard's prefill steps and decode runs;
* **metrics** — labeled counters/gauges/histograms (per-shard KV
  occupancy, queue depth, batch size, in-flight decodes, retry/shed
  rates), gauges sampled on simulated-time ticks, exported as
  versioned JSON or CSV;
* **exporters** — Perfetto/Chrome ``trace_event`` JSON written from
  compact rows through per-kind templates (one track per shard,
  router→shard flow arrows), an ASCII fleet timeline, and the
  :mod:`repro.obs.bridge` that nests op-level cycle traces from
  :mod:`repro.sim.trace` under a request's PREFILL span.

``benchmarks/bench_obs_overhead.py`` bounds what an observed run
costs in CI.
"""

from .bridge import nest_op_trace, op_spans
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
from .tracer import FleetObserver, ObsBundle

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
    "ObsBundle",
    "to_perfetto",
    "write_perfetto",
    "validate_trace_events",
    "render_fleet_timeline",
    "op_spans",
    "nest_op_trace",
]
