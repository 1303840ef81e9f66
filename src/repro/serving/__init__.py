"""Request-level serving: streams, continuous batching, fleet metrics.

Layers a discrete-event, multi-user serving simulator over the
single-request MEADOW performance model:

* :mod:`repro.serving.request` — requests, seeded arrival processes
  (Poisson / bursty / closed-loop) and length distributions;
* :mod:`repro.serving.scheduler` — the continuous-batching scheduler
  with KV-memory-constrained FCFS admission;
* :mod:`repro.serving.metrics` — fleet percentiles, throughput and KV
  occupancy;
* :mod:`repro.serving.simulator` — the one-call facade.
"""

from .metrics import FleetMetrics, LatencyPopulations
from .request import (
    ClosedLoopSource,
    LengthDistribution,
    Request,
    RequestSource,
    RequestStream,
    bursty_stream,
    poisson_stream,
)
from .scheduler import (
    ContinuousBatchingScheduler,
    EventKind,
    EventLog,
    RequestRecord,
    SchedulerEvent,
    SchedulerSnapshot,
    ServingResult,
    StepLog,
)
from .simulator import ServingReport, ServingSimulator

__all__ = [
    "Request",
    "RequestSource",
    "RequestStream",
    "LengthDistribution",
    "poisson_stream",
    "bursty_stream",
    "ClosedLoopSource",
    "EventKind",
    "SchedulerEvent",
    "EventLog",
    "StepLog",
    "SchedulerSnapshot",
    "RequestRecord",
    "ServingResult",
    "ContinuousBatchingScheduler",
    "FleetMetrics",
    "LatencyPopulations",
    "ServingReport",
    "ServingSimulator",
]
