"""One-call serving simulation: engine + scenario -> fleet metrics.

:class:`ServingSimulator` is the serving analogue of
:class:`~repro.core.MeadowEngine`: it binds a deployed engine to
scheduler policy knobs and runs request scenarios against it.

>>> from repro import MeadowEngine, OPT_125M, zcu102_config
>>> from repro.serving import ServingSimulator, poisson_stream, LengthDistribution
>>> sim = ServingSimulator(MeadowEngine(OPT_125M, zcu102_config(12.0)))
>>> stream = poisson_stream(
...     16, 2.0,
...     LengthDistribution("uniform", 32, 128),
...     LengthDistribution("geometric", 16, 64),
...     seed=0,
... )
>>> metrics = sim.run(stream).metrics
>>> metrics.throughput_tok_s > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.meadow import MeadowEngine
from ..errors import check_count
from .metrics import FleetMetrics
from .request import RequestSource
from .scheduler import ContinuousBatchingScheduler, ServingResult, check_kv_budget

__all__ = ["ServingReport", "ServingSimulator"]


@dataclass(frozen=True)
class ServingReport:
    """A scheduler result paired with its fleet summary."""

    result: ServingResult
    metrics: FleetMetrics

    def describe(self) -> str:
        """Human-readable report of the whole run."""
        title = (
            f"serving {self.result.model_name} plan={self.result.plan_name} "
            f"— {self.result.source_name} scenario"
        )
        return self.metrics.format_report(title)


class ServingSimulator:
    """Run request scenarios against one deployed engine.

    The result's event log holds state changes only; every token's
    instant is in the records. To trace a run or sample its metrics,
    hand the report to :meth:`repro.obs.FleetObserver.build`, which
    reads them from the result's logs as shard 0.
    """

    def __init__(
        self,
        engine: MeadowEngine,
        kv_budget_bytes: Optional[int] = None,
        max_batch: int = 16,
        ctx_bucket: int = 1,
    ) -> None:
        self.engine = engine
        self.kv_budget_bytes = check_kv_budget("kv_budget_bytes", kv_budget_bytes)
        self.max_batch = check_count("max_batch", max_batch)
        self.ctx_bucket = check_count("ctx_bucket", ctx_bucket)

    def run(self, source: RequestSource) -> ServingReport:
        """Simulate one scenario to completion."""
        scheduler = ContinuousBatchingScheduler(
            self.engine,
            source,
            kv_budget_bytes=self.kv_budget_bytes,
            max_batch=self.max_batch,
            ctx_bucket=self.ctx_bucket,
        )
        result = scheduler.run()
        return ServingReport(result=result, metrics=FleetMetrics.from_result(result))
