"""Design-space Pareto analysis: latency vs. fabric cost.

Fig. 12a asks *which dataflow* per (bandwidth, PE) point; a deployment
architect also asks *which point to build*. This module sweeps
configurations, prices each with the resource model, and extracts the
Pareto frontier of (LUT cost, latency) — the builds worth taping out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.plan import ExecutionPlan
from ..errors import ConfigError
from ..hardware import scaled_pe_config
from ..hardware.resources import FpgaPart, ResourceEstimate, estimate_resources
from ..models import TransformerConfig, prefill_workload
from ..packing import PackingPlanner
from ..sim.layer_sim import WorkloadSimulator

__all__ = ["DesignPoint", "design_space", "pareto_frontier"]


@dataclass(frozen=True)
class DesignPoint:
    """One candidate build with its cost and achieved latency."""

    n_pes: int
    bandwidth_gbps: float
    latency_s: float
    resources: ResourceEstimate

    @property
    def luts(self) -> int:
        """LUT cost (the scarce fabric resource on LUT-mapped builds)."""
        return self.resources.luts

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance on (cost, latency): no worse on both, better
        on at least one."""
        no_worse = self.luts <= other.luts and self.latency_s <= other.latency_s
        better = self.luts < other.luts or self.latency_s < other.latency_s
        return no_worse and better


def design_space(
    model: TransformerConfig,
    pe_counts: Sequence[int],
    bandwidths_gbps: Sequence[float],
    prompt_tokens: int = 512,
    plan: Optional[ExecutionPlan] = None,
    planner: Optional[PackingPlanner] = None,
    part: Optional[FpgaPart] = None,
) -> List[DesignPoint]:
    """Evaluate every (PE, bandwidth) candidate; optionally drop builds
    that do not fit ``part``."""
    if not pe_counts or not bandwidths_gbps:
        raise ConfigError("need at least one PE count and one bandwidth")
    run_plan = plan if plan is not None else ExecutionPlan.meadow()
    shared_planner = planner or (
        PackingPlanner() if run_plan.packing is not None else None
    )
    points: List[DesignPoint] = []
    for pes in pe_counts:
        for bw in bandwidths_gbps:
            config = scaled_pe_config(pes, bw)
            resources = estimate_resources(config)
            if part is not None and not resources.fits(part):
                continue
            sim = WorkloadSimulator(model, config, run_plan, shared_planner)
            total_cycles, _energy_uj = sim.totals(prefill_workload(model, prompt_tokens))
            points.append(
                DesignPoint(
                    n_pes=pes,
                    bandwidth_gbps=bw,
                    latency_s=config.cycles_to_seconds(total_cycles),
                    resources=resources,
                )
            )
    return points


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Non-dominated subset, sorted by LUT cost ascending."""
    frontier = [
        p
        for p in points
        if not any(q.dominates(p) for q in points)
    ]
    return sorted(frontier, key=lambda p: (p.luts, p.latency_s))
