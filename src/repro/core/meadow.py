"""MeadowEngine: the user-facing facade over the whole framework.

One object binds a model, a hardware configuration and an execution plan,
and exposes the paper's measurement surface:

>>> from repro import MeadowEngine, OPT_125M, zcu102_config
>>> engine = MeadowEngine(OPT_125M, zcu102_config(dram_bandwidth_gbps=12))
>>> engine.prefill(512).latency_ms        # TTFT
>>> engine.decode(576).latency_ms         # TBT for the 64th token
>>> engine.generate(512, 64).total_s      # end-to-end
>>> engine.packing_summary().compression  # whole-model weight compression
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ConfigError
from ..hardware import HardwareConfig, zcu102_config
from ..models import (
    TransformerConfig,
    Workload,
    decode_workload,
    prefill_workload,
    vit_workload,
)
from ..packing import PackingPlanner
from ..sim.breakdown import StageReport
from ..sim.layer_sim import WorkloadSimulator
from ..sim.metrics import GenerationLatency, end_to_end
from ..sim.surface import LatencySurface, SurfacePoint
from .plan import ExecutionPlan
from .selector import DataflowDecision, choose_dataflow

__all__ = ["MeadowEngine", "PackingSummary"]


@dataclass(frozen=True)
class PackingSummary:
    """Whole-model weight-packing outcome."""

    raw_bits: int
    packed_bits: int

    @property
    def compression(self) -> float:
        """Raw over packed transfer volume."""
        return self.raw_bits / self.packed_bits

    @property
    def raw_mbytes(self) -> float:
        """Raw weight volume in megabytes."""
        return self.raw_bits / 8 / 1e6

    @property
    def packed_mbytes(self) -> float:
        """Packed weight volume in megabytes."""
        return self.packed_bits / 8 / 1e6


class MeadowEngine:
    """Simulated MEADOW deployment of one model on one hardware config."""

    def __init__(
        self,
        model: TransformerConfig,
        config: Optional[HardwareConfig] = None,
        plan: Optional[ExecutionPlan] = None,
        planner: Optional[PackingPlanner] = None,
    ) -> None:
        """Args:
        model: transformer to deploy (see :mod:`repro.models`).
        config: hardware instance; defaults to the ZCU102 at 12 Gbps.
        plan: execution plan; defaults to the full MEADOW system.
        planner: optional shared packing planner (for cache reuse).
        """
        self.model = model
        self.config = config if config is not None else zcu102_config()
        self.plan = plan if plan is not None else ExecutionPlan.meadow()
        self._sim = WorkloadSimulator(model, self.config, self.plan, planner)
        self._surface: Optional[LatencySurface] = None
        self._packing_summary: Optional[PackingSummary] = None

    @property
    def planner(self) -> Optional[PackingPlanner]:
        """The packing planner in use (None when packing is disabled)."""
        return self._sim.planner

    # ----------------------------------------------------------- inference
    def prefill(self, prompt_tokens: int, batch: int = 1) -> StageReport:
        """Simulate the prefill pass (TTFT measurement)."""
        return self._sim.simulate(prefill_workload(self.model, prompt_tokens, batch))

    def decode(self, context_len: int, batch: int = 1) -> StageReport:
        """Simulate one decode step over ``context_len`` total tokens."""
        return self._sim.simulate(decode_workload(self.model, context_len, batch))

    def simulate(self, workload: Workload) -> StageReport:
        """Simulate an arbitrary workload through this engine's planner."""
        return self._sim.simulate(workload)

    @property
    def surface(self) -> LatencySurface:
        """The engine's lazily built latency surface (see :mod:`repro.sim.surface`)."""
        if self._surface is None:
            self._surface = LatencySurface(self._sim)
        return self._surface

    def simulate_fast(self, workload: Workload) -> SurfacePoint:
        """Scalar (latency, cycles, energy) for a workload, via the surface.

        Exactly :meth:`simulate`'s numbers — the surface fills entries
        through the same simulator — but each distinct operating point
        is simulated once and retained as a few floats, so serving-style
        callers can hit millions of repeats without holding (or
        evicting) full per-op reports. Use :meth:`simulate` when the
        per-op breakdown itself is needed.
        """
        return self.surface.point(workload)

    def vit_inference(self) -> StageReport:
        """Simulate single-pass ViT inference (Fig. 13 workloads)."""
        return self._sim.simulate(vit_workload(self.model))

    def generate(
        self, prompt_tokens: int, new_tokens: int, sample_every: int = 32
    ) -> GenerationLatency:
        """End-to-end prompt + generation latency."""
        return end_to_end(
            self.model,
            self.config,
            self.plan,
            prompt_tokens,
            new_tokens,
            sample_every=sample_every,
            planner=self._sim.planner,
        )

    # ------------------------------------------------------------- analysis
    def packing_summary(self) -> PackingSummary:
        """Whole-model weight transfer volumes under the plan's packing.

        Memoized: the summary is a pure function of (model, plan,
        planner), all immutable for the engine's lifetime, and callers
        like the serving scheduler request it on every construction.
        """
        if self._packing_summary is not None:
            return self._packing_summary
        if self._sim.planner is None or self.plan.packing is None:
            raise ConfigError(f"plan {self.plan.name!r} does not pack weights")
        raw, packed = self._sim.planner.model_bits(self.model)
        self._packing_summary = PackingSummary(raw_bits=raw, packed_bits=packed)
        return self._packing_summary

    def recommend_dataflow(self, n_tokens: int) -> DataflowDecision:
        """Which attention dataflow this config favours (Sec. 6.5)."""
        return choose_dataflow(self.config, self.model, n_tokens, self._sim.planner)

    def resource_estimate(self):
        """FPGA resource usage of this engine's hardware build."""
        from ..hardware.resources import estimate_resources

        return estimate_resources(self.config)

    def power_report(self, report: StageReport):
        """Average power while running a previously simulated workload."""
        from ..hardware.power import PowerModel

        return PowerModel(self.config).report(report.energy, report.latency_s)

    def clone(
        self,
        config: Optional[HardwareConfig] = None,
        plan: Optional[ExecutionPlan] = None,
    ) -> "MeadowEngine":
        """Cheap engine variant sharing this engine's packing planner.

        Packing statistics depend only on (model, packing config) — not
        on bandwidth or PE counts — so fleet sweeps that fan one
        deployment out across hardware variants reuse every memoized
        stat instead of re-deriving them per clone. The latency surface
        depends on hardware, so it starts empty in the clone. The
        planner is only shared when the clone keeps this engine's
        packing config; a different plan gets its own planner.
        """
        plan = plan if plan is not None else self.plan
        planner = self._sim.planner if plan.packing == self.plan.packing else None
        return MeadowEngine(
            self.model,
            config if config is not None else self.config,
            plan,
            planner,
        )

    def with_bandwidth(self, gbps: float) -> "MeadowEngine":
        """Clone the engine at a different DRAM bandwidth (sweeps)."""
        return self.clone(config=self.config.with_bandwidth(gbps))
