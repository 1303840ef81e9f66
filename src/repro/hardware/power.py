"""Power model: validating the sub-10 W operating claim.

The paper positions the ZCU102 build as a "low power alternative with a
sub-10 Watt power budget". We estimate average power for a simulated
workload as

    P = P_static + E_dynamic / t

where ``E_dynamic`` comes from the per-event energy ledger (MACs, on-chip
movement, DRAM bits) and ``P_static`` from per-resource leakage
coefficients on the estimated fabric usage. Coefficients are 16 nm
UltraScale+-class figures; like the energy constants they are
relative-order values, documented here so sweeps remain interpretable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import check_real
from .config import HardwareConfig
from .energy import EnergyLedger
from .resources import ResourceEstimate, estimate_resources

__all__ = ["PowerModel", "PowerReport"]

#: Static (leakage + clocking) power coefficients.
_STATIC_W_PER_KLUT = 0.010
_STATIC_W_PER_DSP = 0.0008
_STATIC_W_PER_BRAM_TILE = 0.0015
#: Fixed PS + board overhead (the ZCU102 hosts an ARM subsystem).
_STATIC_BASE_W = 2.0


@dataclass(frozen=True)
class PowerReport:
    """Average power of one simulated workload."""

    static_w: float
    dynamic_w: float

    @property
    def total_w(self) -> float:
        """Average total power in watts."""
        return self.static_w + self.dynamic_w

    def within_budget(self, budget_w: float = 10.0) -> bool:
        """Whether the paper's power envelope holds."""
        return self.total_w <= budget_w


@dataclass(frozen=True)
class PowerModel:
    """Static + dynamic power estimator for one hardware config."""

    config: HardwareConfig

    def static_power_w(self, resources: ResourceEstimate | None = None) -> float:
        """Leakage/clocking power of the fabric build."""
        res = resources if resources is not None else estimate_resources(self.config)
        return (
            _STATIC_BASE_W
            + res.luts / 1000 * _STATIC_W_PER_KLUT
            + res.dsps * _STATIC_W_PER_DSP
            + res.bram_tiles * _STATIC_W_PER_BRAM_TILE
        )

    def report(self, energy: EnergyLedger, elapsed_s: float) -> PowerReport:
        """Average power for a workload with measured energy and runtime."""
        check_real("elapsed time", elapsed_s, 0, math.inf, "(]")
        dynamic_w = energy.total_pj * 1e-12 / elapsed_s
        return PowerReport(static_w=self.static_power_w(), dynamic_w=dynamic_w)
