"""First-order energy model for the MEADOW fabric.

The paper evaluates latency, not energy, but "low power" motivates the
whole design; the reproduction ships an energy ledger as an extension so
the packing / dataflow ablations can also be read in energy terms.

Constants are classic 45 nm estimates in the style of Horowitz (ISSCC'14,
"Computing's energy problem"), scaled to the int8 datapath:

=====================  ========  =========================================
Event                  Energy    Source / rationale
=====================  ========  =========================================
int8 MAC               0.25 pJ   8-bit multiply ~0.2 pJ + 32-bit add ~0.05
RF access (per byte)   0.3 pJ    small (<8 KB) SRAM ~1 pJ / 32-bit word
BRAM access (per byte) 1.5 pJ    ~1 MB SRAM macro ~5 pJ / 32-bit word
NoC hop (per byte)     0.8 pJ    on-chip wire energy, mm-scale traversal
DRAM (per bit)         20 pJ     LPDDR4-class interface, 15-40 pJ/bit
=====================  ========  =========================================

These are *relative-order* constants: DRAM traffic is ~2 orders costlier
than on-chip work per byte, which is the property the conclusions rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

from ..errors import check_real

__all__ = ["EnergyCosts", "EnergyLedger", "DEFAULT_ENERGY_COSTS"]


@dataclass(frozen=True)
class EnergyCosts:
    """Per-event energy constants in picojoules."""

    mac_pj: float = 0.25
    rf_pj_per_byte: float = 0.3
    bram_pj_per_byte: float = 1.5
    noc_pj_per_byte: float = 0.8
    dram_pj_per_bit: float = 20.0

    def __post_init__(self) -> None:
        for name in ("mac_pj", "rf_pj_per_byte", "bram_pj_per_byte",
                     "noc_pj_per_byte", "dram_pj_per_bit"):
            check_real(name, getattr(self, name), 0, math.inf, "[)")


DEFAULT_ENERGY_COSTS = EnergyCosts()


@dataclass
class EnergyLedger:
    """Accumulates energy by category; report in microjoules.

    Categories: ``mac``, ``rf``, ``bram``, ``noc``, ``dram``.
    """

    costs: EnergyCosts = field(default_factory=EnergyCosts)
    picojoules: Dict[str, float] = field(
        default_factory=lambda: {"mac": 0.0, "rf": 0.0, "bram": 0.0, "noc": 0.0, "dram": 0.0}
    )

    def add_macs(self, n: float) -> None:
        """Record ``n`` multiply-accumulate operations."""
        self.picojoules["mac"] += n * self.costs.mac_pj

    def add_rf_bytes(self, n: float) -> None:
        """Record ``n`` bytes moved through register files."""
        self.picojoules["rf"] += n * self.costs.rf_pj_per_byte

    def add_bram_bytes(self, n: float) -> None:
        """Record ``n`` bytes moved through BRAMs."""
        self.picojoules["bram"] += n * self.costs.bram_pj_per_byte

    def add_noc_bytes(self, n: float) -> None:
        """Record ``n`` bytes moved over the NoC."""
        self.picojoules["noc"] += n * self.costs.noc_pj_per_byte

    def add_dram_bits(self, n: float) -> None:
        """Record ``n`` bits moved over the DRAM interface."""
        self.picojoules["dram"] += n * self.costs.dram_pj_per_bit

    def merge(self, other: "EnergyLedger") -> None:
        """Fold another ledger's totals into this one."""
        for key, val in other.picojoules.items():
            self.picojoules[key] = self.picojoules.get(key, 0.0) + val

    @property
    def total_pj(self) -> float:
        """Total energy in picojoules."""
        return sum(self.picojoules.values())

    @property
    def total_uj(self) -> float:
        """Total energy in microjoules."""
        return self.total_pj / 1e6

    def breakdown_uj(self) -> Dict[str, float]:
        """Per-category energy in microjoules."""
        return {k: v / 1e6 for k, v in self.picojoules.items()}
