"""Hardware configuration for the MEADOW tiled accelerator.

The defaults mirror Table 1 of the paper (ZCU102 FPGA implementation):

====================================  =============
Parameter                             Value
====================================  =============
#Parallel & #Broadcasting PEs         84, 12
#Multipliers per PE                   64
#SM, #LN & #ReLU modules              84, 8, 8
Weight / Input / Output BRAM          1 MB each
Weight / Input / Output RF            4 KB each
Clock frequency                       100 MHz
====================================  =============

The off-chip DRAM bandwidth is the primary experimental knob of the paper
(1–51 Gbps) and is therefore a field of the config rather than a constant.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from math import inf

from ..errors import ConfigError, check_count, check_real
from ..utils import gbps_to_bits_per_cycle

__all__ = ["HardwareConfig", "ZCU102", "zcu102_config", "scaled_pe_config"]

KB = 1024
MB = 1024 * 1024


@dataclass(frozen=True)
class HardwareConfig:
    """Static description of one accelerator instance.

    All latency models in :mod:`repro.sim` consume one of these. Instances
    are immutable; derive variants with :meth:`replace`.
    """

    # Compute fabric
    n_parallel_pe: int = 84
    n_broadcast_pe: int = 12
    mults_per_pe: int = 64
    n_softmax_units: int = 84
    n_layernorm_units: int = 8
    n_nonlinear_units: int = 8

    # On-chip memory (bytes)
    weight_bram_bytes: int = 1 * MB
    input_bram_bytes: int = 1 * MB
    output_bram_bytes: int = 1 * MB
    weight_rf_bytes: int = 4 * KB
    input_rf_bytes: int = 4 * KB
    output_rf_bytes: int = 4 * KB

    # Timing / bandwidth
    clock_hz: float = 100e6
    dram_bandwidth_gbps: float = 12.0
    dram_burst_efficiency: float = 1.0

    # Off-chip DRAM capacity (bytes). The ZCU102 carries 4 GB of PS-side
    # DDR4; weights, KV caches and activations all live there, so this
    # bounds how many concurrent requests a serving deployment can hold.
    dram_capacity_bytes: int = 4 * 1024 * MB

    # Datapath precision
    act_bits: int = 8
    weight_bits: int = 8
    accumulator_bits: int = 32

    # Scheduling behaviour
    double_buffered: bool = True

    def __post_init__(self) -> None:
        counts = (
            "n_parallel_pe",
            "n_broadcast_pe",
            "mults_per_pe",
            "n_softmax_units",
            "n_layernorm_units",
            "n_nonlinear_units",
            "weight_bram_bytes",
            "input_bram_bytes",
            "output_bram_bytes",
            "weight_rf_bytes",
            "input_rf_bytes",
            "output_rf_bytes",
            "dram_capacity_bytes",
        )
        for name in counts:
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        check_real("clock_hz", self.clock_hz, 0, inf, "()")
        check_real("dram_bandwidth_gbps", self.dram_bandwidth_gbps, 0, inf, "(]")
        check_real("dram_burst_efficiency", self.dram_burst_efficiency, 0, 1, "(]")
        for name in ("act_bits", "weight_bits"):
            if getattr(self, name) not in (4, 8, 16, 32):
                raise ConfigError(f"{name} must be one of 4/8/16/32, got {getattr(self, name)}")
        if self.accumulator_bits < max(self.act_bits, self.weight_bits):
            raise ConfigError("accumulator narrower than operands")

    # ----------------------------------------------------------------- derived
    @property
    def n_total_pe(self) -> int:
        """Total PE count (parallel + broadcasting)."""
        return self.n_parallel_pe + self.n_broadcast_pe

    @property
    def dram_bits_per_cycle(self) -> float:
        """Raw DRAM bits deliverable per core clock cycle."""
        return gbps_to_bits_per_cycle(self.dram_bandwidth_gbps, self.clock_hz)

    @property
    def effective_dram_bits_per_cycle(self) -> float:
        """DRAM bits per cycle after the burst-efficiency derating."""
        return self.dram_bits_per_cycle * self.dram_burst_efficiency

    @property
    def peak_macs_per_cycle(self) -> int:
        """Peak multiply-accumulates per cycle over the parallel PEs."""
        return self.n_parallel_pe * self.mults_per_pe

    @property
    def peak_gops(self) -> float:
        """Peak throughput in GOPS (1 MAC = 2 ops), over all parallel PEs."""
        return self.peak_macs_per_cycle * 2 * self.clock_hz / 1e9

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to wall-clock seconds at this clock."""
        return cycles / self.clock_hz

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert a cycle count to milliseconds at this clock."""
        return self.cycles_to_seconds(cycles) * 1e3

    # ------------------------------------------------------------------ variants
    def replace(self, **changes: object) -> "HardwareConfig":
        """Return a copy with the given fields replaced (validates again)."""
        return dataclasses.replace(self, **changes)

    def with_bandwidth(self, gbps: float) -> "HardwareConfig":
        """Copy of this config at a different off-chip DRAM bandwidth."""
        return self.replace(dram_bandwidth_gbps=gbps)

    def with_total_pes(self, n_total: int) -> "HardwareConfig":
        """Copy with ``n_total`` PEs, split 7:1 parallel:broadcast like ZCU102.

        The paper's design-space study (Fig. 12a) sweeps total PE counts
        {14, 36, 48, 96}; the ZCU102 build uses 84 parallel + 12
        broadcasting = 96, a 7:1 ratio we preserve when scaling.
        """
        if n_total < 2:
            raise ConfigError(f"need at least 2 PEs (1 parallel + 1 broadcast), got {n_total}")
        n_broadcast = max(1, round(n_total / 8))
        n_parallel = n_total - n_broadcast
        return self.replace(n_parallel_pe=n_parallel, n_broadcast_pe=n_broadcast)


#: Table 1 configuration used for all headline results in the paper.
ZCU102 = HardwareConfig()


def zcu102_config(dram_bandwidth_gbps: float = 12.0) -> HardwareConfig:
    """The Table 1 ZCU102 configuration at a chosen DRAM bandwidth."""
    return ZCU102.with_bandwidth(dram_bandwidth_gbps)


def scaled_pe_config(n_total_pes: int, dram_bandwidth_gbps: float) -> HardwareConfig:
    """A ZCU102-derived config for the Fig. 12 design-space study."""
    return ZCU102.with_total_pes(n_total_pes).with_bandwidth(dram_bandwidth_gbps)
