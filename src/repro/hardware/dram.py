"""Off-chip DRAM transfer model.

The paper's platform (ZCU102) has no HBM; all experiments sweep the
available off-chip bandwidth between 1 and 51 Gbps. At the 100 MHz core
clock this is 10–510 bits per cycle, i.e. 1.25–64 bytes per cycle —
narrow enough that weight and intermediate transfers dominate latency,
which is the premise of the whole paper.

The model is deliberately first-order: a transfer of ``n`` bits costs
``ceil(n / effective_bits_per_cycle)`` cycles. A burst-efficiency factor
(default 1.0) derates the raw bandwidth for row-activation / refresh
overheads when desired.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..errors import ConfigError
from .config import HardwareConfig

__all__ = ["DramModel"]


@dataclass(frozen=True)
class DramModel:
    """Cycle cost model for off-chip transfers under a fixed bandwidth."""

    bandwidth_gbps: float
    clock_hz: float
    burst_efficiency: float = 1.0

    def __post_init__(self) -> None:
        if self.bandwidth_gbps <= 0:
            raise ConfigError(f"bandwidth must be positive, got {self.bandwidth_gbps}")
        if self.clock_hz <= 0:
            raise ConfigError(f"clock must be positive, got {self.clock_hz}")
        if not (0.0 < self.burst_efficiency <= 1.0):
            raise ConfigError(f"burst efficiency must be in (0,1], got {self.burst_efficiency}")

    @classmethod
    def from_config(cls, config: HardwareConfig) -> "DramModel":
        """Build the DRAM model embedded in a :class:`HardwareConfig`."""
        return cls(
            bandwidth_gbps=config.dram_bandwidth_gbps,
            clock_hz=config.clock_hz,
            burst_efficiency=config.dram_burst_efficiency,
        )

    @cached_property
    def bits_per_cycle(self) -> float:
        """Effective DRAM bits deliverable per core cycle."""
        return self.bandwidth_gbps * 1e9 / self.clock_hz * self.burst_efficiency

    @property
    def bytes_per_cycle(self) -> float:
        """Effective DRAM bytes deliverable per core cycle."""
        return self.bits_per_cycle / 8.0

    def transfer_cycles(self, bits: float) -> float:
        """Cycles to move ``bits`` across the DRAM interface (either way).

        Fractional inputs are allowed (amortized header bits); the result
        is the exact real-valued cycle count, never rounded down — callers
        aggregating many transfers should not accumulate floor() error.
        """
        if bits < 0:
            raise ValueError(f"cannot transfer a negative bit count: {bits}")
        if bits == 0:
            return 0.0
        return max(1.0, bits / self.bits_per_cycle)

    def transfer_cycles_bytes(self, num_bytes: float) -> float:
        """Cycles to move ``num_bytes`` across the DRAM interface."""
        return self.transfer_cycles(num_bytes * 8.0)

    def transfer_seconds(self, bits: float) -> float:
        """Wall-clock seconds to move ``bits``."""
        return self.transfer_cycles(bits) / self.clock_hz
