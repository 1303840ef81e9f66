"""On-chip memory models: BRAMs and double-buffered register files.

MEADOW stages data as DRAM -> BRAM -> register file (RF) -> PE. The BRAMs
(1 MB each for weights / inputs / outputs on the ZCU102 build) bound how
much of a matrix can be resident at once, and therefore how many DRAM
passes a layer needs. RFs (4 KB) are double-buffered (Fig. 2b) so the next
tile's fill overlaps the current tile's compute; double buffering halves
the *usable* capacity.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CapacityError, ConfigError, check_count, check_real
from ..utils import ceil_div
from .config import HardwareConfig

__all__ = ["Bram", "RegisterFile", "OnChipMemorySystem", "kv_cache_budget_bytes"]


@dataclass(frozen=True)
class Bram:
    """A single on-chip block RAM with a fixed byte capacity."""

    name: str
    capacity_bytes: int

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(f"BRAM {self.name!r} capacity must be positive")

    def fits(self, num_bytes: int) -> bool:
        """Whether ``num_bytes`` can be resident at once."""
        return num_bytes <= self.capacity_bytes

    def passes_required(self, num_bytes: int) -> int:
        """How many full-capacity residencies covering ``num_bytes`` need."""
        if num_bytes < 0:
            raise ValueError(f"negative byte count: {num_bytes}")
        if num_bytes == 0:
            return 0
        return ceil_div(num_bytes, self.capacity_bytes)

    def require(self, num_bytes: int, what: str) -> None:
        """Raise :class:`CapacityError` unless ``num_bytes`` fits."""
        if not self.fits(num_bytes):
            raise CapacityError(
                f"{what} needs {num_bytes} B but {self.name} BRAM holds "
                f"{self.capacity_bytes} B"
            )


@dataclass(frozen=True)
class RegisterFile:
    """A per-PE register file, optionally double buffered."""

    name: str
    capacity_bytes: int
    double_buffered: bool = True

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigError(f"RF {self.name!r} capacity must be positive")

    @property
    def usable_bytes(self) -> int:
        """Bytes available to one tile (half the RF when double buffered)."""
        return self.capacity_bytes // 2 if self.double_buffered else self.capacity_bytes

    def max_elements(self, element_bits: int) -> int:
        """How many ``element_bits``-wide values one tile may hold."""
        if element_bits <= 0:
            raise ConfigError(f"element_bits must be positive, got {element_bits}")
        return (self.usable_bytes * 8) // element_bits

    def require_elements(self, n: int, element_bits: int, what: str) -> None:
        """Raise :class:`CapacityError` unless ``n`` elements fit in a tile."""
        if n > self.max_elements(element_bits):
            raise CapacityError(
                f"{what} needs {n} x {element_bits}-bit elements but RF "
                f"{self.name} tile holds {self.max_elements(element_bits)}"
            )


@dataclass(frozen=True)
class OnChipMemorySystem:
    """The three BRAMs and three RF classes of the MEADOW fabric."""

    weight_bram: Bram
    input_bram: Bram
    output_bram: Bram
    weight_rf: RegisterFile
    input_rf: RegisterFile
    output_rf: RegisterFile

    @classmethod
    def from_config(cls, config: HardwareConfig) -> "OnChipMemorySystem":
        """Instantiate the memory system described by a config."""
        db = config.double_buffered
        return cls(
            weight_bram=Bram("weight", config.weight_bram_bytes),
            input_bram=Bram("input", config.input_bram_bytes),
            output_bram=Bram("output", config.output_bram_bytes),
            weight_rf=RegisterFile("weight", config.weight_rf_bytes, db),
            input_rf=RegisterFile("input", config.input_rf_bytes, db),
            output_rf=RegisterFile("output", config.output_rf_bytes, db),
        )

    def weight_tile_elements(self, weight_bits: int) -> int:
        """Weight elements one PE can stage per tile."""
        return self.weight_rf.max_elements(weight_bits)

    def activation_resident(self, num_bytes: int) -> bool:
        """Whether an activation matrix can stay resident in input BRAM."""
        return self.input_bram.fits(num_bytes)


def kv_cache_budget_bytes(
    config: HardwareConfig,
    model,
    packed_weight_bits: int | None = None,
    reserve_fraction: float = 0.1,
) -> int:
    """DRAM bytes available for KV caches when ``model`` is deployed.

    KV caches share off-chip DRAM with the resident weights, so the
    serving budget is what remains of :attr:`HardwareConfig.
    dram_capacity_bytes` after the weight image and a runtime reserve
    (activations, packing metadata, I/O staging) are carved out.

    Args:
        config: the hardware instance (capacity + weight precision).
        model: the deployed :class:`~repro.models.TransformerConfig`.
        packed_weight_bits: total weight-image size in bits when packing
            shrinks the resident image; ``None`` uses the raw size at
            ``config.weight_bits``.
        reserve_fraction: fraction of total DRAM held back for runtime
            scratch.

    Raises:
        CapacityError: the model does not leave any KV headroom.
    """
    check_real("reserve_fraction", reserve_fraction, 0, 1, "[)")
    if packed_weight_bits is None:
        weight_bytes = model.total_weight_params * config.weight_bits // 8
    else:
        packed_weight_bits = check_count("packed_weight_bits", packed_weight_bits, 0)
        weight_bytes = ceil_div(packed_weight_bits, 8)
    reserve = int(config.dram_capacity_bytes * reserve_fraction)
    budget = config.dram_capacity_bytes - weight_bytes - reserve
    if budget <= 0:
        raise CapacityError(
            f"{model.name} weights ({weight_bytes} B) plus a {reserve} B reserve "
            f"exceed the {config.dram_capacity_bytes} B DRAM; no KV headroom"
        )
    return budget
