"""High-level weight-packing API: the three optimization levels of Fig. 10.

==========  ===============================================================
Level       Meaning (cumulative)
==========  ===============================================================
NAIVE       indexing + homogeneous ``ceil(log2 U)``-bit IDs (Opt. 1 + naive
            packing of Fig. 4b left)
PACKET      + packet-specific encoding precision via mode fields (Opt. 2)
REINDEX     + frequency-aware re-indexing before packing (Opt. 3)
==========  ===============================================================

All levels are lossless: ``PackedWeights.decode()`` reproduces the input
matrix bit-for-bit (property-tested). Size accounting covers everything a
real transfer ships: packet payloads, the unique matrix, and the mode
table header.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import ConfigError, PackingError, check_count
from .bitpack import PackedStream, pack_ids, stream_bits_only
from .chunking import EncodedMatrix, encode_matrix
from .modes import ModeTable, optimal_mode_table, spread_mode_table, uniform_mode_table
from .reindex import frequency_reindex
from .wilu import WiluDecoder

__all__ = ["PackingLevel", "PackingConfig", "PackedWeights", "pack_weights", "packed_size_bits"]

#: Fixed per-matrix header: chunk size, packet size, counts, shape fields.
_FIXED_HEADER_BITS = 96


class PackingLevel(enum.Enum):
    """Cumulative optimization levels of the packing ablation (Fig. 10a)."""

    NAIVE = "naive"
    PACKET = "packet"
    REINDEX = "reindex"


@dataclass(frozen=True)
class PackingConfig:
    """Tunable knobs of the packing pipeline.

    ``weight_bits`` extends the paper's W8 setting to int4 checkpoints
    (AWQ-style): values still travel in int8 containers, but raw sizes,
    the unique-matrix transfer and compression ratios are accounted at
    4 bits per element, and inputs are range-checked to [-8, 7].
    """

    chunk_size: int = 2
    packet_size: int = 8
    level: PackingLevel = PackingLevel.REINDEX
    n_modes: int = 8
    optimize_modes: bool = False
    weight_bits: int = 8

    def __post_init__(self) -> None:
        try:
            for name in ("chunk_size", "packet_size", "n_modes"):
                object.__setattr__(self, name, check_count(name, getattr(self, name)))
        except ConfigError as exc:
            raise PackingError(str(exc)) from None
        if self.weight_bits not in (4, 8):
            raise PackingError(f"weight_bits must be 4 or 8, got {self.weight_bits}")


@dataclass(frozen=True)
class PackedWeights:
    """A fully packed weight matrix with complete size accounting."""

    encoded: EncodedMatrix
    stream: PackedStream
    config: PackingConfig
    weight_bits: int = 8

    @property
    def payload_bits(self) -> int:
        """Wire bits of the packed packet stream."""
        return self.stream.total_bits

    @property
    def unique_matrix_bits(self) -> int:
        """Wire bits of the (re-indexed) unique matrix."""
        return self.encoded.unique.storage_bits(self.weight_bits)

    @property
    def header_bits(self) -> int:
        """Wire bits of the mode table and fixed descriptors."""
        return self.stream.mode_table.header_bits() + _FIXED_HEADER_BITS

    @property
    def total_bits(self) -> int:
        """Everything a DRAM transfer of this matrix ships."""
        return self.payload_bits + self.unique_matrix_bits + self.header_bits

    @property
    def raw_bits(self) -> int:
        """Bits of the unpacked int8 matrix (the GEMM baseline transfer)."""
        n, m = self.encoded.shape
        return n * m * self.weight_bits

    @property
    def compression_ratio(self) -> float:
        """Raw bits over packed bits — the paper's weight-fetch speedup
        at a fixed DRAM bandwidth."""
        return self.raw_bits / self.total_bits

    def decode(self, fast: bool = True) -> np.ndarray:
        """Reconstruct the original matrix through the WILU model."""
        decoder = WiluDecoder(self.encoded.unique)
        return decoder.decode_matrix(self.stream, self.encoded.shape, fast=fast)


def _check_value_range(w: np.ndarray, weight_bits: int) -> None:
    """Reject values outside the symmetric ``weight_bits`` grid."""
    if weight_bits == 8 or w.size == 0:
        return
    limit = 2 ** (weight_bits - 1)
    if int(w.max()) >= limit or int(w.min()) < -limit:
        raise PackingError(
            f"values exceed the int{weight_bits} range [-{limit}, {limit - 1}]"
        )


def _encode(
    w: np.ndarray, config: Optional[PackingConfig], overrides: dict
) -> Tuple[PackingConfig, EncodedMatrix, ModeTable]:
    """The config, (re-indexed) encoding and mode table packing ``w``
    implies: everything but the packet stream itself."""
    if config is None:
        config = PackingConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        raise PackingError("pass either a PackingConfig or keyword overrides, not both")
    _check_value_range(w, config.weight_bits)
    encoded = encode_matrix(w, config.chunk_size)
    if config.level is PackingLevel.REINDEX:
        encoded = frequency_reindex(encoded)
    if config.level is PackingLevel.NAIVE:
        table = uniform_mode_table(encoded.id_bits)
    elif config.optimize_modes:
        table = optimal_mode_table(
            encoded.ids, config.packet_size, config.n_modes, id_bits=encoded.id_bits
        )
    else:
        table = spread_mode_table(encoded.id_bits, config.n_modes)
    return config, encoded, table


def pack_weights(
    w: np.ndarray,
    config: Optional[PackingConfig] = None,
    **overrides: object,
) -> PackedWeights:
    """Pack one int8 weight matrix end to end.

    Args:
        w: int8 matrix ``[N, M]`` with the reduction dimension last.
        config: packing knobs; keyword overrides build one ad hoc
            (e.g. ``pack_weights(w, level=PackingLevel.NAIVE)``).

    Returns:
        :class:`PackedWeights`; ``.decode()`` equals ``w`` exactly.
    """
    config, encoded, table = _encode(w, config, overrides)
    stream = pack_ids(encoded.ids, config.packet_size, table)
    return PackedWeights(
        encoded=encoded, stream=stream, config=config, weight_bits=config.weight_bits
    )


def packed_size_bits(w: np.ndarray, config: Optional[PackingConfig] = None, **overrides: object) -> int:
    """Total wire bits of packing ``w`` without materializing the stream.

    Identical accounting to :attr:`PackedWeights.total_bits`; used by the
    performance planner where only the size matters.
    """
    config, encoded, table = _encode(w, config, overrides)
    payload = stream_bits_only(encoded.ids, config.packet_size, table)
    return (
        payload
        + encoded.unique.storage_bits(config.weight_bits)
        + table.header_bits()
        + _FIXED_HEADER_BITS
    )
