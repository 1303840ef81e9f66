"""Deployment serialization: packed weights as portable byte blobs.

A real MEADOW deployment ships packed weights to the device as flat
images in DRAM. This module defines that container: a versioned,
checksummed binary encoding of a :class:`PackedWeights` (and a
whole-model archive of many), round-tripping bit-exactly through
``dumps``/``loads``.

Layout of one matrix blob (all integers little-endian):

    magic  'MDWP' | version u16 | chunk_size u16 | packet_size u16 |
    n_modes u16 | mode precisions u8[n_modes] | rows u32 | cols u32 |
    n_ids u64 | total_bits u64 | n_unique u32 | level u8 |
    weight_bits u8 | pad u8[2] |
    unique matrix int8[n_unique * chunk_size] |
    packet modes u8[n_packets] | payload bytes | crc32 u32

The packet-mode bytes duplicate information recoverable from the payload
(the hardware WILU re-derives them); they are stored so the *fast*
vectorized parser can decode without a sequential pass, mirroring
:class:`~repro.packing.bitpack.PackedStream`.
"""

from __future__ import annotations

import struct
import zlib
from typing import Dict

import numpy as np

from ..errors import PackingError
from .bitpack import PackedStream
from .chunking import EncodedMatrix, UniqueMatrix
from .modes import ModeTable
from .pipeline import PackedWeights, PackingConfig, PackingLevel

__all__ = ["dumps", "loads", "dump_model", "load_model"]

_MAGIC = b"MDWP"
_VERSION = 1
_LEVELS = {level: i for i, level in enumerate(PackingLevel)}
_LEVELS_INV = {i: level for level, i in _LEVELS.items()}


def dumps(packed: PackedWeights) -> bytes:
    """Serialize one packed matrix to a checksummed byte blob."""
    stream = packed.stream
    table = stream.mode_table
    rows, cols = packed.encoded.shape
    if table.n_modes > 255:
        raise PackingError("mode table too large for the container format")

    header = struct.pack(
        "<4sHHHH",
        _MAGIC,
        _VERSION,
        packed.config.chunk_size,
        stream.packet_size,
        table.n_modes,
    )
    header += bytes(table.precisions)
    header += struct.pack(
        "<IIQQIBB2x",
        rows,
        cols,
        stream.n_ids,
        stream.total_bits,
        packed.encoded.unique.n_unique,
        _LEVELS[packed.config.level],
        packed.weight_bits,
    )
    body = (
        packed.encoded.unique.chunks.tobytes()
        + stream.packet_modes.astype(np.uint8).tobytes()
        + stream.payload.tobytes()
    )
    blob = header + body
    return blob + struct.pack("<I", zlib.crc32(blob))


def loads(blob: bytes) -> PackedWeights:
    """Parse a blob back into a :class:`PackedWeights` (verifies CRC)."""
    if len(blob) < 4 + 2 + 8 + 4:
        raise PackingError("blob too short")
    payload_part, crc_bytes = blob[:-4], blob[-4:]
    (crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(payload_part) != crc:
        raise PackingError("CRC mismatch: blob corrupted")

    off = 0
    magic, version, chunk_size, packet_size, n_modes = struct.unpack_from(
        "<4sHHHH", blob, off
    )
    off += struct.calcsize("<4sHHHH")
    if magic != _MAGIC:
        raise PackingError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise PackingError(f"unsupported container version {version}")
    precisions = tuple(blob[off : off + n_modes])
    off += n_modes
    rows, cols, n_ids, total_bits, n_unique, level_code, weight_bits = struct.unpack_from(
        "<IIQQIBB2x", blob, off
    )
    off += struct.calcsize("<IIQQIBB2x")

    table = ModeTable(precisions)
    config = PackingConfig(
        chunk_size=chunk_size,
        packet_size=packet_size,
        level=_LEVELS_INV[level_code],
        n_modes=max(1, len(precisions)),
        weight_bits=weight_bits,
    )

    unique_bytes = n_unique * chunk_size
    chunks = np.frombuffer(blob, dtype=np.int8, count=unique_bytes, offset=off)
    chunks = chunks.reshape(n_unique, chunk_size).copy()
    off += unique_bytes

    n_packets = -(-n_ids // packet_size) if n_ids else 0
    modes = np.frombuffer(blob, dtype=np.uint8, count=n_packets, offset=off)
    modes = modes.astype(np.int64)
    off += n_packets

    payload_len = -(-total_bits // 8)
    payload = np.frombuffer(blob, dtype=np.uint8, count=payload_len, offset=off).copy()
    off += payload_len
    if off != len(payload_part):
        raise PackingError("trailing bytes in blob")

    stream = PackedStream(
        payload=payload,
        total_bits=total_bits,
        n_ids=n_ids,
        packet_size=packet_size,
        mode_table=table,
        packet_modes=modes,
    )
    # Rebuild the encoded view through the stream itself (the counts are
    # re-derived; they are statistics, not part of the matrix identity).
    from .bitpack import unpack_ids_fast

    ids = unpack_ids_fast(stream)
    counts = np.bincount(ids, minlength=n_unique).astype(np.int64)
    unique = UniqueMatrix(chunks=chunks, counts=counts)
    pad = (-cols) % chunk_size
    encoded = EncodedMatrix(
        ids=ids, unique=unique, shape=(rows, cols), pad_elements=pad * rows
    )
    return PackedWeights(
        encoded=encoded, stream=stream, config=config, weight_bits=weight_bits
    )


def dump_model(matrices: Dict[str, PackedWeights]) -> bytes:
    """Serialize a whole model's packed matrices into one archive."""
    parts = [struct.pack("<4sI", b"MDWA", len(matrices))]
    for name, packed in matrices.items():
        name_b = name.encode("utf-8")
        if len(name_b) > 65535:
            raise PackingError(f"matrix name too long: {name!r}")
        blob = dumps(packed)
        parts.append(struct.pack("<H", len(name_b)) + name_b)
        parts.append(struct.pack("<Q", len(blob)) + blob)
    return b"".join(parts)


def load_model(archive: bytes) -> Dict[str, PackedWeights]:
    """Parse a model archive back into named packed matrices."""
    off = 0
    magic, count = struct.unpack_from("<4sI", archive, off)
    off += struct.calcsize("<4sI")
    if magic != b"MDWA":
        raise PackingError(f"bad archive magic {magic!r}")
    out: Dict[str, PackedWeights] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", archive, off)
        off += 2
        name = archive[off : off + name_len].decode("utf-8")
        off += name_len
        (blob_len,) = struct.unpack_from("<Q", archive, off)
        off += 8
        out[name] = loads(archive[off : off + blob_len])
        off += blob_len
    if off != len(archive):
        raise PackingError("trailing bytes in archive")
    return out
