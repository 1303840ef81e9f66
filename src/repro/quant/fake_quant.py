"""Absmax (symmetric) fake quantization for W8A8 execution.

The paper quantizes weights and activations to 8 bits with SmoothQuant
post-training quantization. This module provides the symmetric absmax
quantizer both SmoothQuant and our functional simulator build on:

    q = clip(round(x / scale), -2^{b-1}+1, 2^{b-1}-1),   scale = absmax / (2^{b-1}-1)

Per-tensor and per-channel granularities are supported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError

__all__ = ["QuantizedTensor", "absmax_scale", "quantize", "dequantize", "quantize_per_channel"]


def _check_bits(bits: int) -> None:
    if bits not in (4, 8, 16):
        raise ConfigError(f"bits must be 4, 8 or 16, got {bits}")


def _int_dtype(bits: int) -> np.dtype:
    return np.dtype(np.int8) if bits <= 8 else np.dtype(np.int16)


@dataclass(frozen=True)
class QuantizedTensor:
    """An integer tensor with its dequantization scale(s).

    ``scale`` is a scalar for per-tensor quantization or an array
    broadcastable against ``data`` for per-channel quantization.
    """

    data: np.ndarray
    scale: np.ndarray
    bits: int

    def __post_init__(self) -> None:
        _check_bits(self.bits)
        limit = 2 ** (self.bits - 1) - 1
        if self.data.size and (self.data.max() > limit or self.data.min() < -limit):
            raise ConfigError(f"quantized data exceeds {self.bits}-bit symmetric range")

    def dequantize(self) -> np.ndarray:
        """Recover the float approximation ``data * scale``."""
        return self.data.astype(np.float64) * self.scale

    @property
    def shape(self) -> tuple:
        """Shape of the integer payload."""
        return self.data.shape


def absmax_scale(x: np.ndarray, bits: int = 8, axis: int | None = None) -> np.ndarray:
    """Symmetric absmax scale: ``max|x| / (2^{b-1}-1)`` (never zero).

    With ``axis`` given, the scale is computed per slice along that axis
    and keeps its dimension for broadcasting.
    """
    _check_bits(bits)
    limit = 2 ** (bits - 1) - 1
    # A zero range, or one so small that the quotient underflows (a
    # subnormal max|x|), falls back to 1/limit.
    if axis is None:
        amax = float(np.abs(x).max()) if x.size else 0.0
        return np.asarray(amax / limit if amax / limit > 0 else 1.0 / limit)
    amax = np.abs(x).max(axis=axis, keepdims=True)
    return np.where(amax / limit > 0, amax, 1.0) / limit


def quantize(x: np.ndarray, bits: int = 8, axis: int | None = None) -> QuantizedTensor:
    """Symmetric fake quantization of ``x`` (per-tensor or per-axis)."""
    scale = absmax_scale(x, bits=bits, axis=axis)
    limit = 2 ** (bits - 1) - 1
    q = np.clip(np.round(x / scale), -limit, limit).astype(_int_dtype(bits))
    return QuantizedTensor(data=q, scale=np.asarray(scale), bits=bits)


def quantize_per_channel(w: np.ndarray, bits: int = 8) -> QuantizedTensor:
    """Per-output-channel quantization of a ``[out, in]`` weight matrix."""
    if w.ndim != 2:
        raise ConfigError(f"expected a 2-D weight matrix, got shape {w.shape}")
    return quantize(w, bits=bits, axis=1)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    """Convenience wrapper over :meth:`QuantizedTensor.dequantize`."""
    return q.dequantize()
