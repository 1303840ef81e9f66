"""SmoothQuant-style activation-to-weight difficulty migration.

SmoothQuant (Xiao et al., 2023) observes that LLM activations carry
per-channel outliers that wreck per-tensor int8 quantization, while
weights are easy to quantize. It migrates the difficulty with a
per-input-channel rescale:

    Y = (X diag(s)^{-1}) (diag(s) W),    s_j = max|X_j|^alpha / max|W_j|^{1-alpha}

The transformed pair quantizes to W8A8 with far lower error. The paper
uses SmoothQuant-quantized OPT checkpoints; our reproduction uses the
same transformation on synthetic tensors, and the tests verify the
error-reduction property the technique exists for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, check_real
from .fake_quant import QuantizedTensor, quantize

__all__ = ["SmoothedPair", "smooth_scales", "smooth", "w8a8_matmul_error"]


@dataclass(frozen=True)
class SmoothedPair:
    """An activation/weight pair after difficulty migration."""

    activations: np.ndarray
    weights: np.ndarray
    scales: np.ndarray

    def quantized(self, bits: int = 8) -> tuple[QuantizedTensor, QuantizedTensor]:
        """Per-tensor quantized (activations, weights)."""
        return quantize(self.activations, bits=bits), quantize(self.weights, bits=bits)


def smooth_scales(x: np.ndarray, w: np.ndarray, alpha: float = 0.5) -> np.ndarray:
    """Per-input-channel migration scales ``s_j``.

    Args:
        x: calibration activations ``[n_samples, d_in]``.
        w: weights ``[d_in, d_out]``.
        alpha: migration strength in [0, 1]; 0.5 balances both sides.

    Returns:
        ``s`` of shape ``[d_in]``, strictly positive.
    """
    check_real("alpha", alpha, 0, 1)
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ConfigError(
            f"shape mismatch: activations {x.shape} vs weights {w.shape}"
        )
    act_max = np.abs(x).max(axis=0)
    w_max = np.abs(w).max(axis=1)
    act_max = np.where(act_max > 0, act_max, 1e-8)
    w_max = np.where(w_max > 0, w_max, 1e-8)
    s = act_max**alpha / w_max ** (1.0 - alpha)
    return np.where(s > 0, s, 1.0)


def smooth(x: np.ndarray, w: np.ndarray, alpha: float = 0.5) -> SmoothedPair:
    """Apply the SmoothQuant transformation to an (X, W) pair."""
    s = smooth_scales(x, w, alpha=alpha)
    return SmoothedPair(activations=x / s, weights=w * s[:, None], scales=s)


def w8a8_matmul_error(x: np.ndarray, w: np.ndarray, alpha: float | None = 0.5) -> float:
    """Relative Frobenius error of a W8A8 matmul vs the fp reference.

    ``alpha=None`` skips smoothing (the naive-quantization baseline);
    otherwise the pair is smoothed first. Used by tests and examples to
    demonstrate that smoothing reduces quantization error on
    outlier-bearing activations.
    """
    reference = x @ w
    if alpha is None:
        xq, wq = quantize(x), quantize(w)
    else:
        xq, wq = smooth(x, w, alpha=alpha).quantized()
    approx = xq.dequantize() @ wq.dequantize()
    denom = np.linalg.norm(reference)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(approx - reference) / denom)
