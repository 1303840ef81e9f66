"""Transformer model configurations.

The paper benchmarks decoder-only LLMs (OPT-125M, OPT-1.3B) and
encoder-only ViTs (DeiT-S, DeiT-B). For the performance model only the
*shapes* matter: layer count, model width, head count, FFN width, and
whether execution is autoregressive (prefill + decode) or single-pass
(ViT inference == prefill).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError, check_count

__all__ = ["TransformerConfig"]


@dataclass(frozen=True)
class TransformerConfig:
    """Shape description of one transformer model.

    Attributes:
        name: human-readable identifier (e.g. ``"opt-125m"``).
        n_layers: decoder/encoder block count.
        d_model: residual-stream width ``D``.
        n_heads: attention head count ``H``.
        d_ff: feed-forward inner width (``4*D`` for OPT and DeiT).
        max_seq_len: maximum supported context length.
        is_decoder: autoregressive (True: prefill+decode) or single-pass.
        activation: FFN non-linearity (OPT: ``relu``; DeiT: ``gelu``).
        fixed_tokens: for ViTs, the fixed token count per image (patches +
            class token); ``None`` for variable-length LLMs.
        n_kv_heads: grouped-query attention — number of shared K/V heads
            (``None`` = multi-head attention, one per query head). An
            extension beyond the paper's OPT models: GQA shrinks the KV
            cache and the K/V traffic the TPHS dataflow streams per head.
    """

    name: str
    n_layers: int
    d_model: int
    n_heads: int
    d_ff: int
    max_seq_len: int = 2048
    is_decoder: bool = True
    activation: str = "relu"
    fixed_tokens: int | None = None
    n_kv_heads: int | None = None

    def __post_init__(self) -> None:
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "max_seq_len"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}"
            )
        if self.activation not in ("relu", "gelu"):
            raise ConfigError(f"unsupported activation {self.activation!r}")
        for name in ("fixed_tokens", "n_kv_heads"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, check_count(name, getattr(self, name)))
        if self.n_kv_heads is not None and self.n_heads % self.n_kv_heads != 0:
            raise ConfigError(
                f"n_heads={self.n_heads} not divisible by n_kv_heads={self.n_kv_heads}"
            )

    @property
    def head_dim(self) -> int:
        """Per-head dimension ``HD = D / H``."""
        return self.d_model // self.n_heads

    @property
    def kv_heads(self) -> int:
        """Effective K/V head count (``n_heads`` for plain MHA)."""
        return self.n_kv_heads if self.n_kv_heads is not None else self.n_heads

    @property
    def kv_dim(self) -> int:
        """Width of the K/V projections (``kv_heads * head_dim``)."""
        return self.kv_heads * self.head_dim

    @property
    def attention_weight_params(self) -> int:
        """Weight parameters in one block's attention (Q, K, V, out proj)."""
        return 2 * self.d_model * self.d_model + 2 * self.d_model * self.kv_dim

    @property
    def mlp_weight_params(self) -> int:
        """Weight parameters in one block's FFN (fc1 + fc2)."""
        return 2 * self.d_model * self.d_ff

    @property
    def layer_weight_params(self) -> int:
        """Weight parameters of one full block (attention + FFN)."""
        return self.attention_weight_params + self.mlp_weight_params

    @property
    def total_weight_params(self) -> int:
        """Weight parameters across all blocks (embeddings excluded: they
        are gather operations, not GEMMs, and the paper's latency model
        covers the decoder stack only)."""
        return self.n_layers * self.layer_weight_params

    def layer_weight_bytes(self, weight_bits: int = 8) -> int:
        """Raw (unpacked) weight bytes of one block at ``weight_bits``."""
        return self.layer_weight_params * weight_bits // 8

    def kv_cache_bytes_per_layer(self, context_len: int, act_bits: int = 8) -> int:
        """KV-cache bytes one block holds for ``context_len`` tokens."""
        if context_len < 0:
            raise ValueError(f"context_len must be non-negative, got {context_len}")
        return 2 * context_len * self.kv_dim * act_bits // 8

    def validate_context(self, context_len: int) -> None:
        """Raise :class:`ConfigError` if a context exceeds the model limit."""
        if context_len > self.max_seq_len:
            raise ConfigError(
                f"context {context_len} exceeds {self.name} max_seq_len {self.max_seq_len}"
            )
