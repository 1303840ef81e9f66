"""Workload descriptions: what one simulated pass computes.

The paper's two LLM operating points:

* **Prefill** — the prompt's ``T`` tokens traverse all blocks at once
  (measured as TTFT, time-to-first-token).
* **Decode** — one token traverses all blocks attending over the full
  context (measured as TBT, time-between-tokens, quoted for "the Nth
  generated token after a 512-token prefill", i.e. ``kv_len = 512 + N``).

ViT inference (Fig. 13) is a prefill over a fixed 197-token image.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigError, check_count
from .config import TransformerConfig
from .layers import LayerOp, decoder_layer_ops

__all__ = [
    "Stage",
    "Workload",
    "prefill_workload",
    "decode_workload",
    "vit_workload",
]


class Stage(enum.Enum):
    """Which inference stage a workload represents."""

    PREFILL = "prefill"
    DECODE = "decode"


@dataclass(frozen=True)
class Workload:
    """One simulated pass over every block of a model.

    ``batch`` (extension) runs several sequences concurrently: per-
    sequence token counts stay as documented, weight fetches amortize.
    """

    model: TransformerConfig
    stage: Stage
    n_tokens: int
    kv_len: int
    batch: int = 1

    def __post_init__(self) -> None:
        for name in ("n_tokens", "kv_len", "batch"):
            object.__setattr__(self, name, check_count(name, getattr(self, name)))
        if self.stage is Stage.DECODE and self.n_tokens != 1:
            raise ConfigError("decode workloads process exactly one token per sequence")
        if self.stage is Stage.PREFILL and self.kv_len != self.n_tokens:
            raise ConfigError("prefill attends over exactly the prompt tokens")

    def layer_ops(self) -> Tuple[LayerOp, ...]:
        """Op sequence of one block under this workload."""
        return decoder_layer_ops(self.model, self.n_tokens, self.kv_len, self.batch)

    @property
    def total_macs(self) -> int:
        """MAC count across all blocks."""
        return self.model.n_layers * sum(op.macs for op in self.layer_ops())

    @property
    def description(self) -> str:
        """Human-readable one-liner for reports."""
        if self.stage is Stage.PREFILL:
            return f"{self.model.name} prefill T={self.n_tokens}"
        return f"{self.model.name} decode ctx={self.kv_len}"


def prefill_workload(
    model: TransformerConfig, prompt_tokens: int, batch: int = 1
) -> Workload:
    """Prefill of ``prompt_tokens`` tokens (TTFT measurement point)."""
    prompt_tokens = check_count("prompt_tokens", prompt_tokens)
    model.validate_context(prompt_tokens)
    return Workload(model, Stage.PREFILL, prompt_tokens, prompt_tokens, batch)


def decode_workload(
    model: TransformerConfig, context_len: int, batch: int = 1
) -> Workload:
    """Decode of one token attending over ``context_len`` total tokens.

    For "the Nth generated token after a ``P``-token prefill", pass
    ``context_len = P + N``. With ``batch > 1``, every sequence decodes
    one token at the same context length.
    """
    context_len = check_count("context_len", context_len)
    model.validate_context(context_len)
    return Workload(model, Stage.DECODE, 1, context_len, batch)


def vit_workload(model: TransformerConfig) -> Workload:
    """Single-pass ViT inference over the model's fixed token count."""
    if model.fixed_tokens is None:
        raise ConfigError(f"{model.name} has no fixed token count; not a ViT")
    return Workload(model, Stage.PREFILL, model.fixed_tokens, model.fixed_tokens)
