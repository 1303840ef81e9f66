"""Model zoo: transformer shapes and workload builders.

Provides the OPT LLM family and DeiT ViT family configurations the paper
evaluates, the per-block operator graph, and prefill/decode workload
constructors.
"""

from .config import TransformerConfig
from .layers import (
    MATMUL_OP_KINDS,
    TPHS_ELIGIBLE_OPS,
    WEIGHT_OP_KINDS,
    LayerOp,
    OpKind,
    attention_ops,
    decoder_layer_ops,
    validate_pass,
)
from .opt import OPT_125M, OPT_350M, OPT_1_3B, OPT_MODELS
from .scaling import OPT_2_7B, OPT_6_7B, scaled_decoder, with_gqa
from .vit import DEIT_B, DEIT_S, VIT_MODELS, VIT_TOKENS
from .workload import (
    Stage,
    Workload,
    decode_workload,
    prefill_workload,
    vit_workload,
)

#: All named models, keyed by their ``name`` field.
MODEL_REGISTRY = {
    **OPT_MODELS,
    **VIT_MODELS,
    OPT_2_7B.name: OPT_2_7B,
    OPT_6_7B.name: OPT_6_7B,
}


def get_model(name: str) -> TransformerConfig:
    """Look a model up by name (e.g. ``"opt-125m"``, ``"deit-s"``)."""
    try:
        return MODEL_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_REGISTRY))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None


__all__ = [
    "TransformerConfig",
    "LayerOp",
    "OpKind",
    "decoder_layer_ops",
    "attention_ops",
    "validate_pass",
    "TPHS_ELIGIBLE_OPS",
    "WEIGHT_OP_KINDS",
    "MATMUL_OP_KINDS",
    "OPT_125M",
    "OPT_350M",
    "OPT_1_3B",
    "OPT_2_7B",
    "OPT_6_7B",
    "OPT_MODELS",
    "with_gqa",
    "scaled_decoder",
    "DEIT_S",
    "DEIT_B",
    "VIT_MODELS",
    "VIT_TOKENS",
    "MODEL_REGISTRY",
    "get_model",
    "Stage",
    "Workload",
    "prefill_workload",
    "decode_workload",
    "vit_workload",
]
