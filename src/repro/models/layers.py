"""Per-layer operator graph of a transformer block.

The paper's latency model is op-level: each decoder block is the sequence

    LN1 -> Q -> K -> V -> QK^T -> Softmax -> SM x V -> Proj
        -> LN2 -> MLP_FC1 -> Act -> MLP_FC2

(Fig. 1a). MEADOW executes the TPHS-eligible subset {Q, QK^T, SM, SM x V}
as one fused on-chip pipeline and everything else as tiled GEMMs; the
GEMM baseline executes *every* op as a GEMM with DRAM-resident operands.
This module describes the ops and their shapes; :mod:`repro.sim` turns
them into cycles.

Element counts here are *logical* (number of values); the simulator
applies the configured activation/weight bit widths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigError
from .config import TransformerConfig

__all__ = [
    "OpKind",
    "LayerOp",
    "decoder_layer_ops",
    "attention_ops",
    "validate_pass",
    "TPHS_ELIGIBLE_OPS",
    "WEIGHT_OP_KINDS",
    "MATMUL_OP_KINDS",
]


class OpKind(enum.Enum):
    """The twelve operator slots of one transformer block."""

    LAYERNORM_1 = "ln1"
    Q_PROJ = "q_proj"
    K_PROJ = "k_proj"
    V_PROJ = "v_proj"
    QKT = "qkt"
    SOFTMAX = "softmax"
    SMV = "smv"
    OUT_PROJ = "out_proj"
    LAYERNORM_2 = "ln2"
    MLP_FC1 = "mlp_fc1"
    ACTIVATION = "activation"
    MLP_FC2 = "mlp_fc2"


#: The "Q + SM(QK^T) x V" subset the paper runs under the TPHS dataflow.
TPHS_ELIGIBLE_OPS = frozenset(
    {OpKind.Q_PROJ, OpKind.QKT, OpKind.SOFTMAX, OpKind.SMV}
)

#: Ops with trained weight matrices (weight packing applies to these).
WEIGHT_OP_KINDS = frozenset(
    {
        OpKind.Q_PROJ,
        OpKind.K_PROJ,
        OpKind.V_PROJ,
        OpKind.OUT_PROJ,
        OpKind.MLP_FC1,
        OpKind.MLP_FC2,
    }
)

#: Ops executed on the MAC array (everything except LN / softmax / act).
MATMUL_OP_KINDS = WEIGHT_OP_KINDS | {OpKind.QKT, OpKind.SMV}


@dataclass(frozen=True)
class LayerOp:
    """One operator instance with its logical shape and data volumes.

    Attributes:
        kind: which operator slot this is.
        batch: independent instances executed with identical shape
            (``n_heads`` for the per-head attention ops, 1 elsewhere).
        rows: tokens processed this pass (``T`` in prefill, 1 in decode).
        reduce: reduction length of the matmul (0 for vector ops).
        cols: output width of the matmul (or feature count for vector ops).
        weight_elements: trained-weight values fetched (0 if weight-free).
        input_elements: activation values read (per the op's *logical*
            operand set, e.g. QK^T reads both Q and the K slice).
        output_elements: activation values produced.
    """

    kind: OpKind
    batch: int
    rows: int
    reduce: int
    cols: int
    weight_elements: int
    input_elements: int
    output_elements: int

    def __post_init__(self) -> None:
        if self.batch <= 0 or self.rows <= 0 or self.cols <= 0:
            raise ConfigError(f"{self.kind}: batch/rows/cols must be positive")
        for name in ("reduce", "weight_elements", "input_elements", "output_elements"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{self.kind}: {name} must be non-negative")

    @property
    def is_matmul(self) -> bool:
        """Whether this op runs on the MAC array."""
        return self.kind in MATMUL_OP_KINDS

    @property
    def has_weights(self) -> bool:
        """Whether this op fetches trained weights."""
        return self.weight_elements > 0

    @property
    def macs(self) -> int:
        """Multiply-accumulate count of the op (0 for vector ops)."""
        if not self.is_matmul:
            return 0
        return self.batch * self.rows * self.reduce * self.cols


def validate_pass(
    model: TransformerConfig, n_tokens: int, kv_len: int, batch: int = 1
) -> None:
    """Raise :class:`ConfigError` unless one block can run this pass.

    The checks :func:`decoder_layer_ops` runs before building any op, in
    the same order (see it for the arguments).
    """
    if n_tokens <= 0:
        raise ConfigError(f"n_tokens must be positive, got {n_tokens}")
    if kv_len < n_tokens:
        raise ConfigError(f"kv_len ({kv_len}) must cover n_tokens ({n_tokens})")
    if batch < 1:
        raise ConfigError(f"batch must be >= 1, got {batch}")
    model.validate_context(kv_len)


def attention_ops(
    model: TransformerConfig, n_tokens: int, kv_len: int, batch: int = 1
) -> Tuple[LayerOp, LayerOp, LayerOp]:
    """The QK^T, softmax and SM x V ops of one block.

    They are the only ops whose shapes read the KV span: every other op
    of a block has the same shape at any ``kv_len``. The arguments are
    not validated here; :func:`validate_pass` does that, and
    :func:`decoder_layer_ops` runs it first.
    """
    d = model.d_model
    h = model.n_heads
    hd = model.head_dim
    kv_dim = model.kv_dim  # == d for MHA; smaller under GQA
    t = n_tokens
    kv = kv_len
    b = batch
    bt = b * t
    return (
        # QK^T reads Q (t x d across heads) and each sequence's K span
        # (kv x kv_dim; query heads of one group share their K slice).
        LayerOp(OpKind.QKT, b * h, t, hd, kv, 0, bt * d + b * kv * kv_dim, b * h * t * kv),
        LayerOp(OpKind.SOFTMAX, b * h, t, 0, kv, 0, b * h * t * kv, b * h * t * kv),
        # SM x V reads the score matrices and each sequence's V span.
        LayerOp(OpKind.SMV, b * h, t, kv, hd, 0, b * h * t * kv + b * kv * kv_dim, bt * d),
    )


def decoder_layer_ops(
    model: TransformerConfig, n_tokens: int, kv_len: int, batch: int = 1
) -> Tuple[LayerOp, ...]:
    """The op sequence of one block for a given pass.

    Args:
        model: transformer shape description.
        n_tokens: tokens processed *per sequence* (prompt length in
            prefill, 1 in decode, ``fixed_tokens`` for a ViT).
        kv_len: attention span per sequence — equals ``n_tokens`` in
            prefill / ViT, and the full context length in decode.
        batch: concurrent sequences (extension). Weight-bearing ops share
            one weight fetch across the whole batch — the amortization a
            batching study measures — while the attention ops replicate
            per sequence (each has its own KV span).

    Returns:
        Ops in execution order (LN1 ... MLP_FC2).
    """
    validate_pass(model, n_tokens, kv_len, batch)

    d = model.d_model
    ff = model.d_ff
    kv_dim = model.kv_dim
    bt = batch * n_tokens  # total token rows through the shared-weight ops

    return (
        LayerOp(OpKind.LAYERNORM_1, 1, bt, 0, d, 0, bt * d, bt * d),
        LayerOp(OpKind.Q_PROJ, 1, bt, d, d, d * d, bt * d, bt * d),
        # K/V projections only process the *new* tokens; their outputs
        # (t x kv_dim per sequence) are appended to the KV caches.
        LayerOp(OpKind.K_PROJ, 1, bt, d, kv_dim, d * kv_dim, bt * d, bt * kv_dim),
        LayerOp(OpKind.V_PROJ, 1, bt, d, kv_dim, d * kv_dim, bt * d, bt * kv_dim),
        *attention_ops(model, n_tokens, kv_len, batch),
        LayerOp(OpKind.OUT_PROJ, 1, bt, d, d, d * d, bt * d, bt * d),
        LayerOp(OpKind.LAYERNORM_2, 1, bt, 0, d, 0, bt * d, bt * d),
        LayerOp(OpKind.MLP_FC1, 1, bt, d, ff, d * ff, bt * d, bt * ff),
        LayerOp(OpKind.ACTIVATION, 1, bt, 0, ff, 0, bt * ff, bt * ff),
        LayerOp(OpKind.MLP_FC2, 1, bt, ff, d, d * ff, bt * ff, bt * d),
    )
