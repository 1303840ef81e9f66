"""TPHS (Token-Parallel Head-Sequential) dataflow latency model (Sec. 4).

The Q, QK^T, Softmax and SM x V ops of each attention head execute as a
six-stage on-chip pipeline

    Q -> QK^T -> MAX -> EXP -> DIV -> SM x V

with ``tp`` token *lanes* advancing in parallel. A lane occupies each
stage for ``stage_cycles`` cycles (the QK^T and SM x V stages inherently
stream over the ``kv_len`` keys/values, so ``stage_cycles >= kv_len``).
Heads are processed sequentially, but groups stream continuously through
the pipeline, so a layer's attention block costs

    (n_heads * ceil(T / tp) + 6 - 1) * stage_cycles.

Resource budget per lane (ZCU102 example in Fig. 3a):

* Q stage: enough parallel PEs that one token's per-head Q projection —
  ``head_dim * ceil(d_model / d_mult)`` PE-cycles — fits in the stage;
* QK^T stage: ``ceil(head_dim / d_mult)`` parallel PEs (one key-dot per
  cycle);
* softmax: one SM module;
* SM x V: ``ceil(head_dim / accumulators)`` broadcasting PEs (one score
  broadcast per cycle).

Only the input tokens, per-head K/V slices, packed ``W_Q`` and the final
``SM x V`` outputs touch DRAM — the defining property of the dataflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import ScheduleError
from ..hardware import DramModel, EnergyLedger, HardwareConfig
from ..models import TransformerConfig
from ..utils import ceil_div
from .breakdown import LatencyBreakdown
from .gemm_executor import OpTerms

__all__ = [
    "TphsSchedule",
    "plan_tphs",
    "tphs_block_terms",
    "tphs_block_latency",
    "TPHS_PIPELINE_STAGES",
]

#: Q, QK^T, MAX, EXP, DIV, SM x V
TPHS_PIPELINE_STAGES = 6


@dataclass(frozen=True)
class TphsSchedule:
    """A feasible TPHS pipeline configuration for one attention shape."""

    token_lanes: int
    pes_q_per_lane: int
    pes_qkt_per_lane: int
    broadcast_per_lane: int
    stage_cycles: int
    n_groups: int
    n_heads: int
    n_stages: int = TPHS_PIPELINE_STAGES

    def __post_init__(self) -> None:
        if self.token_lanes < 1:
            raise ScheduleError("schedule needs at least one token lane")
        if self.stage_cycles < 1:
            raise ScheduleError("stage_cycles must be >= 1")
        if self.n_groups < 1 or self.n_heads < 1:
            raise ScheduleError("groups and heads must be >= 1")

    @property
    def pipeline_cycles(self) -> int:
        """Total cycles: heads stream back to back through the pipeline."""
        total_groups = self.n_heads * self.n_groups
        return (total_groups + self.n_stages - 1) * self.stage_cycles

    @property
    def parallel_pes_used(self) -> int:
        """Parallel PEs the schedule occupies."""
        return self.token_lanes * (self.pes_q_per_lane + self.pes_qkt_per_lane)

    @property
    def broadcast_pes_used(self) -> int:
        """Broadcasting PEs the schedule occupies."""
        return self.token_lanes * self.broadcast_per_lane


def plan_tphs(
    config: HardwareConfig,
    model: TransformerConfig,
    n_tokens: int,
    kv_len: int,
) -> TphsSchedule:
    """Derive the widest feasible lane allocation for an attention shape.

    Raises :class:`ScheduleError` when even a single lane cannot be
    formed (fewer parallel PEs than the two matmul stages need).
    """
    if n_tokens < 1 or kv_len < n_tokens:
        raise ScheduleError(f"bad token counts: n_tokens={n_tokens}, kv_len={kv_len}")
    d_mult = config.mults_per_pe
    hd = model.head_dim
    q_work = hd * ceil_div(model.d_model, d_mult)  # PE-cycles per token, per head
    pes_qkt = ceil_div(hd, d_mult)
    bc_per_lane = ceil_div(hd, config.mults_per_pe)

    # Q stage must keep up with the kv_len-cycle streaming stages.
    pes_q = max(1, ceil_div(q_work, kv_len))
    lanes = min(
        config.n_parallel_pe // (pes_q + pes_qkt),
        config.n_broadcast_pe // bc_per_lane,
        config.n_softmax_units,
        n_tokens,
    )
    if lanes < 1:
        # Degenerate fabric: shrink the Q allocation to whatever is left
        # and stretch the stage instead.
        pes_q = config.n_parallel_pe - pes_qkt
        if pes_q < 1 or config.n_broadcast_pe < bc_per_lane:
            raise ScheduleError(
                f"cannot form one TPHS lane on {config.n_parallel_pe} parallel / "
                f"{config.n_broadcast_pe} broadcasting PEs"
            )
        lanes = 1
    stage_cycles = max(kv_len, ceil_div(q_work, pes_q))
    return TphsSchedule(
        token_lanes=lanes,
        pes_q_per_lane=pes_q,
        pes_qkt_per_lane=pes_qkt,
        broadcast_per_lane=bc_per_lane,
        stage_cycles=stage_cycles,
        n_groups=ceil_div(n_tokens, lanes),
        n_heads=model.n_heads,
    )


def tphs_block_terms(
    config: HardwareConfig,
    model: TransformerConfig,
    n_tokens: int,
    kv_len: int,
    batch: int,
    dram: DramModel,
) -> Tuple[OpTerms, TphsSchedule]:
    """Everything about one layer's TPHS block except fetching ``W_Q``.

    See :func:`tphs_block_latency`, which adds the ``W_Q`` transfer.
    """
    if batch < 1:
        raise ScheduleError(f"batch must be >= 1, got {batch}")
    total_tokens = batch * n_tokens
    schedule = plan_tphs(config, model, total_tokens, kv_len)
    act = config.act_bits
    d = model.d_model

    # IP + the K and V spans (kv_dim == d for MHA, smaller under GQA),
    # per sequence.
    input_bits = float((total_tokens * d + 2 * batch * kv_len * model.kv_dim) * act)
    store_bits = float(total_tokens * d * act)  # SM x V outputs
    # Pipeline registers hand intermediates PE-to-PE over the NoC.
    onchip_vals = model.n_heads * total_tokens * (2 * kv_len + 2 * model.head_dim)
    onchip_bytes = onchip_vals * act / 8.0
    terms = OpTerms(
        in_bits=input_bits,
        out_bits=store_bits,
        input_fetch=dram.transfer_cycles(input_bits),
        compute=float(schedule.pipeline_cycles),
        store=dram.transfer_cycles(store_bits),
        macs=total_tokens * d * d
        + 2 * model.n_heads * total_tokens * kv_len * model.head_dim,
        rf_bytes=onchip_bytes,
        noc_bytes=onchip_bytes,
    )
    return terms, schedule


def tphs_block_latency(
    config: HardwareConfig,
    model: TransformerConfig,
    n_tokens: int,
    kv_len: int,
    wq_bits: Optional[int] = None,
    batch: int = 1,
    energy: Optional[EnergyLedger] = None,
) -> Tuple[LatencyBreakdown, TphsSchedule]:
    """Latency of the fused Q + QK^T + SM + SM x V block of one layer.

    DRAM traffic: input tokens (once — they stay BRAM-resident across
    heads), the K and V spans (each head's slice exactly once per
    sequence), the packed ``W_Q``, and the SM x V outputs. The QK^T and
    softmax intermediates never leave the chip. With ``batch > 1`` the
    token lanes fill with tokens from all sequences; ``W_Q`` transfers
    once for the whole batch.
    """
    dram = DramModel.from_config(config)
    terms, schedule = tphs_block_terms(config, model, n_tokens, kv_len, batch, dram)
    d = model.d_model
    w_bits = float(wq_bits if wq_bits is not None else d * d * config.weight_bits)
    if energy is not None:
        terms.charge(energy, w_bits)
    return terms.breakdown(dram.transfer_cycles(w_bits)), schedule
