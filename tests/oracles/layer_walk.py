"""Layer-by-layer reference walk: the simulator's equivalence oracle.

:meth:`repro.sim.WorkloadSimulator.simulate` prices a block's
weight-independent terms once per call and only the weight transfers
once per layer class. This module keeps the walk it replaced, as it
was: a fresh op list for every layer, every op priced on its own
through the public per-op executors (:func:`~repro.sim.gemm_op_latency`,
:func:`~repro.sim.vector_op_latency`, :func:`~repro.sim.tphs_block_latency`,
:func:`~repro.sim.plan_tiled_gemm`), each layer's weight bits
looked up through :meth:`~repro.packing.PackingPlanner.stats_for`, and
energy deposited straight into one ledger.

Tests and benchmarks assert that the simulator and this walk agree bit
for bit; nothing under ``src/`` imports it. Import it as
``from oracles.layer_walk import simulate_reference`` with the
``tests`` directory on ``sys.path`` (pytest puts it there through
``tests/conftest.py``).
"""

from __future__ import annotations

import math
from dataclasses import replace as dc_replace
from typing import List, Optional

from repro.core.plan import DataflowMode
from repro.errors import SimulationError
from repro.hardware import EnergyLedger
from repro.models import LayerOp, OpKind, Stage, TPHS_ELIGIBLE_OPS, Workload
from repro.sim import (
    LatencyBreakdown,
    OpLatency,
    StageReport,
    WorkloadSimulator,
    gemm_op_latency,
    plan_tiled_gemm,
    tphs_block_latency,
    vector_op_latency,
)

__all__ = ["simulate_reference"]

_VECTOR_OPS = frozenset(
    {OpKind.LAYERNORM_1, OpKind.LAYERNORM_2, OpKind.SOFTMAX, OpKind.ACTIVATION}
)


def _compressed_tokens(count: int, keep_ratio: float) -> int:
    return max(1, math.ceil(count * keep_ratio))


def _weight_bits(sim: WorkloadSimulator, op: LayerOp, layer: int) -> Optional[int]:
    """Transferred weight bits for one op, or None for raw transfer."""
    if not op.has_weights:
        return None
    raw_bits = op.weight_elements * sim.config.weight_bits
    if sim.plan.sparsity is not None:
        return int(raw_bits * sim.plan.sparsity.weight_bits_factor(sim.config.weight_bits))
    if sim.plan.packing is not None:
        assert sim.planner is not None
        return sim.planner.stats_for(sim.model, op.kind, layer).effective_bits
    return None


def _compute_scale(sim: WorkloadSimulator, op: LayerOp) -> float:
    if sim.plan.sparsity is not None and op.has_weights:
        return sim.plan.sparsity.density
    return 1.0


def _apply_token_compression(
    sim: WorkloadSimulator, op: LayerOp, workload: Workload
) -> LayerOp:
    keep = sim.plan.token_keep_ratio
    if keep >= 1.0 or op.kind not in (OpKind.QKT, OpKind.SOFTMAX, OpKind.SMV):
        return op
    kv_c = _compressed_tokens(workload.kv_len, keep)
    rows_c = (
        _compressed_tokens(op.rows, keep)
        if workload.stage is Stage.PREFILL
        else op.rows
    )
    d = sim.model.d_model
    kv_dim = sim.model.kv_dim
    b = workload.batch
    bh, t = op.batch, rows_c
    if op.kind is OpKind.QKT:
        return dc_replace(
            op,
            rows=t,
            cols=kv_c,
            input_elements=b * t * d + b * kv_c * kv_dim,
            output_elements=bh * t * kv_c,
        )
    if op.kind is OpKind.SOFTMAX:
        return dc_replace(
            op,
            rows=t,
            cols=kv_c,
            input_elements=bh * t * kv_c,
            output_elements=bh * t * kv_c,
        )
    return dc_replace(
        op,
        rows=t,
        reduce=kv_c,
        input_elements=bh * t * kv_c + b * kv_c * kv_dim,
        output_elements=op.output_elements,
    )


def _onchip_decode_traffic(
    sim: WorkloadSimulator, op: LayerOp, workload: Workload
) -> LayerOp:
    if not (
        sim.plan.decode_onchip_intermediates
        and workload.stage is Stage.DECODE
        and op.kind in (OpKind.QKT, OpKind.SOFTMAX, OpKind.SMV)
    ):
        return op
    kv_span = workload.batch * workload.kv_len * sim.model.kv_dim
    if op.kind is OpKind.QKT:
        return dc_replace(op, input_elements=kv_span, output_elements=0)
    if op.kind is OpKind.SOFTMAX:
        return dc_replace(op, input_elements=0, output_elements=0)
    return dc_replace(op, input_elements=kv_span)


def _simulate_layer(
    sim: WorkloadSimulator, workload: Workload, layer: int, energy: EnergyLedger
) -> List[OpLatency]:
    ops = workload.layer_ops()
    records: List[OpLatency] = []
    use_tphs = sim.plan.attention_dataflow is DataflowMode.TPHS
    tphs_emitted = False
    for op in ops:
        if use_tphs and op.kind in TPHS_ELIGIBLE_OPS:
            if not tphs_emitted:
                wq_bits = _weight_bits(sim, op, layer) if op.kind is OpKind.Q_PROJ else None
                if wq_bits is None and sim.plan.packing is not None:
                    q_op = next(o for o in ops if o.kind is OpKind.Q_PROJ)
                    wq_bits = _weight_bits(sim, q_op, layer)
                breakdown, _sched = tphs_block_latency(
                    sim.config,
                    sim.model,
                    workload.n_tokens,
                    workload.kv_len,
                    wq_bits=wq_bits,
                    batch=workload.batch,
                    energy=energy,
                )
                tphs_macs = sum(o.macs for o in ops if o.kind in TPHS_ELIGIBLE_OPS)
                records.append(OpLatency(OpKind.Q_PROJ, "tphs", breakdown, macs=tphs_macs))
                tphs_emitted = True
            else:
                records.append(OpLatency(op.kind, "fused", LatencyBreakdown(), macs=0))
            continue

        op = _apply_token_compression(sim, op, workload)
        op = _onchip_decode_traffic(sim, op, workload)
        if op.kind in _VECTOR_OPS:
            roundtrip = op.kind is OpKind.SOFTMAX
            fetch = roundtrip and op.input_elements > 0
            store = roundtrip and op.output_elements > 0
            bd = vector_op_latency(
                sim.config, op, fetch_input=fetch, store_output=store, energy=energy
            )
            records.append(OpLatency(op.kind, "vector", bd, macs=0))
        elif op.is_matmul:
            w_refetch = i_refetch = 1.0
            if op.has_weights:
                sched = plan_tiled_gemm(sim.config, op.rows, op.reduce, op.cols)
                w_refetch = float(sched.weight_refetch_factor)
                i_refetch = float(sched.input_refetch_factor)
            bd = gemm_op_latency(
                sim.config,
                op,
                weight_bits_total=_weight_bits(sim, op, layer),
                fetch_input=op.input_elements > 0,
                store_output=op.output_elements > 0,
                compute_scale=_compute_scale(sim, op),
                weight_refetch=w_refetch,
                input_refetch=i_refetch,
                energy=energy,
            )
            records.append(OpLatency(op.kind, "gemm", bd, macs=op.macs))
        else:
            raise SimulationError(f"unhandled op kind {op.kind}")
    return records


def simulate_reference(sim: WorkloadSimulator, workload: Workload) -> StageReport:
    """Walk every op of every layer of ``sim``'s model individually."""
    if workload.model is not sim.model and workload.model != sim.model:
        raise SimulationError(
            f"workload model {workload.model.name} does not match "
            f"simulator model {sim.model.name}"
        )
    energy = EnergyLedger()
    layer_ops = [
        _simulate_layer(sim, workload, layer, energy)
        for layer in range(sim.model.n_layers)
    ]
    return StageReport(
        workload=workload,
        config=sim.config,
        plan_name=sim.plan.name,
        layer_ops=layer_ops,
        energy=energy,
    )
