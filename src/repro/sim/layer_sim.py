"""Workload simulator: turns (model, hardware, plan) into latency reports.

For every block of the model the simulator prices the op sequence of
:func:`repro.models.decoder_layer_ops`: it dispatches each op according
to the :class:`~repro.core.plan.ExecutionPlan` (GEMM / TPHS / vector
units), charges DRAM traffic per the plan's packing or sparsity policy,
and collects per-op :class:`~repro.sim.breakdown.OpLatency` records into
a :class:`~repro.sim.breakdown.StageReport`.

Baseline behaviours implemented here (Table 2 semantics):

* **CTA token compression** — the attention ops (QK^T, softmax, SM x V)
  operate on a ``token_keep_ratio`` subset of tokens, shrinking their
  compute and intermediate traffic; everything else is untouched.
* **FlightLLM** — N:M sparsity thins weight transfer and weight-matmul
  compute; during decode the attention intermediates (scores, softmax
  outputs, the current token's Q) stay on chip.

**Two-step pricing.** Every block of a model runs the same op geometry
for a given workload; the only layer-dependent input to the latency
model is how many weight bits each block fetches. Layers that fetch the
same bits for every weight kind form one *layer class* (a packing
planner's depth bucket; the whole stack for unpacked plans; one layer
each for exact per-layer statistics). :meth:`WorkloadSimulator.simulate`
works in two steps:

1. once per call, it builds the block's op list (after the CTA and
   FlightLLM shims) and prices every weight-independent term: compute
   cycles, activation fetch and store cycles, the vector-unit ops, the
   TPHS schedule, and their energy;
2. once per layer class, it prices only the weight transfers — the
   weight-fetch cycles and the DRAM/BRAM energy of the weight GEMMs and
   of TPHS's ``W_Q`` — and sums the class's layer total.

Weight bits per layer come from a table built once per simulator
(:meth:`~repro.packing.PackingPlanner.effective_bits_table` for packed
plans), as do the DRAM rate and each weight shape's BRAM refetch model.
Energy is accumulated per category in exactly the order a
layer-by-layer walk deposits it, so every number is bit-identical to
that walk, which ``tests/oracles/layer_walk.py`` keeps as the
equivalence oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace as dc_replace
from functools import reduce
from itertools import chain
from operator import add
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..core.plan import DataflowMode, ExecutionPlan
from ..errors import SimulationError
from ..hardware import DramModel, EnergyLedger, HardwareConfig
from ..models import (
    LayerOp,
    OpKind,
    Stage,
    TPHS_ELIGIBLE_OPS,
    TransformerConfig,
    Workload,
    decoder_layer_ops,
)
from ..packing import PackingPlanner
from .breakdown import LatencyBreakdown, OpLatency, StageReport
from .gemm_executor import OpTerms, gemm_op_terms, vector_op_terms
from .tiling import RefetchModel, plan_tiled_gemm
from .tphs_executor import tphs_block_terms

__all__ = ["WorkloadSimulator", "simulate"]

_VECTOR_OPS = frozenset(
    {OpKind.LAYERNORM_1, OpKind.LAYERNORM_2, OpKind.SOFTMAX, OpKind.ACTIVATION}
)


def _compressed_tokens(count: int, keep_ratio: float) -> int:
    """CTA-style token compression (at least one token survives)."""
    return max(1, math.ceil(count * keep_ratio))


class _Step(NamedTuple):
    """How the op at one position of a block is priced.

    ``role`` is ``"tphs"`` (the fused attention block, in Q's slot),
    ``"fused"`` (absorbed into that block), ``"vector"`` or ``"gemm"``.
    ``weight`` indexes the class bits of the weights the op fetches
    (``None`` when it fetches none) and ``refetch`` is that weight
    shape's BRAM residency model (weight GEMMs only).
    """

    role: str
    weight: Optional[int]
    refetch: Optional[RefetchModel]
    compute_scale: float


@dataclass(frozen=True)
class _BlockTables:
    """What a simulator prices every workload's blocks with.

    A block's op sequence is the same for every workload, so ``steps``
    fixes the dispatch of each op position once. ``class_bits[c][w]`` is
    the bits layer class ``c`` transfers for weight ``w``,
    ``layer_class`` maps each layer to its class, and ``dram`` is the
    config's DRAM model.
    """

    steps: Tuple[_Step, ...]
    layer_class: Tuple[int, ...]
    class_bits: Tuple[Tuple[int, ...], ...]
    dram: DramModel


@dataclass
class WorkloadSimulator:
    """Reusable simulator bound to a model, hardware config and plan.

    The binding is fixed for the simulator's lifetime: the tables
    derived from it are built on the first :meth:`simulate` call and
    reused by every later one.
    """

    model: TransformerConfig
    config: HardwareConfig
    plan: ExecutionPlan
    planner: Optional[PackingPlanner] = None
    _tables: Optional[_BlockTables] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.plan.packing is not None and self.planner is None:
            self.planner = PackingPlanner(config=self.plan.packing)

    # --------------------------------------------------------------- tables
    def _block_tables(self) -> _BlockTables:
        """The per-simulator pricing tables (built on first use).

        Weight bits follow the plan: N:M sparsity scales the raw matrix,
        packing reads the planner's per-layer effective bits, anything
        else transfers raw weights. Layers with the same bits for every
        weight share a class.
        """
        if self._tables is None:
            config = self.config
            template = decoder_layer_ops(self.model, 1, 1)
            weight_ops = [op for op in template if op.has_weights]
            weight_index = {op.kind: i for i, op in enumerate(weight_ops)}
            raw = tuple(op.weight_elements * config.weight_bits for op in weight_ops)
            n_layers = self.model.n_layers
            if self.plan.sparsity is not None:
                factor = self.plan.sparsity.weight_bits_factor(config.weight_bits)
                layer_bits = [tuple(int(bits * factor) for bits in raw)] * n_layers
            elif self.plan.packing is not None:
                assert self.planner is not None
                table = self.planner.effective_bits_table(self.model)
                layer_bits = [
                    tuple(table[op.kind][layer] for op in weight_ops)
                    for layer in range(n_layers)
                ]
            else:
                layer_bits = [raw] * n_layers
            class_bits = tuple(dict.fromkeys(layer_bits))
            class_of = {bits: index for index, bits in enumerate(class_bits)}

            use_tphs = self.plan.attention_dataflow is DataflowMode.TPHS
            steps: List[_Step] = []
            for op in template:
                weight = weight_index.get(op.kind)
                if use_tphs and op.kind in TPHS_ELIGIBLE_OPS:
                    # The first eligible op (Q) hosts the whole block,
                    # which fetches W_Q; the others are absorbed.
                    if any(step.role == "tphs" for step in steps):
                        steps.append(_Step("fused", None, None, 1.0))
                    else:
                        steps.append(_Step("tphs", weight_index[OpKind.Q_PROJ], None, 1.0))
                elif op.kind in _VECTOR_OPS:
                    steps.append(_Step("vector", None, None, 1.0))
                elif op.is_matmul:
                    refetch = None
                    scale = 1.0
                    if weight is not None:
                        # Raises CapacityError when the RFs cannot hold a tile.
                        plan_tiled_gemm(config, 1, op.reduce, op.cols)
                        refetch = RefetchModel.for_shape(config, op.reduce, op.cols)
                        if self.plan.sparsity is not None:
                            # N:M sparsity skips weight-matmul MACs.
                            scale = self.plan.sparsity.density
                    steps.append(_Step("gemm", weight, refetch, scale))
                else:  # pragma: no cover - op kinds are exhaustive
                    raise SimulationError(f"unhandled op kind {op.kind}")
            self._tables = _BlockTables(
                steps=tuple(steps),
                layer_class=tuple(class_of[bits] for bits in layer_bits),
                class_bits=class_bits,
                dram=DramModel.from_config(config),
            )
        return self._tables

    # ------------------------------------------------------------ CTA shim
    def _apply_token_compression(self, op: LayerOp, workload: Workload) -> LayerOp:
        """Shrink attention ops to the kept-token subset (CTA)."""
        keep = self.plan.token_keep_ratio
        if keep >= 1.0 or op.kind not in (OpKind.QKT, OpKind.SOFTMAX, OpKind.SMV):
            return op
        kv_c = _compressed_tokens(workload.kv_len, keep)
        rows_c = (
            _compressed_tokens(op.rows, keep)
            if workload.stage is Stage.PREFILL
            else op.rows
        )
        d = self.model.d_model
        kv_dim = self.model.kv_dim
        b = workload.batch
        bh, t = op.batch, rows_c  # op.batch == batch * n_heads
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
            # SM x V still reconstructs outputs for all original tokens.
            output_elements=op.output_elements,
        )

    # ------------------------------------------------- FlightLLM decode shim
    def _onchip_decode_traffic(self, op: LayerOp, workload: Workload) -> LayerOp:
        """Keep decode attention intermediates on chip (FlightLLM)."""
        if not (
            self.plan.decode_onchip_intermediates
            and workload.stage is Stage.DECODE
            and op.kind in (OpKind.QKT, OpKind.SOFTMAX, OpKind.SMV)
        ):
            return op
        kv_span = workload.batch * workload.kv_len * self.model.kv_dim
        if op.kind is OpKind.QKT:
            # Q stays on chip; only the K spans are fetched, scores stay.
            return dc_replace(op, input_elements=kv_span, output_elements=0)
        if op.kind is OpKind.SOFTMAX:
            return dc_replace(op, input_elements=0, output_elements=0)
        # SM x V: scores on chip, V spans fetched, output stored normally.
        return dc_replace(op, input_elements=kv_span)

    # ----------------------------------------------------------------- API
    def _check_workload(self, workload: Workload) -> None:
        if workload.model is not self.model and workload.model != self.model:
            raise SimulationError(
                f"workload model {workload.model.name} does not match "
                f"simulator model {self.model.name}"
            )

    def simulate(self, workload: Workload) -> StageReport:
        """Simulate the workload across every block of the model.

        Prices the block's weight-independent terms once and its weight
        transfers once per layer class (see the module docstring).
        Member layers of a class share one ``OpLatency`` list.
        """
        self._check_workload(workload)
        tables = self._block_tables()
        config = self.config
        dram = tables.dram
        db = config.double_buffered
        ops = workload.layer_ops()

        # Step 1: op records, op totals and energy-charged terms that
        # hold for every layer. A weight-fetching op leaves a placeholder
        # in ``records``/``totals``, filled per class in step 2.
        records: List[Optional[OpLatency]] = []
        totals: List[float] = []
        charged: List[OpTerms] = []
        # (record slot, charged slot, weight index, kind, dataflow,
        #  weight refetch, terms, macs) of every weight-fetching op.
        weighted: List[Tuple[int, int, int, OpKind, str, float, OpTerms, int]] = []
        for op, step in zip(ops, tables.steps):
            role = step.role
            if role == "fused":
                records.append(OpLatency(op.kind, "fused", LatencyBreakdown(), macs=0))
                totals.append(0.0)
                continue
            if role == "tphs":
                terms, _sched = tphs_block_terms(
                    config, self.model, workload.n_tokens, workload.kv_len,
                    workload.batch, dram,
                )
                tphs_macs = sum(o.macs for o in ops if o.kind in TPHS_ELIGIBLE_OPS)
                weighted.append((
                    len(records), len(charged), step.weight, OpKind.Q_PROJ, "tphs",
                    1.0, terms, tphs_macs,
                ))
                records.append(None)
                totals.append(0.0)
                charged.append(terms)
                continue

            op = self._apply_token_compression(op, workload)
            op = self._onchip_decode_traffic(op, workload)
            if role == "vector":
                # Layer norm and activations stream through their dedicated
                # on-NoC units between GEMM stages in every system (Fig. 2a);
                # only the softmax intermediates round-trip DRAM in GEMM
                # mode — they are the "large intermediate tokens" the paper
                # targets.
                roundtrip = op.kind is OpKind.SOFTMAX
                terms = vector_op_terms(
                    config, op, dram,
                    fetch_input=roundtrip and op.input_elements > 0,
                    store_output=roundtrip and op.output_elements > 0,
                )
                record = OpLatency(op.kind, "vector", terms.breakdown(), macs=0)
            else:
                # Weight-bearing GEMMs honour BRAM residency: when
                # neither operand fits, the tiled schedule re-streams the
                # cheaper side (see sim.tiling).
                w_refetch = i_refetch = 1.0
                if step.refetch is not None:
                    w_factor, i_factor = step.refetch.factors(op.rows)
                    w_refetch, i_refetch = float(w_factor), float(i_factor)
                terms = gemm_op_terms(
                    config, op, dram,
                    fetch_input=op.input_elements > 0,
                    store_output=op.output_elements > 0,
                    compute_scale=step.compute_scale,
                    input_refetch=i_refetch,
                )
                if step.weight is None:
                    record = OpLatency(op.kind, "gemm", terms.breakdown(), macs=op.macs)
                else:
                    weighted.append((
                        len(records), len(charged), step.weight, op.kind, "gemm",
                        w_refetch, terms, op.macs,
                    ))
                    record = None
            records.append(record)
            totals.append(record.total(db) if record is not None else 0.0)
            charged.append(terms)

        energy = EnergyLedger()
        costs = energy.costs
        deltas = {
            "mac": [t.macs * costs.mac_pj for t in charged],
            "rf": [t.rf_bytes * costs.rf_pj_per_byte for t in charged],
            "noc": [t.noc_bytes * costs.noc_pj_per_byte for t in charged],
        }
        dram_bits = [t.dram_bits() for t in charged]

        # Step 2: per layer class, only the weight transfers.
        class_records: List[List[OpLatency]] = []
        class_totals: List[float] = []
        class_deltas: List[Dict[str, List[float]]] = []
        for bits in tables.class_bits:
            layer_records = list(records)
            layer_totals = list(totals)
            moved = list(dram_bits)
            for slot, charge_slot, weight, kind, dataflow, refetch, terms, macs in weighted:
                w_bits = float(bits[weight]) * refetch
                record = OpLatency(
                    kind, dataflow, terms.breakdown(dram.transfer_cycles(w_bits)), macs
                )
                layer_records[slot] = record
                layer_totals[slot] = record.total(db)
                moved[charge_slot] = terms.dram_bits(w_bits)
            class_records.append(layer_records)
            class_totals.append(sum(layer_totals))
            class_deltas.append(dict(
                deltas,
                dram=[m * costs.dram_pj_per_bit for m in moved],
                bram=[(m / 8.0) * costs.bram_pj_per_byte for m in moved],
            ))

        # Energy: each category's deltas added one at a time, in the
        # order a layer-by-layer walk deposits them (never pre-summed:
        # float addition is order-sensitive).
        layer_class = tables.layer_class
        picojoules = energy.picojoules
        for category in picojoules:
            stack = chain.from_iterable(class_deltas[i][category] for i in layer_class)
            picojoules[category] = reduce(add, stack, picojoules[category])
        return StageReport(
            workload=workload,
            config=config,
            plan_name=self.plan.name,
            layer_ops=[class_records[index] for index in layer_class],
            energy=energy,
            layer_totals=[class_totals[index] for index in layer_class],
        )


def simulate(
    model: TransformerConfig,
    config: HardwareConfig,
    plan: ExecutionPlan,
    workload: Workload,
    planner: Optional[PackingPlanner] = None,
) -> StageReport:
    """One-shot convenience wrapper around :class:`WorkloadSimulator`."""
    return WorkloadSimulator(model, config, plan, planner).simulate(workload)
