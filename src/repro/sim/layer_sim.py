"""Workload simulator: turns (model, hardware, plan) into latency reports.

For every block of the model the simulator prices the op sequence of
:func:`repro.models.decoder_layer_ops`: it dispatches each op according
to the :class:`~repro.core.plan.ExecutionPlan` (GEMM / TPHS / vector
units) and charges DRAM traffic per the plan's packing or sparsity
policy. :meth:`WorkloadSimulator.simulate` collects per-op
:class:`~repro.sim.breakdown.OpLatency` records into a
:class:`~repro.sim.breakdown.StageReport`;
:meth:`WorkloadSimulator.totals` returns only the stack's cycles and
energy.

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
each for exact per-layer statistics). One pricing core serves both
outputs, in two steps:

1. it prices every weight-independent term of the block's op list
   (after the CTA and FlightLLM shims): compute cycles, activation fetch
   and store cycles, the vector-unit ops, the TPHS schedule, and their
   energy;
2. once per layer class, it prices only the weight transfers — the
   weight-fetch cycles and the DRAM/BRAM energy of the weight GEMMs and
   of TPHS's ``W_Q`` — and sums the class's layer total.

:meth:`~WorkloadSimulator.totals` stops there and builds no
``LatencyBreakdown``, ``OpLatency`` or ``StageReport``;
:meth:`~WorkloadSimulator.simulate` builds its records from the same
terms, totals and energy.

**Per-batch decode memo.** A decode pass runs one token per sequence,
so at a fixed batch every op that does not read the KV span has the
same shape and BRAM refetch factors at every context: all of them but
the TPHS block under TPHS plans, or QK^T, softmax and SM x V under GEMM
attention. The first decode point of a batch keeps those ops' terms,
per-class weight transfers, op totals and energy deltas on the
simulator, as tuples of numbers; every later decode point of that batch
runs the same shape checks, prices only the ops that read the KV span
and puts them in their places. Prefill is never memoized: its shapes
change with every prompt length.

Weight bits per layer come from a table built once per simulator
(:meth:`~repro.packing.PackingPlanner.effective_bits_table` for packed
plans), as do the DRAM rate and each weight shape's BRAM refetch model.
Layer totals are builtin sums in op order, and energy is accumulated
per category in exactly the order a layer-by-layer walk deposits it, so
every number is bit-identical to that walk, which
``tests/oracles/layer_walk.py`` keeps as the equivalence oracle.
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
from ..hardware import DramModel, EnergyCosts, EnergyLedger, HardwareConfig
from ..models import (
    LayerOp,
    OpKind,
    Stage,
    TPHS_ELIGIBLE_OPS,
    TransformerConfig,
    Workload,
    attention_ops,
    decoder_layer_ops,
    validate_pass,
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
#: The ops whose shapes read the KV span (see :func:`attention_ops`).
_ATTENTION_OPS = frozenset({OpKind.QKT, OpKind.SOFTMAX, OpKind.SMV})
#: Energy categories in the order an :class:`EnergyLedger` holds them.
_CATEGORIES = tuple(EnergyLedger().picojoules)


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
    fixes the dispatch of each op position once. ``weighted`` holds the
    position, energy slot and weight index of every op that fetches
    weights, ``kv_slots`` the position and energy slot of every op that
    reads the KV span, and ``charged`` the position of every energy slot
    (all but the fused ops); ``use_tphs`` says whether the TPHS block is
    the only op that reads the KV span. ``class_bits[c][w]`` is the bits
    layer class ``c`` transfers for weight ``w``, ``layer_class`` maps
    each layer to its class, and ``dram`` and ``costs`` are the config's
    DRAM model and the ledger's energy costs.
    """

    steps: Tuple[_Step, ...]
    weighted: Tuple[Tuple[int, int, int], ...]
    kv_slots: Tuple[Tuple[int, int], ...]
    charged: Tuple[int, ...]
    use_tphs: bool
    layer_class: Tuple[int, ...]
    class_bits: Tuple[Tuple[int, ...], ...]
    dram: DramModel
    costs: EnergyCosts


class _Row(NamedTuple):
    """The ops of one block that do not read the KV span, priced.

    ``terms[p]`` is the weight-independent terms of the op at position
    ``p`` (``None`` for fused ops and ops that read the KV span). Per
    layer class ``c``, ``w_bits[c][p]`` and ``w_cycles[c][p]`` are the
    weight bits that op moves and their fetch cycles (0.0 when it
    fetches none), ``totals[c][p]`` is its cycle total, and
    ``traffic[c]`` holds the DRAM and BRAM energy of each energy slot.
    ``shared`` holds the MAC, RF and NoC energy of each slot, the same
    for every class. Ops that read the KV span hold 0.0 in every total
    and energy slot; each workload writes its own values there.
    """

    terms: Tuple[Optional[OpTerms], ...]
    w_bits: Tuple[Tuple[float, ...], ...]
    w_cycles: Tuple[Tuple[float, ...], ...]
    totals: Tuple[Tuple[float, ...], ...]
    shared: Tuple[Tuple[float, ...], ...]
    traffic: Tuple[Tuple[Tuple[float, ...], Tuple[float, ...]], ...]


#: One priced op that reads the KV span: (position, energy slot, terms).
_KvOp = Tuple[int, int, OpTerms]


@dataclass
class WorkloadSimulator:
    """Reusable simulator bound to a model, hardware config and plan.

    The binding is fixed for the simulator's lifetime: the tables
    derived from it are built on the first pricing call and reused by
    every later one, and so is each decode batch's row of ops that do
    not read the KV span (see the module docstring).
    """

    model: TransformerConfig
    config: HardwareConfig
    plan: ExecutionPlan
    planner: Optional[PackingPlanner] = None
    _tables: Optional[_BlockTables] = field(
        default=None, init=False, repr=False, compare=False
    )
    _decode_rows: Dict[int, _Row] = field(
        default_factory=dict, init=False, repr=False, compare=False
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
            kv_positions: List[int] = []
            for op in template:
                weight = weight_index.get(op.kind)
                if use_tphs and op.kind in TPHS_ELIGIBLE_OPS:
                    # The first eligible op (Q) hosts the whole block,
                    # which fetches W_Q; the others are absorbed.
                    if any(step.role == "tphs" for step in steps):
                        steps.append(_Step("fused", None, None, 1.0))
                        continue
                    kv_positions.append(len(steps))
                    steps.append(_Step("tphs", weight_index[OpKind.Q_PROJ], None, 1.0))
                    continue
                if op.kind in _ATTENTION_OPS:
                    kv_positions.append(len(steps))
                if op.kind in _VECTOR_OPS:
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
            charged = tuple(
                position for position, step in enumerate(steps) if step.role != "fused"
            )
            self._tables = _BlockTables(
                steps=tuple(steps),
                weighted=tuple(
                    (position, charged.index(position), step.weight)
                    for position, step in enumerate(steps)
                    if step.weight is not None
                ),
                kv_slots=tuple(
                    (position, charged.index(position)) for position in kv_positions
                ),
                charged=charged,
                use_tphs=use_tphs,
                layer_class=tuple(class_of[bits] for bits in layer_bits),
                class_bits=class_bits,
                dram=DramModel.from_config(config),
                costs=EnergyLedger().costs,
            )
        return self._tables

    # ------------------------------------------------------------ CTA shim
    def _apply_token_compression(self, op: LayerOp, workload: Workload) -> LayerOp:
        """Shrink attention ops to the kept-token subset (CTA)."""
        keep = self.plan.token_keep_ratio
        if keep >= 1.0 or op.kind not in _ATTENTION_OPS:
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
            and op.kind in _ATTENTION_OPS
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

    def _shaped(self, op: LayerOp, workload: Workload) -> LayerOp:
        """The op as the plan runs it (both shims applied)."""
        return self._onchip_decode_traffic(
            self._apply_token_compression(op, workload), workload
        )

    # -------------------------------------------------------------- pricing
    def _op_terms(
        self,
        tables: _BlockTables,
        op: Optional[LayerOp],
        step: _Step,
        workload: Workload,
    ) -> Tuple[Optional[OpTerms], float]:
        """Weight-independent terms of one op position, and the factor
        its weight transfer is refetched by (``None`` terms when fused).

        ``op`` is not read for the TPHS block, which prices the whole
        attention shape of ``workload``.
        """
        role = step.role
        if role == "fused":
            return None, 1.0
        config = self.config
        if role == "tphs":
            terms, _sched = tphs_block_terms(
                config, self.model, workload.n_tokens, workload.kv_len,
                workload.batch, tables.dram,
            )
            return terms, 1.0
        assert op is not None
        op = self._shaped(op, workload)
        if role == "vector":
            # Layer norm and activations stream through their dedicated
            # on-NoC units between GEMM stages in every system (Fig. 2a);
            # only the softmax intermediates round-trip DRAM in GEMM
            # mode — they are the "large intermediate tokens" the paper
            # targets.
            roundtrip = op.kind is OpKind.SOFTMAX
            return vector_op_terms(
                config, op, tables.dram,
                fetch_input=roundtrip and op.input_elements > 0,
                store_output=roundtrip and op.output_elements > 0,
            ), 1.0
        # Weight-bearing GEMMs honour BRAM residency: when neither
        # operand fits, the tiled schedule re-streams the cheaper side
        # (see sim.tiling).
        w_refetch = i_refetch = 1.0
        if step.refetch is not None:
            w_factor, i_factor = step.refetch.factors(op.rows)
            w_refetch, i_refetch = float(w_factor), float(i_factor)
        return gemm_op_terms(
            config, op, tables.dram,
            fetch_input=op.input_elements > 0,
            store_output=op.output_elements > 0,
            compute_scale=step.compute_scale,
            input_refetch=i_refetch,
        ), w_refetch

    def _row(
        self,
        tables: _BlockTables,
        priced: List[Tuple[Optional[OpTerms], float]],
    ) -> _Row:
        """The row of a fully priced block, KV-reading ops left out."""
        db = self.config.double_buffered
        dram = tables.dram
        costs = tables.costs
        terms: List[Optional[OpTerms]] = [term for term, _refetch in priced]
        for p, _slot in tables.kv_slots:
            terms[p] = None
        # Ops that fetch no weights cost the same in every class.
        totals = [0.0 if term is None else term.total(0.0, db) for term in terms]
        charged_terms = [terms[p] for p in tables.charged]
        moved = [0.0 if term is None else term.dram_bits() for term in charged_terms]
        w_bits_rows = []
        w_cycles_rows = []
        totals_rows = []
        traffic_rows = []
        for bits in tables.class_bits:
            w_bits = [0.0] * len(terms)
            w_cycles = [0.0] * len(terms)
            class_totals = list(totals)
            class_moved = list(moved)
            for p, slot, weight in tables.weighted:
                w_bits[p] = float(bits[weight]) * priced[p][1]
                w_cycles[p] = dram.transfer_cycles(w_bits[p])
                term = terms[p]
                if term is not None:
                    class_totals[p] = term.total(w_cycles[p], db)
                    class_moved[slot] = term.dram_bits(w_bits[p])
            w_bits_rows.append(tuple(w_bits))
            w_cycles_rows.append(tuple(w_cycles))
            totals_rows.append(tuple(class_totals))
            traffic_rows.append((
                tuple([m * costs.dram_pj_per_bit for m in class_moved]),
                tuple([(m / 8.0) * costs.bram_pj_per_byte for m in class_moved]),
            ))
        shared = (
            tuple([0.0 if t is None else t.macs * costs.mac_pj for t in charged_terms]),
            tuple([
                0.0 if t is None else t.rf_bytes * costs.rf_pj_per_byte
                for t in charged_terms
            ]),
            tuple([
                0.0 if t is None else t.noc_bytes * costs.noc_pj_per_byte
                for t in charged_terms
            ]),
        )
        return _Row(
            terms=tuple(terms),
            w_bits=tuple(w_bits_rows),
            w_cycles=tuple(w_cycles_rows),
            totals=tuple(totals_rows),
            shared=shared,
            traffic=tuple(traffic_rows),
        )

    def _price(
        self, workload: Workload
    ) -> Tuple[
        _Row, List[_KvOp], Optional[Tuple[LayerOp, ...]], List[float], List[float]
    ]:
        """The pricing core behind :meth:`totals` and :meth:`simulate`.

        Returns the block's row, its priced KV-reading ops, the op list
        (``None`` when none was built), each layer class's cycle total
        and the stack's picojoules per ledger category. A decode
        workload whose batch has a row builds no op list and prices only
        the ops that read the KV span, after the same shape checks
        :func:`decoder_layer_ops` runs.
        """
        self._check_workload(workload)
        tables = self._block_tables()
        steps = tables.steps
        decode = workload.stage is Stage.DECODE
        row = self._decode_rows.get(workload.batch) if decode else None
        ops = None
        if row is None:
            ops = workload.layer_ops()
            # Priced in op order, so a failing op raises what the
            # layer-by-layer walk raises.
            priced = [
                self._op_terms(tables, op, step, workload)
                for op, step in zip(ops, steps)
            ]
            row = self._row(tables, priced)
            if decode:
                self._decode_rows[workload.batch] = row
            kv = [(p, slot, priced[p][0]) for p, slot in tables.kv_slots]
        else:
            model, n_tokens = workload.model, workload.n_tokens
            kv_len, batch = workload.kv_len, workload.batch
            validate_pass(model, n_tokens, kv_len, batch)
            # The TPHS block prices its attention shape from the
            # workload alone; GEMM attention prices the three ops.
            kv_ops = (
                (None,) if tables.use_tphs
                else attention_ops(model, n_tokens, kv_len, batch)
            )
            kv = [
                (p, slot, self._op_terms(tables, op, steps[p], workload)[0])
                for (p, slot), op in zip(tables.kv_slots, kv_ops)
            ]

        # Step 2 for the ops that read the KV span; the row carries
        # every other op's totals and energy.
        db = self.config.double_buffered
        costs = tables.costs
        class_totals: List[float] = []
        dram_pj: List[List[float]] = []
        bram_pj: List[List[float]] = []
        for w_bits, w_cycles, totals, (dram, bram) in zip(
            row.w_bits, row.w_cycles, row.totals, row.traffic
        ):
            op_totals, dram, bram = list(totals), list(dram), list(bram)
            for p, slot, terms in kv:
                op_totals[p] = terms.total(w_cycles[p], db)
                moved = terms.dram_bits(w_bits[p])
                dram[slot] = moved * costs.dram_pj_per_bit
                bram[slot] = (moved / 8.0) * costs.bram_pj_per_byte
            class_totals.append(sum(op_totals))
            dram_pj.append(dram)
            bram_pj.append(bram)
        mac, rf, noc = (list(pj) for pj in row.shared)
        for _p, slot, terms in kv:
            mac[slot] = terms.macs * costs.mac_pj
            rf[slot] = terms.rf_bytes * costs.rf_pj_per_byte
            noc[slot] = terms.noc_bytes * costs.noc_pj_per_byte

        # Energy: each category's deltas added one at a time, in the
        # order a layer-by-layer walk deposits them (never pre-summed:
        # float addition is order-sensitive).
        layer_class = tables.layer_class
        n_layers = len(layer_class)
        by_layer = {
            "mac": [mac] * n_layers,
            "rf": [rf] * n_layers,
            "bram": [bram_pj[c] for c in layer_class],
            "noc": [noc] * n_layers,
            "dram": [dram_pj[c] for c in layer_class],
        }
        picojoules = [
            reduce(add, chain.from_iterable(by_layer[category]), 0.0)
            for category in _CATEGORIES
        ]
        return row, kv, ops, class_totals, picojoules

    # ----------------------------------------------------------------- API
    def _check_workload(self, workload: Workload) -> None:
        if workload.model is not self.model and workload.model != self.model:
            raise SimulationError(
                f"workload model {workload.model.name} does not match "
                f"simulator model {self.model.name}"
            )

    def totals(self, workload: Workload) -> Tuple[float, float]:
        """``(total_cycles, energy_uj)`` of the workload, with no records.

        The same floats as :meth:`simulate`'s ``total_cycles`` and
        ``energy.total_uj``, from the same pricing core, without building
        a ``LatencyBreakdown``, ``OpLatency`` or ``StageReport``.
        """
        _row, _kv, _ops, class_totals, picojoules = self._price(workload)
        layer_class = self._block_tables().layer_class
        return sum([class_totals[c] for c in layer_class]), sum(picojoules) / 1e6

    def simulate(self, workload: Workload) -> StageReport:
        """Simulate the workload across every block of the model.

        Prices the block's weight-independent terms once and its weight
        transfers once per layer class (see the module docstring), then
        builds the ``OpLatency`` records from them: one per op that
        fetches no weights, shared by every class, and one per class for
        each op that does. Member layers of a class share one record
        list.
        """
        row, kv, ops, class_totals, picojoules = self._price(workload)
        tables = self._block_tables()
        if ops is None:
            ops = workload.layer_ops()  # each record's op kind and MAC count
        terms = list(row.terms)
        for p, _slot, term in kv:
            terms[p] = term
        tphs_macs = sum(op.macs for op in ops if op.kind in TPHS_ELIGIBLE_OPS)
        macs = [
            tphs_macs if step.role == "tphs"
            else self._shaped(op, workload).macs if step.role == "gemm"
            else 0
            for op, step in zip(ops, tables.steps)
        ]
        # An op that fetches no weights has one record for every class.
        common = [
            None if step.weight is not None
            else OpLatency(
                op.kind, step.role,
                LatencyBreakdown() if term is None else term.breakdown(),
                op_macs,
            )
            for op, step, term, op_macs in zip(ops, tables.steps, terms, macs)
        ]
        class_records = [
            [
                record if record is not None
                else OpLatency(op.kind, step.role, term.breakdown(cycles), op_macs)
                for record, op, step, term, cycles, op_macs in zip(
                    common, ops, tables.steps, terms, w_cycles, macs
                )
            ]
            for w_cycles in row.w_cycles
        ]
        layer_class = tables.layer_class
        return StageReport(
            workload=workload,
            config=self.config,
            plan_name=self.plan.name,
            layer_ops=[class_records[index] for index in layer_class],
            energy=EnergyLedger(picojoules=dict(zip(_CATEGORIES, picojoules))),
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
