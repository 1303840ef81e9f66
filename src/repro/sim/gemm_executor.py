"""GEMM-mode op latency model.

In GEMM mode (the execution pattern of every prior work the paper
compares against, and of MEADOW's own K/V/Proj/MLP layers), an op's
operands are fetched from off-chip DRAM into BRAM, tiles stream through
the PE register files, and results store back to DRAM. Latency therefore
has four components: weight fetch, activation fetch, compute, store.

Vector ops (layer norm, softmax, activation) run on their dedicated
units but follow the same DRAM round-trip pattern in GEMM mode.

Every op is priced in two parts. :class:`OpTerms` holds everything that
does not depend on the op's weights — activation traffic, compute
cycles, MAC and on-chip energy — and :meth:`OpTerms.breakdown` /
:meth:`OpTerms.total` / :meth:`OpTerms.charge` add a weight transfer on
top. The simulator prices the terms once per workload (once per decode
batch for the ops that do not read the KV span) and the weight transfer
once per layer class; :func:`gemm_op_latency` and
:func:`vector_op_latency` do both for a single op.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..errors import SimulationError
from ..hardware import (
    DramModel,
    EnergyLedger,
    HardwareConfig,
    gemm_compute_cycles,
    layernorm_cycles,
    nonlinear_cycles,
    softmax_module_cycles,
)
from ..models import LayerOp, OpKind
from .breakdown import LatencyBreakdown

__all__ = [
    "OpTerms",
    "gemm_op_terms",
    "vector_op_terms",
    "gemm_op_latency",
    "vector_op_latency",
    "matmul_compute_cycles",
]


class OpTerms(NamedTuple):
    """The weight-independent terms of one op on one config.

    ``in_bits`` / ``out_bits`` are the activation bits the op moves over
    DRAM, ``input_fetch`` / ``compute`` / ``store`` its cycle counts, and
    ``macs`` / ``rf_bytes`` / ``noc_bytes`` the amounts its MAC, register
    file and NoC energy is charged on.
    """

    in_bits: float
    out_bits: float
    input_fetch: float
    compute: float
    store: float
    macs: float
    rf_bytes: float
    noc_bytes: float

    def breakdown(self, weight_fetch: float = 0.0) -> LatencyBreakdown:
        """The op's latency record given its weight-fetch cycles."""
        return LatencyBreakdown(weight_fetch, self.input_fetch, self.compute, self.store)

    def total(self, weight_fetch: float = 0.0, double_buffered: bool = True) -> float:
        """``breakdown(weight_fetch).total(double_buffered)``, same floats,
        without building the record."""
        if not double_buffered:
            return weight_fetch + self.input_fetch + self.compute + self.store
        return max(weight_fetch + self.input_fetch, self.compute) + self.store

    def dram_bits(self, w_bits: float = 0.0) -> float:
        """Bits crossing DRAM: weights, then activations in, then out."""
        return w_bits + self.in_bits + self.out_bits

    def charge(self, energy: EnergyLedger, w_bits: float = 0.0) -> None:
        """Deposit the op's energy, moving ``w_bits`` weight bits."""
        moved = self.dram_bits(w_bits)
        energy.add_macs(self.macs)
        energy.add_dram_bits(moved)
        energy.add_bram_bytes(moved / 8.0)
        energy.add_rf_bytes(self.rf_bytes)
        energy.add_noc_bytes(self.noc_bytes)


def matmul_compute_cycles(
    config: HardwareConfig,
    op: LayerOp,
    compute_scale: float = 1.0,
) -> float:
    """Compute cycles of a (possibly batched) matmul op on the PE fabric.

    ``compute_scale`` < 1 models sparse execution (e.g. N:M sparsity
    skips a fixed fraction of MACs).
    """
    if not op.is_matmul:
        raise SimulationError(f"{op.kind} is not a matmul op")
    per_instance = gemm_compute_cycles(config, op.rows, op.reduce, op.cols)
    return op.batch * per_instance * compute_scale


def gemm_op_terms(
    config: HardwareConfig,
    op: LayerOp,
    dram: DramModel,
    fetch_input: bool = True,
    store_output: bool = True,
    compute_scale: float = 1.0,
    input_refetch: float = 1.0,
) -> OpTerms:
    """Weight-independent terms of one matmul op in GEMM mode.

    See :func:`gemm_op_latency` for the arguments.
    """
    act = config.act_bits
    in_bits = float(op.input_elements * act) * input_refetch if fetch_input else 0.0
    out_bits = float(op.output_elements * act) if store_output else 0.0
    onchip_bytes = (op.input_elements + op.output_elements) * act / 8.0
    return OpTerms(
        in_bits=in_bits,
        out_bits=out_bits,
        input_fetch=dram.transfer_cycles(in_bits) if in_bits else 0.0,
        compute=matmul_compute_cycles(config, op, compute_scale),
        store=dram.transfer_cycles(out_bits) if out_bits else 0.0,
        macs=op.macs * compute_scale,
        rf_bytes=onchip_bytes,
        noc_bytes=onchip_bytes,
    )


def gemm_op_latency(
    config: HardwareConfig,
    op: LayerOp,
    weight_bits_total: Optional[int] = None,
    fetch_input: bool = True,
    store_output: bool = True,
    compute_scale: float = 1.0,
    weight_refetch: float = 1.0,
    input_refetch: float = 1.0,
    energy: Optional[EnergyLedger] = None,
) -> LatencyBreakdown:
    """Latency of one matmul op executed in GEMM mode.

    Args:
        config: hardware instance.
        op: the op (must be a matmul).
        weight_bits_total: total weight bits actually transferred
            (packed size); ``None`` means raw ``weight_elements *
            weight_bits``.
        fetch_input: whether activations come from DRAM (False when an
            upstream op left them in BRAM).
        store_output: whether results go back to DRAM.
        compute_scale: MAC-thinning factor for sparse baselines.
        weight_refetch/input_refetch: traffic multipliers from the tiled
            schedule when an operand cannot stay BRAM-resident (see
            :mod:`repro.sim.tiling`).
        energy: optional ledger to accumulate into.
    """
    if weight_refetch < 1.0 or input_refetch < 1.0:
        raise SimulationError("refetch factors must be >= 1")
    dram = DramModel.from_config(config)
    terms = gemm_op_terms(
        config, op, dram, fetch_input, store_output, compute_scale, input_refetch
    )
    w_bits = 0.0
    if op.has_weights:
        w_bits = (
            float(weight_bits_total)
            if weight_bits_total is not None
            else float(op.weight_elements * config.weight_bits)
        ) * weight_refetch
    if energy is not None:
        terms.charge(energy, w_bits)
    return terms.breakdown(dram.transfer_cycles(w_bits))


def vector_op_terms(
    config: HardwareConfig,
    op: LayerOp,
    dram: DramModel,
    fetch_input: bool = True,
    store_output: bool = True,
) -> OpTerms:
    """Terms of a LN / softmax / activation op in GEMM (unfused) mode.

    Vector ops carry no weights, run no MACs and bypass the register
    files: only their DRAM round trip and NoC traffic cost energy.
    """
    if op.kind is OpKind.SOFTMAX:
        compute = float(
            softmax_module_cycles(op.batch * op.rows, op.cols, config.n_softmax_units)
        )
    elif op.kind in (OpKind.LAYERNORM_1, OpKind.LAYERNORM_2):
        compute = float(layernorm_cycles(op.rows, op.cols, config.n_layernorm_units))
    elif op.kind is OpKind.ACTIVATION:
        compute = float(nonlinear_cycles(op.rows * op.cols, config.n_nonlinear_units))
    else:
        raise SimulationError(f"{op.kind} is not a vector op")

    in_bits = float(op.input_elements * config.act_bits) if fetch_input else 0.0
    out_bits = float(op.output_elements * config.act_bits) if store_output else 0.0
    return OpTerms(
        in_bits=in_bits,
        out_bits=out_bits,
        input_fetch=dram.transfer_cycles(in_bits) if in_bits else 0.0,
        compute=compute,
        store=dram.transfer_cycles(out_bits) if out_bits else 0.0,
        macs=0,
        rf_bytes=0.0,
        noc_bytes=(op.input_elements + op.output_elements) * config.act_bits / 8.0,
    )


def vector_op_latency(
    config: HardwareConfig,
    op: LayerOp,
    fetch_input: bool = True,
    store_output: bool = True,
    energy: Optional[EnergyLedger] = None,
) -> LatencyBreakdown:
    """Latency of a LN / softmax / activation op in GEMM (unfused) mode."""
    terms = vector_op_terms(
        config, op, DramModel.from_config(config), fetch_input, store_output
    )
    if energy is not None:
        terms.charge(energy)
    return terms.breakdown()
