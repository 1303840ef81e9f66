"""Execution plans: how a model maps onto the MEADOW fabric.

A plan answers, per Table 2 of the paper, four questions:

1. Which dataflow runs the ``Q + SM(QK^T) x V`` ops? (GEMM or TPHS)
2. Is weight packing applied, and at which level?
3. Is token compression applied (the CTA baseline)?
4. Is N:M weight sparsity applied (the FlightLLM baseline), and do
   decode-time attention intermediates stay on chip?

The four named constructors reproduce the paper's evaluation settings:

================  ==========  ==========  =========  ============
Plan              KV/Proj/MLP Q,SM(QKT)V  Packing    Extras
================  ==========  ==========  =========  ============
``meadow``        GEMM        TPHS        REINDEX    —
``gemm_baseline`` GEMM        GEMM        —          —
``cta``           GEMM        GEMM        —          token compression
``flightllm``     GEMM        GEMM        —          N:M sparsity, on-chip decode intermediates
================  ==========  ==========  =========  ============
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ConfigError, check_count, check_real
from ..packing import PackingConfig, PackingLevel

__all__ = ["DataflowMode", "SparsityConfig", "ExecutionPlan"]


class DataflowMode(enum.Enum):
    """Dataflow choice for the attention pipeline ops."""

    GEMM = "gemm"
    TPHS = "tphs"


@dataclass(frozen=True)
class SparsityConfig:
    """N:M structured weight sparsity (FlightLLM-style).

    ``n`` of every ``m`` weights participate in compute. Following the
    paper's Sec. 6.4 modelling of FlightLLM ("unstructured sparsity can
    lower compute requirements [but] leaves input fetch latency largely
    unoptimized ... does not apply any weight packing"), the default
    transfers the *dense* W8A8 matrix and only thins MACs. Setting
    ``transfer_compressed=True`` additionally ships only the kept values
    plus ``index_bits`` of position metadata each (an extension for
    what-if studies).
    """

    n: int = 2
    m: int = 4
    index_bits: int = 2
    transfer_compressed: bool = False

    def __post_init__(self) -> None:
        if not (0 < self.n <= self.m):
            raise ConfigError(f"need 0 < n <= m, got {self.n}:{self.m}")
        bits = check_count("index_bits", self.index_bits, 0)
        object.__setattr__(self, "index_bits", bits)

    @property
    def density(self) -> float:
        """Fraction of MACs actually executed."""
        return self.n / self.m

    def weight_bits_factor(self, weight_bits: int) -> float:
        """Transferred-bits multiplier vs the dense matrix."""
        if not self.transfer_compressed:
            return 1.0
        return self.n * (weight_bits + self.index_bits) / (self.m * weight_bits)


@dataclass(frozen=True)
class ExecutionPlan:
    """Complete mapping policy for one simulated system."""

    name: str
    attention_dataflow: DataflowMode = DataflowMode.TPHS
    packing: Optional[PackingConfig] = field(
        default_factory=lambda: PackingConfig(level=PackingLevel.REINDEX)
    )
    token_keep_ratio: float = 1.0
    sparsity: Optional[SparsityConfig] = None
    decode_onchip_intermediates: bool = False

    def __post_init__(self) -> None:
        check_real("token_keep_ratio", self.token_keep_ratio, 0, 1, "(]")
        if self.packing is not None and self.sparsity is not None:
            raise ConfigError("packing and N:M sparsity are mutually exclusive here")
        if self.token_keep_ratio < 1.0 and self.attention_dataflow is not DataflowMode.GEMM:
            # Token compression reshapes the standalone attention ops;
            # the fused TPHS block would silently ignore it.
            raise ConfigError(
                "token compression requires the GEMM attention dataflow"
            )

    # ------------------------------------------------------------- presets
    @classmethod
    def meadow(
        cls,
        packing_level: PackingLevel = PackingLevel.REINDEX,
        packing: Optional[PackingConfig] = None,
        attention_dataflow: DataflowMode = DataflowMode.TPHS,
    ) -> "ExecutionPlan":
        """The full MEADOW system (TPHS + weight packing)."""
        cfg = packing if packing is not None else PackingConfig(level=packing_level)
        return cls(name="meadow", attention_dataflow=attention_dataflow, packing=cfg)

    @classmethod
    def gemm_baseline(cls) -> "ExecutionPlan":
        """Every op in GEMM mode, raw weights — the paper's baseline."""
        return cls(name="gemm", attention_dataflow=DataflowMode.GEMM, packing=None)

    @classmethod
    def cta(cls, token_keep_ratio: float = 0.6) -> "ExecutionPlan":
        """CTA (Wang et al., 2023): token compression, all-GEMM, no packing.

        The keep ratio is CTA's workload-dependent compression strength;
        0.6 sits mid-range of the ratios their paper reports.
        """
        return cls(
            name="cta",
            attention_dataflow=DataflowMode.GEMM,
            packing=None,
            token_keep_ratio=token_keep_ratio,
        )

    @classmethod
    def flightllm(cls, sparsity: Optional[SparsityConfig] = None) -> "ExecutionPlan":
        """FlightLLM (Zeng et al., 2024): N:M sparse weights, all-GEMM,
        decode-time attention intermediates held on chip."""
        return cls(
            name="flightllm",
            attention_dataflow=DataflowMode.GEMM,
            packing=None,
            sparsity=sparsity or SparsityConfig(),
            decode_onchip_intermediates=True,
        )
