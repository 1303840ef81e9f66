"""Performance simulator: cycle-level latency models of both dataflows,
workload simulation, inference metrics (TTFT/TBT/end-to-end), the
event-driven pipeline cross-validator, and the roofline model.
"""

from .breakdown import LatencyBreakdown, OpLatency, StageReport
from .gemm_executor import gemm_op_latency, matmul_compute_cycles, vector_op_latency
from .layer_sim import WorkloadSimulator, simulate
from .metrics import (
    GenerationLatency,
    LatencySummary,
    ValueCounts,
    end_to_end,
    percentile,
    tbt,
    tokens_per_second,
    ttft,
)
from .pipeline_sim import simulate_linear_pipeline, stage_occupancy
from .roofline import RooflinePoint, roofline_curve, roofline_point, workload_roofline
from .surface import LatencySurface, SurfacePoint
from .surface_store import SurfaceStore, engine_fingerprint
from .tiling import TiledGemm, TileShape, plan_tiled_gemm
from .trace import TraceEvent, build_trace, render_gantt, trace_to_csv, trace_to_json
from .tphs_executor import (
    TPHS_PIPELINE_STAGES,
    TphsSchedule,
    plan_tphs,
    tphs_block_latency,
)

__all__ = [
    "LatencyBreakdown",
    "OpLatency",
    "StageReport",
    "gemm_op_latency",
    "vector_op_latency",
    "matmul_compute_cycles",
    "WorkloadSimulator",
    "simulate",
    "GenerationLatency",
    "LatencySummary",
    "ValueCounts",
    "ttft",
    "tbt",
    "end_to_end",
    "percentile",
    "tokens_per_second",
    "simulate_linear_pipeline",
    "stage_occupancy",
    "LatencySurface",
    "SurfacePoint",
    "SurfaceStore",
    "engine_fingerprint",
    "RooflinePoint",
    "roofline_point",
    "roofline_curve",
    "workload_roofline",
    "TphsSchedule",
    "plan_tphs",
    "tphs_block_latency",
    "TPHS_PIPELINE_STAGES",
    "TraceEvent",
    "build_trace",
    "trace_to_csv",
    "trace_to_json",
    "render_gantt",
    "TileShape",
    "TiledGemm",
    "plan_tiled_gemm",
]
