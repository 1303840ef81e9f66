"""MEADOW reproduction: memory-efficient dataflow and data packing for
low-power edge LLMs (Moitra et al., MLSys 2025).

The package models the full MEADOW stack in Python:

* :mod:`repro.hardware` — the ZCU102-class tiled accelerator substrate;
* :mod:`repro.models` — OPT / DeiT shapes and prefill/decode workloads;
* :mod:`repro.quant` — W8A8 quantization and calibrated synthetic weights;
* :mod:`repro.packing` — the lossless weight-packing pipeline + WILU;
* :mod:`repro.functional` — bit-exact int8 functional simulator;
* :mod:`repro.sim` — cycle-level performance simulator (GEMM + TPHS);
* :mod:`repro.core` — execution plans, dataflow selector, MeadowEngine;
* :mod:`repro.baselines` — GEMM / CTA / FlightLLM comparison systems;
* :mod:`repro.analysis` — sweeps and table/figure renderers;
* :mod:`repro.serving` — request-level multi-user serving simulation;
* :mod:`repro.fleet` — multi-engine sharded serving, routing policies
  and the Pareto sweep driver.

Quickstart::

    from repro import MeadowEngine, OPT_125M, zcu102_config
    engine = MeadowEngine(OPT_125M, zcu102_config(dram_bandwidth_gbps=12))
    print(engine.prefill(512).latency_ms)   # TTFT
    print(engine.decode(576).latency_ms)    # TBT (64th token after 512)
"""

from .baselines import compare_systems, cta, flightllm, gemm_baseline
from .core import (
    DataflowDecision,
    DataflowMode,
    ExecutionPlan,
    MeadowEngine,
    PackingSummary,
    SparsityConfig,
    choose_dataflow,
    dataflow_grid,
)
from .errors import (
    CapacityError,
    ConfigError,
    PackingError,
    ReproError,
    ScheduleError,
    SimulationError,
    UnknownRequestError,
)
from .fleet import (
    FleetReport,
    FleetSimulator,
    ROUTING_POLICIES,
    SweepDriver,
    make_policy,
)
from .hardware import HardwareConfig, ZCU102, scaled_pe_config, zcu102_config
from .models import (
    DEIT_B,
    DEIT_S,
    MODEL_REGISTRY,
    OPT_125M,
    OPT_350M,
    OPT_1_3B,
    TransformerConfig,
    Workload,
    decode_workload,
    get_model,
    prefill_workload,
    vit_workload,
)
from .packing import (
    PackedWeights,
    PackingConfig,
    PackingLevel,
    PackingPlanner,
    pack_weights,
    packing_ablation,
)
from .serving import (
    ClosedLoopSource,
    FleetMetrics,
    LengthDistribution,
    Request,
    ServingSimulator,
    bursty_stream,
    poisson_stream,
)
from .sim import (
    GenerationLatency,
    StageReport,
    end_to_end,
    simulate,
    tbt,
    ttft,
    workload_roofline,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "MeadowEngine",
    "PackingSummary",
    "ExecutionPlan",
    "DataflowMode",
    "DataflowDecision",
    "SparsityConfig",
    "choose_dataflow",
    "dataflow_grid",
    "HardwareConfig",
    "ZCU102",
    "zcu102_config",
    "scaled_pe_config",
    "TransformerConfig",
    "OPT_125M",
    "OPT_350M",
    "OPT_1_3B",
    "DEIT_S",
    "DEIT_B",
    "MODEL_REGISTRY",
    "get_model",
    "Workload",
    "prefill_workload",
    "decode_workload",
    "vit_workload",
    "PackingLevel",
    "PackingConfig",
    "PackedWeights",
    "PackingPlanner",
    "pack_weights",
    "packing_ablation",
    "Request",
    "LengthDistribution",
    "poisson_stream",
    "bursty_stream",
    "ClosedLoopSource",
    "ServingSimulator",
    "FleetMetrics",
    "FleetSimulator",
    "FleetReport",
    "SweepDriver",
    "ROUTING_POLICIES",
    "make_policy",
    "StageReport",
    "GenerationLatency",
    "simulate",
    "ttft",
    "tbt",
    "end_to_end",
    "workload_roofline",
    "gemm_baseline",
    "cta",
    "flightllm",
    "compare_systems",
    "ReproError",
    "ConfigError",
    "CapacityError",
    "PackingError",
    "ScheduleError",
    "SimulationError",
    "UnknownRequestError",
]
