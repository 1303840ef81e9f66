"""The benchmark's traced pass still finds every entry point it wraps.

``perfbench/layers.py`` wraps each layer's entry points by name
(``vars(owner)[attr]``), so renaming or deleting one of them — say
``ContinuousBatchingScheduler.advance_one`` or
``LatencySurface.decode_run_many`` — makes ``perfbench/run.py --trace
1`` die with a ``KeyError``. The module is loaded from its file here, as
the benchmark's worker process loads it, and one small fleet run is
traced through it.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path

from repro.fleet import FleetSimulator
from repro.serving import ContinuousBatchingScheduler

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_fleet_run_reports_scheduler_and_surface_calls(
    fast_engine, slow_engine, shard_budget, make_stream
):
    advance_until = vars(ContinuousBatchingScheduler)["advance_until"]
    tracer = _load_layers().LayerTracer()
    start = time.perf_counter()
    with tracer.installed():
        report = FleetSimulator(
            [fast_engine, slow_engine], kv_budget_bytes=shard_budget,
            max_batch=8,
        ).run(make_stream("bursty", n=12, seed=0))
    metrics = tracer.metrics(time.perf_counter() - start)
    assert sum(report.result.requests_per_shard) == 12
    assert metrics["scheduler.advance_calls"] > 0
    assert metrics["surface.calls"] > 0
    # Leaving the block restores the unwrapped methods.
    assert vars(ContinuousBatchingScheduler)["advance_until"] is advance_until
