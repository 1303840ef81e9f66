"""Shared fixtures for the fleet test suite.

Like the serving suite, fleet tests run on a deliberately tiny decoder
so hundreds of scheduler iterations per scenario stay cheap — but over
*two* hardware classes (a 12 Gbps "fast" box and a 1 Gbps "slow" box)
so heterogeneity-aware routing has something to exploit. Engines share
one packing planner, the configuration fleet sweeps are meant to reuse.
"""

from __future__ import annotations

import pytest

from oracles.source_loop import run_source
from repro import ExecutionPlan, MeadowEngine, zcu102_config
from repro.errors import ReproError
from repro.fleet import FleetSimulator
from repro.models import TransformerConfig
from repro.packing import PackingPlanner
from repro.serving import (
    ContinuousBatchingScheduler,
    FleetMetrics,
    LengthDistribution,
    ServingSimulator,
    bursty_stream,
    poisson_stream,
)

MB = 1024 * 1024


@pytest.fixture(scope="session")
def fleet_model() -> TransformerConfig:
    """A 2-layer, 64-wide decoder: cheap per simulate() call."""
    return TransformerConfig(
        name="fleet-tiny", n_layers=2, d_model=64, n_heads=4, d_ff=128,
        max_seq_len=256,
    )


@pytest.fixture(scope="session")
def fast_engine(fleet_model) -> MeadowEngine:
    """The 12 Gbps shard; owns the planner every clone shares."""
    return MeadowEngine(
        fleet_model,
        zcu102_config(12.0).replace(dram_capacity_bytes=64 * MB),
        ExecutionPlan.meadow(),
        PackingPlanner(depth_buckets=1),
    )


@pytest.fixture(scope="session")
def slow_engine(fast_engine) -> MeadowEngine:
    """The 1 Gbps shard, cloned off the fast one (shared planner)."""
    return fast_engine.clone(config=fast_engine.config.with_bandwidth(1.0))


@pytest.fixture(scope="session")
def prompt_dist() -> LengthDistribution:
    return LengthDistribution("uniform", 8, 64)


@pytest.fixture(scope="session")
def output_dist() -> LengthDistribution:
    return LengthDistribution("geometric", 8, 32)


@pytest.fixture(scope="session")
def shard_budget(fleet_model, fast_engine) -> int:
    """KV budget worth four worst-case requests per shard."""
    worst = fleet_model.n_layers * fleet_model.kv_cache_bytes_per_layer(
        fleet_model.max_seq_len, fast_engine.config.act_bits
    )
    return 4 * worst


@pytest.fixture(scope="session")
def make_stream(prompt_dist, output_dist):
    """Factory for seeded scenario streams shared across fleet tests."""

    def _make(kind: str = "poisson", n: int = 16, seed: int = 0, rate: float = 50.0):
        if kind == "poisson":
            return poisson_stream(n, rate, prompt_dist, output_dist, seed=seed)
        return bursty_stream(n, 8, 0.02, prompt_dist, output_dist, seed=seed)

    return _make


def _outcome(run):
    """``run()``'s value, or the type and text of the error it raised."""
    try:
        return run()
    except ReproError as error:
        return type(error), str(error)


@pytest.fixture(scope="session")
def assert_one_shard_is_source_loop():
    """Check that a one-shard fleet and ``ServingSimulator`` serve a
    source exactly as ``oracles.source_loop`` does on one scheduler:
    the same events, steps, records, aggregates, rejections and
    metrics, or the same error. Returns the loop's result (or error).

    ``make_source`` builds a fresh source per call (closed-loop sources
    are single-use); ``knobs`` go to every driver.
    """

    def _check(engine, make_source, **knobs):
        loop = _outcome(lambda: run_source(
            ContinuousBatchingScheduler(engine, **knobs), make_source()
        ))
        fleet = _outcome(lambda: FleetSimulator(
            [engine], policy="round-robin", **knobs
        ).run(make_source()))
        serve = _outcome(
            lambda: ServingSimulator(engine, **knobs).run(make_source())
        )
        if isinstance(loop, tuple):
            assert fleet == serve == loop
            return loop
        shard = fleet.result.shard_results[0]
        assert shard.records == loop.records
        assert shard.events == loop.events
        assert shard.steps == loop.steps
        for name in (
            "peak_kv_bytes", "max_queue_depth", "duration_s", "total_energy_uj",
        ):
            assert getattr(shard, name) == getattr(loop, name), name
        assert fleet.result.n_rejected_followups == loop.n_rejected_followups
        assert fleet.result.source_name == loop.source_name
        assert fleet.metrics == FleetMetrics.from_result(loop)
        # repro serve's report is that shard, labelled like the loop's.
        assert serve.result == loop and serve.result.steps == loop.steps
        assert serve.metrics == fleet.metrics
        return loop

    return _check
