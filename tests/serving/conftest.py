"""Shared fixtures for the serving test suite.

Serving tests simulate hundreds of scheduler iterations per scenario,
so they run on a deliberately tiny OPT-style decoder on slow-DRAM
hardware with a squeezed KV budget: small enough that the whole
directory finishes in a few seconds, constrained enough that admission
control actually engages.
"""

from __future__ import annotations

from typing import Tuple

import pytest

from repro import ExecutionPlan, MeadowEngine, zcu102_config
from repro.models import TransformerConfig
from repro.packing import PackingPlanner
from repro.serving import (
    ContinuousBatchingScheduler,
    LengthDistribution,
    RequestSource,
    poisson_stream,
)

MB = 1024 * 1024


@pytest.fixture(scope="session")
def serving_model() -> TransformerConfig:
    """A 2-layer, 64-wide decoder: cheap per simulate() call."""
    return TransformerConfig(
        name="serving-tiny", n_layers=2, d_model=64, n_heads=4, d_ff=128,
        max_seq_len=256,
    )


@pytest.fixture(scope="session")
def serving_hardware():
    """Slow-DRAM (1 Gbps) hardware with a small 64 MB DRAM part."""
    return zcu102_config(1.0).replace(dram_capacity_bytes=64 * MB)


@pytest.fixture(scope="session")
def serving_engine(serving_model, serving_hardware) -> MeadowEngine:
    """One engine for the whole session: shared planner + report cache."""
    return MeadowEngine(
        serving_model,
        serving_hardware,
        ExecutionPlan.meadow(),
        PackingPlanner(depth_buckets=1),
    )


@pytest.fixture(scope="session")
def prompt_dist() -> LengthDistribution:
    return LengthDistribution("uniform", 8, 64)


@pytest.fixture(scope="session")
def output_dist() -> LengthDistribution:
    return LengthDistribution("geometric", 8, 32)


@pytest.fixture(scope="session")
def make_scenario(serving_engine, serving_model, prompt_dist, output_dist):
    """Factory: a fresh ``(scheduler, source)`` pair, a seeded Poisson
    stream unless ``source`` is given; ``run_source(*pair)`` serves it.

    ``budget_requests`` sizes the KV budget in units of worst-case
    requests, so tests can force admission-control pressure (e.g. 2
    concurrent requests max) without computing byte counts themselves.
    """

    def _make(
        n_requests: int = 12,
        seed: int = 0,
        rate_rps: float = 20.0,
        budget_requests: float = 4.0,
        max_batch: int = 8,
        source=None,
    ) -> Tuple[ContinuousBatchingScheduler, RequestSource]:
        if source is None:
            source = poisson_stream(
                n_requests, rate_rps, prompt_dist, output_dist, seed=seed
            )
        worst_case = serving_model.n_layers * serving_model.kv_cache_bytes_per_layer(
            serving_model.max_seq_len, serving_engine.config.act_bits
        )
        scheduler = ContinuousBatchingScheduler(
            serving_engine,
            kv_budget_bytes=int(worst_case * budget_requests),
            max_batch=max_batch,
        )
        return scheduler, source

    return _make
