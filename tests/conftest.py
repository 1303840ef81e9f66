"""Shared fixtures for the MEADOW reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro import OPT_125M, zcu102_config
from repro.models import TransformerConfig
from repro.packing import PackingConfig, PackingPlanner


@pytest.fixture(scope="session")
def tiny_model() -> TransformerConfig:
    """A 2-layer, 32-wide decoder small enough for functional tests."""
    return TransformerConfig(
        name="tiny", n_layers=2, d_model=32, n_heads=4, d_ff=64, max_seq_len=128
    )


@pytest.fixture(scope="session")
def small_model() -> TransformerConfig:
    """A mid-size decoder for performance-model tests (fast, non-trivial)."""
    return TransformerConfig(
        name="small", n_layers=4, d_model=256, n_heads=8, d_ff=1024, max_seq_len=1024
    )


@pytest.fixture(scope="session")
def zcu12():
    """The Table 1 ZCU102 config at 12 Gbps."""
    return zcu102_config(12.0)


@pytest.fixture(scope="session")
def zcu1():
    """The Table 1 ZCU102 config at the paper's most constrained 1 Gbps."""
    return zcu102_config(1.0)


@pytest.fixture(scope="session")
def opt125m():
    """The OPT-125M configuration."""
    return OPT_125M


@pytest.fixture(scope="session")
def shared_planner() -> PackingPlanner:
    """A session-wide packing planner so stats are computed once."""
    return PackingPlanner(config=PackingConfig(), depth_buckets=2)


@pytest.fixture(scope="session")
def capacity_rps():
    """Rough saturation rate of one engine, for overload tests.

    Assumes the serving and fleet suites' length model (prompts uniform
    on 8-64, outputs geometric with mean 8): a mean prefill plus a mean
    output's share of full-batch decode steps.
    """

    def _capacity(engine, max_batch: int) -> float:
        surface = engine.surface
        decode_s = surface.decode(48, batch=max_batch).latency_s / max_batch
        return 1.0 / (surface.prefill(36).latency_s + 8 * decode_s)

    return _capacity


@pytest.fixture()
def rng() -> np.random.Generator:
    """Deterministic RNG for test data."""
    return np.random.default_rng(12345)
