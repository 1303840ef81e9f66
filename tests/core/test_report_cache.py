"""Tests for MeadowEngine's report cache: the fast-path latency surface."""

from __future__ import annotations

import pytest

from repro import MeadowEngine
from repro.models import Stage, decode_workload, prefill_workload
from repro.sim import LatencySurface


@pytest.fixture()
def engine(small_model, zcu12, shared_planner):
    return MeadowEngine(small_model, zcu12, planner=shared_planner)


class TestSimulateFast:
    def test_matches_full_simulation_exactly(self, engine, small_model):
        for wl in (
            prefill_workload(small_model, 128),
            decode_workload(small_model, 300, batch=4),
        ):
            point = engine.simulate_fast(wl)
            report = engine.simulate(wl)
            assert point.latency_s == report.latency_s
            assert point.total_cycles == report.total_cycles
            assert point.energy_uj == report.energy.total_uj

    def test_surface_is_lazy_and_shared(self, engine, small_model):
        assert engine._surface is None
        surface = engine.surface
        assert isinstance(surface, LatencySurface)
        assert engine.surface is surface
        engine.simulate_fast(decode_workload(small_model, 140))
        assert len(surface) == 1

    def test_fast_points_never_evict(self, engine, small_model):
        for ctx in range(100, 120):
            engine.simulate_fast(decode_workload(small_model, ctx))
        assert len(engine.surface) == 20

    def test_point_fields(self, engine, small_model):
        point = engine.simulate_fast(decode_workload(small_model, 150, batch=2))
        assert point.stage is Stage.DECODE
        assert point.tokens == 150
        assert point.batch == 2
        assert point.latency_s > 0 and point.energy_uj > 0
