"""SweepDriver tests: grids, Pareto extraction, golden JSON output.

The golden class pins the Pareto document of a small fixed sweep —
including the acceptance claim of the fleet subsystem: on a bursty
workload over a heterogeneous (fast + slow) fleet, the surface-informed
predicted-latency router strictly dominates round-robin on p99 TTFT.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.fleet import SWEEP_SCHEMA_VERSION, SweepDriver, SweepPoint
from repro.fleet.sweep import _dominates


def _point(**overrides) -> SweepPoint:
    defaults = dict(
        n_engines=1, policy="jsq", max_batch=8, ctx_bucket=1,
        bandwidths_gbps=(12.0,), throughput_tok_s=100.0,
        ttft_p50_s=0.1, ttft_p99_s=0.2, tbt_p50_s=0.01, tbt_p99_s=0.02,
        e2e_p99_s=1.0, n_requests=10, total_generated_tokens=100,
        duration_s=1.0, max_queue_depth=0, peak_kv_fraction=0.5,
        energy_uj=1000.0, energy_per_token_uj=10.0,
    )
    defaults.update(overrides)
    return SweepPoint(**defaults)


class TestDominance:
    def test_better_everywhere_dominates(self):
        a = _point(throughput_tok_s=200.0, ttft_p99_s=0.1, tbt_p99_s=0.01)
        b = _point()
        assert _dominates(a, b) and not _dominates(b, a)

    def test_tradeoff_points_do_not_dominate(self):
        fast_ttft = _point(ttft_p99_s=0.1, throughput_tok_s=50.0)
        high_tput = _point(ttft_p99_s=0.3, throughput_tok_s=300.0)
        assert not _dominates(fast_ttft, high_tput)
        assert not _dominates(high_tput, fast_ttft)

    def test_identical_points_do_not_dominate_each_other(self):
        assert not _dominates(_point(), _point())

    def test_energy_is_not_a_front_objective(self):
        # v2 reports energy but the dominance relation ignores it: a
        # power-hungry point with better latency/throughput still wins.
        hungry = _point(throughput_tok_s=200.0, ttft_p99_s=0.1,
                        tbt_p99_s=0.01, energy_uj=1e9,
                        energy_per_token_uj=1e7)
        frugal = _point(energy_uj=1.0, energy_per_token_uj=0.01)
        assert _dominates(hungry, frugal)
        assert not _dominates(frugal, hungry)


class TestDriverMechanics:
    def test_engine_cache_and_planner_sharing(self, fast_engine):
        driver = SweepDriver(fast_engine, bandwidths_gbps=[12.0, 1.0])
        assert driver.engine_for(12.0) is fast_engine  # base reused
        slow = driver.engine_for(1.0)
        assert driver.engine_for(1.0) is slow  # cached
        assert slow.planner is fast_engine.planner  # stats shared
        assert slow.config.dram_bandwidth_gbps == 1.0

    def test_fleet_profile_cycles(self, fast_engine):
        driver = SweepDriver(fast_engine, bandwidths_gbps=[12.0, 1.0])
        assert driver.fleet_profile(3) == (12.0, 1.0, 12.0)
        with pytest.raises(ConfigError):
            driver.fleet_profile(0)

    def test_empty_profile_rejected(self, fast_engine):
        with pytest.raises(ConfigError):
            SweepDriver(fast_engine, bandwidths_gbps=[])


@pytest.fixture(scope="module")
def sweep_result(fast_engine, shard_budget, make_stream):
    driver = SweepDriver(
        fast_engine,
        bandwidths_gbps=[12.0, 1.0],
        kv_budget_bytes=[shard_budget, shard_budget],
    )
    return driver.sweep(
        lambda: make_stream("bursty", n=24, seed=0),
        n_engines_grid=[1, 2],
        policies=["round-robin", "predicted-latency"],
        max_batch_grid=[8],
        ctx_bucket_grid=[1],
    )


class TestSweepGrid:
    def test_grid_shape_and_order(self, sweep_result):
        keys = [(p.n_engines, p.policy) for p in sweep_result.points]
        assert keys == [
            (1, "round-robin"),
            (1, "predicted-latency"),
            (2, "round-robin"),
            (2, "predicted-latency"),
        ]

    def test_sweep_is_reproducible(
        self, fast_engine, shard_budget, make_stream, sweep_result
    ):
        driver = SweepDriver(
            fast_engine,
            bandwidths_gbps=[12.0, 1.0],
            kv_budget_bytes=[shard_budget, shard_budget],
        )
        again = driver.sweep(
            lambda: make_stream("bursty", n=24, seed=0),
            n_engines_grid=[1, 2],
            policies=["round-robin", "predicted-latency"],
            max_batch_grid=[8],
            ctx_bucket_grid=[1],
        )
        assert again.points == sweep_result.points

    def test_predicted_latency_strictly_beats_round_robin_on_p99_ttft(
        self, sweep_result
    ):
        # The fleet acceptance claim, on the heterogeneous 2-engine row.
        by_policy = {
            p.policy: p for p in sweep_result.points if p.n_engines == 2
        }
        assert (
            by_policy["predicted-latency"].ttft_p99_s
            < by_policy["round-robin"].ttft_p99_s
        )

    def test_energy_axis_populated_and_consistent(self, sweep_result):
        for p in sweep_result.points:
            assert p.energy_uj > 0
            assert p.energy_per_token_uj == pytest.approx(
                p.energy_uj / p.total_generated_tokens
            )
        # Energy is selectable through best_by even though the Pareto
        # objectives ignore it.
        frugal = sweep_result.best_by("energy_per_token_uj")
        assert frugal in sweep_result.points


class TestParetoJson:
    def test_document_schema(self, sweep_result):
        doc = sweep_result.to_json()
        assert doc["version"] == SWEEP_SCHEMA_VERSION
        assert doc["model"] == "fleet-tiny"
        assert doc["objectives"] == {
            "throughput_tok_s": "max",
            "ttft_p99_s": "min",
            "tbt_p99_s": "min",
        }
        assert len(doc["points"]) == 4
        assert 1 <= len(doc["pareto_front"]) <= 4
        front_flags = [p["pareto"] for p in doc["points"]]
        assert sum(front_flags) == len(doc["pareto_front"])
        for entry in doc["points"]:
            for field in (
                "n_engines", "policy", "max_batch", "ctx_bucket",
                "bandwidths_gbps", "throughput_tok_s", "ttft_p99_s",
                "tbt_p99_s", "pareto",
            ):
                assert field in entry

    def test_document_round_trips_through_json(self, sweep_result):
        doc = sweep_result.to_json()
        assert json.loads(json.dumps(doc)) == doc

    def test_front_members_are_mutually_non_dominating(self, sweep_result):
        front = sweep_result.pareto_front()
        for a in front:
            for b in front:
                assert not _dominates(a, b)

    def test_front_dominates_every_non_member(self, sweep_result):
        front = set(sweep_result.pareto_front())
        for p in sweep_result.points:
            if p not in front:
                assert any(_dominates(q, p) for q in front)


class TestGoldenPareto:
    """Pins the Pareto document of the fixed sweep above.

    Any change to the scheduler, the fleet loop, the routers or the
    latency model that shifts these numbers must update them
    consciously (``rel=1e-9`` tolerates nothing but libm noise).
    """

    GOLDEN = {
        (1, "round-robin"): (5463.184162257127, 0.0010955888266666657),
        (1, "predicted-latency"): (5463.184162257127, 0.0010955888266666657),
        (2, "round-robin"): (3968.5942411559367, 0.005468125759999999),
        (2, "predicted-latency"): (5470.076561747375, 0.0010465452133333307),
    }
    GOLDEN_FRONT = [(2, "predicted-latency")]

    def test_point_metrics_pinned(self, sweep_result):
        assert len(sweep_result.points) == len(self.GOLDEN)
        for p in sweep_result.points:
            tput, ttft_p99 = self.GOLDEN[(p.n_engines, p.policy)]
            assert p.throughput_tok_s == pytest.approx(tput, rel=1e-9)
            assert p.ttft_p99_s == pytest.approx(ttft_p99, rel=1e-9)
            assert p.total_generated_tokens == 234

    def test_front_membership_pinned(self, sweep_result):
        doc = sweep_result.to_json()
        front = [
            (p["n_engines"], p["policy"]) for p in doc["pareto_front"]
        ]
        assert front == self.GOLDEN_FRONT


class TestBestBy:
    def test_selects_extremes_per_attribute(self, sweep_result):
        fastest = sweep_result.best_by("ttft_p99_s")
        assert fastest.ttft_p99_s == min(
            p.ttft_p99_s for p in sweep_result.points
        )
        richest = sweep_result.best_by("throughput_tok_s", minimize=False)
        assert richest.throughput_tok_s == max(
            p.throughput_tok_s for p in sweep_result.points
        )

    def test_unknown_attribute_lists_the_valid_ones(self, sweep_result):
        with pytest.raises(ConfigError) as err:
            sweep_result.best_by("p99_ttft")  # plausible typo
        msg = str(err.value)
        assert "unknown sweep attribute 'p99_ttft'" in msg
        # The error teaches the caller the real names.
        assert "ttft_p99_s" in msg
        assert "throughput_tok_s" in msg
        assert "energy_per_token_uj" in msg


class TestParallelSweep:
    """workers=N fan-out: bit-identical results, surfaces merged back."""

    def test_two_workers_bit_identical_to_serial(
        self, fast_engine, shard_budget, make_stream, sweep_result
    ):
        driver = SweepDriver(
            fast_engine,
            bandwidths_gbps=[12.0, 1.0],
            kv_budget_bytes=[shard_budget, shard_budget],
        )
        fanned = driver.sweep(
            lambda: make_stream("bursty", n=24, seed=0),
            n_engines_grid=[1, 2],
            policies=["round-robin", "predicted-latency"],
            max_batch_grid=[8],
            ctx_bucket_grid=[1],
            workers=2,
        )
        assert fanned.points == sweep_result.points
        assert json.dumps(fanned.to_json(), sort_keys=True) == json.dumps(
            sweep_result.to_json(), sort_keys=True
        )

    def test_worker_surface_deltas_merge_into_parent(
        self, fast_engine, shard_budget, make_stream
    ):
        driver = SweepDriver(
            fast_engine,
            bandwidths_gbps=[12.0, 1.0],
            kv_budget_bytes=[shard_budget, shard_budget],
        )
        before = len(driver.engine_for(1.0).surface)
        driver.sweep(
            lambda: make_stream("bursty", n=12, seed=1),
            n_engines_grid=[2],
            policies=["round-robin", "predicted-latency"],
            max_batch_grid=[8],
            ctx_bucket_grid=[1],
            workers=2,
        )
        # Every operating point the workers simulated came home: a
        # serial re-sweep on this parent is pure dict hits.
        after = len(driver.engine_for(1.0).surface)
        assert after > before
        assert len(driver.engine_for(12.0).surface) > 0

    def test_workers_one_takes_the_serial_path(
        self, fast_engine, shard_budget, make_stream, sweep_result
    ):
        driver = SweepDriver(
            fast_engine,
            bandwidths_gbps=[12.0, 1.0],
            kv_budget_bytes=[shard_budget, shard_budget],
        )
        again = driver.sweep(
            lambda: make_stream("bursty", n=24, seed=0),
            n_engines_grid=[1, 2],
            policies=["round-robin", "predicted-latency"],
            max_batch_grid=[8],
            ctx_bucket_grid=[1],
            workers=1,
        )
        assert again.points == sweep_result.points
