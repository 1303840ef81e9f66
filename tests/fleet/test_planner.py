"""CapacityPlanner tests: queueing model, Wardrop split, validation.

The planner's whole claim is "simulator-grade capacity answers without
simulating", so the suite checks the model's *shape* (monotonicity,
stability boundaries, split behavior) and then closes the loop by
validating its p99 TTFT against real fleet simulations within the
documented bound.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    CapacityPlanner,
    PLANNER_P99_REL_ERR_BOUND,
    WorkloadModel,
    validate_planner,
)


@pytest.fixture(scope="module")
def workload(prompt_dist, output_dist) -> WorkloadModel:
    return WorkloadModel.from_dists(
        prompt_dist, output_dist, n_samples=96, seed=3
    )


@pytest.fixture(scope="module")
def planner(fast_engine, workload) -> CapacityPlanner:
    """Heterogeneous 12/1 Gbps planner on the tiny fleet model."""
    return CapacityPlanner(
        fast_engine, [12.0, 1.0], workload, max_batch=8, ctx_bucket=8
    )


@pytest.fixture(scope="module")
def homogeneous(fast_engine, workload) -> CapacityPlanner:
    """All-fast planner: isolates the queueing model from the split."""
    return CapacityPlanner(
        fast_engine, [12.0], workload, max_batch=8, ctx_bucket=8
    )


class TestWorkloadModel:
    def test_sampling_is_seeded_and_in_range(self, prompt_dist, output_dist):
        a = WorkloadModel.from_dists(prompt_dist, output_dist, 64, seed=9)
        b = WorkloadModel.from_dists(prompt_dist, output_dist, 64, seed=9)
        c = WorkloadModel.from_dists(prompt_dist, output_dist, 64, seed=10)
        assert a == b
        assert a != c
        assert a.n_samples == 64
        assert all(8 <= p <= 64 for p in a.prompt_tokens)
        assert all(1 <= o <= 32 for o in a.output_tokens)
        assert a.mean_output_tokens == pytest.approx(
            sum(a.output_tokens) / 64
        )

    def test_rejects_empty_and_mismatched_samples(self, prompt_dist, output_dist):
        with pytest.raises(ConfigError):
            WorkloadModel.from_dists(prompt_dist, output_dist, n_samples=0)
        with pytest.raises(ConfigError):
            WorkloadModel(prompt_tokens=(8, 16), output_tokens=(4,))
        with pytest.raises(ConfigError):
            WorkloadModel(prompt_tokens=(8, 0), output_tokens=(4, 4))

    def test_oversized_prompts_rejected_by_planner(
        self, fast_engine, planner
    ):
        huge = WorkloadModel(
            prompt_tokens=(fast_engine.model.max_seq_len,),
            output_tokens=(8,),
        )
        bad = CapacityPlanner(fast_engine, [12.0], huge)
        with pytest.raises(ConfigError, match="max_seq_len"):
            bad.forecast(1, 1.0)


class TestForecastShape:
    def test_stable_forecast_is_well_formed(self, homogeneous):
        f = homogeneous.forecast(1, 200.0)
        assert f.stable
        assert 0.0 < f.utilization < 1.0
        assert f.throughput_tok_s > 0.0
        assert 0.0 < f.ttft_p50_s <= f.ttft_p99_s < math.inf
        assert f.shards[0].decode_batch >= 1
        assert "stable" in f.format_report()

    def test_p99_ttft_monotone_in_rate(self, homogeneous):
        rates = [200.0, 1000.0, 2000.0, 4000.0]
        p99s = [homogeneous.forecast(1, r).ttft_p99_s for r in rates]
        assert p99s == sorted(p99s)

    def test_more_engines_never_hurt(self, homogeneous):
        one = homogeneous.forecast(1, 2000.0).ttft_p99_s
        two = homogeneous.forecast(2, 2000.0).ttft_p99_s
        four = homogeneous.forecast(4, 2000.0).ttft_p99_s
        assert two <= one
        assert four <= two

    def test_decode_saturation_sends_ttft_to_infinity(self, homogeneous):
        """Past decode capacity the fleet is OVERLOADED even though
        prefill work alone still fits: slot-bounded admission holds the
        excess in a pending queue that grows without bound, so TTFT
        diverges while delivered throughput stays capped."""
        f = homogeneous.forecast(1, 6000.0)
        shard = f.shards[0]
        assert not f.stable
        assert shard.utilization >= 1.0
        assert shard.decode_batch == homogeneous.max_batch
        rho_p = 6000.0 * homogeneous.shard_model(12.0).mean_prefill_s
        assert rho_p < 1.0
        assert math.isinf(f.ttft_p99_s)
        assert "OVERLOADED" in f.format_report()
        # Delivered throughput is capacity-capped below the offered load.
        offered = 6000.0 * homogeneous.workload.mean_output_tokens
        assert 0.0 < f.throughput_tok_s < offered

    def test_prefill_saturation_sends_ttft_to_infinity(self, homogeneous):
        rate = 1.1 / homogeneous.shard_model(12.0).mean_prefill_s
        f = homogeneous.forecast(1, rate)
        assert not f.stable
        assert math.isinf(f.ttft_p99_s)

    def test_input_validation(self, homogeneous, fast_engine, workload):
        with pytest.raises(ConfigError):
            homogeneous.forecast(1, 0.0)
        with pytest.raises(ConfigError):
            homogeneous.forecast(0, 10.0)
        with pytest.raises(ConfigError):
            CapacityPlanner(fast_engine, [12.0], workload, max_batch=0)
        with pytest.raises(ConfigError):
            CapacityPlanner(fast_engine, [12.0], workload, ctx_bucket=0)


class TestWardropSplit:
    def test_moderate_load_starves_the_slow_shard(self, planner):
        """The predicted-latency router never queues on a 1 Gbps box
        while the 12 Gbps box answers sooner — the equilibrium split
        must reproduce that, not spread load capacity-proportionally."""
        f = planner.forecast(2, 1000.0)
        fast, slow = f.shards
        assert fast.arrival_rate_rps == pytest.approx(1000.0)
        assert slow.arrival_rate_rps == 0.0
        assert slow.utilization == 0.0
        assert slow.decode_batch == 0
        assert math.isfinite(f.ttft_p99_s)

    def test_split_conserves_the_offered_rate(self, planner):
        for rate in (100.0, 2000.0, 7500.0):
            f = planner.forecast(2, rate)
            assert sum(s.arrival_rate_rps for s in f.shards) == pytest.approx(
                rate
            )

    def test_near_saturation_spills_onto_the_slow_shard(self, planner):
        """Once the fast box's equilibrium TTFT passes the slow box's
        empty-queue TTFT, traffic spills over."""
        f = planner.forecast(2, 7500.0)
        assert f.shards[1].arrival_rate_rps > 0.0
        assert f.shards[1].arrival_rate_rps < f.shards[0].arrival_rate_rps

    def test_pooling_same_speed_shards_beats_independent_queues(
        self, homogeneous
    ):
        """Two fast boxes at rate 2r are at least as good as one at r:
        the router multiplexes bursts across the pair."""
        single = homogeneous.forecast(1, 2000.0).ttft_p99_s
        pooled = homogeneous.forecast(2, 4000.0).ttft_p99_s
        assert pooled <= single


class TestEnginesFor:
    def test_returns_the_smallest_sufficient_fleet(self, homogeneous):
        target = homogeneous.forecast(2, 4000.0).ttft_p99_s * 1.01
        f = homogeneous.engines_for(target, 4000.0)
        assert f.stable
        assert f.ttft_p99_s <= target
        if f.n_engines > 1:
            smaller = homogeneous.forecast(f.n_engines - 1, 4000.0)
            assert (not smaller.stable) or smaller.ttft_p99_s > target

    def test_unreachable_target_raises_with_best_effort(self, homogeneous):
        floor = homogeneous.forecast(4, 1.0).ttft_p99_s
        with pytest.raises(ConfigError, match="best at"):
            homogeneous.engines_for(floor / 10.0, 100.0, max_engines=4)

    def test_nonpositive_target_rejected(self, homogeneous):
        with pytest.raises(ConfigError):
            homogeneous.engines_for(0.0, 10.0)


class TestValidation:
    def test_p99_within_documented_bound_on_tiny_fleet(
        self, planner, prompt_dist, output_dist
    ):
        mixes = [(1, 50.0, 96), (2, 100.0, 96), (2, 200.0, 96)]
        records = validate_planner(
            planner, prompt_dist, output_dist, mixes, seed=0
        )
        assert len(records) == len(mixes)
        for rec in records:
            assert rec.simulated_p99_ttft_s > 0.0
            assert rec.rel_err <= PLANNER_P99_REL_ERR_BOUND, rec
        d = records[0].to_dict()
        assert d["n_engines"] == 1 and d["rate_rps"] == 50.0
