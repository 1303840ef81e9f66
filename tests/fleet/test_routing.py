"""Unit tests for the routing policies and their registry."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    CalibratedLatencyPolicy,
    JoinShortestQueuePolicy,
    LeastKVPressurePolicy,
    POLICY_NAMES,
    PredictedLatencyPolicy,
    ROUTING_POLICIES,
    RoundRobinPolicy,
    make_policy,
)
from repro.serving import Request, SchedulerSnapshot


def _snap(shard_id, engine, **overrides):
    defaults = dict(
        shard_id=shard_id,
        clock_s=0.0,
        n_waiting=0,
        n_decoding=0,
        waiting_prompt_hist=(),
        remaining_decode_tokens=0,
        decode_context=0,
        kv_reserved_bytes=0,
        waiting_kv_bytes=0,
        kv_budget_bytes=1_000_000,
        max_batch=8,
        engine=engine,
    )
    defaults.update(overrides)
    return SchedulerSnapshot(**defaults)


@pytest.fixture()
def request_8x4() -> Request:
    return Request(request_id=0, arrival_s=0.0, prompt_tokens=8, output_tokens=4)


class TestRegistry:
    def test_all_five_policies_registered(self):
        assert set(POLICY_NAMES) == {
            "round-robin", "jsq", "least-kv", "predicted-latency",
            "calibrated-latency",
        }

    def test_make_policy_instantiates_each(self):
        for name in POLICY_NAMES:
            policy = make_policy(name)
            assert policy.name == name
            assert type(policy) is ROUTING_POLICIES[name]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            make_policy("random")


class TestRoundRobin:
    def test_cycles_and_resets(self, fast_engine, request_8x4):
        policy = RoundRobinPolicy()
        policy.reset(3)
        snaps = [_snap(i, fast_engine) for i in range(3)]
        picks = [policy.route(request_8x4, 0.0, snaps) for _ in range(6)]
        assert picks == [(i, None) for i in (0, 1, 2, 0, 1, 2)]
        policy.reset(3)
        assert policy.route(request_8x4, 0.0, snaps) == (0, None)

    def test_narrowed_feasible_set_still_cycles(self, fast_engine, request_8x4):
        policy = RoundRobinPolicy()
        policy.reset(3)
        snaps = [_snap(i, fast_engine) for i in (0, 2)]  # shard 1 infeasible
        picks = [policy.route(request_8x4, 0.0, snaps) for _ in range(4)]
        assert picks == [(i, None) for i in (0, 2, 0, 2)]


class TestJoinShortestQueue:
    def test_picks_emptiest_shard(self, fast_engine, request_8x4):
        policy = JoinShortestQueuePolicy()
        snaps = [
            _snap(0, fast_engine, n_waiting=3),
            _snap(1, fast_engine, n_waiting=1, n_decoding=1),
            _snap(2, fast_engine, n_decoding=1),
        ]
        assert policy.route(request_8x4, 0.0, snaps) == (2, None)

    def test_ties_break_by_shard_id(self, fast_engine, request_8x4):
        policy = JoinShortestQueuePolicy()
        snaps = [_snap(2, fast_engine), _snap(0, fast_engine), _snap(1, fast_engine)]
        assert policy.route(request_8x4, 0.0, snaps) == (0, None)


class TestLeastKVPressure:
    def test_picks_lowest_pressure(self, fast_engine, request_8x4):
        policy = LeastKVPressurePolicy()
        snaps = [
            _snap(0, fast_engine, kv_reserved_bytes=500_000),
            _snap(1, fast_engine, kv_reserved_bytes=100_000,
                  waiting_kv_bytes=100_000),
            _snap(2, fast_engine, kv_reserved_bytes=100_000),
        ]
        assert policy.route(request_8x4, 0.0, snaps) == (2, None)

    def test_queued_demand_counts(self, fast_engine, request_8x4):
        # A shard with little *reserved* KV but a deep unadmitted queue
        # is under pressure; the policy must see through it.
        policy = LeastKVPressurePolicy()
        snaps = [
            _snap(0, fast_engine, waiting_kv_bytes=900_000),
            _snap(1, fast_engine, kv_reserved_bytes=300_000),
        ]
        assert policy.route(request_8x4, 0.0, snaps) == (1, None)


class TestPredictedLatency:
    def test_prefers_faster_engine_when_idle(
        self, fast_engine, slow_engine, request_8x4
    ):
        policy = PredictedLatencyPolicy()
        snaps = [_snap(0, slow_engine), _snap(1, fast_engine)]
        assert policy.route(request_8x4, 0.0, snaps)[0] == 1

    def test_backlog_outweighs_raw_speed(
        self, fast_engine, slow_engine, request_8x4
    ):
        # Pile enough queued prefill work on the fast shard and the
        # idle slow shard wins despite 12x less bandwidth.
        policy = PredictedLatencyPolicy()
        fast_loaded = _snap(
            1, fast_engine, n_waiting=64, waiting_prompt_hist=((64, 64),)
        )
        snaps = [_snap(0, slow_engine), fast_loaded]
        assert policy.route(request_8x4, 0.0, snaps)[0] == 0

    def test_prediction_accounts_for_busy_until(
        self, fast_engine, request_8x4
    ):
        policy = PredictedLatencyPolicy()
        busy = _snap(0, fast_engine, clock_s=10.0)
        idle = _snap(1, fast_engine)
        assert policy.predicted_ttft_s(request_8x4, 0.0, busy) > (
            policy.predicted_ttft_s(request_8x4, 0.0, idle)
        )
        assert policy.route(request_8x4, 0.0, [busy, idle])[0] == 1

    def test_kv_overflow_charges_decode_drain(self, fast_engine, request_8x4):
        policy = PredictedLatencyPolicy()
        tight = _snap(
            0, fast_engine,
            kv_budget_bytes=1_000,
            kv_reserved_bytes=990,
            n_decoding=2,
            remaining_decode_tokens=20,
            decode_context=64,
        )
        roomy = _snap(1, fast_engine)
        assert policy.predicted_ttft_s(request_8x4, 0.0, tight) > (
            policy.predicted_ttft_s(request_8x4, 0.0, roomy)
        )


class TestCalibratedLatency:
    def test_alpha_validated(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigError):
                CalibratedLatencyPolicy(alpha=bad)
        assert CalibratedLatencyPolicy(alpha=1.0).alpha == 1.0

    def test_uncalibrated_matches_predicted_latency(
        self, fast_engine, request_8x4
    ):
        # Before any feedback the bias is zero everywhere: the corrected
        # model must be the plain predictive model, bit for bit.
        plain = PredictedLatencyPolicy()
        calibrated = CalibratedLatencyPolicy()
        snap = _snap(0, fast_engine, clock_s=0.5)
        assert calibrated.predicted_ttft_s(request_8x4, 0.0, snap) == (
            plain.predicted_ttft_s(request_8x4, 0.0, snap)
        )

    def test_observe_is_an_ewma_of_signed_error(
        self, fast_engine, request_8x4
    ):
        policy = CalibratedLatencyPolicy(alpha=0.5)
        snap = _snap(0, fast_engine)
        raw = policy.predicted_ttft_s(request_8x4, 0.0, snap)

        # Over-prediction by half the raw value: bias += 0.5 * (raw/2),
        # so the next prediction on that shard drops by the new bias.
        policy.observe(0, predicted_ttft_s=raw, realized_ttft_s=raw / 2)
        assert policy.predicted_ttft_s(request_8x4, 0.0, snap) == (
            pytest.approx(0.75 * raw)
        )
        # An under-prediction of the *corrected* value walks the bias
        # halfway back: integral feedback on signed error.
        policy.observe(0, predicted_ttft_s=0.75 * raw, realized_ttft_s=raw)
        assert policy.predicted_ttft_s(request_8x4, 0.0, snap) == (
            pytest.approx(0.875 * raw)
        )

    def test_bias_is_per_shard_and_clamped_at_zero(
        self, fast_engine, request_8x4
    ):
        policy = CalibratedLatencyPolicy(alpha=1.0)
        here, there = _snap(0, fast_engine), _snap(1, fast_engine)
        raw = policy.predicted_ttft_s(request_8x4, 0.0, here)
        # An absurd over-prediction drives the bias past the raw model;
        # the corrected prediction floors at zero rather than going
        # negative, and shard 1 is untouched.
        policy.observe(0, predicted_ttft_s=raw + 100.0, realized_ttft_s=raw)
        assert policy.predicted_ttft_s(request_8x4, 0.0, here) == 0.0
        assert policy.predicted_ttft_s(request_8x4, 0.0, there) == raw

    def test_reset_clears_learned_bias(self, fast_engine, request_8x4):
        policy = CalibratedLatencyPolicy(alpha=1.0)
        snap = _snap(0, fast_engine)
        raw = policy.predicted_ttft_s(request_8x4, 0.0, snap)
        policy.observe(0, predicted_ttft_s=raw, realized_ttft_s=raw - 0.01)
        assert policy.predicted_ttft_s(request_8x4, 0.0, snap) != raw
        policy.reset(2)
        assert policy.predicted_ttft_s(request_8x4, 0.0, snap) == raw
