"""Fault-schedule unit tests: validation, ordering, scenarios, re-warm.

The chaos layer's determinism rests on the schedule being *data*:
immutable, totally ordered, validated at construction. These tests pin
that contract plus the closed-form cold-start model (packed weight
image over DRAM bandwidth) the fleet loop charges on every crash.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.fleet import (
    FAULT_SCENARIO_NAMES,
    FaultKind,
    FaultSchedule,
    ShardFault,
    make_fault_schedule,
    rewarm_s,
    weight_image_bytes,
)


class TestShardFault:
    def test_validates_fields(self):
        with pytest.raises(ConfigError):
            ShardFault(FaultKind.CRASH, shard_id=-1, at_s=0.0, duration_s=1.0)
        with pytest.raises(ConfigError):
            ShardFault(FaultKind.CRASH, shard_id=0, at_s=-0.1, duration_s=1.0)
        with pytest.raises(ConfigError):
            ShardFault(FaultKind.CRASH, shard_id=0, at_s=0.0, duration_s=0.0)

    @pytest.mark.parametrize("kind", list(FaultKind))
    @pytest.mark.parametrize("field", ["at_s", "duration_s"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_times_are_rejected(self, kind, field, value):
        # A NaN or inf instant never fires (or never recovers), so the
        # schedule refuses it instead of the run hanging or dropping it.
        times = {"at_s": 1.0, "duration_s": 1.0, field: value}
        with pytest.raises(ConfigError, match=f"{field} must be"):
            ShardFault(kind, shard_id=0, bandwidth_factor=0.5, **times)

    @pytest.mark.parametrize("factor", [0.0, 1.0, 1.5, -0.25])
    def test_brownout_factor_must_be_fractional(self, factor):
        with pytest.raises(ConfigError):
            ShardFault(
                FaultKind.BROWNOUT, shard_id=0, at_s=0.0, duration_s=1.0,
                bandwidth_factor=factor,
            )

    def test_crash_ignores_bandwidth_factor(self):
        # Crashes carry the default factor; any value is accepted since
        # the fleet loop never reads it for CRASH events.
        fault = ShardFault(FaultKind.CRASH, 0, 1.0, 2.0, bandwidth_factor=1.0)
        assert fault.bandwidth_factor == 1.0


class TestFaultSchedule:
    def test_sorts_on_construction(self):
        late = ShardFault(FaultKind.CRASH, 1, 5.0, 1.0)
        early = ShardFault(FaultKind.CRASH, 0, 1.0, 1.0)
        sched = FaultSchedule(name="x", faults=(late, early))
        assert sched.faults == (early, late)

    def test_construction_order_never_changes_the_schedule(self):
        a = ShardFault(FaultKind.CRASH, 0, 1.0, 1.0)
        b = ShardFault(FaultKind.BROWNOUT, 1, 1.0, 2.0, bandwidth_factor=0.5)
        c = ShardFault(FaultKind.CRASH, 2, 0.5, 1.0)
        assert (
            FaultSchedule(name="x", faults=(a, b, c)).faults
            == FaultSchedule(name="x", faults=(c, b, a)).faults
        )

    def test_none_is_empty(self):
        assert FaultSchedule.none().is_empty
        assert not FaultSchedule(
            name="one", faults=(ShardFault(FaultKind.CRASH, 0, 1.0, 1.0),)
        ).is_empty

    def test_for_fleet_rejects_out_of_range_shards(self):
        sched = FaultSchedule(
            name="x", faults=(ShardFault(FaultKind.CRASH, 3, 1.0, 1.0),)
        )
        assert sched.for_fleet(4) is sched
        with pytest.raises(ConfigError):
            sched.for_fleet(3)


class TestScenarios:
    def test_names_are_sorted_and_include_none(self):
        assert FAULT_SCENARIO_NAMES == tuple(sorted(FAULT_SCENARIO_NAMES))
        assert "none" in FAULT_SCENARIO_NAMES

    @pytest.mark.parametrize("name", FAULT_SCENARIO_NAMES)
    def test_every_scenario_builds_and_targets_the_fleet(self, name):
        sched = make_fault_schedule(name, n_shards=3, span_s=2.0, seed=7)
        assert sched.for_fleet(3) is sched
        for fault in sched.faults:
            assert 0.0 <= fault.at_s
            assert fault.duration_s > 0

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigError):
            make_fault_schedule("meteor", n_shards=2, span_s=1.0)

    def test_chaos_is_seed_deterministic(self):
        a = make_fault_schedule("chaos", 4, 3.0, seed=11)
        b = make_fault_schedule("chaos", 4, 3.0, seed=11)
        c = make_fault_schedule("chaos", 4, 3.0, seed=12)
        assert a == b
        assert a != c

    def test_scenarios_scale_with_span(self):
        short = make_fault_schedule("crash", 2, 1.0)
        long = make_fault_schedule("crash", 2, 10.0)
        assert long.faults[0].at_s == 10 * short.faults[0].at_s

    def test_degenerate_span_still_schedules(self):
        # A single burst arriving at t=0 has span 0; the scenario must
        # still produce a usable (one-second-span) schedule.
        sched = make_fault_schedule("crash", 2, 0.0)
        assert not sched.is_empty
        assert sched.faults[0].at_s > 0


class TestColdStart:
    def test_rewarm_is_image_over_bandwidth(self, fast_engine):
        expected = weight_image_bytes(fast_engine) / (
            fast_engine.config.dram_bandwidth_gbps * 1e9 / 8
        )
        assert rewarm_s(fast_engine) == expected
        assert rewarm_s(fast_engine) > 0

    def test_rewarm_scales_inversely_with_bandwidth(
        self, fast_engine, slow_engine
    ):
        # Same model, same packed image; 12x less bandwidth = 12x the
        # cold start. This is the EdgeFlow observation the crash model
        # encodes: packing shrinks the restart tax.
        assert weight_image_bytes(fast_engine) == weight_image_bytes(slow_engine)
        ratio = rewarm_s(slow_engine) / rewarm_s(fast_engine)
        assert ratio == pytest.approx(12.0)

    def test_packed_image_smaller_than_raw(self, fast_engine):
        model, config = fast_engine.model, fast_engine.config
        raw = model.total_weight_params * config.weight_bits // 8
        assert weight_image_bytes(fast_engine) <= raw
