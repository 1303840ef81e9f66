"""The fleet's calendar drain is bit-identical to the per-iteration walk.

The event-calendar drain advances the globally next-acting shard in
coalesced runs between shard keys, and runs an open-loop fleet's shards
dry at once; the per-iteration walk kept in ``tests/oracles/fleet_walk.py``
picks the minimal shard and runs exactly one iteration at a time. These
tests pin the claim: the two execute the *identical* fleet timeline —
request records, event logs, routing decisions and merged metrics —
across open-loop, closed-loop, heterogeneous, faulty and work-stealing
runs, and a one-shard calendar fleet still reproduces the
single-scheduler source loop field for field. Unit tests pin how the calendar's horizon
folds in the walk's lowest-id-first tie-break.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.fleet_walk import WalkingDrain, run_reference
from repro.fleet import FaultKind, FaultSchedule, FleetSimulator, ShardFault
from repro.fleet.simulator import _DrainCalendar
from repro.serving import (
    ClosedLoopSource,
    ContinuousBatchingScheduler,
    Request,
)

seeds = st.integers(min_value=0, max_value=10_000)


def _run_both(engines, source_factory, **kwargs):
    reference = run_reference(
        FleetSimulator(engines, **kwargs), source_factory()
    )
    calendar = FleetSimulator(engines, **kwargs).run(source_factory())
    return reference, calendar


def _assert_identical(reference, calendar):
    # Bit-identity of everything the run produced, not approximation:
    # per-shard records and event logs, the decision stream, and the
    # merged + per-shard metric summaries.
    assert calendar.result.decisions == reference.result.decisions
    for cal_shard, ref_shard in zip(
        calendar.result.shard_results, reference.result.shard_results
    ):
        assert cal_shard.records == ref_shard.records
        assert cal_shard.events == ref_shard.events
    assert calendar.metrics == reference.metrics
    assert calendar.shard_metrics == reference.shard_metrics


class TestOpenLoopEquivalence:
    @given(seeds, st.sampled_from(["poisson", "bursty"]))
    @settings(max_examples=8, deadline=None)
    def test_homogeneous_fleet(
        self, fast_engine, shard_budget, make_stream, seed, kind
    ):
        reference, calendar = _run_both(
            [fast_engine, fast_engine],
            lambda: make_stream(kind, n=16, seed=seed),
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        _assert_identical(reference, calendar)

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_heterogeneous_fleet_predicted_latency(
        self, fast_engine, slow_engine, shard_budget, make_stream, seed
    ):
        reference, calendar = _run_both(
            [fast_engine, slow_engine, fast_engine],
            lambda: make_stream("bursty", n=18, seed=seed),
            policy="predicted-latency",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        _assert_identical(reference, calendar)

    @given(seeds, st.sampled_from(["poisson", "bursty"]))
    @settings(max_examples=6, deadline=None)
    def test_open_loop_drain_tail_with_faults(
        self, fast_engine, slow_engine, shard_budget, make_stream, seed, kind
    ):
        # A dense stream leaves a long drain tail after the last
        # arrival, which the calendar runs dry shard by shard and the
        # walk steps one iteration at a time; a crash with retries and
        # a brownout first reshape the queues it drains.
        schedule = FaultSchedule(
            name="open-loop",
            faults=(
                ShardFault(FaultKind.CRASH, 1, 0.01, 0.01),
                ShardFault(
                    FaultKind.BROWNOUT, 0, 0.0, 0.03, bandwidth_factor=0.5
                ),
            ),
        )
        reference, calendar = _run_both(
            [fast_engine, slow_engine, fast_engine],
            lambda: make_stream(kind, n=24, seed=seed, rate=400.0),
            policy="jsq",
            kv_budget_bytes=shard_budget,
            max_batch=4,
            faults=schedule,
        )
        _assert_identical(reference, calendar)
        assert calendar.resilience == reference.resilience

    def test_open_loop_calendar_runs_dry_where_the_walk_steps(
        self, fast_engine, slow_engine, shard_budget, make_stream
    ):
        # The two drains part ways exactly at the open-loop horizon: the
        # calendar hands the minimal shard +inf (run dry), the walk the
        # first float past its own key (one iteration).
        shards = [
            ContinuousBatchingScheduler(engine, kv_budget_bytes=shard_budget)
            for engine in (fast_engine, slow_engine)
        ]
        for i, req in enumerate(make_stream("bursty", n=8, seed=1).initial()):
            shards[i % 2].submit(req)
        idx, horizon = _DrainCalendar(shards, open_loop=True).pop()
        assert horizon == float("inf")
        key = shards[idx].next_event_s()
        assert WalkingDrain(shards, open_loop=True).pop() == (
            idx, math.nextafter(key, math.inf)
        )


class TestClosedLoopEquivalence:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_multi_shard_closed_loop(
        self, fast_engine, slow_engine, shard_budget, prompt_dist,
        output_dist, seed
    ):
        # The hard case: completions during the drain inject follow-ups
        # that must re-enter global routing at the same instants in
        # both modes — the calendar's interrupt hook versus the
        # reference walk's one-iteration stepping.
        def src():
            return ClosedLoopSource(
                n_users=4, total_requests=14, think_time_s=0.001,
                prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
            )

        reference, calendar = _run_both(
            [fast_engine, slow_engine],
            src,
            policy="jsq",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        _assert_identical(reference, calendar)

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_drain_boundary_interleaving(
        self, fast_engine, slow_engine, shard_budget, prompt_dist,
        output_dist, seed
    ):
        # Zero think time lands every follow-up *exactly* at the busy
        # shard's clock — the completion instant is the arrival instant,
        # so routing happens precisely on a drain boundary. This is the
        # regime where an uninterruptible pre-routing advance simulates
        # shards past follow-ups they should have prefilled first.
        def src():
            return ClosedLoopSource(
                n_users=3, total_requests=12, think_time_s=0.0,
                prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
            )

        reference, calendar = _run_both(
            [fast_engine, slow_engine],
            src,
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        _assert_identical(reference, calendar)

    @given(seeds)
    @settings(max_examples=4, deadline=None)
    def test_one_shard_calendar_reproduces_single_engine(
        self, fast_engine, shard_budget, prompt_dist, output_dist,
        assert_one_shard_is_source_loop, seed,
    ):
        # The invariant the fleet subsystem was built on, now under the
        # calendar drain: a lone closed-loop shard, which is what
        # `repro serve` runs, is the single-scheduler source loop —
        # identical events, steps, records and metrics.
        def src():
            return ClosedLoopSource(
                n_users=3, total_requests=10, think_time_s=0.0005,
                prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
            )

        assert_one_shard_is_source_loop(
            fast_engine, src, kv_budget_bytes=shard_budget, max_batch=8,
        )


class TestStealingEquivalence:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_steal_runs_identically_in_both_modes(
        self, fast_engine, slow_engine, shard_budget, make_stream, seed
    ):
        # Work stealing perturbs the timeline (that is its job), but it
        # must perturb both drain modes the same way: steal checks fire
        # at iteration boundaries in each.
        reference, calendar = _run_both(
            [fast_engine, slow_engine, fast_engine, slow_engine],
            lambda: make_stream("bursty", n=20, seed=seed),
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
            steal=True,
        )
        _assert_identical(reference, calendar)


def _one_request_shards(engine, budget, arrivals):
    """Shard ``i`` holds request ``i``, due at ``arrivals[i]``.

    A shard whose only work is a future arrival keys the calendar at
    that arrival, so the list fixes every shard's key.
    """
    shards = []
    for i, arrival_s in enumerate(arrivals):
        shard = ContinuousBatchingScheduler(engine, kv_budget_bytes=budget)
        shard.submit(Request(i, arrival_s, 16, 4))
        shards.append(shard)
    return shards


def _after(key):
    return math.nextafter(key, math.inf)


class TestDrainCalendarHorizon:
    """``_DrainCalendar.pop`` folds the walk's lowest-id-first tie-break
    into the horizon it hands the fleet loop's ``advance_until``."""

    def test_lower_id_winner_may_act_at_the_runner_up_key(
        self, fast_engine, shard_budget
    ):
        shards = _one_request_shards(fast_engine, shard_budget, [0.1, 0.2])
        assert _DrainCalendar(shards, open_loop=False).pop() == (0, _after(0.2))

    def test_higher_id_winner_stops_at_the_runner_up_key(
        self, fast_engine, shard_budget
    ):
        shards = _one_request_shards(fast_engine, shard_budget, [0.2, 0.1])
        assert _DrainCalendar(shards, open_loop=False).pop() == (1, 0.2)

    def test_exact_tie_runs_one_iteration_on_the_lower_id(
        self, fast_engine, shard_budget
    ):
        shards = _one_request_shards(fast_engine, shard_budget, [0.1, 0.1])
        idx, horizon = _DrainCalendar(shards, open_loop=False).pop()
        assert (idx, horizon) == (0, _after(0.1))
        shards[0].advance_until(horizon)
        result = shards[0].result()
        assert (result.n_prefill_iterations, result.n_decode_iterations) == (1, 0)

    @pytest.mark.parametrize("tail", [(), (0.5,)])
    def test_duplicate_live_entries_never_serve_as_runner_up(
        self, fast_engine, shard_budget, tail
    ):
        # Shard 0's key leaves (its only request withdrawn) and returns
        # (the request resubmitted) while shards 1 and 2 act first, and
        # no pop is told about either change: each reads the shards as
        # they stand.
        shards = _one_request_shards(
            fast_engine, shard_budget, [0.3, 0.1, 0.2, *tail]
        )
        calendar = _DrainCalendar(shards, open_loop=False)
        assert calendar.pop() == (1, _after(0.2))
        request = shards[0].withdraw(0)
        assert calendar.pop() == (1, _after(0.2))
        shards[0].submit(request)
        shards[1].withdraw(1)
        shards[2].withdraw(2)
        # The horizon comes from another shard, or is +inf without one.
        expected = _after(0.5) if tail else math.inf
        assert calendar.pop() == (0, expected)
