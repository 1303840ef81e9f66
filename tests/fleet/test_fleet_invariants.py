"""Fleet-level invariants: conservation, N=1 equivalence, JSQ property.

These are the satellite guarantees of the fleet subsystem: no request
is lost or duplicated by routing, a one-shard fleet is indistinguishable
from single-engine serving, and join-shortest-queue honours its defining
inequality at every decision point.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import CapacityError, ConfigError
from repro.fleet import (
    FAULT_SCENARIO_NAMES,
    POLICY_NAMES,
    SHEDDING_NAMES,
    FleetSimulator,
    JoinShortestQueuePolicy,
    merge_results,
)
from repro.serving import (
    ClosedLoopSource,
    ContinuousBatchingScheduler,
    EventKind,
    LengthDistribution,
    Request,
    RequestStream,
)

seeds = st.integers(0, 2**16)

MB = 1024 * 1024


class TestConservation:
    @given(seeds, st.sampled_from(["poisson", "bursty"]))
    @settings(max_examples=10, deadline=None)
    def test_every_request_routed_exactly_once(
        self, fast_engine, slow_engine, shard_budget, make_stream, seed, kind
    ):
        stream = make_stream(kind, n=16, seed=seed)
        fleet = FleetSimulator(
            [fast_engine, slow_engine, fast_engine],
            policy="jsq",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        report = fleet.run(stream)
        submitted = {r.request_id for r in stream.initial()}

        routed = [d.request_id for d in report.result.decisions]
        assert sorted(routed) == sorted(submitted)  # no loss, no duplication

        served = [
            rec.request.request_id
            for shard in report.result.shard_results
            for rec in shard.records
        ]
        assert sorted(served) == sorted(submitted)
        # And each request ran on exactly the shard it was routed to.
        placement = {d.request_id: d.shard_id for d in report.result.decisions}
        for shard_id, shard in enumerate(report.result.shard_results):
            for rec in shard.records:
                assert placement[rec.request.request_id] == shard_id

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_merged_token_counts_add_up(
        self, fast_engine, slow_engine, shard_budget, make_stream, seed
    ):
        report = FleetSimulator(
            [fast_engine, slow_engine],
            policy="round-robin",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        ).run(make_stream("poisson", n=12, seed=seed))
        assert report.metrics.total_generated_tokens == sum(
            m.total_generated_tokens for m in report.shard_metrics
        )


class TestSingleShardEquivalence:
    """A one-shard fleet, and so ``repro serve``, serves a source as the
    source loop (``tests/oracles/source_loop.py``) does on one scheduler:
    the same events, steps, records, aggregates and metrics."""

    @given(seeds, st.sampled_from(["poisson", "bursty"]))
    @settings(max_examples=8, deadline=None)
    def test_merged_metrics_equal_single_engine_metrics(
        self, fast_engine, shard_budget, make_stream,
        assert_one_shard_is_source_loop, seed, kind,
    ):
        assert_one_shard_is_source_loop(
            fast_engine, lambda: make_stream(kind, n=14, seed=seed),
            kv_budget_bytes=shard_budget, max_batch=8,
        )

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_closed_loop_equivalence(
        self, fast_engine, shard_budget, prompt_dist, output_dist,
        assert_one_shard_is_source_loop, seed,
    ):
        # Closed-loop is the hard case: follow-ups are *generated by*
        # completions mid-drain, so the fleet must hand each one to its
        # shard before the shard simulates past its arrival, as the
        # loop's hook submits it straight back.
        def src():
            return ClosedLoopSource(
                n_users=3, total_requests=12, think_time_s=0.001,
                prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
            )

        assert_one_shard_is_source_loop(
            fast_engine, src, kv_budget_bytes=shard_budget, max_batch=8,
        )

    @given(
        seeds, st.sampled_from([0.0, 0.0005, 0.002]),
        st.sampled_from([64, 72, 80]), st.sampled_from([2, 8]),
    )
    @example(seed=2, think_time_s=0.0005, budget_tokens=72, max_batch=8)
    @settings(max_examples=12, deadline=None)
    def test_rejected_followups_equivalence(
        self, fast_engine, fleet_model, assert_one_shard_is_source_loop,
        seed, think_time_s, budget_tokens, max_batch,
    ):
        # 8-token prompts and outputs of up to 80 tokens under a KV
        # budget of 64-80 tokens: some follow-ups can never be admitted
        # and are rejected, and some initial requests do not fit (both
        # drivers then raise the same error).
        budget = fleet_model.n_layers * fleet_model.kv_cache_bytes_per_layer(
            budget_tokens, fast_engine.config.act_bits
        )

        def src():
            return ClosedLoopSource(
                2, 12, think_time_s,
                LengthDistribution("fixed", 8),
                LengthDistribution("uniform", 1, 80),
                seed=seed,
            )

        outcome = assert_one_shard_is_source_loop(
            fast_engine, src, kv_budget_bytes=budget, max_batch=max_batch,
        )
        if (seed, think_time_s, budget_tokens, max_batch) == (2, 0.0005, 72, 8):
            assert outcome.n_rejected_followups == 2

    def test_merge_rejects_empty_fleet(self):
        with pytest.raises(ConfigError):
            merge_results([])


class TestJoinShortestQueueInvariant:
    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_never_routes_to_strictly_longer_queue(
        self, fast_engine, slow_engine, shard_budget, make_stream, seed
    ):
        # Witness every decision through a recording subclass: at the
        # moment of choice, no other feasible shard may hold strictly
        # fewer requests than the chosen one.
        observed = []

        class Recording(JoinShortestQueuePolicy):
            def route(self, request, now_s, snapshots):
                choice, predicted = super().route(request, now_s, snapshots)
                assert predicted is None
                observed.append(
                    (choice, {s.shard_id: s.n_in_system for s in snapshots})
                )
                return choice, predicted

        FleetSimulator(
            [fast_engine, slow_engine, fast_engine],
            policy=Recording(),
            kv_budget_bytes=shard_budget,
            max_batch=8,
        ).run(make_stream("bursty", n=24, seed=seed))
        assert observed
        for choice, depths in observed:
            assert depths[choice] == min(depths.values())


class TestDeterminism:
    def test_same_seed_same_fleet_timeline(
        self, fast_engine, slow_engine, shard_budget, make_stream
    ):
        def _run():
            return FleetSimulator(
                [fast_engine, slow_engine],
                policy="predicted-latency",
                kv_budget_bytes=shard_budget,
                max_batch=8,
            ).run(make_stream("bursty", n=20, seed=3))

        a, b = _run(), _run()
        assert a.result.decisions == b.result.decisions
        assert a.metrics == b.metrics
        for ra, rb in zip(a.result.shard_results, b.result.shard_results):
            assert ra.events == rb.events


class TestHeterogeneousFeasibility:
    def test_oversized_request_only_fits_big_shard(
        self, fast_engine, slow_engine, fleet_model, shard_budget
    ):
        # One shard's budget holds barely one small request; the other
        # holds everything. The big request must land on the big shard
        # regardless of policy.
        worst = fleet_model.n_layers * fleet_model.kv_cache_bytes_per_layer(
            64, fast_engine.config.act_bits
        )
        big = Request(request_id=0, arrival_s=0.0, prompt_tokens=128,
                      output_tokens=64)
        small = Request(request_id=1, arrival_s=0.0, prompt_tokens=8,
                        output_tokens=4)
        stream = RequestStream(name="mixed", requests=(big, small))
        report = FleetSimulator(
            [fast_engine, slow_engine],
            policy="round-robin",
            kv_budget_bytes=[worst, shard_budget],
            max_batch=8,
        ).run(stream)
        placement = {d.request_id: d.shard_id for d in report.result.decisions}
        assert placement[0] == 1  # the only shard whose budget fits it

    def test_request_no_shard_can_hold_fails_fast(
        self, fast_engine, slow_engine, fleet_model
    ):
        tiny = fleet_model.n_layers * fleet_model.kv_cache_bytes_per_layer(
            16, fast_engine.config.act_bits
        )
        stream = RequestStream(
            name="oversized",
            requests=(
                Request(request_id=0, arrival_s=0.0, prompt_tokens=128,
                        output_tokens=64),
            ),
        )
        fleet = FleetSimulator(
            [fast_engine, slow_engine],
            policy="jsq",
            kv_budget_bytes=tiny,
            max_batch=8,
        )
        with pytest.raises(CapacityError):
            fleet.run(stream)

    def test_mixed_model_fleet_rejected(self, fast_engine):
        from repro import MeadowEngine
        from repro.models import TransformerConfig

        other = MeadowEngine(
            TransformerConfig(
                name="other-tiny", n_layers=2, d_model=32, n_heads=2, d_ff=64,
                max_seq_len=128,
            ),
            fast_engine.config,
        )
        with pytest.raises(ConfigError):
            FleetSimulator([fast_engine, other])


class TestClosedLoopComposition:
    def test_followups_rerouted_globally(
        self, fast_engine, slow_engine, shard_budget, prompt_dist, output_dist
    ):
        source = ClosedLoopSource(
            n_users=4, total_requests=16, think_time_s=0.001,
            prompt_dist=prompt_dist, output_dist=output_dist, seed=0,
        )
        report = FleetSimulator(
            [fast_engine, slow_engine],
            policy="predicted-latency",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        ).run(source)
        assert report.metrics.n_requests == 16
        assert len(report.result.decisions) == 16
        # All sixteen turns completed somewhere in the fleet.
        completes = [
            ev
            for shard in report.result.shard_results
            for ev in shard.events
            if ev.kind is EventKind.COMPLETE
        ]
        assert len(completes) == 16

    def test_infeasible_followup_rejected_and_counted(
        self, fast_engine, fleet_model
    ):
        # A follow-up longer than any shard's budget must be rejected
        # at the fleet level, not crash the run.
        budget = fleet_model.n_layers * fleet_model.kv_cache_bytes_per_layer(
            48, fast_engine.config.act_bits
        )
        source = ClosedLoopSource(
            n_users=1, total_requests=8, think_time_s=0.0,
            prompt_dist=LengthDistribution("fixed", 8),
            # Geometric with a max beyond the budget: some draws fit,
            # the long tail cannot.
            output_dist=LengthDistribution("geometric", 16, 128),
            seed=5,
        )
        report = FleetSimulator(
            [fast_engine],
            policy="jsq",
            kv_budget_bytes=budget,
            max_batch=4,
        ).run(source)
        assert (
            report.metrics.n_requests + report.result.n_rejected_followups <= 8
        )
        assert report.result.n_rejected_followups >= 1


class TestSchedulersDieWithTheRun:
    """A run's schedulers are freed by reference counting once its
    report is dropped, or once it raised: each shard's completion hook
    closes over the fleet's shard list, which must not keep a cycle
    through the schedulers alive for the cycle collector."""

    @staticmethod
    def _n_schedulers() -> int:
        return sum(
            isinstance(o, ContinuousBatchingScheduler) for o in gc.get_objects()
        )

    @pytest.mark.parametrize("raises", [False, True], ids=["finished", "raised"])
    def test_no_scheduler_outlives_its_run(
        self, fast_engine, slow_engine, shard_budget, make_stream, raises
    ):
        class MisroutesFifth(JoinShortestQueuePolicy):
            def route(self, request, now_s, shards):
                choice, predicted = super().route(request, now_s, shards)
                return (99 if request.request_id == 4 else choice), predicted

        fleet = FleetSimulator(
            [fast_engine, slow_engine],
            policy=MisroutesFifth() if raises else "jsq",
            kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        gc.collect()
        before = self._n_schedulers()
        gc.disable()
        try:
            try:
                report = fleet.run(make_stream("bursty", n=16, seed=3))
            except ConfigError:
                assert raises
            else:
                assert not raises and report.metrics.n_requests == 16
                del report
            assert self._n_schedulers() == before
        finally:
            gc.enable()


class TestTokenEventsShim:
    """``token_events`` is accepted only as ``False``, a no-op."""

    def test_true_rejected_and_false_changes_nothing(
        self, fast_engine, slow_engine, shard_budget, make_stream
    ):
        engines = [fast_engine, slow_engine]
        knobs = dict(
            policy="predicted-latency", kv_budget_bytes=shard_budget,
            max_batch=8,
        )
        with pytest.raises(ConfigError):
            FleetSimulator(engines, token_events=True, **knobs)
        plain = FleetSimulator(engines, **knobs).run(
            make_stream("bursty", n=16, seed=3)
        )
        shim = FleetSimulator(engines, token_events=False, **knobs).run(
            make_stream("bursty", n=16, seed=3)
        )
        assert shim == plain


class TestChaosConservation:
    """Disposition conservation under *randomized* fault schedules.

    The chaos layer extends the conservation contract at the top of
    this file: with crashes harvesting work mid-flight, every submitted
    request must still end in exactly one place — served (OK/RETRIED,
    with a matching shard record) or accounted (SHED/EXPIRED/LOST, with
    no shard record). No loss, no duplication, whatever the schedule.
    """

    @given(
        st.lists(
            st.tuples(
                st.booleans(),                    # crash vs brownout
                st.integers(0, 1),                # victim shard
                st.floats(0.001, 0.06),           # at_s
                st.floats(0.005, 0.04),           # duration_s
                st.floats(0.15, 0.85),            # brownout factor
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(0, 3),                        # retry budget
        seeds,
    )
    @settings(max_examples=15, deadline=None)
    def test_dispositions_conserve_under_random_chaos(
        self, slow_engine, shard_budget, prompt_dist, output_dist,
        fault_specs, max_retries, seed,
    ):
        from repro.fleet import (
            Disposition,
            FaultKind,
            FaultSchedule,
            RetryPolicy,
            ShardFault,
        )
        from repro.serving import bursty_stream

        schedule = FaultSchedule(
            name="random",
            faults=tuple(
                ShardFault(
                    FaultKind.CRASH if crash else FaultKind.BROWNOUT,
                    shard_id=shard,
                    at_s=at_s,
                    duration_s=duration,
                    bandwidth_factor=1.0 if crash else factor,
                )
                for crash, shard, at_s, duration, factor in fault_specs
            ),
        )
        stream = bursty_stream(
            16, 16, 1.0, prompt_dist, output_dist, seed=seed
        )
        report = FleetSimulator(
            [slow_engine, slow_engine],
            policy="predicted-latency",
            kv_budget_bytes=shard_budget,
            max_batch=8,
            faults=schedule,
            retry=RetryPolicy(max_retries=max_retries),
        ).run(stream)
        res = report.resilience
        assert res is not None

        # Exactly one disposition per submitted request.
        ids = [rid for rid, _ in res.dispositions]
        assert len(ids) == len(set(ids)) == res.n_submitted == 16

        served = sorted(
            rec.request.request_id
            for shard in report.result.shard_results
            for rec in shard.records
        )
        ok_ids = sorted(
            rid
            for rid, d in res.dispositions
            if d in (Disposition.OK, Disposition.RETRIED)
        )
        # Served exactly once, and exactly the OK/RETRIED ledger rows;
        # SHED/EXPIRED/LOST never produce a completion record.
        assert served == ok_ids


class TestOverloadConservation:
    """Any offered load, however far past saturation, yields a valid,
    conserving report — for every routing policy, with or without work
    stealing, under every named fault scenario and shedding policy.

    Slot-bounded admission keeps the overload backlog in the shards'
    pending queues, where routing, stealing, shedding and crash
    harvests all still reach it.
    """

    @given(
        seeds,
        st.sampled_from([1.0, 4.0, 10.0]),
        st.sampled_from(POLICY_NAMES),
        st.booleans(),
        st.sampled_from(FAULT_SCENARIO_NAMES),
        st.sampled_from(SHEDDING_NAMES),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_overload_setting_conserves(
        self, fast_engine, slow_engine, shard_budget, prompt_dist,
        output_dist, capacity_rps, seed, load, policy, steal, faults,
        shedding,
    ):
        from repro.fleet import Disposition, RetryPolicy
        from repro.serving import poisson_stream

        engines = [fast_engine, slow_engine, fast_engine]
        rate = load * sum(capacity_rps(e, 4) for e in engines)
        stream = poisson_stream(48, rate, prompt_dist, output_dist, seed=seed)
        report = FleetSimulator(
            engines,
            policy=policy,
            kv_budget_bytes=shard_budget,
            max_batch=4,
            ctx_bucket=8,
            steal=steal,
            faults=faults,
            fault_seed=seed,
            shedding=shedding,
            # Deadline shedding needs a deadline to judge against.
            retry=(
                RetryPolicy(max_retries=1, deadline_s=0.05, seed=seed)
                if shedding == "deadline" else None
            ),
        ).run(stream)

        submitted = sorted(req.request_id for req in stream.initial())
        served = sorted(
            rec.request.request_id
            for shard in report.result.shard_results
            for rec in shard.records
        )
        res = report.resilience
        if res is None:
            assert served == submitted
        else:
            # Exactly one disposition per request; served exactly the
            # OK/RETRIED rows of the ledger.
            assert sorted(rid for rid, _ in res.dispositions) == submitted
            assert served == sorted(
                rid
                for rid, d in res.dispositions
                if d in (Disposition.OK, Disposition.RETRIED)
            )
        assert report.metrics.n_requests == len(served)
        for shard in report.result.shard_results:
            assert shard.peak_kv_bytes <= shard.kv_budget_bytes
            # Both running counters recount from the logs: the queue
            # depth a step ran under is its last event's, and the KV
            # peak is the largest reservation any event saw.
            events = shard.events
            assert shard.max_queue_depth == max(
                (events.queue_depth[e - 1] for e in shard.steps.events if e),
                default=0,
            )
            assert shard.peak_kv_bytes == max(
                events.kv_reserved_bytes, default=0
            )
            for rec in shard.records:
                assert rec.generated_tokens == rec.request.output_tokens
