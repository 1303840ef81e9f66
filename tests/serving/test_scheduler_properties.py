"""Property-based invariants of the continuous-batching scheduler.

Mirrors the style of ``tests/properties/test_simulator_invariants.py``:
randomized scenarios through the *composed* serving stack, asserting
physical-sense properties any correct request-level simulator satisfies.
The scheduler's event log (state changes) and its records (every
token's instant) are the witnesses.
"""

import math

from hypothesis import given, settings, strategies as st

from oracles.source_loop import run_source
from oracles.token_walk import walk_tokens
from repro.errors import CapacityError, ConfigError
from repro.serving import EventKind

import pytest

seeds = st.integers(0, 2**16)
rates = st.sampled_from([2.0, 10.0, 50.0])
budgets = st.sampled_from([1.0, 2.0, 4.0])


def _events_by_request(events):
    by_req = {}
    for ev in events:
        by_req.setdefault(ev.request_id, []).append(ev)
    return by_req


class TestClockMonotonicity:
    @given(seeds, rates, budgets)
    @settings(max_examples=12, deadline=None)
    def test_event_times_never_go_backwards(self, make_scenario, seed, rate, budget):
        result = run_source(
            *make_scenario(seed=seed, rate_rps=rate, budget_requests=budget)
        )
        times = [ev.t_s for ev in result.events]
        assert all(b >= a for a, b in zip(times, times[1:]))

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_lifecycle_ordered_per_request(self, make_scenario, seed):
        result = run_source(*make_scenario(seed=seed))
        for rec in result.records:
            req = rec.request
            assert req.arrival_s <= rec.admit_s <= rec.first_token_s <= rec.finish_s


class TestPrefillBeforeDecode:
    @given(seeds, rates)
    @settings(max_examples=12, deadline=None)
    def test_no_decode_before_first_token(self, make_scenario, seed, rate):
        # Gaps are measured from first_token_s on, so a decode step
        # before the first token would show as a non-positive gap.
        result = run_source(*make_scenario(seed=seed, rate_rps=rate))
        for rec in result.records:
            assert rec.generated_tokens == rec.request.output_tokens
            assert all(gap > 0 for gap in rec.tbt_s)

    @given(seeds, budgets, st.sampled_from(["poisson", "bursty", "closed-loop"]))
    @settings(max_examples=12, deadline=None)
    def test_every_request_prefilled_exactly_once(
        self, make_scenario, prompt_dist, output_dist, seed, budget, kind
    ):
        # The log holds state changes only: no per-token entries.
        from repro.serving import ClosedLoopSource, bursty_stream

        source = None
        if kind == "bursty":
            source = bursty_stream(12, 4, 0.05, prompt_dist, output_dist, seed=seed)
        elif kind == "closed-loop":
            source = ClosedLoopSource(
                n_users=3, total_requests=12, think_time_s=0.002,
                prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
            )
        result = run_source(*make_scenario(
            seed=seed, budget_requests=budget, source=source
        ))
        for evs in _events_by_request(result.events).values():
            assert [e.kind for e in evs] == [
                EventKind.ARRIVAL, EventKind.ADMIT,
                EventKind.PREFILL_START, EventKind.COMPLETE,
            ]
        assert len(result.events) == 4 * len(result.records)


class TestKvBudget:
    @given(seeds, budgets)
    @settings(max_examples=12, deadline=None)
    def test_reservation_never_exceeds_budget(self, make_scenario, seed, budget):
        result = run_source(*make_scenario(seed=seed, budget_requests=budget))
        assert all(
            ev.kv_reserved_bytes <= result.kv_budget_bytes for ev in result.events
        )
        assert result.peak_kv_bytes <= result.kv_budget_bytes

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_all_kv_released_at_drain(self, make_scenario, seed):
        result = run_source(*make_scenario(seed=seed))
        assert result.events[-1].kv_reserved_bytes == 0

    def test_oversized_request_rejected_up_front(self, make_scenario):
        with pytest.raises(CapacityError):
            run_source(*make_scenario(budget_requests=0.1))

    def test_infeasible_closed_loop_followup_rejected_not_fatal(
        self, serving_engine, serving_model
    ):
        # A mid-run follow-up whose drawn lengths can never fit must be
        # rejected at submission, not abort and discard completed work.
        from repro.serving import ClosedLoopSource, ContinuousBatchingScheduler
        from repro.serving import LengthDistribution

        budget = serving_model.n_layers * serving_model.kv_cache_bytes_per_layer(
            60, serving_engine.config.act_bits
        )
        source = ClosedLoopSource(
            2, 10, 0.1,
            LengthDistribution("fixed", 8),
            LengthDistribution("uniform", 1, 80),
            seed=2,  # draws feasible initial requests, infeasible follow-ups
        )
        result = run_source(
            ContinuousBatchingScheduler(serving_engine, kv_budget_bytes=budget),
            source,
        )
        assert result.n_rejected_followups > 0
        assert len(result.records) + result.n_rejected_followups <= 10
        for rec in result.records:  # served requests are complete
            assert rec.generated_tokens == rec.request.output_tokens

    def test_queue_depth_counts_only_kv_blocked_requests(
        self, make_scenario, prompt_dist, output_dist
    ):
        from repro.serving import bursty_stream

        burst = bursty_stream(8, 8, 1.0, prompt_dist, output_dist, seed=0)
        # Ample budget: the whole burst admits at its arrival instant, so
        # nobody is ever held back by KV and the queue metric stays zero.
        ample = run_source(*make_scenario(source=burst, budget_requests=16.0))
        assert ample.max_queue_depth == 0
        # Tight budget: admission control must actually queue the burst.
        tight = run_source(*make_scenario(source=burst, budget_requests=1.0))
        assert tight.max_queue_depth > 0

    def test_packing_reclaims_dram_for_kv(self, serving_engine, serving_model):
        # The default budget credits the packed weight image: a packing
        # engine must get at least the unpacked engine's KV headroom.
        from repro import ExecutionPlan, MeadowEngine
        from repro.serving import ContinuousBatchingScheduler

        unpacked_engine = MeadowEngine(
            serving_model, serving_engine.config, ExecutionPlan.gemm_baseline()
        )
        packed = ContinuousBatchingScheduler(serving_engine)
        unpacked = ContinuousBatchingScheduler(unpacked_engine)
        assert packed.kv_budget_bytes >= unpacked.kv_budget_bytes


class TestSlotBoundUnderOverload:
    """At most ``max_batch`` requests hold a slot, at any offered load.

    Admission stops at the slot bound, so the decode batch never exceeds
    ``max_batch`` and the excess waits in the pending queue. Checked at
    every ``advance_one`` boundary of the per-token walk, and on the
    coalesced path through its event log, at up to 10x the engine's
    capacity.
    """

    @staticmethod
    def _source(kind, seed, load, rate, max_batch, prompt_dist, output_dist):
        from repro.serving import ClosedLoopSource, bursty_stream, poisson_stream

        if kind == "poisson":
            return poisson_stream(40, rate, prompt_dist, output_dist, seed=seed)
        if kind == "bursty":
            return bursty_stream(40, 8, 8 / rate, prompt_dist, output_dist, seed=seed)
        # A closed loop paces itself; offer load as users per slot.
        users = max(1, round(load * max_batch))
        return ClosedLoopSource(
            n_users=users, total_requests=max(40, users),
            think_time_s=0.001, prompt_dist=prompt_dist,
            output_dist=output_dist, seed=seed,
        )

    @given(
        seeds,
        st.sampled_from(["poisson", "bursty", "closed-loop"]),
        st.sampled_from([1, 2, 8, 16]),
        st.sampled_from([0.5, 2.0, 10.0]),
        st.sampled_from([1.0, 4.0, 64.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_slots_and_kv_bounded_at_every_boundary(
        self, serving_engine, serving_model, prompt_dist, output_dist,
        capacity_rps, seed, kind, max_batch, load, budget_requests,
    ):
        from repro.serving import ContinuousBatchingScheduler

        rate = load * capacity_rps(serving_engine, max_batch)
        worst = serving_model.n_layers * serving_model.kv_cache_bytes_per_layer(
            serving_model.max_seq_len, serving_engine.config.act_bits
        )

        def scenario():
            scheduler = ContinuousBatchingScheduler(
                serving_engine,
                kv_budget_bytes=int(worst * budget_requests),
                max_batch=max_batch,
                ctx_bucket=8,
            )
            return scheduler, self._source(
                kind, seed, load, rate, max_batch, prompt_dist, output_dist
            )

        def check(walk):
            assert len(walk._prefill_queue) + len(walk._d_slot) <= max_batch
            assert walk._kv_reserved <= walk.kv_budget_bytes
            assert walk._d_slot or not walk._tok_s  # the clock ends with them
            snap = walk.snapshot()
            assert snap.n_decoding <= snap.max_batch

        walk, source = scenario()
        walked = walk_tokens(walk, source, on_step=check)
        offered = getattr(source, "total_requests", 40)
        assert len(walked.records) + walked.n_rejected_followups == offered
        for rec in walked.records:
            assert rec.generated_tokens == rec.request.output_tokens

        # The coalesced path: requests holding a slot (admitted, not yet
        # completed) never exceed the bound at any logged instant, and
        # the timeline is the walk's, bit for bit.
        ran = run_source(*scenario())
        in_flight = 0
        for ev in ran.events:
            if ev.kind is EventKind.ADMIT:
                in_flight += 1
                assert in_flight <= max_batch
            elif ev.kind is EventKind.COMPLETE:
                in_flight -= 1
        assert ran.events == walked.events
        assert ran.records == walked.records

        # The coalesced step log: batches within the slot bound, steps
        # in clock order and never overlapping, event marks that never
        # go back, one prefill row per PREFILL_START (naming it), and
        # every decode iteration the walk ran.
        steps = ran.steps
        assert len(steps) and max(steps.batch) <= max_batch
        starts = list(steps.t0_s[1:]) + [math.inf]
        assert all(
            t0 <= t1 <= nxt for t0, t1, nxt in zip(steps.t0_s, steps.t1_s, starts)
        )
        assert all(a <= b for a, b in zip(steps.events, steps.events[1:]))
        prefills = [
            ran.events.request_id[end - 1]
            for k, end in zip(steps.k, steps.events) if not k
        ]
        assert prefills == [
            ev.request_id for ev in ran.events
            if ev.kind is EventKind.PREFILL_START
        ]
        assert ran.n_decode_iterations == sum(steps.k) == walked.n_decode_iterations
        assert ran.n_prefill_iterations == walked.n_prefill_iterations


class TestFcfsAdmission:
    @given(seeds, rates, budgets)
    @settings(max_examples=12, deadline=None)
    def test_admission_preserves_arrival_order(
        self, make_scenario, seed, rate, budget
    ):
        result = run_source(
            *make_scenario(seed=seed, rate_rps=rate, budget_requests=budget)
        )
        admitted = [
            ev.request_id for ev in result.events if ev.kind is EventKind.ADMIT
        ]
        arrival_order = sorted(
            (rec.request for rec in result.records),
            key=lambda r: (r.arrival_s, r.request_id),
        )
        assert admitted == [r.request_id for r in arrival_order]


class TestConservation:
    @given(seeds, rates)
    @settings(max_examples=10, deadline=None)
    def test_every_request_served_in_full(self, make_scenario, seed, rate):
        scheduler, source = make_scenario(seed=seed, rate_rps=rate)
        n = len(source.initial())
        result = run_source(scheduler, source)
        assert len(result.records) == n
        for rec in result.records:
            assert rec.generated_tokens == rec.request.output_tokens

    @given(seeds, rates)
    @settings(max_examples=10, deadline=None)
    def test_tbt_accounts_for_every_inter_token_gap(self, make_scenario, seed, rate):
        # TBT is the wall-clock gap between tokens (prefill stalls
        # included), so the latency identity must hold exactly.
        result = run_source(*make_scenario(seed=seed, rate_rps=rate))
        for rec in result.records:
            assert rec.ttft_s + sum(rec.tbt_s) == pytest.approx(rec.e2e_s)

    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_same_seed_reproduces_identical_timeline(self, make_scenario, seed):
        a = run_source(*make_scenario(seed=seed))
        b = run_source(*make_scenario(seed=seed))
        assert a.events == b.events
        assert a.records == b.records


class TestSchedulerConfigValidation:
    def test_rejects_bad_knobs(self, serving_engine, make_scenario):
        from repro.serving import ContinuousBatchingScheduler

        with pytest.raises(ConfigError):
            ContinuousBatchingScheduler(serving_engine, max_batch=0)
        with pytest.raises(ConfigError):
            ContinuousBatchingScheduler(serving_engine, ctx_bucket=0)
        with pytest.raises(ConfigError):
            ContinuousBatchingScheduler(serving_engine, kv_budget_bytes=-1)


class TestDeterministicOrdering:
    """FCFS position is the explicit total order (arrival_s, request_id)."""

    def _tied_requests(self, reversed_submission: bool):
        from repro.serving import Request

        # Four requests arriving at the same instant, ids deliberately
        # shuffled relative to any submission order.
        reqs = [
            Request(request_id=i, arrival_s=0.5, prompt_tokens=8 + i, output_tokens=4)
            for i in (3, 1, 2, 0)
        ]
        return list(reversed(reqs)) if reversed_submission else reqs

    def test_equal_arrival_times_processed_in_id_order(
        self, serving_engine, make_scenario
    ):
        from repro.serving import ContinuousBatchingScheduler

        scheduler = ContinuousBatchingScheduler(serving_engine, max_batch=8)
        for req in self._tied_requests(reversed_submission=False):
            scheduler.submit(req)
        scheduler.advance_until()
        result = scheduler.result()
        admits = [ev.request_id for ev in result.events if ev.kind is EventKind.ADMIT]
        assert admits == [0, 1, 2, 3]

    def test_submission_order_is_irrelevant_to_the_timeline(self, serving_engine):
        from repro.serving import ContinuousBatchingScheduler

        results = []
        for reverse in (False, True):
            scheduler = ContinuousBatchingScheduler(serving_engine, max_batch=8)
            for req in self._tied_requests(reversed_submission=reverse):
                scheduler.submit(req)
            scheduler.advance_until()
            results.append(scheduler.result())
        assert results[0].events == results[1].events
        assert results[0].records == results[1].records


class TestIncrementalDriving:
    """submit()/advance_until() chunks reproduce one advance exactly."""

    @given(seeds, rates)
    @settings(max_examples=8, deadline=None)
    def test_chunked_advance_matches_one_shot_run(
        self, make_scenario, serving_engine, prompt_dist, output_dist, seed, rate
    ):
        from repro.serving import ContinuousBatchingScheduler, poisson_stream

        stream = poisson_stream(10, rate, prompt_dist, output_dist, seed=seed)
        budget = make_scenario(seed=seed)[0].kv_budget_bytes
        one_shot = run_source(
            ContinuousBatchingScheduler(
                serving_engine, kv_budget_bytes=budget, max_batch=8
            ),
            stream,
        )

        chunked = ContinuousBatchingScheduler(
            serving_engine, kv_budget_bytes=budget, max_batch=8
        )
        # Submit each request only when the global clock reaches it, and
        # advance in arbitrary slices — pausing must change nothing.
        for req in stream.initial():
            chunked.advance_until(req.arrival_s)
            chunked.submit(req)
        chunked.advance_until()
        result = chunked.result()
        assert result.events == one_shot.events
        assert result.records == one_shot.records
        assert result.duration_s == one_shot.duration_s

    def test_run_requires_a_source(self, serving_engine):
        # The one driver refuses a scenario that brings no requests.
        from repro.serving import RequestStream, ServingSimulator

        with pytest.raises(ConfigError, match="produced no requests"):
            ServingSimulator(serving_engine).run(RequestStream("empty", ()))

    def test_run_is_single_use(self, serving_engine, make_scenario):
        # A served scenario's ids stay known: replaying it is refused.
        scheduler, source = make_scenario(seed=7)
        run_source(scheduler, source)
        with pytest.raises(ConfigError):
            run_source(scheduler, source)
