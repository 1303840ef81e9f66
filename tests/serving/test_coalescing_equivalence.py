"""Equivalence proofs for the event-compressed serving core.

Two guarantees, each tested against the per-token walk kept in
``tests/oracles/token_walk.py`` the same way the simulator's fast path
is tested against ``tests/oracles/layer_walk.py``:

1. **Decode-run coalescing is bit-identical**: the coalesced scheduler
   produces the *same* :class:`~repro.serving.ServingResult` — records,
   events, clock, energy — field for field, across plans, sources,
   ``ctx_bucket`` and ``max_batch``, under arbitrary chunked
   ``advance_until`` driving, and from a partly warm surface. Each side
   runs on a fresh engine, and both must end with the same surface
   points simulated: a run spanning many context buckets looks each one
   up only when its clock reaches it, as the walk does.
2. **Snapshot aggregates match recomputation**: the O(1)
   :class:`~repro.serving.SchedulerSnapshot` fields maintained
   incrementally equal a brute-force walk of the queues
   (``tests/oracles/shard_state.py``) at every iteration boundary, and
   the scheduler's kept queued-prefill sum equals a fresh one.
3. **The token clock holds under overload**: at four times capacity the
   decode set stays full and the shard's token clock never empties, so
   only its dead prefix is ever dropped; the results stay the walk's,
   the clock stays bounded, and it is empty whenever the decode set is.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from oracles.shard_state import queued_prefill_reference, recount_shard_state
from oracles.source_loop import SourceLoop, run_source
from oracles.token_walk import walk_tokens
from repro import ExecutionPlan, MeadowEngine
from repro.serving import (
    ClosedLoopSource,
    ContinuousBatchingScheduler,
    Request,
    RequestStream,
    bursty_stream,
    poisson_stream,
)

seeds = st.integers(0, 2**16)
ctx_buckets = st.sampled_from([1, 2, 3, 8, 64])
max_batches = st.sampled_from([2, 8])
source_kinds = st.sampled_from(["poisson", "bursty", "closed-loop"])


@pytest.fixture(scope="module")
def gemm_engine(serving_model, serving_hardware) -> MeadowEngine:
    """A second plan so the equivalence sweep crosses plans, not configs."""
    return MeadowEngine(
        serving_model, serving_hardware, ExecutionPlan.gemm_baseline()
    )


@pytest.fixture(scope="module")
def make_source(prompt_dist, output_dist):
    """Fresh seeded source per call (closed-loop sources are single-use)."""

    def _make(kind: str, seed: int):
        if kind == "poisson":
            return poisson_stream(14, 30.0, prompt_dist, output_dist, seed=seed)
        if kind == "bursty":
            return bursty_stream(16, 8, 0.02, prompt_dist, output_dist, seed=seed)
        return ClosedLoopSource(
            n_users=3, total_requests=12, think_time_s=0.002,
            prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
        )

    return _make


def _budget(engine, requests: float = 4.0) -> int:
    model = engine.model
    worst = model.n_layers * model.kv_cache_bytes_per_layer(
        model.max_seq_len, engine.config.act_bits
    )
    return int(worst * requests)


def _fresh(engine, surface=None):
    """A clone of ``engine`` with its own surface: cold, or holding the
    ``surface`` entries
    (:meth:`~repro.sim.surface.LatencySurface.export_points`)."""
    clone = engine.clone()
    if surface is not None:
        clone.surface.merge_points(surface)
    return clone


def _run(engine, source, *, walk=False, ctx_bucket=1, max_batch=8,
         budget_requests=4.0):
    """``source`` served by the coalesced scheduler, or the per-token walk."""
    scheduler = ContinuousBatchingScheduler(
        engine,
        kv_budget_bytes=_budget(engine, budget_requests),
        max_batch=max_batch,
        ctx_bucket=ctx_bucket,
    )
    if walk:
        return walk_tokens(scheduler, source)
    return run_source(scheduler, source)


def _assert_identical(fast, ref):
    """Field-for-field bit-identity of two ServingResults."""
    assert fast.events == ref.events
    assert fast.records == ref.records
    assert fast.duration_s == ref.duration_s
    assert fast.total_energy_uj == ref.total_energy_uj
    assert fast.n_decode_iterations == ref.n_decode_iterations
    assert fast == ref  # every remaining field too


def _assert_same_lookups(fast_surface, ref_surface):
    """Both sides simulated exactly the same surface points."""
    assert fast_surface.point_keys() == ref_surface.point_keys()
    assert fast_surface.n_simulated == ref_surface.n_simulated


def _check_equivalent(engine, make_source, *, surface=None, **knobs):
    """Walk and coalesced run, each on a fresh engine, must agree."""
    ref_engine, fast_engine = _fresh(engine, surface), _fresh(engine, surface)
    ref = _run(ref_engine, make_source(), walk=True, **knobs)
    fast = _run(fast_engine, make_source(), **knobs)
    _assert_identical(fast, ref)
    _assert_same_lookups(fast_engine.surface, ref_engine.surface)
    return fast_engine.surface


@pytest.fixture(scope="module")
def sparse_surface(serving_engine):
    """Surface entries with exact decode points every 32 contexts."""
    surface = serving_engine.clone().surface
    surface.materialize(prefill_tokens=range(8, 65, 28))
    surface.materialize(
        decode_contexts=range(32, 257, 32), batches=range(1, 9)
    )
    return surface.export_points()


class TestCoalescedEqualsReference:
    @given(seeds, source_kinds, ctx_buckets, max_batches)
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_across_sources_and_knobs(
        self, serving_engine, make_source, seed, kind, ctx_bucket, max_batch
    ):
        _check_equivalent(
            serving_engine, lambda: make_source(kind, seed),
            ctx_bucket=ctx_bucket, max_batch=max_batch,
        )

    @given(seeds, ctx_buckets)
    @settings(max_examples=10, deadline=None)
    def test_bit_identical_on_unpacked_plan(
        self, gemm_engine, make_source, seed, ctx_bucket
    ):
        _check_equivalent(
            gemm_engine, lambda: make_source("poisson", seed),
            ctx_bucket=ctx_bucket,
        )

    @given(seeds)
    @settings(max_examples=8, deadline=None)
    def test_tight_budget_slot_and_kv_stalls(
        self, serving_engine, make_source, seed
    ):
        # max_batch=2 under a 2-request budget: bursts stall on both the
        # slot bound and the KV budget, so runs are cut by completions
        # and arrivals everywhere.
        _check_equivalent(
            serving_engine, lambda: make_source("bursty", seed),
            ctx_bucket=8, max_batch=2, budget_requests=2.0,
        )

    @given(seeds, source_kinds, ctx_buckets)
    @settings(max_examples=15, deadline=None)
    def test_bit_identical_from_a_partly_warm_surface(
        self, serving_engine, make_source, sparse_surface, seed, kind,
        ctx_bucket,
    ):
        # Both sides start from the same sparse surface, so each
        # simulates only the points it lacks, and both must fill the
        # same ones.
        _check_equivalent(
            serving_engine, lambda: make_source(kind, seed),
            surface=sparse_surface, ctx_bucket=ctx_bucket,
        )

    @given(seeds, ctx_buckets)
    @settings(max_examples=10, deadline=None)
    def test_chunked_advance_until_driving(
        self, serving_engine, make_source, prompt_dist, output_dist,
        seed, ctx_bucket,
    ):
        # Coalesced + chunked incremental driving (the fleet's mode)
        # against one-shot reference: runs must split at every pause and
        # still reproduce the identical timeline and event log.
        stream = poisson_stream(12, 40.0, prompt_dist, output_dist, seed=seed)
        budget = _budget(serving_engine)
        ref_engine, chunked_engine = _fresh(serving_engine), _fresh(serving_engine)
        ref = walk_tokens(ContinuousBatchingScheduler(
            ref_engine, kv_budget_bytes=budget,
            max_batch=8, ctx_bucket=ctx_bucket,
        ), stream)
        chunked = ContinuousBatchingScheduler(
            chunked_engine, kv_budget_bytes=budget,
            max_batch=8, ctx_bucket=ctx_bucket,
        )
        for req in stream.initial():
            chunked.advance_until(req.arrival_s)
            chunked.submit(req)
        chunked.advance_until()
        # An externally driven scheduler reports source_name="external";
        # everything simulated must still match bit for bit.
        _assert_identical(
            dataclasses.replace(chunked.result(), source_name=ref.source_name),
            ref,
        )
        _assert_same_lookups(chunked_engine.surface, ref_engine.surface)


def _assert_clock_empty_with_decode_set(scheduler):
    """No token-clock entry outlives the decode set."""
    assert scheduler._d_slot or not scheduler._tok_s


class TestTokenClockUnderOverload:
    @pytest.mark.parametrize("ctx_bucket", [1, 16])
    def test_bit_identical_at_four_times_capacity(
        self, serving_engine, prompt_dist, output_dist, capacity_rps, ctx_bucket
    ):
        # 240 requests at 4x the 16-slot capacity: once decoding starts
        # the slots stay full until the stream drains, so the clock is
        # emptied once, at the end, and lives on dead-prefix drops.
        rate = 4.0 * capacity_rps(serving_engine, 16)
        stream = poisson_stream(240, rate, prompt_dist, output_dist, seed=ctx_bucket)
        lengths, resets = [], []

        def check(s):
            _assert_clock_empty_with_decode_set(s)
            if lengths and lengths[-1] and not s._tok_s:
                resets.append(s.clock_s)
            lengths.append(len(s._tok_s))

        knobs = dict(max_batch=16, ctx_bucket=ctx_bucket)
        ref_engine, fast_engine = _fresh(serving_engine), _fresh(serving_engine)
        budget = _budget(serving_engine, 16.0)
        ref = walk_tokens(
            ContinuousBatchingScheduler(ref_engine, kv_budget_bytes=budget, **knobs),
            stream,
            on_step=check,
        )
        fast = run_source(
            ContinuousBatchingScheduler(fast_engine, kv_budget_bytes=budget, **knobs),
            stream,
        )
        _assert_identical(fast, ref)
        _assert_same_lookups(fast_engine.surface, ref_engine.surface)
        assert ref.max_queue_depth > 16
        assert resets == [max(rec.finish_s for rec in ref.records)]
        # Iterations a live slot can still read, plus one run's worth
        # before the next retirement trims it.
        assert max(lengths) <= 3 * output_dist.hi

    @pytest.mark.parametrize("ctx_bucket", [1, 16])
    def test_dead_prefix_drop_keeps_gaps(self, serving_engine, ctx_bucket):
        # A 60-token generation beside a chain of 6-token ones on two
        # slots: when it retires, everything before the other slot's
        # start is more than half the clock and is dropped, and the
        # chain goes on decoding at offset indices.
        stream = RequestStream("chain", tuple(
            [Request(0, 0.0, 8, 60)]
            + [Request(i, 0.0, 8 + i, 6) for i in range(1, 40)]
        ))
        knobs = dict(kv_budget_bytes=_budget(serving_engine), max_batch=2,
                     ctx_bucket=ctx_bucket)
        walk_offsets = []

        def check(s):
            _assert_clock_empty_with_decode_set(s)
            walk_offsets.append(s._tok_off)

        ref = walk_tokens(
            ContinuousBatchingScheduler(serving_engine, **knobs), stream,
            on_step=check,
        )
        fast = ContinuousBatchingScheduler(serving_engine, **knobs)
        trim, fast_offsets = fast._trim_clock, []

        def recording_trim():
            trim()
            fast_offsets.append(fast._tok_off)

        fast._trim_clock = recording_trim
        _assert_identical(run_source(fast, stream), ref)
        assert max(walk_offsets) > 0 and max(fast_offsets) > 0


def _assert_queued_sum_fresh(scheduler):
    """The kept queued-prefill sum equals one summed afresh, bit for bit."""
    fresh = queued_prefill_reference(
        scheduler.engine.surface, recount_shard_state(scheduler)["waiting_prompt_hist"]
    )
    assert scheduler.queued_prefill_s == fresh
    assert scheduler.snapshot().queued_prefill_s == fresh


class TestSnapshotAggregates:
    @given(seeds, source_kinds)
    @settings(max_examples=12, deadline=None)
    def test_incremental_equals_recomputed_at_every_boundary(
        self, serving_engine, make_source, seed, kind
    ):
        scheduler = ContinuousBatchingScheduler(
            serving_engine,
            kv_budget_bytes=_budget(serving_engine, 3.0),
            max_batch=4, ctx_bucket=8,
        )
        SourceLoop(scheduler, make_source(kind, seed))
        checked = 0
        while True:
            snap = scheduler.snapshot()
            expected = recount_shard_state(scheduler)
            for field_name, value in expected.items():
                assert getattr(snap, field_name) == value, field_name
            _assert_queued_sum_fresh(scheduler)
            _assert_clock_empty_with_decode_set(scheduler)
            checked += 1
            if not scheduler.advance_one():
                break
        assert checked > 1
        # Fully drained: the aggregates must return to exact zeros.
        final = scheduler.snapshot()
        assert final.n_waiting == 0
        assert final.waiting_kv_bytes == 0
        assert final.waiting_prompt_hist == ()
        assert final.remaining_decode_tokens == 0
        assert final.decode_context == 0

    @given(
        seeds,
        st.lists(
            st.sampled_from(["advance", "advance", "steal", "steal-back"]),
            min_size=10, max_size=60,
        ),
        st.floats(0.0, 1.0, exclude_max=True),
    )
    @settings(max_examples=15, deadline=None)
    def test_aggregates_hold_through_overload_steals_and_crash(
        self, serving_engine, prompt_dist, output_dist, seed, ops, crash_frac
    ):
        # Two slot-bound shards under a far-overloaded stream: steals
        # move waiting requests between them (withdraw + submit), and
        # one crash harvest evicts everything from shard a, whose work
        # fails over to shard b.
        stream = poisson_stream(40, 5000.0, prompt_dist, output_dist, seed=seed)
        a, b = (
            ContinuousBatchingScheduler(
                serving_engine, kv_budget_bytes=_budget(serving_engine, 2.0),
                max_batch=2, ctx_bucket=8,
            )
            for _ in range(2)
        )

        def check(s):
            snap = s.snapshot()
            for field_name, value in recount_shard_state(s).items():
                assert getattr(snap, field_name) == value, field_name
            _assert_queued_sum_fresh(s)
            _assert_clock_empty_with_decode_set(s)

        reqs = stream.initial()
        for i, req in enumerate(reqs):
            shard = a if i % 2 else b
            shard.submit(req)
            check(shard)

        crash_at = int(crash_frac * len(ops))
        for i, op in enumerate(ops):
            if i == crash_at:
                waiting, inflight = a.crash_harvest()
                for req in waiting + [req for req, _ in inflight]:
                    b.submit(req)
            elif op == "advance":
                a.advance_one()
                b.advance_one()
            else:
                donor, thief = (a, b) if op == "steal" else (b, a)
                candidates = donor.steal_candidates()
                if candidates:
                    thief.submit(donor.withdraw(candidates[-1].request_id))
            check(a)
            check(b)
        for s in (a, b):
            while s.advance_one():
                check(s)
            final = s.snapshot()
            assert final.waiting_prompt_hist == ()
            assert final.n_waiting == final.n_decoding == 0
        served = [
            rec.request.request_id
            for s in (a, b) for rec in s.result().records
        ]
        assert sorted(served) == sorted(req.request_id for req in reqs)

    def test_snapshot_never_walks_queues(self, serving_engine, prompt_dist,
                                         output_dist):
        # Load thousands of future requests; snapshotting must not scale
        # with the backlog (guard: identical output, and the hot fields
        # come from plain attributes, not comprehensions over queues).
        stream = poisson_stream(2000, 1e6, prompt_dist, output_dist, seed=0)
        scheduler = ContinuousBatchingScheduler(
            serving_engine, kv_budget_bytes=_budget(serving_engine),
        )
        for req in stream.initial():
            scheduler.submit(req)
        snap = scheduler.snapshot()
        expected = recount_shard_state(scheduler)
        assert snap.n_waiting == 2000
        for field_name, value in expected.items():
            assert getattr(snap, field_name) == value, field_name
