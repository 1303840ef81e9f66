"""Where a coalesced decode run ends.

A run of ``_decode_run`` ends at the first completion in its batch, at
the ``advance_until`` horizon, or on the step whose end clock reaches
the next submitted arrival, and nowhere else: a context-bucket boundary
changes the surface point a step is charged, not the run. The witness
is the per-token walk (``tests/oracles/token_walk.py``), whose step end
clocks are the coalesced run's, one by one: a run that ends at clock
``c`` after ``k`` iterations covers the ``k`` walk steps ending at
``c``, and its last step must have started before the run's stop.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles.source_loop import run_source
from oracles.token_walk import walk_tokens
from repro.serving import (
    ClosedLoopSource,
    ContinuousBatchingScheduler,
    Request,
    RequestStream,
    bursty_stream,
    poisson_stream,
)

seeds = st.integers(0, 2**16)
ctx_buckets = st.sampled_from([1, 3, 16])
MAX_BATCH = 4


def _budget(engine, requests: float = 4.0) -> int:
    model = engine.model
    worst = model.n_layers * model.kv_cache_bytes_per_layer(
        model.max_seq_len, engine.config.act_bits
    )
    return int(worst * requests)


def _scheduler(engine, ctx_bucket):
    return ContinuousBatchingScheduler(
        engine, kv_budget_bytes=_budget(engine),
        max_batch=MAX_BATCH, ctx_bucket=ctx_bucket,
    )


def _record_runs(scheduler):
    """Wrap ``scheduler._decode_run``; returns the list it appends to.

    Each entry is ``(start clock, stop, k, end clock, completed)``,
    where ``stop`` is the earlier of the horizon and the next submitted
    arrival when the run began, and ``k`` the iterations of the step
    log row the run appended.
    """
    runs = []
    inner = scheduler._decode_run

    def wrapped(t_s):
        s = scheduler
        start = s.clock_s
        next_arrival = s._future[0][0] if s._future else math.inf
        n_done, n_steps = len(s._records), len(s._steps)
        inner(t_s)
        assert len(s._steps) == n_steps + 1
        runs.append((
            start, min(t_s, next_arrival), s._steps.k[-1],
            s.clock_s, len(s._records) > n_done,
        ))

    scheduler._decode_run = wrapped
    return runs


def _walk_clocks(engine, source, ctx_bucket):
    """Every step's end clock in the per-token walk, in order."""
    clocks = []
    walk_tokens(
        _scheduler(engine, ctx_bucket), source,
        on_step=lambda s: clocks.append(s.clock_s),
    )
    return clocks


def _assert_runs_end_at_events(runs, walk):
    assert runs
    index = {c: i for i, c in enumerate(walk)}
    assert len(index) == len(walk), "walk clocks must be distinct"
    for start, stop, k, end, completed in runs:
        i = index[end]
        # The run covers exactly the k walk steps ending at ``end``.
        assert walk[i - k] == start
        # Its last step started before the stop ...
        assert walk[i - 1] < stop
        # ... and it went on until a completion or the stop.
        assert completed or end >= stop


def _source(kind, seed, prompt_dist, output_dist):
    if kind == "poisson":
        return poisson_stream(14, 30.0, prompt_dist, output_dist, seed=seed)
    if kind == "bursty":
        return bursty_stream(16, 8, 0.02, prompt_dist, output_dist, seed=seed)
    return ClosedLoopSource(
        n_users=3, total_requests=12, think_time_s=0.002,
        prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
    )


class TestRunEnds:
    @given(seeds, st.sampled_from(["poisson", "bursty", "closed-loop"]),
           ctx_buckets)
    @settings(max_examples=30, deadline=None)
    def test_runs_end_only_at_completion_horizon_or_arrival(
        self, serving_engine, prompt_dist, output_dist, seed, kind, ctx_bucket
    ):
        walk = _walk_clocks(
            serving_engine, _source(kind, seed, prompt_dist, output_dist),
            ctx_bucket,
        )
        scheduler = _scheduler(serving_engine, ctx_bucket)
        runs = _record_runs(scheduler)
        run_source(scheduler, _source(kind, seed, prompt_dist, output_dist))
        _assert_runs_end_at_events(runs, walk)

    @given(seeds, st.sampled_from(["poisson", "bursty"]), ctx_buckets,
           st.floats(0.05, 0.95))
    @settings(max_examples=30, deadline=None)
    def test_chunked_driving_cuts_runs_at_each_pause(
        self, serving_engine, prompt_dist, output_dist, seed, kind,
        ctx_bucket, frac,
    ):
        # Pause at every arrival (before submitting it) and once more
        # ``frac`` of the way to the next one, so that horizons also
        # fall inside runs.
        source = _source(kind, seed, prompt_dist, output_dist)
        walk = _walk_clocks(serving_engine, source, ctx_bucket)
        scheduler = _scheduler(serving_engine, ctx_bucket)
        runs = _record_runs(scheduler)
        requests = list(source.initial())
        for req, nxt in zip(requests, requests[1:] + [None]):
            scheduler.advance_until(req.arrival_s)
            scheduler.submit(req)
            if nxt is not None:
                scheduler.advance_until(
                    req.arrival_s + frac * (nxt.arrival_s - req.arrival_s)
                )
        scheduler.advance_until()
        _assert_runs_end_at_events(runs, walk)


class TestLoneRequest:
    @pytest.mark.parametrize("ctx_bucket", [1, 3, 16])
    def test_decodes_in_one_run(self, serving_engine, ctx_bucket):
        # 99 decode steps cross many buckets of every size here.
        source = RequestStream("lone", (Request(0, 0.0, 20, 100),))
        scheduler = _scheduler(serving_engine, ctx_bucket)
        runs = _record_runs(scheduler)
        result = run_source(scheduler, source)
        assert result.n_decode_iterations == 99
        assert [k for _, _, k, _, _ in runs] == [99]
