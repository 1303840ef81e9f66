"""Routing and shedding read live shard state that matches the queues.

The fleet hands its routing policies and shedding policies the live
schedulers, read through properties named like the
:class:`~repro.serving.SchedulerSnapshot` fields, instead of building a
frozen copy of every shard per arrival. These tests wrap both kinds of
policy and check, at every call, each shard they are handed against a
brute-force recount of its queues (``tests/oracles/shard_state.py``);
comparing a property with ``snapshot()`` would prove nothing, since
``snapshot()`` copies the properties. They also check that every
routing decision records the prediction the policy makes on a frozen
copy of the chosen shard taken *before* the request joined it.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from oracles.shard_state import queued_prefill_reference, recount_shard_state
from repro.fleet import (
    POLICY_NAMES,
    DeadlineShedding,
    DropOldestShedding,
    FleetSimulator,
    NoShedding,
    RetryPolicy,
    make_policy,
)
from repro.fleet.resilience import SheddingPolicy
from repro.fleet.routing import RoutingPolicy
from repro.serving import ClosedLoopSource, ContinuousBatchingScheduler

seeds = st.integers(min_value=0, max_value=10_000)


def _assert_matches_queues(shard, engines) -> None:
    """Every routing-facing read of ``shard`` equals a recount."""
    assert isinstance(shard, ContinuousBatchingScheduler)
    assert shard.engine is engines[shard.shard_id]
    expected = recount_shard_state(shard)
    frozen = shard.snapshot()
    for name, value in expected.items():
        assert getattr(shard, name) == value, name
        assert getattr(frozen, name) == value, name
    assert frozen.shard_id == shard.shard_id
    assert frozen.clock_s == shard._clock
    assert frozen.latency_scale == shard.latency_scale
    n_in_system = expected["n_waiting"] + expected["n_decoding"]
    assert shard.n_in_system == frozen.n_in_system == n_in_system
    pressure = (
        expected["kv_reserved_bytes"] + expected["waiting_kv_bytes"]
    ) / shard.kv_budget_bytes
    assert shard.kv_pressure == frozen.kv_pressure == pressure
    queued = queued_prefill_reference(
        shard.engine.surface, expected["waiting_prompt_hist"]
    )
    assert shard.queued_prefill_s == frozen.queued_prefill_s == queued


def _assert_all_match(shards, engines) -> None:
    ids = [shard.shard_id for shard in shards]
    assert ids and ids == sorted(set(ids))
    for shard in shards:
        _assert_matches_queues(shard, engines)


class CheckedPolicy(RoutingPolicy):
    """Delegates to a registered policy, checking every ``route`` call.

    ``routed`` collects ``(request_id, now_s, shard_id, prediction)``
    per call, the prediction being the inner policy's
    :meth:`predicted_ttft_s` on a frozen copy of the chosen shard taken
    before the call.
    """

    def __init__(self, inner: RoutingPolicy, engines) -> None:
        self.inner = inner
        self.name = inner.name
        self.engines = engines
        self.routed = []

    def reset(self, n_shards: int) -> None:
        self.inner.reset(n_shards)

    def observe(self, shard_id, predicted_ttft_s, realized_ttft_s) -> None:
        self.inner.observe(shard_id, predicted_ttft_s, realized_ttft_s)

    def route(self, request, now_s, shards):
        _assert_all_match(shards, self.engines)
        frozen = {shard.shard_id: shard.snapshot() for shard in shards}
        choice, predicted = self.inner.route(request, now_s, shards)
        expected = self.inner.predicted_ttft_s(request, now_s, frozen[choice])
        assert predicted == expected
        self.routed.append((request.request_id, now_s, choice, expected))
        return choice, predicted


class CheckedShedding(SheddingPolicy):
    """Delegates to a shedding policy, checking the shards it is handed."""

    def __init__(self, inner: SheddingPolicy, engines) -> None:
        self.inner = inner
        self.name = inner.name
        self.engines = engines
        self.calls = 0

    def reject(self, request, now_s, shards, deadline_s) -> bool:
        _assert_all_match(shards, self.engines)
        self.calls += 1
        return self.inner.reject(request, now_s, shards, deadline_s)

    def evict(self, chosen) -> bool:
        _assert_matches_queues(chosen, self.engines)
        self.calls += 1
        return self.inner.evict(chosen)


SHEDDING = {
    "none": NoShedding,
    "deadline": DeadlineShedding,
    # A short backlog bound, so evictions happen on these small streams.
    "drop-oldest": lambda: DropOldestShedding(max_waiting=2),
}


@given(
    policy_name=st.sampled_from(POLICY_NAMES),
    kind=st.sampled_from(["poisson", "bursty", "closed-loop"]),
    steal=st.booleans(),
    faults=st.sampled_from([None, "chaos"]),
    shedding_name=st.sampled_from(sorted(SHEDDING)),
    seed=seeds,
)
@settings(max_examples=40, deadline=None)
def test_policies_read_live_state_and_record_pre_submit_predictions(
    fast_engine, slow_engine, shard_budget, make_stream, prompt_dist,
    output_dist, policy_name, kind, steal, faults, shedding_name, seed,
):
    engines = [fast_engine, slow_engine, fast_engine]
    if kind == "closed-loop":
        source = ClosedLoopSource(
            n_users=4, total_requests=16, think_time_s=0.001,
            prompt_dist=prompt_dist, output_dist=output_dist, seed=seed,
        )
    else:
        source = make_stream(kind, n=20, seed=seed, rate=400.0)
    policy = CheckedPolicy(make_policy(policy_name), engines)
    shedding = CheckedShedding(SHEDDING[shedding_name](), engines)
    report = FleetSimulator(
        engines,
        policy=policy,
        kv_budget_bytes=shard_budget,
        max_batch=4,
        steal=steal,
        faults=faults,
        fault_seed=seed,
        # A deadline gives deadline shedding something to reject.
        retry=RetryPolicy(max_retries=2, deadline_s=0.015)
        if shedding_name == "deadline" else None,
        shedding=shedding,
    ).run(source)

    assert policy.routed
    assert shedding.calls >= len(policy.routed)
    # One routing decision per route call, in call order, each holding
    # the prediction made before the request joined its shard.
    routed = [
        (d.request_id, d.arrival_s, d.shard_id, d.predicted_ttft_s)
        for d in report.result.decisions
        if d.migrated_from is None
    ]
    assert routed == policy.routed
    predictive = policy_name in ("predicted-latency", "calibrated-latency")
    assert all(
        (prediction is not None) == predictive
        for _, _, _, prediction in routed
    )


def test_a_prediction_taken_after_submit_differs(
    fast_engine, shard_budget, make_stream
):
    # The check above is only as strong as this gap: evaluated on the
    # live shard after the request joined it, the model sees the
    # request's own prompt queued and its own KV waiting.
    policy = make_policy("predicted-latency")
    shard = ContinuousBatchingScheduler(
        fast_engine, kv_budget_bytes=shard_budget, max_batch=4
    )
    request = make_stream("poisson", n=1, seed=2).initial()[0]
    before = policy.predicted_ttft_s(request, 0.0, shard)
    shard.submit(request)
    assert policy.predicted_ttft_s(request, 0.0, shard) > before
