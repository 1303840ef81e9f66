"""The obs layer's central guarantee: observation never changes results.

The observer only reads a finished report, so unobserved and observed
runs must produce *equal* reports — ``FleetReport.obs`` is excluded
from equality, every other field (records, metrics, resilience
accounting, routing decisions) is bit-compared. The hypothesis
property sweeps scenario shape, seeds, chaos scenarios, stealing and
routing policy.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.source_loop import run_source
from oracles.token_walk import walk_tokens
from repro.obs import FleetObserver
from repro.serving import ContinuousBatchingScheduler, ServingSimulator


class TestFleetIdentity:
    def test_healthy_run_reports_equal(self, make_fleet, make_stream):
        off = make_fleet().run(make_stream())
        on = make_fleet(obs=FleetObserver()).run(make_stream())
        assert on == off
        assert on.obs is not None and off.obs is None

    def test_chaos_run_reports_equal(self, chaos_reports):
        off, on = chaos_reports
        assert on == off
        assert on.resilience == off.resilience

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 3),
        n=st.integers(6, 14),
        kind=st.sampled_from(["bursty", "poisson"]),
        faults=st.sampled_from([None, "crash", "chaos"]),
        steal=st.booleans(),
        policy=st.sampled_from(["jsq", "round-robin"]),
    )
    def test_observation_is_invisible(
        self, make_fleet, make_stream, seed, n, kind, faults, steal, policy
    ):
        off = make_fleet(faults=faults, steal=steal, policy=policy).run(
            make_stream(kind, n, seed)
        )
        on = make_fleet(
            obs=FleetObserver(tick_s=0.01),
            faults=faults,
            steal=steal,
            policy=policy,
        ).run(make_stream(kind, n, seed))
        assert on == off

    def test_observed_trace_is_reproducible(self, make_fleet, make_stream):
        """Same seeded run twice -> byte-identical trace documents."""
        a = make_fleet(obs=FleetObserver(), faults="chaos").run(make_stream())
        b = make_fleet(obs=FleetObserver(), faults="chaos").run(make_stream())
        assert a.obs.trace == b.obs.trace
        assert a.obs.metrics.to_json() == b.obs.metrics.to_json()


class TestServingIdentity:
    def test_single_engine_run_reports_equal(self, fast_engine, make_stream):
        sim = ServingSimulator(fast_engine, max_batch=8, ctx_bucket=16)
        off = sim.run(make_stream())
        on = sim.run(make_stream())
        bundle = FleetObserver().build(on)
        assert on == off
        # A report and its result build the same bundle.
        again = FleetObserver().build(on.result)
        assert again.trace == bundle.trace
        assert again.metrics.to_json() == bundle.metrics.to_json()

    def test_serving_obs_reports_through_shard_zero(
        self, fast_engine, make_stream
    ):
        report = ServingSimulator(fast_engine, max_batch=8, ctx_bucket=16).run(
            make_stream()
        )
        trace = FleetObserver().build(report).trace
        assert trace.n_shards == 1
        assert {s.shard_id for s in trace.spans} == {0}
        assert "PREFILL" in trace.span_names()


class TestCoalescingInvisible:
    """Counters and histograms count iterations, however they coalesce.

    The coalesced scheduler logs one step row per decode run and the
    per-token walk one per iteration; gauges are sampled at step ends,
    so only they may differ between the two.
    """

    @pytest.mark.parametrize("ctx_bucket", [1, 16])
    @pytest.mark.parametrize("kind", ["poisson", "bursty"])
    def test_coalesced_and_walked_metrics_agree(
        self, fast_engine, make_stream, ctx_bucket, kind
    ):
        docs = []
        for walk in (False, True):
            scheduler = ContinuousBatchingScheduler(
                fast_engine, max_batch=8, ctx_bucket=ctx_bucket,
            )
            serve = walk_tokens if walk else run_source
            result = serve(scheduler, make_stream(kind, 24, 3))
            docs.append(FleetObserver().build(result).metrics.to_dict())
        coalesced, walked = docs
        assert coalesced["counters"] == walked["counters"]
        assert coalesced["histograms"] == walked["histograms"]
        (batch,) = coalesced["histograms"]
        assert batch["count"] == result.n_decode_iterations
