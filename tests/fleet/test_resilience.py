"""Chaos-layer guarantees: bit-identity, determinism, dispositions.

The two contracts everything else rests on:

1. **Zero-fault bit-identity** — a fleet that schedules no faults, no
   retry policy and no shedding takes the *legacy* code path, whatever
   spelling of "no faults" it was given. Anyone diffing fleet results
   across the chaos layer's introduction must see zero drift.
2. **Replayable chaos** — one seed, one schedule, one timeline: two
   identical chaotic runs compare ``==`` down to the disposition
   ledger, and no module in the serving/fleet stack consults unseeded
   randomness to make that so.

Plus the ledger itself: every disposition path (OK / RETRIED / SHED /
EXPIRED / LOST) is reachable, conserved, and priced (availability,
lost tokens).
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro.fleet as fleet_pkg
import repro.serving as serving_pkg
from repro.errors import ConfigError
from repro.fleet import (
    Disposition,
    DropOldestShedding,
    FaultKind,
    FaultSchedule,
    FleetSimulator,
    RetryPolicy,
    ShardFault,
)
from repro.serving import bursty_stream

seeds = st.integers(0, 2**16)

#: One crash squarely inside the tiny model's ~40 ms service window for
#: a 24-request single burst on two slow shards — early enough to catch
#: in-flight prefills, long enough that harvested work must wait.
MID_BURST = FaultSchedule(
    name="mid-burst",
    faults=(ShardFault(FaultKind.CRASH, 0, 0.005, 0.02),),
)

#: Crashes hammering both shards faster than retries can drain — the
#: schedule that exhausts a 1-retry budget and forces LOST.
HAMMER = FaultSchedule(
    name="hammer",
    faults=tuple(
        ShardFault(FaultKind.CRASH, shard, 0.004 + 0.03 * k, 0.015)
        for k in range(5)
        for shard in (0, 1)
    ),
)


def _burst(prompt_dist, output_dist, n=24, seed=0):
    """A single burst at t=0: maximal pressure on the crash window."""
    return bursty_stream(n, n, 1.0, prompt_dist, output_dist, seed=seed)


def _fleet(engines, budget, **kw):
    return FleetSimulator(
        engines,
        policy=kw.pop("policy", "predicted-latency"),
        kv_budget_bytes=budget,
        max_batch=8,
        **kw,
    )


def _counts(report):
    res = report.resilience
    assert res is not None
    by = {d: 0 for d in Disposition}
    for _, disposition in res.dispositions:
        by[disposition] += 1
    # The ledger conserves by construction (build() raises otherwise);
    # restate it against the report's own counters.
    assert by[Disposition.OK] == res.n_ok
    assert by[Disposition.RETRIED] == res.n_retried
    assert by[Disposition.SHED] == res.n_shed
    assert by[Disposition.EXPIRED] == res.n_expired
    assert by[Disposition.LOST] == res.n_lost
    assert sum(by.values()) == res.n_submitted
    return res


class TestRetryPolicyValidation:
    @pytest.mark.parametrize(
        "field", ["base_backoff_s", "backoff_multiplier", "jitter_s"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_backoff_is_rejected(self, field, value):
        # Caught at construction, not as a non-finite retry arrival
        # after the first crash.
        with pytest.raises(ConfigError, match=f"{field} must be"):
            RetryPolicy(**{field: value})


class TestZeroFaultBitIdentity:
    @given(seeds, st.sampled_from(["poisson", "bursty"]),
           st.sampled_from(["round-robin", "jsq", "predicted-latency"]))
    @settings(max_examples=8, deadline=None)
    def test_all_spellings_of_no_faults_are_identical(
        self, fast_engine, slow_engine, shard_budget, make_stream,
        seed, kind, policy,
    ):
        """faults=None, FaultSchedule.none() and "none" all take the
        legacy path: same report, field for field, no resilience block."""
        engines = [fast_engine, slow_engine]
        reports = [
            _fleet(engines, shard_budget, policy=policy, faults=spelling).run(
                make_stream(kind, n=12, seed=seed)
            )
            for spelling in (None, FaultSchedule.none(), "none")
        ]
        assert reports[0] == reports[1] == reports[2]
        assert all(r.resilience is None for r in reports)

    def test_retry_only_runs_match_legacy_metrics(
        self, fast_engine, slow_engine, shard_budget, make_stream
    ):
        """A retry policy with no faults scheduled changes accounting
        (a resilience block appears, everything OK) but not a single
        modeled number."""
        engines = [fast_engine, slow_engine]
        legacy = _fleet(engines, shard_budget).run(make_stream("bursty", n=16))
        chaotic = _fleet(
            engines, shard_budget, retry=RetryPolicy(max_retries=2)
        ).run(make_stream("bursty", n=16))
        assert chaotic.metrics == legacy.metrics
        assert chaotic.result.decisions == legacy.result.decisions
        res = _counts(chaotic)
        assert res.n_ok == res.n_submitted
        assert res.availability == 1.0


class TestChaosDeterminism:
    @given(seeds)
    @settings(max_examples=6, deadline=None)
    def test_same_seed_same_timeline(
        self, fast_engine, slow_engine, shard_budget,
        prompt_dist, output_dist, seed,
    ):
        engines = [slow_engine, slow_engine]
        runs = [
            _fleet(
                engines, shard_budget,
                faults="chaos", fault_seed=seed,
                retry=RetryPolicy(max_retries=2),
            ).run(_burst(prompt_dist, output_dist, seed=seed))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_no_unseeded_randomness_in_serving_or_fleet(self):
        """Replayability audit: the only randomness allowed anywhere in
        the serving/fleet stack is an explicitly seeded
        ``random.Random(...)`` instance."""
        banned = re.compile(
            r"\brandom\.(?!Random\b)[a-z_]+\s*\(|^\s*from\s+random\s+import",
            re.MULTILINE,
        )
        for pkg in (fleet_pkg, serving_pkg):
            for path in Path(pkg.__path__[0]).glob("*.py"):
                hits = banned.findall(path.read_text(encoding="utf-8"))
                assert not hits, f"unseeded randomness in {path}: {hits}"


class TestDispositions:
    def test_mid_burst_crash_retries_and_recovers(
        self, slow_engine, shard_budget, prompt_dist, output_dist
    ):
        report = _fleet(
            [slow_engine, slow_engine], shard_budget,
            faults=MID_BURST, retry=RetryPolicy(max_retries=3),
        ).run(_burst(prompt_dist, output_dist))
        res = _counts(report)
        assert res.n_retried > 0
        assert res.n_lost == res.n_expired == res.n_shed == 0
        assert res.n_retries >= res.n_retried
        assert res.availability < 1.0
        assert len(res.faults) == 1
        assert res.faults[0].n_requests_hit > 0
        assert res.goodput_rps == res.offered_rps  # nothing failed

    def test_hammer_schedule_exhausts_retry_budget(
        self, slow_engine, shard_budget, prompt_dist, output_dist
    ):
        report = _fleet(
            [slow_engine, slow_engine], shard_budget,
            faults=HAMMER, retry=RetryPolicy(max_retries=1),
        ).run(_burst(prompt_dist, output_dist))
        res = _counts(report)
        assert res.n_lost > 0
        assert res.lost_generated_tokens >= 0
        assert res.goodput_rps < res.offered_rps

    def test_tight_deadline_expires_retries(
        self, slow_engine, shard_budget, prompt_dist, output_dist
    ):
        report = _fleet(
            [slow_engine, slow_engine], shard_budget,
            faults=MID_BURST,
            # Backoff (50 ms) overshoots the 20 ms deadline: every
            # harvested request's next attempt could only land late, so
            # the policy expires it instead of wasting the resubmission.
            retry=RetryPolicy(
                max_retries=3, base_backoff_s=0.05, deadline_s=0.02
            ),
        ).run(_burst(prompt_dist, output_dist))
        res = _counts(report)
        assert res.n_expired > 0

    def test_deadline_shedding_rejects_at_the_door(
        self, slow_engine, shard_budget, prompt_dist, output_dist
    ):
        report = _fleet(
            [slow_engine, slow_engine], shard_budget,
            retry=RetryPolicy(deadline_s=0.012),
            shedding="deadline",
        ).run(_burst(prompt_dist, output_dist))
        res = _counts(report)
        assert res.n_shed > 0
        # Shed requests never reach a shard: no routing decision.
        shed_ids = {
            rid for rid, d in res.dispositions if d is Disposition.SHED
        }
        routed = {d.request_id for d in report.result.decisions}
        assert not (shed_ids & routed)

    def test_drop_oldest_evicts_fcfs_victims(
        self, slow_engine, shard_budget, prompt_dist, output_dist
    ):
        report = _fleet(
            [slow_engine, slow_engine], shard_budget,
            shedding=DropOldestShedding(max_waiting=2),
        ).run(_burst(prompt_dist, output_dist))
        res = _counts(report)
        assert res.n_shed > 0
        # Victims are the *oldest* waiters: every shed id is smaller
        # than the largest id that was ultimately served (the newcomers
        # that displaced them).
        shed_ids = {
            rid for rid, d in res.dispositions if d is Disposition.SHED
        }
        ok_ids = {
            rid for rid, d in res.dispositions if d is not Disposition.SHED
        }
        assert min(shed_ids) < max(ok_ids)

    def test_brownout_degrades_without_downtime(
        self, slow_engine, shard_budget, prompt_dist, output_dist
    ):
        schedule = FaultSchedule(
            name="b",
            faults=(
                ShardFault(
                    FaultKind.BROWNOUT, 0, 0.0, 10.0, bandwidth_factor=0.25
                ),
            ),
        )
        braked = _fleet(
            [slow_engine, slow_engine], shard_budget, faults=schedule
        ).run(_burst(prompt_dist, output_dist))
        clean = _fleet([slow_engine, slow_engine], shard_budget).run(
            _burst(prompt_dist, output_dist)
        )
        res = _counts(braked)
        assert res.availability == 1.0  # brownouts are not downtime
        assert res.n_ok == res.n_submitted
        assert (
            braked.metrics.ttft.p99_s > clean.metrics.ttft.p99_s
        )  # but they do hurt
