"""Fleet timeline golden: whole fleet runs, pinned per scenario.

The equivalence suites compare two drain walks of one build with each
other; they cannot see a change that moves both the same way. This
guard pins the timelines themselves, across every branch of the fleet
event loop: open-loop poisson and bursty streams, closed loops (zero
think time, a rejected follow-up), work stealing, all five routing
policies, crashes with retries and requests parked until recovery,
brownouts, deadline and drop-oldest shedding, retry budgets exhausted
to LOST and EXPIRED, and observed runs.

Per scenario it pins, exactly: the routing decisions ``(request_id,
shard_id, migrated_from)``, the disposition ledger, the retry count,
the lost generated tokens and the observer's counters. Admit,
first-token and finish instants, per-shard energy and applied-fault
windows are pinned at ``rel=1e-9``, like the other goldens, so the
guard holds on every Python version CI runs.

The engines are the fleet suite's (``tests/fleet/conftest.py``): the
tiny decoder on a 12 Gbps and a 1 Gbps box. :func:`build_env` builds
them here, so the recorder runs without pytest and a later edit to the
shared fixtures cannot move the pinned inputs.

Re-record (only when a timeline change is intentional)::

    PYTHONPATH=src python tests/fleet/test_fleet_golden.py --record
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import ExecutionPlan, MeadowEngine, zcu102_config
from repro.fleet import (
    DropOldestShedding,
    FaultKind,
    FaultSchedule,
    FleetSimulator,
    RetryPolicy,
    ShardFault,
)
from repro.models import TransformerConfig
from repro.obs import FleetObserver
from repro.packing import PackingPlanner
from repro.serving import (
    ClosedLoopSource,
    LengthDistribution,
    bursty_stream,
    poisson_stream,
)

GOLDEN_PATH = Path(__file__).with_name("golden_fleet_timelines.json")

RECORD_HINT = (
    "fleet timelines drifted — if the change is intentional, re-record "
    "in THIS commit with: "
    "PYTHONPATH=src python tests/fleet/test_fleet_golden.py --record"
)

MB = 1024 * 1024


def build_env() -> SimpleNamespace:
    """The fleet suite's engines, budget and length models."""
    model = TransformerConfig(
        name="fleet-tiny", n_layers=2, d_model=64, n_heads=4, d_ff=128,
        max_seq_len=256,
    )
    fast = MeadowEngine(
        model,
        zcu102_config(12.0).replace(dram_capacity_bytes=64 * MB),
        ExecutionPlan.meadow(),
        PackingPlanner(depth_buckets=1),
    )
    slow = fast.clone(config=fast.config.with_bandwidth(1.0))
    worst = model.n_layers * model.kv_cache_bytes_per_layer(
        model.max_seq_len, fast.config.act_bits
    )
    return SimpleNamespace(
        model=model,
        fast=fast,
        slow=slow,
        budget=4 * worst,
        prompt=LengthDistribution("uniform", 8, 64),
        output=LengthDistribution("geometric", 8, 32),
    )


# ---------------------------------------------------------------- sources
def _poisson(env, n=24, rate=50.0, seed=0):
    return poisson_stream(n, rate, env.prompt, env.output, seed=seed)


def _bursty(env, n=24, seed=0):
    return bursty_stream(n, 8, 0.02, env.prompt, env.output, seed=seed)


def _burst(env, n=24, seed=0):
    """Everything at t=0: maximal pressure on a crash window."""
    return bursty_stream(n, n, 1.0, env.prompt, env.output, seed=seed)


def _closed(env, users=4, total=16, think=0.001, seed=0):
    return ClosedLoopSource(
        n_users=users, total_requests=total, think_time_s=think,
        prompt_dist=env.prompt, output_dist=env.output, seed=seed,
    )


def _fleet(env, engines, **kwargs):
    kwargs.setdefault("kv_budget_bytes", env.budget)
    kwargs.setdefault("max_batch", 8)
    return FleetSimulator(engines, **kwargs)


def _hammer() -> FaultSchedule:
    return _crash(
        *((shard, 0.004 + 0.03 * k, 0.015) for k in range(5) for shard in (0, 1))
    )


def _crash(*faults) -> FaultSchedule:
    return FaultSchedule(
        name="golden",
        faults=tuple(
            ShardFault(FaultKind.CRASH, shard, at_s, duration_s)
            for shard, at_s, duration_s in faults
        ),
    )


# -------------------------------------------------------------- scenarios
def _open_poisson_rr(env):
    return _fleet(env, [env.fast, env.slow], policy="round-robin").run(
        _poisson(env, seed=1)
    )


def _open_bursty_jsq(env):
    return _fleet(env, [env.fast, env.slow, env.fast], policy="jsq").run(
        _bursty(env, seed=2)
    )


def _open_poisson_least_kv(env):
    # Per-shard knobs: a narrow slow shard beside a wide fast one.
    return _fleet(
        env, [env.fast, env.slow], policy="least-kv",
        max_batch=[8, 2], ctx_bucket=[1, 8],
    ).run(_poisson(env, rate=200.0, seed=3))


def _open_bursty_predicted(env):
    return _fleet(
        env, [env.fast, env.slow, env.fast, env.slow],
        policy="predicted-latency",
    ).run(_bursty(env, n=32, seed=4))


def _open_bursty_calibrated(env):
    return _fleet(
        env, [env.fast, env.slow], policy="calibrated-latency",
    ).run(_bursty(env, seed=5))


def _open_lean_token_events(env):
    return _fleet(
        env, [env.fast, env.slow], policy="predicted-latency",
        ctx_bucket=16,
    ).run(_poisson(env, n=32, rate=120.0, seed=6))


def _closed_jsq(env):
    return _fleet(env, [env.fast, env.slow], policy="jsq").run(
        _closed(env, seed=7)
    )


def _closed_zero_think(env):
    # Follow-ups land exactly on the completing shard's clock: routing
    # happens on a drain boundary.
    return _fleet(env, [env.fast, env.slow], policy="round-robin").run(
        _closed(env, users=3, total=14, think=0.0, seed=8)
    )


def _closed_calibrated(env):
    return _fleet(
        env, [env.fast, env.slow, env.fast], policy="calibrated-latency",
    ).run(_closed(env, users=5, total=20, think=0.002, seed=9))


def _rejecting_source():
    # One user and a budget of 48 tokens: the geometric tail of the
    # follow-ups cannot fit anywhere and is rejected at the fleet level.
    return ClosedLoopSource(
        n_users=1, total_requests=8, think_time_s=0.0,
        prompt_dist=LengthDistribution("fixed", 8),
        output_dist=LengthDistribution("geometric", 16, 128),
        seed=5,
    )


def _budget_48(env):
    return env.model.n_layers * env.model.kv_cache_bytes_per_layer(
        48, env.fast.config.act_bits
    )


def _closed_rejected_followup(env):
    return _fleet(
        env, [env.fast], policy="jsq", kv_budget_bytes=_budget_48(env),
        max_batch=4,
    ).run(_rejecting_source())


def _closed_rejected_followup_brownout(env):
    # The same rejection with a brownout scheduled.
    schedule = FaultSchedule(
        name="golden-brownout",
        faults=(
            ShardFault(
                FaultKind.BROWNOUT, 0, 0.0, 0.005, bandwidth_factor=0.5
            ),
        ),
    )
    return _fleet(
        env, [env.fast, env.fast], policy="jsq",
        kv_budget_bytes=_budget_48(env), max_batch=4, faults=schedule,
    ).run(_rejecting_source())


def _steal_bursty(env):
    return _fleet(
        env, [env.fast, env.slow, env.fast, env.slow],
        policy="round-robin", steal=True,
    ).run(_bursty(env, n=32, seed=10))


def _steal_closed_obs(env):
    return _fleet(
        env, [env.slow, env.fast, env.slow], policy="round-robin",
        steal=True, obs=FleetObserver(),
    ).run(_closed(env, users=6, total=24, think=0.001, seed=11))


def _crash_retry(env):
    return _fleet(
        env, [env.slow, env.slow], policy="predicted-latency",
        faults=_crash((0, 0.005, 0.02)), retry=RetryPolicy(max_retries=3),
    ).run(_burst(env, seed=12))


def _crash_park_until_recovery(env):
    # A one-shard fleet: every retry lands inside the down window and
    # is parked until the shard has re-warmed.
    return _fleet(
        env, [env.slow], policy="jsq",
        faults=_crash((0, 0.004, 0.03)), retry=RetryPolicy(max_retries=2),
    ).run(_burst(env, n=12, seed=13))


def _crash_steal_closed(env):
    # Both shards down at once (shard 0's second crash lands inside
    # its first outage and is absorbed), retries parked until one
    # recovers, and stealing once they are back.
    return _fleet(
        env, [env.slow, env.fast], policy="round-robin", steal=True,
        faults=_crash((0, 0.004, 0.01), (1, 0.006, 0.01), (0, 0.008, 0.004)),
        retry=RetryPolicy(max_retries=2),
    ).run(_closed(env, users=4, total=16, think=0.001, seed=14))


def _brownout_closed(env):
    schedule = FaultSchedule(
        name="golden-brownout",
        faults=(
            ShardFault(
                FaultKind.BROWNOUT, 0, 0.002, 0.02, bandwidth_factor=0.25
            ),
        ),
    )
    return _fleet(
        env, [env.fast, env.slow], policy="predicted-latency",
        faults=schedule,
    ).run(_closed(env, users=4, total=16, think=0.001, seed=15))


def _shed_deadline_obs(env):
    return _fleet(
        env, [env.slow, env.slow], policy="predicted-latency",
        retry=RetryPolicy(deadline_s=0.012), shedding="deadline",
        obs=FleetObserver(),
    ).run(_burst(env, seed=16))


def _shed_drop_oldest_obs(env):
    return _fleet(
        env, [env.slow, env.slow], policy="round-robin",
        shedding=DropOldestShedding(max_waiting=2), obs=FleetObserver(),
    ).run(_burst(env, seed=17))


def _retry_budget_lost(env):
    # Crashes hammer both shards faster than a one-retry budget drains.
    return _fleet(
        env, [env.slow, env.slow], policy="predicted-latency",
        faults=_hammer(), retry=RetryPolicy(max_retries=1),
    ).run(_burst(env, seed=18))


def _retry_budget_lost_or_expired_obs(env):
    # As above with a deadline: a request whose budget runs out after
    # its deadline passed is EXPIRED, not LOST.
    return _fleet(
        env, [env.slow, env.slow], policy="predicted-latency",
        faults=_hammer(), retry=RetryPolicy(max_retries=1, deadline_s=0.03),
        obs=FleetObserver(),
    ).run(_burst(env, seed=18))


def _retry_deadline_expired_obs(env):
    # The backoff overshoots the deadline, so retries expire.
    return _fleet(
        env, [env.slow, env.slow], policy="predicted-latency",
        faults=_crash((0, 0.005, 0.02)),
        retry=RetryPolicy(max_retries=3, base_backoff_s=0.05, deadline_s=0.02),
        obs=FleetObserver(),
    ).run(_burst(env, seed=19))


def _retry_deadline_from_first_arrival(env):
    # A retry's deadline counts from its first arrival: the budget-
    # exhausted requests are LOST before the deadline, and deadline
    # shedding turns away retries whose remaining budget is gone.
    return _fleet(
        env, [env.slow, env.slow], policy="predicted-latency",
        faults=_crash((0, 0.01, 0.005), (0, 0.02, 0.005), (1, 0.02, 0.005)),
        retry=RetryPolicy(max_retries=1, base_backoff_s=0.004, deadline_s=0.025),
        shedding="deadline",
    ).run(_burst(env, seed=24))


def _retry_only_no_faults(env):
    return _fleet(
        env, [env.fast, env.slow], policy="jsq",
        retry=RetryPolicy(max_retries=2),
    ).run(_bursty(env, seed=20))


def _obs_open_loop(env):
    return _fleet(
        env, [env.fast, env.slow], policy="predicted-latency",
        obs=FleetObserver(),
    ).run(_poisson(env, rate=80.0, seed=21))


def _obs_chaos_closed(env):
    # Crashes, a brownout, retries under a deadline, deadline shedding
    # and stealing at once, on a closed loop.
    schedule = FaultSchedule(
        name="golden-chaos",
        faults=(
            ShardFault(FaultKind.CRASH, 1, 0.004, 0.01),
            ShardFault(
                FaultKind.BROWNOUT, 0, 0.002, 0.02, bandwidth_factor=0.3
            ),
            ShardFault(FaultKind.CRASH, 2, 0.006, 0.01),
        ),
    )
    return _fleet(
        env, [env.slow, env.fast, env.slow], policy="predicted-latency",
        steal=True, faults=schedule,
        retry=RetryPolicy(max_retries=2, deadline_s=0.05),
        shedding="deadline", obs=FleetObserver(),
    ).run(_closed(env, users=6, total=30, think=0.002, seed=22))


def _cascade_open_loop(env):
    return _fleet(
        env, [env.fast, env.slow, env.fast], policy="least-kv",
        faults="cascade", fault_seed=1,
    ).run(_poisson(env, n=30, rate=100.0, seed=23))


SCENARIOS = {
    fn.__name__.lstrip("_"): fn
    for fn in (
        _open_poisson_rr,
        _open_bursty_jsq,
        _open_poisson_least_kv,
        _open_bursty_predicted,
        _open_bursty_calibrated,
        _open_lean_token_events,
        _closed_jsq,
        _closed_zero_think,
        _closed_calibrated,
        _closed_rejected_followup,
        _closed_rejected_followup_brownout,
        _steal_bursty,
        _steal_closed_obs,
        _crash_retry,
        _crash_park_until_recovery,
        _crash_steal_closed,
        _brownout_closed,
        _shed_deadline_obs,
        _shed_drop_oldest_obs,
        _retry_budget_lost,
        _retry_budget_lost_or_expired_obs,
        _retry_deadline_expired_obs,
        _retry_deadline_from_first_arrival,
        _retry_only_no_faults,
        _obs_open_loop,
        _obs_chaos_closed,
        _cascade_open_loop,
    )
}


# ---------------------------------------------------------------- summary
def summarize(report) -> dict:
    """The pinned, JSON-ready view of one fleet report."""
    res = report.resilience
    out = {
        "decisions": [
            [d.request_id, d.shard_id, d.migrated_from]
            for d in report.result.decisions
        ],
        "n_rejected_followups": report.result.n_rejected_followups,
        "shards": [
            {
                "energy_uj": shard.total_energy_uj,
                "records": [
                    [
                        rec.request.request_id,
                        rec.admit_s,
                        rec.first_token_s,
                        rec.finish_s,
                    ]
                    for rec in shard.records
                ],
            }
            for shard in report.result.shard_results
        ],
        "resilience": None,
        "obs_counters": None,
    }
    if res is not None:
        out["resilience"] = {
            "dispositions": [[rid, d.name] for rid, d in res.dispositions],
            "n_retries": res.n_retries,
            "lost_generated_tokens": res.lost_generated_tokens,
            "faults": [
                [
                    f.kind.name, f.shard_id, f.at_s, f.until_s,
                    f.n_requests_hit, f.lost_generated_tokens,
                ]
                for f in res.faults
            ],
        }
    if report.obs is not None:
        out["obs_counters"] = [
            [c["name"], sorted(c["labels"].items()), c["value"]]
            for c in report.obs.metrics.to_dict()["counters"]
        ]
    return out


def compute_goldens(env=None) -> dict:
    env = env if env is not None else build_env()
    return {name: summarize(fn(env)) for name, fn in SCENARIOS.items()}


def _drifts(want, got, path: str):
    """Yield one line per mismatch; floats compare at rel=1e-9."""
    if isinstance(want, float) and isinstance(got, (int, float)):
        if got != pytest.approx(want, rel=1e-9):
            yield f"  {path}: golden {want!r} -> current {got!r}"
    elif isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            yield f"  {path}: golden has {len(want)} entries, current {len(got)}"
        for i, (w, g) in enumerate(zip(want, got)):
            yield from _drifts(w, g, f"{path}[{i}]")
    elif isinstance(want, dict) and isinstance(got, dict):
        if sorted(want) != sorted(got):
            yield f"  {path}: keys {sorted(want)} -> {sorted(got)}"
        for key in want:
            if key in got:
                yield from _drifts(want[key], got[key], f"{path}.{key}")
    elif want != got:
        yield f"  {path}: golden {want!r} -> current {got!r}"


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), f"missing {GOLDEN_PATH.name}; {RECORD_HINT}"
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def env() -> SimpleNamespace:
    return build_env()


def test_every_scenario_is_pinned(golden):
    assert sorted(golden) == sorted(SCENARIOS), RECORD_HINT


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fleet_timeline_matches_golden(golden, env, name):
    assert name in golden, RECORD_HINT
    # A JSON round trip turns tuples into lists, as the recorder does.
    current = json.loads(json.dumps(summarize(SCENARIOS[name](env))))
    drifts = list(_drifts(golden[name], current, name))
    assert not drifts, "\n".join(
        ["fleet timeline drifted:"] + drifts[:20] + [RECORD_HINT]
    )


if __name__ == "__main__":
    import argparse
    import re

    parser = argparse.ArgumentParser(description="fleet timeline recorder")
    parser.add_argument(
        "--record", action="store_true",
        help=f"rewrite {GOLDEN_PATH.name} from the current fleet loop",
    )
    args = parser.parse_args()
    if not args.record:
        parser.error("run under pytest to check; pass --record to re-pin")
    # One line per innermost list (a record row, a decision, a fault),
    # so a drift diffs as the rows it moved.
    text = re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda m: "[" + re.sub(r",\s+", ", ", m.group(1)) + "]",
        json.dumps(compute_goldens(), indent=1, sort_keys=True),
    )
    GOLDEN_PATH.write_text(text + "\n", encoding="utf-8")
    print(f"recorded {GOLDEN_PATH}")
