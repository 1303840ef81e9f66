"""Chaos layer under fire — crashes mid-burst, brownouts, load shedding.

Beyond the paper: MEADOW characterizes one healthy accelerator; an edge
fleet loses boxes. This benchmark drives the fault-injection layer
through its acceptance claims on a real (OPT-125m) fleet:

* **Conservation under chaos** — a crash mid-burst harvests in-flight
  work, the retry policy re-routes it, and every submitted request ends
  in exactly one disposition (ok / retried-ok / shed / expired / lost);
  measured availability drops strictly below 1.0.
* **Determinism** — two runs with the same seeds produce ``==`` fleet
  reports, resilience accounting included. Chaos is replayable.
* **Health-aware routing** — under a bandwidth brownout the
  surface-informed predicted-latency router reads the degraded shard's
  ``latency_scale`` out of the snapshot and routes around it; blind
  round-robin keeps feeding the sick box and its p99 TTFT balloons.

Standalone mode (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_fleet_resilience.py \
        --quick --json results/fleet_resilience.json
"""

import argparse
import json
import sys

from bench_meta import stamp

from repro import ExecutionPlan, MeadowEngine, OPT_125M, zcu102_config
from repro.fleet import (
    FaultKind,
    FaultSchedule,
    FleetSimulator,
    RetryPolicy,
    ShardFault,
)
from repro.serving import LengthDistribution, bursty_stream

#: A homogeneous mid-tier pair: fault effects are isolated from the
#: hardware heterogeneity the routing benchmarks already cover.
BANDWIDTHS = [6.0, 6.0]
PROMPTS = LengthDistribution("uniform", 64, 256)
OUTPUTS = LengthDistribution("geometric", 24, 96)

#: Crash shard 0 one second in — squarely inside the burst's service
#: window at these bandwidths — and keep it down long enough that its
#: harvested requests must finish elsewhere or on the re-warmed shard.
CRASH_SCHEDULE = FaultSchedule(
    name="mid-burst-crash",
    faults=(ShardFault(FaultKind.CRASH, 0, 1.0, 2.0),),
)

#: Brown shard 0 out to a quarter of its bandwidth for the whole run:
#: the health-aware router should almost entirely route around it.
BROWNOUT_SCHEDULE = FaultSchedule(
    name="long-brownout",
    faults=(
        ShardFault(
            FaultKind.BROWNOUT, 0, 0.0, 600.0, bandwidth_factor=0.25
        ),
    ),
)


def _engines():
    base = MeadowEngine(OPT_125M, zcu102_config(BANDWIDTHS[0]), ExecutionPlan.meadow())
    by_bw = {base.config.dram_bandwidth_gbps: base}
    for bw in BANDWIDTHS:
        if bw not in by_bw:
            by_bw[bw] = base.clone(config=base.config.with_bandwidth(bw))
    return [by_bw[bw] for bw in BANDWIDTHS]


def _stream(n_requests: int, seed: int = 0):
    return bursty_stream(n_requests, 8, 0.25, PROMPTS, OUTPUTS, seed=seed)


def _fleet(engines, policy: str, schedule: FaultSchedule, **kw) -> FleetSimulator:
    return FleetSimulator(
        engines,
        policy=policy,
        max_batch=16,
        ctx_bucket=16,
        faults=schedule,
        **kw,
    )


def run_chaos_record(n_requests: int) -> dict:
    """Crash + recover mid-burst: conservation, availability, determinism.

    Runs the same seeded chaos twice and requires ``==`` reports; the
    resilience layer's own ``ResilienceReport.build`` already raises if
    any request is double-counted or dropped, so a completed run *is*
    the conservation proof — this record re-states the ledger for CI.
    """
    engines = _engines()
    retry = RetryPolicy(max_retries=3)

    first = _fleet(engines, "predicted-latency", CRASH_SCHEDULE, retry=retry).run(
        _stream(n_requests)
    )
    second = _fleet(engines, "predicted-latency", CRASH_SCHEDULE, retry=retry).run(
        _stream(n_requests)
    )
    deterministic = first == second

    res = first.resilience
    assert res is not None
    return {
        "model": OPT_125M.name,
        "bandwidths_gbps": BANDWIDTHS,
        "n_requests": n_requests,
        "schedule": CRASH_SCHEDULE.name,
        "n_submitted": res.n_submitted,
        "n_ok": res.n_ok,
        "n_retried": res.n_retried,
        "n_shed": res.n_shed,
        "n_expired": res.n_expired,
        "n_lost": res.n_lost,
        "n_retries": res.n_retries,
        "lost_generated_tokens": res.lost_generated_tokens,
        "availability": res.availability,
        "offered_rps": res.offered_rps,
        "goodput_rps": res.goodput_rps,
        "conserved": (
            res.n_ok + res.n_retried + res.n_shed + res.n_expired + res.n_lost
            == res.n_submitted
        ),
        "crash_touched_work": res.n_retried + res.n_expired + res.n_lost > 0,
        "deterministic": deterministic,
    }


def run_routing_resilience(n_requests: int) -> dict:
    """Brownout A/B: health-aware routing vs blind round-robin.

    Identical fault schedule, identical arrivals — the only difference
    is whether the router reads ``snapshot.latency_scale``.
    """
    engines = _engines()
    by_policy = {}
    for policy in ("round-robin", "predicted-latency"):
        report = _fleet(engines, policy, BROWNOUT_SCHEDULE).run(
            _stream(n_requests)
        )
        by_policy[policy] = report
    rr = by_policy["round-robin"].metrics
    pl = by_policy["predicted-latency"].metrics
    return {
        "schedule": BROWNOUT_SCHEDULE.name,
        "n_requests": n_requests,
        "ttft_p99_s_round_robin": rr.ttft.p99_s,
        "ttft_p99_s_predicted": pl.ttft.p99_s,
        "requests_per_shard_round_robin": list(
            by_policy["round-robin"].result.requests_per_shard
        ),
        "requests_per_shard_predicted": list(
            by_policy["predicted-latency"].result.requests_per_shard
        ),
        "health_aware_beats_round_robin": pl.ttft.p99_s < rr.ttft.p99_s,
    }


def run_shedding_record(n_requests: int) -> dict:
    """Deadline shedding under the crash: goodput traded for tail SLOs."""
    engines = _engines()
    retry = RetryPolicy(max_retries=3, deadline_s=8.0)
    report = _fleet(
        engines,
        "predicted-latency",
        CRASH_SCHEDULE,
        retry=retry,
        shedding="deadline",
    ).run(_stream(n_requests))
    res = report.resilience
    assert res is not None
    return {
        "schedule": CRASH_SCHEDULE.name,
        "deadline_s": 8.0,
        "n_submitted": res.n_submitted,
        "n_shed": res.n_shed,
        "n_expired": res.n_expired,
        "goodput_rps": res.goodput_rps,
        "conserved": (
            res.n_ok + res.n_retried + res.n_shed + res.n_expired + res.n_lost
            == res.n_submitted
        ),
    }


def render_record(record: dict) -> str:
    chaos, routing = record["chaos"], record["routing"]
    return (
        f"chaos ({chaos['schedule']}, {chaos['n_requests']} requests on "
        f"{chaos['model']} @ {' '.join(f'{b:g}' for b in chaos['bandwidths_gbps'])}"
        f" Gbps):\n"
        f"  dispositions: {chaos['n_ok']} ok, {chaos['n_retried']} retried-ok, "
        f"{chaos['n_shed']} shed, {chaos['n_expired']} expired, "
        f"{chaos['n_lost']} lost (of {chaos['n_submitted']})\n"
        f"  availability {chaos['availability']:.4f}, goodput "
        f"{chaos['goodput_rps']:.2f} req/s, "
        f"{chaos['lost_generated_tokens']} tokens lost, "
        f"deterministic={chaos['deterministic']}\n"
        f"brownout routing A/B ({routing['schedule']}): p99 TTFT "
        f"round-robin {routing['ttft_p99_s_round_robin'] * 1e3:.0f} ms, "
        f"predicted-latency {routing['ttft_p99_s_predicted'] * 1e3:.0f} ms"
    )


def main(argv=None) -> int:
    """Standalone mode: emit the record and enforce the chaos claims."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized workload")
    parser.add_argument("--json", type=str, default=None, help="write record here")
    args = parser.parse_args(argv)

    n_requests = 24 if args.quick else 48
    record = stamp(
        {
            "chaos": run_chaos_record(n_requests),
            "routing": run_routing_resilience(n_requests),
            "shedding": run_shedding_record(n_requests),
        },
        "repro.bench.fleet_resilience",
    )
    print(render_record(record))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {args.json}")

    ok = True
    chaos = record["chaos"]
    if not chaos["conserved"] or not record["shedding"]["conserved"]:
        print("FAIL: disposition ledger does not conserve submitted requests")
        ok = False
    if not chaos["crash_touched_work"]:
        print("FAIL: crash landed on an idle fleet — scenario timing is off")
        ok = False
    if not chaos["availability"] < 1.0:
        print("FAIL: availability did not drop below 1.0 despite a crash")
        ok = False
    if not chaos["deterministic"]:
        print("FAIL: same-seed chaos runs diverged")
        ok = False
    if not record["routing"]["health_aware_beats_round_robin"]:
        print("FAIL: health-aware routing does not beat round-robin p99 TTFT")
        ok = False
    return 0 if ok else 1


def test_chaos_conservation_and_availability(results_dir, emit):
    """The acceptance claim: a mid-burst crash is harvested, retried and
    accounted exactly once, and availability reflects the downtime."""
    record = stamp(run_chaos_record(24), "repro.bench.fleet_resilience")
    (results_dir / "fleet_resilience.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    emit(
        "fleet_chaos",
        f"{record['n_ok']} ok / {record['n_retried']} retried-ok / "
        f"{record['n_lost']} lost of {record['n_submitted']}; "
        f"availability {record['availability']:.4f}",
    )
    assert record["conserved"], record
    assert record["crash_touched_work"], record
    assert record["availability"] < 1.0, record
    assert record["deterministic"], record


def test_health_aware_routing_beats_round_robin(emit):
    """Under a brownout, reading shard health out of the snapshot must
    strictly beat blind round-robin on p99 TTFT."""
    record = run_routing_resilience(24)
    emit(
        "fleet_brownout_routing",
        f"p99 TTFT: round-robin "
        f"{record['ttft_p99_s_round_robin'] * 1e3:.0f} ms, predicted "
        f"{record['ttft_p99_s_predicted'] * 1e3:.0f} ms",
    )
    assert record["health_aware_beats_round_robin"], record


def test_deadline_shedding_conserves(emit):
    """Shedding under the crash keeps the exactly-once ledger intact."""
    record = run_shedding_record(24)
    emit(
        "fleet_shedding",
        f"{record['n_shed']} shed / {record['n_expired']} expired of "
        f"{record['n_submitted']} at deadline {record['deadline_s']} s",
    )
    assert record["conserved"], record


if __name__ == "__main__":
    sys.exit(main())
