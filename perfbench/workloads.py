"""The benchmark's three workloads.

Every workload uses OPT-125M under the ``meadow`` plan, prompts uniform
on 64-256 tokens, outputs geometric with mean 24 and maximum 96, and a
4-shard fleet whose shards have 12, 6, 3 and 1 Gbps of DRAM bandwidth.
Rates and fault times are fixed constants: nothing is recomputed from
the simulator at run time.

A workload has three phases:

* ``setup(seed)`` builds engines and inputs (and, on warm workloads,
  fills the latency surfaces) — timed as set-up, never measured;
* ``rep(state)`` is one measured repetition. It may run yardstick units
  itself, appending their times to ``state["yardstick_units"]`` (a list
  the worker sets, ``None`` in a traced repetition);
* ``check(state, out)`` verifies the repetition's outputs (raising
  :class:`CheckError`) and returns its summary: request and token
  counts, a digest of the report and the modelled numbers.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict

import yardstick

MODEL = "opt-125m"
BANDWIDTHS_GBPS = (12.0, 6.0, 3.0, 1.0)
PROMPT_TOKENS = (64, 256)
OUTPUT_MEAN, OUTPUT_MAX = 24, 96
MAX_BATCH = 16
CTX_BUCKET = 16

#: cold-plan-sweep: planner rates, sweep grid and per-point stream.
PLAN_RATES_RPS = (1.5, 3.0, 5.0, 20.0)
PLAN_SAMPLES = 128
SWEEP_REQUESTS = 500
SWEEP_RATE_RPS = 2.0
SWEEP_ENGINES = (2, 4)
SWEEP_POLICIES = ("round-robin", "jsq", "least-kv", "predicted-latency")
SWEEP_MAX_BATCH = (8, 16)
SWEEP_CTX_BUCKET = (1, 16)

#: warm-overload (the fleet's planned capacity is ~5 req/s). The stream
#: is sized so a repetition takes about 1.5 s and a run holds ~20.
OVERLOAD_REQUESTS, OVERLOAD_RATE_RPS = 5_000, 20.0

#: warm-chaos-closed: users, think time, requests and faults at fixed
#: simulated instants inside the ~420 s closed-loop run.
CHAOS_USERS = 32
CHAOS_THINK_S = 0.5
CHAOS_REQUESTS = 2_500
CHAOS_CRASH = (0, 150.0, 30.0)  # shard, at_s, outage_s
CHAOS_BROWNOUT = (1, 225.0, 60.0, 0.25)  # shard, at_s, duration_s, factor
CHAOS_DEADLINE_S = 2.0

#: Where the chaos workload exports its trace and metrics.
OUT_DIR = ".perfbench-out"
STORE_DIR = ".repro-surface-store"


class CheckError(Exception):
    """A repetition's outputs failed a correctness check."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _dists():
    from repro.serving import LengthDistribution

    return (
        LengthDistribution("uniform", *PROMPT_TOKENS),
        LengthDistribution("geometric", OUTPUT_MEAN, OUTPUT_MAX),
    )


def _base_engine():
    from repro.core import ExecutionPlan, MeadowEngine
    from repro.hardware import zcu102_config
    from repro.models import get_model

    return MeadowEngine(
        get_model(MODEL), zcu102_config(BANDWIDTHS_GBPS[0]),
        ExecutionPlan.meadow(),
    )


def _warm_engines():
    """One engine per shard, each surface pre-filled.

    Fills every point the scheduler can look up for this stream shape —
    each prompt length at batch 1, and each bucketed decode context at
    every batch size up to ``MAX_BATCH`` — instead of replaying the
    stream.
    """
    from repro.utils import ceil_div

    base = _base_engine()
    engines = [base] + [
        base.clone(config=base.config.with_bandwidth(bw))
        for bw in BANDWIDTHS_GBPS[1:]
    ]
    lo, hi = PROMPT_TOKENS
    first = ceil_div(lo + 1, CTX_BUCKET) * CTX_BUCKET
    last = ceil_div(hi + OUTPUT_MAX, CTX_BUCKET) * CTX_BUCKET
    for engine in engines:
        engine.surface.materialize(prefill_tokens=range(lo, hi + 1))
        engine.surface.materialize(
            decode_contexts=range(first, last + 1, CTX_BUCKET),
            batches=range(1, MAX_BATCH + 1),
        )
    return engines


def _fleet_digest(report) -> str:
    """SHA-256 over every record, decision and disposition of a run."""
    h = hashlib.sha256()
    for shard in report.result.shard_results:
        for rec in shard.records:
            h.update(
                f"{rec.request.request_id},{rec.admit_s!r},"
                f"{rec.first_token_s!r},{rec.finish_s!r},"
                f"{len(rec.tbt_s)};".encode()
            )
        h.update(
            f"|{shard.duration_s!r},{shard.peak_kv_bytes},"
            f"{shard.total_energy_uj!r}|".encode()
        )
    for d in report.result.decisions:
        h.update(f"{d.request_id}>{d.shard_id};".encode())
    if report.resilience is not None:
        h.update(repr(report.resilience.dispositions).encode())
    return h.hexdigest()[:16]


def _fleet_summary(report, offered: int, completed: int, failed: int) -> Dict[str, Any]:
    _require(
        completed + failed == offered,
        f"conservation: {completed} completed + {failed} failed "
        f"!= {offered} offered",
    )
    m = report.metrics
    _require(
        m.n_requests == completed,
        f"{m.n_requests} request records but {completed} completions",
    )
    return {
        "offered": offered,
        "completed": completed,
        "tokens": m.total_generated_tokens,
        "digest": _fleet_digest(report),
        "modelled": {
            "ttft_p50_ms": m.ttft.p50_s * 1e3,
            "ttft_p99_ms": m.ttft.p99_s * 1e3,
            "tok_per_s": m.throughput_tok_s,
        },
    }


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; ``BENCHMARK.json`` says why each exists."""

    name: str
    setup: Callable[[int], Dict[str, Any]]
    rep: Callable[[Dict[str, Any]], Any]
    check: Callable[[Dict[str, Any], Any], Dict[str, Any]]
    #: Cold workloads run one repetition per process: a second one in
    #: the same process would start with warm process-level caches.
    one_rep_per_process: bool = False


# ------------------------------------------------------- cold-plan-sweep
def _cold_setup(seed: int) -> Dict[str, Any]:
    from repro.fleet import WorkloadModel
    from repro.serving import poisson_stream

    prompt, output = _dists()
    return {
        "plan_engine": _base_engine(),
        "sweep_engine": _base_engine(),
        "workload": WorkloadModel.from_dists(
            prompt, output, n_samples=PLAN_SAMPLES, seed=seed
        ),
        # One pre-generated stream per grid point, each with its own
        # seed drawn from the workload seed, so the sweep's token total
        # does not hinge on a single 500-request sample.
        "streams": [
            poisson_stream(
                SWEEP_REQUESTS, SWEEP_RATE_RPS, prompt, output,
                seed=seed * 1000 + i,
            )
            for i in range(_n_sweep_points())
        ],
        "store_before": _store_state(),
    }


def _n_sweep_points() -> int:
    return (
        len(SWEEP_ENGINES) * len(SWEEP_POLICIES)
        * len(SWEEP_MAX_BATCH) * len(SWEEP_CTX_BUCKET)
    )


def _store_state():
    """Surface-store directory listing with mtimes (``None`` if absent)."""
    if not os.path.isdir(STORE_DIR):
        return None
    return sorted(
        (entry.name, entry.stat().st_mtime_ns) for entry in os.scandir(STORE_DIR)
    )


def _cold_rep(state: Dict[str, Any]):
    from repro.fleet import CapacityPlanner, SweepDriver

    planner = CapacityPlanner(
        state["plan_engine"], BANDWIDTHS_GBPS, state["workload"],
        max_batch=MAX_BATCH, ctx_bucket=CTX_BUCKET, surface_store=None,
    )
    forecasts = [
        planner.forecast(len(BANDWIDTHS_GBPS), rate) for rate in PLAN_RATES_RPS
    ]
    driver = SweepDriver(
        state["sweep_engine"], BANDWIDTHS_GBPS, surface_store=None
    )
    streams = iter(state["streams"])
    units = state["yardstick_units"]

    def next_stream():
        # A cold repetition cannot be cut into shorter ones, so the
        # yardstick also runs inside it, once per grid point; the worker
        # takes that time back out of the repetition's wall time.
        if units is not None:
            units.append(yardstick.unit())
        return next(streams)

    result = driver.sweep(
        next_stream,
        n_engines_grid=SWEEP_ENGINES,
        policies=SWEEP_POLICIES,
        max_batch_grid=SWEEP_MAX_BATCH,
        ctx_bucket_grid=SWEEP_CTX_BUCKET,
        workers=1,
    )
    return planner, forecasts, driver, result


def _cold_check(state: Dict[str, Any], out) -> Dict[str, Any]:
    planner, forecasts, driver, result = out
    _require(
        _store_state() == state["store_before"],
        f"the cold workload touched {STORE_DIR}/",
    )
    for drv in (planner.driver, driver):
        for bw in BANDWIDTHS_GBPS:
            surface = drv.engine_for(bw).surface
            _require(
                surface.n_simulated == len(surface),
                "a cold surface holds points it did not simulate",
            )
    n_points = _n_sweep_points()
    _require(len(result.points) == n_points, f"{len(result.points)} sweep points")
    offered = SWEEP_REQUESTS * n_points
    completed = sum(p.n_requests for p in result.points)
    _require(
        completed == offered,
        f"conservation: {completed} completed of {offered} offered",
    )
    h = hashlib.sha256(json.dumps(result.to_json(), sort_keys=True).encode())
    for f in forecasts:
        h.update(
            f"{f.ttft_p50_s!r},{f.ttft_p99_s!r},{f.throughput_tok_s!r},"
            f"{f.stable};".encode()
        )
    return {
        "offered": offered,
        "completed": completed,
        "tokens": sum(p.total_generated_tokens for p in result.points),
        "digest": h.hexdigest()[:16],
        "modelled": {
            "ttft_p50_ms": min(p.ttft_p50_s for p in result.points) * 1e3,
            "ttft_p99_ms": min(p.ttft_p99_s for p in result.points) * 1e3,
            "tok_per_s": max(p.throughput_tok_s for p in result.points),
            "pareto_points": len(result.pareto_front()),
            "planner_ttft_p99_ms": [f.ttft_p99_s * 1e3 for f in forecasts],
        },
    }


# -------------------------------------------------------- warm-overload
def _overload_setup(seed: int) -> Dict[str, Any]:
    from repro.serving import poisson_stream

    prompt, output = _dists()
    engines = _warm_engines()
    return {
        "engines": engines,
        "stream": poisson_stream(
            OVERLOAD_REQUESTS, OVERLOAD_RATE_RPS, prompt, output, seed=seed
        ),
        "n_simulated": [e.surface.n_simulated for e in engines],
    }


def _overload_rep(state: Dict[str, Any]):
    from repro.fleet import FleetSimulator

    fleet = FleetSimulator(
        state["engines"], policy="round-robin", max_batch=MAX_BATCH,
        ctx_bucket=CTX_BUCKET, token_events=False,
    )
    return fleet.run(state["stream"])


def _check_warm(state: Dict[str, Any]) -> None:
    now = [e.surface.n_simulated for e in state["engines"]]
    _require(
        now == state["n_simulated"],
        f"warm surfaces simulated new points: {state['n_simulated']} -> {now}",
    )


def _overload_check(state: Dict[str, Any], report) -> Dict[str, Any]:
    _check_warm(state)
    rejected = report.result.n_rejected_followups
    offered = state["stream"].n_requests
    return _fleet_summary(report, offered, offered - rejected, rejected)


# ---------------------------------------------------- warm-chaos-closed
def _chaos_setup(seed: int) -> Dict[str, Any]:
    from repro.fleet import FaultKind, FaultSchedule, RetryPolicy, ShardFault

    engines = _warm_engines()
    crash_shard, crash_at, crash_for = CHAOS_CRASH
    brown_shard, brown_at, brown_for, brown_factor = CHAOS_BROWNOUT
    os.makedirs(OUT_DIR, exist_ok=True)
    return {
        "engines": engines,
        "seed": seed,
        "faults": FaultSchedule(
            name="bench-crash-brownout",
            faults=(
                ShardFault(FaultKind.CRASH, crash_shard, crash_at, crash_for),
                ShardFault(
                    FaultKind.BROWNOUT, brown_shard, brown_at, brown_for,
                    brown_factor,
                ),
            ),
        ),
        "retry": RetryPolicy(
            max_retries=2, deadline_s=CHAOS_DEADLINE_S, seed=seed
        ),
        "n_simulated": [e.surface.n_simulated for e in engines],
    }


def _chaos_rep(state: Dict[str, Any]):
    from repro.fleet import FleetSimulator
    from repro.obs import FleetObserver
    from repro.serving import ClosedLoopSource

    prompt, output = _dists()
    source = ClosedLoopSource(
        CHAOS_USERS, CHAOS_REQUESTS, CHAOS_THINK_S, prompt, output,
        seed=state["seed"],
    )
    fleet = FleetSimulator(
        state["engines"], policy="predicted-latency", max_batch=MAX_BATCH,
        ctx_bucket=CTX_BUCKET, token_events=False, faults=state["faults"],
        retry=state["retry"], shedding="deadline", obs=FleetObserver(),
    )
    report = fleet.run(source)
    report.obs.write_trace(os.path.join(OUT_DIR, "chaos-trace.json"))
    report.obs.write_metrics(os.path.join(OUT_DIR, "chaos-metrics.json"))
    return report


def _chaos_check(state: Dict[str, Any], report) -> Dict[str, Any]:
    _check_warm(state)
    res = report.resilience
    _require(res is not None, "chaos run produced no resilience report")
    _require(len(res.faults) == 2, f"{len(res.faults)} faults applied, not 2")
    rejected = report.result.n_rejected_followups
    offered = res.n_submitted + rejected
    _require(
        offered == CHAOS_REQUESTS,
        f"{offered} requests offered, the source issues {CHAOS_REQUESTS}",
    )
    completed = res.n_ok + res.n_retried
    summary = _fleet_summary(report, offered, completed, res.n_failed + rejected)
    summary["modelled"]["availability"] = res.availability
    return summary


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "cold-plan-sweep",
            _cold_setup, _cold_rep, _cold_check, one_rep_per_process=True,
        ),
        Workload(
            "warm-overload", _overload_setup, _overload_rep, _overload_check,
        ),
        Workload(
            "warm-chaos-closed",
            _chaos_setup, _chaos_rep, _chaos_check,
        ),
    )
}
