"""Serving throughput under multi-user load — MEADOW vs the GEMM baseline.

Beyond the paper: composes the single-request latency model (Figs. 6-7)
into request-level serving with continuous batching, and sweeps offered
load. Expected shape: at low load both systems are arrival-bound and
tie; as load saturates the box, MEADOW's packed weights and TPHS decode
push the achievable tokens/s and hold p99 TTFT lower.

This file is also the tracked before/after evidence for the
**event-compressed serving core** (decode-run coalescing): the
decode-heavy stream below — one burst, long fixed outputs,
``ctx_bucket=64`` — is the workload shape where the scheduler itself
used to dominate wall-clock. The coalesced path must reproduce the
per-token walk's result exactly, records and event log included (the
walk is the ``tests/oracles/token_walk.py`` oracle), while clearing
the :data:`COALESCE_MIN_SPEEDUP` scheduler-iteration throughput floor.
Run it standalone for the JSON artifact CI tracks::

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py \
        --quick --json results/serving_throughput.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Dict

import pytest

from bench_meta import REPO_ROOT, stamp, write_bench_record

sys.path.insert(0, str(REPO_ROOT / "tests"))
from oracles.source_loop import run_source  # noqa: E402
from oracles.token_walk import walk_tokens  # noqa: E402

from repro import ExecutionPlan, MeadowEngine, OPT_125M, zcu102_config
from repro.analysis import banner, format_table
from repro.serving import (
    ContinuousBatchingScheduler,
    LengthDistribution,
    ServingSimulator,
    bursty_stream,
    poisson_stream,
)

RATES_RPS = [1.0, 4.0, 16.0, 64.0]
N_REQUESTS = 48
PROMPTS = LengthDistribution("uniform", 64, 256)
OUTPUTS = LengthDistribution("geometric", 24, 96)

# --------------------------------------------------------------------------
# Event-compressed scheduler: coalesced vs the per-token walk oracle
# --------------------------------------------------------------------------

#: The coalescing sweet spot the acceptance floor is pinned at: 64
#: consecutive decode contexts share one surface point, so a stable
#: batch advances in ~64-iteration runs.
COALESCE_CTX_BUCKET = 64

#: Floor on coalesced / per-token-walk scheduler iterations per second,
#: shared by ``--min-speedup``'s default, CI and the tier-2 test. It was
#: 7.5x while the walk also built one event per token; without them the
#: walk is 3.5-5.7x faster, and 3.2x keeps the floor this puts on the
#: coalesced path's absolute iterations/s above where 7.5x put it (see
#: docs/performance.md). Since the decode slots share a token clock the
#: walk also rebuilds every slot's gaps token by token to check each
#: record against, so it is slower and the quick ratio reads ~9-12x
#: (~6-7x before) at level coalesced iterations/s; the floor is kept.
COALESCE_MIN_SPEEDUP = 3.2


def decode_heavy_stream(quick: bool = False):
    """One burst of long fixed-length generations: a stable decode batch.

    Everything arrives at t=0 and fits one batch, so after the prefill
    phase the scheduler sits in exactly the regime coalescing targets —
    no arrivals, no rotation, completions all at the same step.
    """
    n_requests = 8 if quick else 16
    output_tokens = 256 if quick else 512
    return bursty_stream(
        n_requests, n_requests, 1.0,
        LengthDistribution("fixed", 64),
        LengthDistribution("fixed", output_tokens),
        seed=0,
    )


def _coalesce_scheduler(engine):
    return ContinuousBatchingScheduler(
        engine, max_batch=16, ctx_bucket=COALESCE_CTX_BUCKET
    )


def run_coalescing_bench(engine: MeadowEngine, quick: bool = False) -> Dict[str, object]:
    """Time the per-token walk oracle vs the event-compressed path.

    The surface is warmed first so both timed runs measure pure
    scheduler overhead (the modeled numbers are dict hits either way).
    The coalesced run must reproduce the reference's result exactly,
    records and event log included, or this raises ``AssertionError``.
    """
    stream = decode_heavy_stream(quick)
    # Warm every (stage, ctx, batch) point both paths will touch.
    run_source(_coalesce_scheduler(engine), stream)

    # Best-of-5 per path, the paths alternating: the runs are
    # deterministic, so the minimum is the least-noise estimate, and
    # alternating puts both paths through the same host phases, which
    # keeps the CI floor ratio stable.
    ref_s = fast_s = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        ref = walk_tokens(_coalesce_scheduler(engine), stream)
        ref_s = min(ref_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fast = run_source(_coalesce_scheduler(engine), stream)
        fast_s = min(fast_s, time.perf_counter() - t0)

    # Correctness gate: identical serving outcome, field for field.
    assert fast == ref

    iterations = ref.n_prefill_iterations + ref.n_decode_iterations
    return {
        "model": engine.model.name,
        "plan": engine.plan.name,
        "n_requests": len(ref.records),
        "ctx_bucket": COALESCE_CTX_BUCKET,
        "max_batch": 16,
        "n_iterations": iterations,
        "generated_tokens": ref.total_generated_tokens,
        "ref_iters_per_s": iterations / ref_s,
        "coalesced_iters_per_s": iterations / fast_s,
        "speedup": ref_s / fast_s,
        "exact_match": True,
    }


def _coalesce_engine() -> MeadowEngine:
    return MeadowEngine(OPT_125M, zcu102_config(12.0), ExecutionPlan.meadow())


def main(argv=None) -> int:
    """Standalone mode: emit the JSON record and enforce the floor."""
    parser = argparse.ArgumentParser(
        description="event-compressed scheduler throughput benchmark"
    )
    parser.add_argument("--quick", action="store_true", help="small CI-sized stream")
    parser.add_argument("--json", type=str, default=None, help="write record here")
    parser.add_argument(
        "--bench-record", action="store_true",
        help="also refresh the committed BENCH_serving_throughput.json "
             "perf-trajectory record at the repo root",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=COALESCE_MIN_SPEEDUP,
        help="fail when coalesced/reference speedup drops below this",
    )
    args = parser.parse_args(argv)

    record = stamp(
        run_coalescing_bench(_coalesce_engine(), quick=args.quick),
        "repro.bench.serving_throughput",
    )
    print(
        f"decode-heavy stream ({record['n_requests']} requests, "
        f"{record['n_iterations']} scheduler iterations, "
        f"ctx_bucket={record['ctx_bucket']}) on {record['model']} "
        f"plan={record['plan']}:\n"
        f"  reference walk: {record['ref_iters_per_s']:.0f} iters/s\n"
        f"  coalesced:      {record['coalesced_iters_per_s']:.0f} iters/s "
        f"({record['speedup']:.1f}x)"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {args.json}")
    if args.bench_record:
        print(f"wrote {write_bench_record(record, 'serving_throughput')}")

    if record["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {record['speedup']:.1f}x < {args.min_speedup}x")
        return 1
    return 0


def test_coalesced_scheduler_iteration_throughput(results_dir):
    """Event-compressed core >= COALESCE_MIN_SPEEDUP x the per-token walk.

    The floor was 5x before the struct-of-arrays scheduler core and the
    batched ``decode_run_many`` surface kernel, then 7.5x while the walk
    still built one event per token; with those events gone the walk is
    faster and the ratio floor is re-based on it.
    """
    record = stamp(
        run_coalescing_bench(_coalesce_engine()),
        "repro.bench.serving_throughput",
    )
    (results_dir / "serving_throughput.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    assert record["exact_match"]
    assert record["speedup"] >= COALESCE_MIN_SPEEDUP, record


def _serve(plan, planner, rate, bandwidth=12.0, seed=0):
    engine = MeadowEngine(OPT_125M, zcu102_config(bandwidth), plan, planner)
    sim = ServingSimulator(engine, max_batch=16, ctx_bucket=16)
    stream = poisson_stream(N_REQUESTS, rate, PROMPTS, OUTPUTS, seed=seed)
    return sim.run(stream).metrics


def _run_load_sweep(planner):
    rows = {}
    for rate in RATES_RPS:
        rows[rate] = (
            _serve(ExecutionPlan.gemm_baseline(), None, rate),
            _serve(ExecutionPlan.meadow(), planner, rate),
        )
    return rows


def _render_load_sweep(rows):
    table = []
    for rate, (gemm, meadow) in rows.items():
        table.append(
            [
                f"{rate:g}",
                f"{gemm.throughput_tok_s:.0f}",
                f"{meadow.throughput_tok_s:.0f}",
                f"{gemm.ttft.p99_s * 1e3:.1f}",
                f"{meadow.ttft.p99_s * 1e3:.1f}",
                f"{meadow.throughput_tok_s / gemm.throughput_tok_s:.2f}x",
            ]
        )
    return "{}\n{}".format(
        banner(f"Serving throughput vs offered load ({OPT_125M.name} @12 Gbps)"),
        format_table(
            [
                "load (req/s)",
                "GEMM tok/s",
                "MEADOW tok/s",
                "GEMM p99 TTFT (ms)",
                "MEADOW p99 TTFT (ms)",
                "gain",
            ],
            table,
        ),
    )


def test_serving_throughput_vs_load(benchmark, emit, planner):
    rows = benchmark.pedantic(_run_load_sweep, args=(planner,), rounds=1, iterations=1)
    emit("serving_throughput_vs_load", _render_load_sweep(rows))
    # Saturated: MEADOW must out-serve the GEMM baseline.
    gemm, meadow = rows[RATES_RPS[-1]]
    assert meadow.throughput_tok_s > gemm.throughput_tok_s
    assert meadow.ttft.p99_s <= gemm.ttft.p99_s
    # Underloaded: both systems are arrival-bound and roughly tie.
    gemm, meadow = rows[RATES_RPS[0]]
    assert meadow.throughput_tok_s == pytest.approx(gemm.throughput_tok_s, rel=0.2)


@pytest.mark.slow
def test_serving_bandwidth_grid(benchmark, emit, planner):
    """Full (bandwidth x load) grid — minutes of simulation, tier-2 only."""

    def _run():
        rows = []
        for bw in [1.0, 6.0, 12.0, 25.0]:
            for rate in RATES_RPS:
                m = _serve(ExecutionPlan.meadow(), planner, rate, bandwidth=bw)
                rows.append(
                    [
                        f"{bw:g}",
                        f"{rate:g}",
                        f"{m.throughput_tok_s:.0f}",
                        f"{m.ttft.p99_s * 1e3:.1f}",
                        f"{m.tbt.p99_s * 1e3:.2f}",
                        f"{m.peak_kv_fraction:.1%}",
                    ]
                )
        return rows

    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit(
        "serving_bandwidth_grid",
        "{}\n{}".format(
            banner(f"MEADOW serving grid ({OPT_125M.name})"),
            format_table(
                [
                    "BW (Gbps)",
                    "load (req/s)",
                    "tok/s",
                    "p99 TTFT (ms)",
                    "p99 TBT (ms)",
                    "peak KV",
                ],
                rows,
            ),
        ),
    )
    assert len(rows) == 4 * len(RATES_RPS)


if __name__ == "__main__":
    sys.exit(main())
