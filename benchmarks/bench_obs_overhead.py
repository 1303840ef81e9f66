"""Observability overhead — observing must change nothing and stay cheap.

The acceptance gate for the unified observability layer
(:mod:`repro.obs`). A run is never instrumented: a fleet carrying a
:class:`~repro.obs.FleetObserver` runs exactly as one without, then
attaches the bundle :meth:`~repro.obs.FleetObserver.build` makes of
the finished report. On a chaotic two-shard fleet run that must

1. change **nothing** — the observed run's :class:`FleetReport`
   compares equal to the unobserved one (``FleetReport.obs`` is
   excluded from equality, everything else is bit-identical), and
2. cost at most :data:`OBS_OVERHEAD_BOUND` x the unobserved
   wall-clock, build included, measured best-of-N on the same warmed
   engines.

The run also has to produce a *valid* trace: the Perfetto export must
pass :func:`repro.obs.validate_trace_events`, carry fault spans from
the chaos layer, and the metrics document must declare the current
schema version.

The bound covers the run and the build. The export's own cost is
recorded beside it, unbounded, from freshly built bundles (best of N
each): ``build_s`` is :meth:`~repro.obs.FleetObserver.build` (the
metrics), ``trace_export_s`` is ``write_trace`` (the trace's assembly
and its text), ``metrics_export_s`` is ``write_metrics``, and
``export_s`` the two writes together, so a change in export cost names
the part that moved. ``trace_bytes`` is the size of the trace file
written. Run it standalone for the JSON artifact CI tracks::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --quick --json results/obs_overhead.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from typing import Dict

from bench_meta import stamp

from repro import ExecutionPlan, MeadowEngine, zcu102_config
from repro.fleet import FleetSimulator, RetryPolicy
from repro.models import TransformerConfig
from repro.obs import (
    METRICS_SCHEMA,
    METRICS_SCHEMA_VERSION,
    FleetObserver,
    to_perfetto,
    validate_trace_events,
)
from repro.packing import PackingPlanner
from repro.serving import LengthDistribution, bursty_stream

#: CI-enforced ceiling on observed/unobserved wall-clock.
OBS_OVERHEAD_BOUND = 1.5

MB = 1024 * 1024


def _engines():
    """A 12/1 Gbps pair of tiny-decoder shards (shared planner)."""
    model = TransformerConfig(
        name="obs-tiny", n_layers=2, d_model=64, n_heads=4, d_ff=128,
        max_seq_len=256,
    )
    fast = MeadowEngine(
        model,
        zcu102_config(12.0).replace(dram_capacity_bytes=64 * MB),
        ExecutionPlan.meadow(),
        PackingPlanner(depth_buckets=1),
    )
    slow = fast.clone(config=fast.config.with_bandwidth(1.0))
    return [fast, slow]


def _stream(n_requests: int):
    return bursty_stream(
        n_requests, 8, 0.02,
        LengthDistribution("uniform", 8, 64),
        LengthDistribution("geometric", 8, 32),
        seed=0,
    )


def _fleet(engines, obs=None) -> FleetSimulator:
    """The chaotic fleet under test: crashes + retries + stealing."""
    return FleetSimulator(
        engines,
        policy="jsq",
        max_batch=8,
        ctx_bucket=16,
        steal=True,
        faults="chaos",
        retry=RetryPolicy(max_retries=2, seed=1),
        fault_seed=1,
        obs=obs,
    )


def _best_of_interleaved(fn_a, fn_b, rounds: int) -> tuple:
    """Best-of wall clock for two variants, rounds alternating A/B.

    Interleaving means a transient machine-load spike hits both
    variants rather than skewing whichever happened to run under it —
    the runs are milliseconds, so the A/B ratio is what needs
    protecting, not the absolute numbers.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def _best_export(observer: FleetObserver, report, rounds: int) -> Dict[str, float]:
    """Best-of wall clocks to build and export fresh bundles of ``report``.

    Each round builds a new bundle, so the lazy trace assembly is timed
    with ``write_trace``. Returns ``build_s``, ``trace_export_s``,
    ``metrics_export_s``, ``export_s`` (the two writes of one round) and
    ``trace_bytes``.
    """
    names = ("build_s", "trace_export_s", "metrics_export_s", "export_s")
    best = dict.fromkeys(names, float("inf"))
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = os.path.join(tmp, "trace.json")
        metrics_path = os.path.join(tmp, "metrics.json")
        for _ in range(rounds):
            t0 = time.perf_counter()
            bundle = observer.build(report)
            t1 = time.perf_counter()
            bundle.write_trace(trace_path)
            t2 = time.perf_counter()
            bundle.write_metrics(metrics_path)
            t3 = time.perf_counter()
            took = (t1 - t0, t2 - t1, t3 - t2, t3 - t1)
            best = {name: min(best[name], s) for name, s in zip(names, took)}
        best["trace_bytes"] = os.path.getsize(trace_path)
    return best


def run_overhead_bench(quick: bool = False) -> Dict[str, object]:
    """Time obs-off vs obs-on on identical chaotic fleet runs.

    The first (untimed) run warms every latency-surface point both
    timed variants touch, so the A/B measures pure observer cost.
    Raises ``AssertionError`` if the observed report diverges from the
    unobserved one or the trace/metrics documents fail validation.
    """
    n_requests = 24 if quick else 48
    rounds = 3 if quick else 5
    engines = _engines()
    _fleet(engines).run(_stream(n_requests))  # warm the surfaces

    report_off = _fleet(engines).run(_stream(n_requests))
    observer = FleetObserver(tick_s=0.05)
    report_on = _fleet(engines, obs=observer).run(_stream(n_requests))

    # Gate 1: observation changes nothing (obs is excluded from eq).
    assert report_on == report_off
    assert report_on.obs is not None and report_off.obs is None

    off_s, on_s = _best_of_interleaved(
        lambda: _fleet(engines).run(_stream(n_requests)),
        lambda: _fleet(engines, obs=FleetObserver()).run(_stream(n_requests)),
        rounds,
    )

    # Gate 2: the trace is structurally valid and saw the chaos layer.
    bundle = report_on.obs
    counts = validate_trace_events(to_perfetto(bundle.trace))
    names = bundle.trace.span_names()
    assert "CRASH" in names and "PREFILL" in names and "DECODE" in names
    metrics_doc = bundle.metrics.to_dict()
    assert metrics_doc["schema"] == METRICS_SCHEMA
    assert metrics_doc["schema_version"] == METRICS_SCHEMA_VERSION

    export = _best_export(observer, report_off, rounds)

    return {
        "n_requests": n_requests,
        "n_shards": len(engines),
        "rounds": rounds,
        "faults": "chaos",
        "off_wall_s": off_s,
        "on_wall_s": on_s,
        "overhead_ratio": on_s / off_s,
        "bound": OBS_OVERHEAD_BOUND,
        "bit_identical": True,
        **export,
        "trace_events": counts["events"],
        "trace_flow_events": counts["flow"],
        "n_spans": len(bundle.trace.spans),
        "n_instants": len(bundle.trace.instants),
        "span_names": names,
    }


def main(argv=None) -> int:
    """Standalone mode: emit the JSON record and enforce the bound."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument("--json", type=str, default=None, help="write record here")
    parser.add_argument(
        "--bound", type=float, default=OBS_OVERHEAD_BOUND,
        help="fail when on/off wall-clock ratio exceeds this",
    )
    args = parser.parse_args(argv)

    record = stamp(run_overhead_bench(quick=args.quick), "repro.bench.obs_overhead")
    print(
        f"obs overhead ({record['n_requests']} requests, "
        f"{record['n_shards']} shards, chaos faults, best of "
        f"{record['rounds']}):\n"
        f"  obs off: {record['off_wall_s'] * 1e3:.1f} ms\n"
        f"  obs on:  {record['on_wall_s'] * 1e3:.1f} ms "
        f"({record['overhead_ratio']:.2f}x; bound {args.bound:g}x)\n"
        f"  export: {record['export_s'] * 1e3:.1f} ms "
        f"(write_trace {record['trace_export_s'] * 1e3:.1f} + write_metrics "
        f"{record['metrics_export_s'] * 1e3:.1f}; build "
        f"{record['build_s'] * 1e3:.1f}; unbounded), "
        f"trace file {record['trace_bytes']:,} B\n"
        f"  trace: {record['trace_events']} events, "
        f"{record['n_spans']} spans, {record['n_instants']} instants, "
        f"bit-identical={record['bit_identical']}"
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {args.json}")

    if record["overhead_ratio"] > args.bound:
        print(
            f"FAIL: obs overhead {record['overhead_ratio']:.2f}x "
            f"> bound {args.bound:g}x"
        )
        return 1
    return 0


def test_obs_overhead_within_bound(results_dir):
    """Observed chaos run bit-identical and <= 1.5x the unobserved one."""
    record = stamp(run_overhead_bench(), "repro.bench.obs_overhead")
    (results_dir / "obs_overhead.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    assert record["bit_identical"]
    assert record["overhead_ratio"] <= OBS_OVERHEAD_BOUND, record


if __name__ == "__main__":
    sys.exit(main())
