"""Command-line interface: run the paper's measurements from a shell.

Examples::

    python -m repro ttft --model opt-125m --bandwidth 12 --tokens 512
    python -m repro tbt --model opt-1.3b --bandwidth 1 --token-index 64
    python -m repro sweep --model opt-125m --bandwidths 1 6 12
    python -m repro pack-stats --model opt-125m --layer 0
    python -m repro grid --model opt-125m
    python -m repro resources --pes 96
    python -m repro serve --model opt-125m --requests 64 --arrival poisson --seed 0
    python -m repro fleet --model opt-125m --bandwidths 12 6 3 1 --arrival bursty
    python -m repro fleet --model opt-125m --bandwidths 12 1 --sweep --json pareto.json
    python -m repro fleet --model opt-125m --bandwidths 12 1 --sweep --workers 4
    python -m repro plan --bandwidths 12 1 --rate 8 --target-p99-ttft-ms 500
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional

from .analysis import format_table, speedup, ttft_sweep
from .baselines import cta, flightllm, gemm_baseline
from .core import ExecutionPlan, MeadowEngine, dataflow_grid
from .errors import CLIError, ReproError
from .fleet.faults import FAULT_SCENARIO_NAMES
from .fleet.resilience import SHEDDING_NAMES
from .fleet.routing import POLICY_NAMES
from .hardware import zcu102_config
from .hardware.power import PowerModel
from .hardware.resources import ZCU102_PART, ZCU104_PART, estimate_resources
from .models import get_model
from .packing import PackingPlanner, layer_reduction_ratios
from .sim.surface_store import DEFAULT_STORE_DIR

__all__ = ["main", "build_parser"]

_PLANS = {
    "meadow": ExecutionPlan.meadow,
    "gemm": gemm_baseline,
    "cta": cta,
    "flightllm": flightllm,
}


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="MEADOW reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="opt-125m")
        p.add_argument("--bandwidth", type=float, default=12.0)
        p.add_argument("--plan", choices=sorted(_PLANS), default="meadow")

    p = sub.add_parser("ttft", help="prefill latency (time to first token)")
    common(p)
    p.add_argument("--tokens", type=int, default=512)

    p = sub.add_parser("tbt", help="decode latency (time between tokens)")
    common(p)
    p.add_argument("--token-index", type=int, default=64)
    p.add_argument("--prefill", type=int, default=512)

    p = sub.add_parser("sweep", help="TTFT sweep, MEADOW vs GEMM")
    p.add_argument("--model", default="opt-125m")
    p.add_argument("--bandwidths", type=float, nargs="+", default=[1, 6, 12])
    p.add_argument("--tokens", type=int, nargs="+", default=[64, 512])

    p = sub.add_parser("pack-stats", help="reduction ratios of one layer")
    p.add_argument("--model", default="opt-125m")
    p.add_argument("--layer", type=int, default=0)

    p = sub.add_parser("grid", help="GEMM vs TPHS dataflow choice grid")
    p.add_argument("--model", default="opt-125m")
    p.add_argument("--tokens", type=int, default=512)
    p.add_argument("--bandwidths", type=float, nargs="+", default=[1, 6, 25, 51])
    p.add_argument("--pes", type=int, nargs="+", default=[14, 36, 48, 96])

    p = sub.add_parser("resources", help="FPGA resource + power estimate")
    p.add_argument("--pes", type=int, default=96)
    p.add_argument("--bandwidth", type=float, default=12.0)

    p = sub.add_parser("pareto", help="Pareto frontier of the design space")
    p.add_argument("--model", default="opt-125m")
    p.add_argument("--tokens", type=int, default=512)
    p.add_argument("--pes", type=int, nargs="+", default=[14, 36, 48, 96])
    p.add_argument("--bandwidths", type=float, nargs="+", default=[1, 6, 25, 51])

    p = sub.add_parser("fidelity", help="run the paper fidelity suite")

    p = sub.add_parser("trace", help="op timeline of one prefill pass")
    common(p)
    p.add_argument("--tokens", type=int, default=512)
    p.add_argument("--layer", type=int, default=0)
    p.add_argument("--perfetto", default=None, metavar="PATH",
                   help="also write the full op timeline (all layers) as "
                        "Perfetto/Chrome trace_event JSON — open in "
                        "ui.perfetto.dev or chrome://tracing")

    p = sub.add_parser("serve", help="multi-user serving simulation")
    common(p)
    p.add_argument("--requests", type=int, default=64)
    p.add_argument(
        "--arrival", choices=["poisson", "bursty", "closed-loop"], default="poisson"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=4.0, help="poisson: requests/s")
    p.add_argument("--burst-size", type=int, default=8)
    p.add_argument("--burst-gap", type=float, default=2.0, help="bursty: seconds")
    p.add_argument("--users", type=int, default=4, help="closed-loop population")
    p.add_argument("--think-time", type=float, default=0.5, help="closed-loop: s")
    p.add_argument("--prompt-tokens", type=int, nargs=2, default=[64, 256],
                   metavar=("LO", "HI"), help="uniform prompt-length range")
    p.add_argument("--output-tokens", type=int, nargs=2, default=[24, 96],
                   metavar=("MEAN", "MAX"), help="geometric output-length model")
    p.add_argument("--max-batch", type=int, default=16,
                   help="request slots: the most requests admitted at once "
                        "(awaiting prefill or decoding)")
    p.add_argument("--ctx-bucket", type=int, default=16,
                   help="round decode contexts up to a multiple of this "
                        "before simulation (1 = exact; larger = faster)")
    p.add_argument("--kv-budget-mb", type=float, default=None,
                   help="override the DRAM-derived KV budget")
    _obs_args(p)
    _store_args(p)

    p = sub.add_parser(
        "fleet", help="multi-engine sharded serving and Pareto sweeps"
    )
    p.add_argument("--model", default="opt-125m")
    p.add_argument("--plan", choices=sorted(_PLANS), default="meadow")
    p.add_argument("--bandwidths", type=float, nargs="+",
                   default=[12.0, 6.0, 3.0, 1.0],
                   help="per-shard DRAM bandwidth profile (Gbps); a fleet "
                        "of k engines cycles through this list")
    p.add_argument("--policy", choices=POLICY_NAMES,
                   default="predicted-latency",
                   help="routing policy for a single fleet run")
    p.add_argument("--requests", type=int, default=48)
    p.add_argument(
        "--arrival", choices=["poisson", "bursty", "closed-loop"], default="bursty"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rate", type=float, default=8.0, help="poisson: requests/s")
    p.add_argument("--burst-size", type=int, default=8)
    p.add_argument("--burst-gap", type=float, default=0.25, help="bursty: seconds")
    p.add_argument("--users", type=int, default=8, help="closed-loop population")
    p.add_argument("--think-time", type=float, default=0.25, help="closed-loop: s")
    p.add_argument("--prompt-tokens", type=int, nargs=2, default=[64, 256],
                   metavar=("LO", "HI"), help="uniform prompt-length range")
    p.add_argument("--output-tokens", type=int, nargs=2, default=[24, 96],
                   metavar=("MEAN", "MAX"), help="geometric output-length model")
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--ctx-bucket", type=int, default=16)
    p.add_argument("--kv-budget-mb", type=float, default=None,
                   help="per-shard override of the DRAM-derived KV budget")
    p.add_argument("--steal", action="store_true",
                   help="work stealing: an idle shard pulls still-waiting "
                        "requests off the deepest-backlog shard")
    p.add_argument("--sweep", action="store_true",
                   help="evaluate the (engines x policy x knob) grid and "
                        "report the Pareto front instead of one run")
    p.add_argument("--num-engines", type=int, nargs="+", default=None,
                   help="sweep: fleet sizes (default: len(--bandwidths))")
    p.add_argument("--policies", nargs="+", choices=POLICY_NAMES, default=None,
                   help="sweep: routing policies (default: all)")
    p.add_argument("--max-batches", type=int, nargs="+", default=None,
                   help="sweep: max_batch grid (default: [--max-batch])")
    p.add_argument("--ctx-buckets", type=int, nargs="+", default=None,
                   help="sweep: ctx_bucket grid (default: [--ctx-bucket])")
    p.add_argument("--steal-grid", nargs="?", const="both", default=None,
                   metavar="{both,on,off}",
                   help="sweep: which work-stealing settings to cross with "
                        "the grid — bare flag (or 'both') evaluates every "
                        "point with stealing off and on; 'on'/'off' pin it "
                        "(default: honor --steal)")
    p.add_argument("--max-energy-per-token-uj", type=float, default=None,
                   help="sweep: drop grid points above this modeled "
                        "energy-per-token ceiling before the Pareto front")
    p.add_argument("--workers", type=int, default=None,
                   help="sweep: fan grid points over this many worker "
                        "processes (default: os.cpu_count(); 1 = serial; "
                        "results are bit-identical either way)")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="sweep: also write the versioned Pareto document")
    p.add_argument("--faults", default="none",
                   metavar="SCENARIO",
                   help="named fault scenario injected into the run "
                        "(crashes with cold-start re-warm, bandwidth "
                        "brownouts); 'none' keeps the bit-identical "
                        f"fault-free path; one of: "
                        f"{', '.join(FAULT_SCENARIO_NAMES)}")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the 'chaos' scenario and retry jitter")
    p.add_argument("--retry-budget", type=int, default=None,
                   help="max re-submissions per request after a crash "
                        "(default: 2 whenever faults are scheduled)")
    p.add_argument("--deadline-s", type=float, default=None,
                   help="per-request deadline; retries that cannot land "
                        "before it are expired, and deadline shedding "
                        "rejects requests predicted to miss it")
    p.add_argument("--shed", choices=SHEDDING_NAMES, default="none",
                   help="graceful load-shedding policy")
    p.add_argument("--faults-grid", nargs="+", default=None,
                   metavar="SCENARIO",
                   help="sweep: fault scenarios to cross with the grid "
                        "(default: [--faults])")
    _obs_args(p)
    _store_args(p)

    p = sub.add_parser(
        "plan", help="O(1) analytical capacity planning from surface points"
    )
    p.add_argument("--model", default="opt-125m")
    p.add_argument("--plan", choices=sorted(_PLANS), default="meadow")
    p.add_argument("--bandwidths", type=float, nargs="+",
                   default=[12.0, 6.0, 3.0, 1.0],
                   help="per-shard DRAM bandwidth profile (Gbps), cycled "
                        "across the fleet like the fleet command")
    p.add_argument("--rate", type=float, default=8.0,
                   help="offered arrival rate (req/s)")
    p.add_argument("--target-p99-ttft-ms", type=float, default=None,
                   help="size the fleet: report the smallest stable "
                        "engine count meeting this p99 TTFT target")
    p.add_argument("--engines", type=int, default=None,
                   help="forecast a fixed fleet size instead of sizing")
    p.add_argument("--max-engines", type=int, default=64,
                   help="sizing scan ceiling for --target-p99-ttft-ms")
    p.add_argument("--prompt-tokens", type=int, nargs=2, default=[64, 256],
                   metavar=("LO", "HI"), help="uniform prompt-length range")
    p.add_argument("--output-tokens", type=int, nargs=2, default=[24, 96],
                   metavar=("MEAN", "MAX"), help="geometric output-length model")
    p.add_argument("--samples", type=int, default=128,
                   help="workload-model sample size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-batch", type=int, default=16)
    p.add_argument("--ctx-bucket", type=int, default=16)
    _store_args(p)

    p = sub.add_parser(
        "bench",
        help="perf-trajectory records: list the committed BENCH_*.json "
             "baselines, or gate fresh bench JSON against them",
    )
    p.add_argument("--root", default=".", metavar="DIR",
                   help="directory holding the committed BENCH_*.json "
                        "records (default: current directory)")
    p.add_argument("--check", nargs="+", default=None, metavar="JSON",
                   help="fresh benchmark record(s) to compare against the "
                        "committed baseline with the same meta.schema; "
                        "exits non-zero on a regression")
    p.add_argument("--tolerance", type=float, default=0.5, metavar="FRAC",
                   help="allowed relative drop: a fresh speedup below "
                        "baseline * (1 - FRAC) is a regression "
                        "(default 0.5 — machine-to-machine noise is real, "
                        "halving the measured ratio is not)")
    return parser


def _store_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--surface-store", nargs="?", const=DEFAULT_STORE_DIR,
                   default=None, metavar="DIR",
                   help="warm-start latency surfaces from this directory "
                        "and append new points back after the run "
                        f"(bare flag uses ./{DEFAULT_STORE_DIR}); numbers "
                        "are bit-identical with or without the store — "
                        "it only skips re-simulating known points")


def _make_store(args: argparse.Namespace):
    """A SurfaceStore when requested, else None (store fully off)."""
    if args.surface_store is None:
        return None
    from .sim.surface_store import SurfaceStore

    return SurfaceStore(args.surface_store)


def _store_line(new_points: int, warm_points: int) -> str:
    """The CLI's store summary line (CI greps 'simulated 0 new points')."""
    return (
        f"surface store: simulated {new_points} new points "
        f"({warm_points} warm-started)"
    )


def _obs_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trace-out", default=None, metavar="PATH",
                   help="write a Perfetto/Chrome trace_event JSON of the "
                        "run (request lifecycle spans, per-shard tracks, "
                        "fault windows) — open in ui.perfetto.dev")
    p.add_argument("--metrics-out", default=None, metavar="PATH",
                   help="write the sampled fleet metrics (counters, "
                        "gauges, histograms); .csv suffix selects the "
                        "long-format CSV, anything else versioned JSON")
    p.add_argument("--obs-tick", type=float, default=0.05, metavar="SECONDS",
                   help="simulated-time gauge sampling interval when "
                        "observability is enabled")
    p.add_argument("--timeline", action="store_true",
                   help="append an ASCII fleet timeline to the report")


def _make_observer(args: argparse.Namespace):
    """A FleetObserver when any obs flag is set, else None."""
    if args.trace_out is None and args.metrics_out is None and not args.timeline:
        return None
    if getattr(args, "sweep", False):
        raise CLIError(
            "--trace-out/--metrics-out/--timeline apply to single runs "
            "only; sweeps evaluate many grid points and export none"
        )
    if not args.obs_tick > 0:
        raise CLIError(f"--obs-tick must be positive, got {args.obs_tick:g}")
    from .obs import FleetObserver

    return FleetObserver(tick_s=args.obs_tick)


def _obs_outputs(bundle, args: argparse.Namespace) -> List[str]:
    """Write requested artifacts; returns report lines to append."""
    lines: List[str] = []
    if args.trace_out is not None:
        bundle.write_trace(args.trace_out)
        lines.append(f"wrote trace: {args.trace_out}")
    if args.metrics_out is not None:
        bundle.write_metrics(args.metrics_out)
        lines.append(f"wrote metrics: {args.metrics_out}")
    if args.timeline:
        from .obs import render_fleet_timeline

        lines.append(render_fleet_timeline(bundle.trace))
    return lines


def _parse_steal_grid(value: Optional[str], steal: bool):
    """Map the --steal-grid value onto sweep points (default: --steal)."""
    if value is None:
        return (steal,)
    grids = {"both": (False, True), "on": (True,), "off": (False,)}
    if value not in grids:
        raise CLIError(
            f"--steal-grid expects 'both', 'on', or 'off', got {value!r}"
        )
    return grids[value]


def _check_fault_names(names, flag: str) -> None:
    """Reject unknown fault-scenario names with a one-line typed error."""
    for name in names:
        if name not in FAULT_SCENARIO_NAMES:
            raise CLIError(
                f"{flag}: unknown fault scenario {name!r} "
                f"(choose from: {', '.join(FAULT_SCENARIO_NAMES)})"
            )


def _cmd_ttft(args: argparse.Namespace) -> str:
    model = get_model(args.model)
    engine = MeadowEngine(model, zcu102_config(args.bandwidth), _PLANS[args.plan]())
    report = engine.prefill(args.tokens)
    return (
        f"TTFT {model.name} plan={args.plan} tokens={args.tokens} "
        f"@{args.bandwidth:g} Gbps: {report.latency_ms:.2f} ms"
    )


def _cmd_tbt(args: argparse.Namespace) -> str:
    model = get_model(args.model)
    engine = MeadowEngine(model, zcu102_config(args.bandwidth), _PLANS[args.plan]())
    report = engine.decode(args.prefill + args.token_index)
    return (
        f"TBT {model.name} plan={args.plan} token#{args.token_index} "
        f"(prefill {args.prefill}) @{args.bandwidth:g} Gbps: {report.latency_ms:.2f} ms"
    )


def _cmd_sweep(args: argparse.Namespace) -> str:
    model = get_model(args.model)
    plans = [ExecutionPlan.gemm_baseline(), ExecutionPlan.meadow()]
    points = ttft_sweep(
        model, zcu102_config(12.0), plans, args.bandwidths, args.tokens,
        planner=PackingPlanner(),
    )
    gains = speedup(points, "gemm", "meadow")
    rows = [
        [bw, t, f"{gains[(bw, t)]:.2f}x"]
        for bw in args.bandwidths
        for t in args.tokens
    ]
    return format_table(["BW (Gbps)", "tokens", "MEADOW speedup"], rows)


def _cmd_pack_stats(args: argparse.Namespace) -> str:
    model = get_model(args.model)
    ratios = layer_reduction_ratios(model, args.layer)
    rows = [[kind.value, f"{ratio:.0f}"] for kind, ratio in ratios.items()]
    return format_table([f"layer {args.layer} matrix", "reduction ratio"], rows)


def _cmd_grid(args: argparse.Namespace) -> str:
    model = get_model(args.model)
    grid = dataflow_grid(model, args.bandwidths, args.pes, args.tokens)
    rows = []
    for bw in args.bandwidths:
        row = [f"{bw:g}"]
        for pes in args.pes:
            d = grid[(bw, pes)]
            row.append(f"{d.best.upper()} ({d.advantage:.2f}x)")
        rows.append(row)
    return format_table(["BW \\ PEs"] + [str(p) for p in args.pes], rows)


def _cmd_resources(args: argparse.Namespace) -> str:
    config = zcu102_config(args.bandwidth).with_total_pes(args.pes)
    est = estimate_resources(config)
    power = PowerModel(config)
    lines = [
        f"build: {config.n_parallel_pe} parallel + {config.n_broadcast_pe} broadcasting PEs",
        f"estimate: {est.luts:,} LUT, {est.dsps:,} DSP, {est.bram_tiles} BRAM tiles",
        f"static power: {power.static_power_w(est):.2f} W",
    ]
    for part in (ZCU102_PART, ZCU104_PART):
        util = est.utilization(part)
        verdict = "fits" if est.fits(part) else "DOES NOT FIT"
        lines.append(
            f"{part.name}: {verdict} "
            f"(LUT {util['luts']:.0%}, DSP {util['dsps']:.0%}, BRAM {util['bram']:.0%})"
        )
    return "\n".join(lines)


def _cmd_pareto(args: argparse.Namespace) -> str:
    from .analysis import design_space, pareto_frontier
    from .hardware.resources import ZCU102_PART

    model = get_model(args.model)
    points = design_space(
        model,
        args.pes,
        args.bandwidths,
        prompt_tokens=args.tokens,
        planner=PackingPlanner(),
        part=ZCU102_PART,
    )
    frontier = {(p.n_pes, p.bandwidth_gbps) for p in pareto_frontier(points)}
    rows = [
        [
            p.n_pes,
            f"{p.bandwidth_gbps:g}",
            f"{p.luts:,}",
            f"{p.latency_s * 1e3:.1f}",
            "*" if (p.n_pes, p.bandwidth_gbps) in frontier else "",
        ]
        for p in sorted(points, key=lambda q: (q.luts, q.latency_s))
    ]
    return format_table(["PEs", "BW (Gbps)", "LUTs", "TTFT (ms)", "Pareto"], rows)


def _cmd_fidelity(_args: argparse.Namespace) -> str:
    from .analysis import run_fidelity_suite

    return "\n".join(r.describe() for r in run_fidelity_suite())


def _cmd_trace(args: argparse.Namespace) -> str:
    from .sim import build_trace, render_gantt

    model = get_model(args.model)
    engine = MeadowEngine(model, zcu102_config(args.bandwidth), _PLANS[args.plan]())
    report = engine.prefill(args.tokens)
    events = build_trace(report)
    layer_events = [ev for ev in events if ev.layer == args.layer]
    out = render_gantt(layer_events, width=70)
    if args.perfetto is not None:
        from .obs import FleetTrace, op_spans, write_perfetto

        trace = FleetTrace.build(op_spans(report, 0.0, shard_id=0), (), n_shards=1)
        write_perfetto(trace, args.perfetto)
        out += f"\nwrote trace: {args.perfetto}"
    return out


def _source_factory(args: argparse.Namespace):
    """Seeded scenario factory from the shared serve/fleet CLI knobs.

    Returns a zero-argument callable producing a *fresh* source per
    call (closed-loop sources are single-use; sweeps re-run scenarios).
    """
    from .serving import (
        ClosedLoopSource,
        LengthDistribution,
        bursty_stream,
        poisson_stream,
    )

    prompt_dist = LengthDistribution("uniform", *args.prompt_tokens)
    output_dist = LengthDistribution("geometric", *args.output_tokens)

    def factory():
        if args.arrival == "poisson":
            return poisson_stream(
                args.requests, args.rate, prompt_dist, output_dist, seed=args.seed
            )
        if args.arrival == "bursty":
            return bursty_stream(
                args.requests, args.burst_size, args.burst_gap,
                prompt_dist, output_dist, seed=args.seed,
            )
        return ClosedLoopSource(
            args.users, args.requests, args.think_time,
            prompt_dist, output_dist, seed=args.seed,
        )

    return factory


def _kv_budget_bytes(args: argparse.Namespace) -> Optional[int]:
    """``--kv-budget-mb`` in bytes, or None to derive it from DRAM."""
    mb = args.kv_budget_mb
    if mb is None:
        return None
    if not math.isfinite(mb):
        raise CLIError(f"--kv-budget-mb must be finite, got {mb:g}")
    return int(mb * 1024 * 1024)


def _cmd_serve(args: argparse.Namespace) -> str:
    from .serving import ServingSimulator

    model = get_model(args.model)
    source = _source_factory(args)()
    engine = MeadowEngine(model, zcu102_config(args.bandwidth), _PLANS[args.plan]())
    store = _make_store(args)
    warm = store.load(engine) if store is not None else 0
    budget = _kv_budget_bytes(args)
    observer = _make_observer(args)
    sim = ServingSimulator(
        engine,
        kv_budget_bytes=budget,
        max_batch=args.max_batch,
        ctx_bucket=args.ctx_bucket,
    )
    report = sim.run(source)
    title = (
        f"serving {model.name} plan={args.plan} @{args.bandwidth:g} Gbps — "
        f"{args.requests} requests, {args.arrival} arrivals (seed {args.seed}), "
        f"max_batch={args.max_batch}, ctx_bucket={args.ctx_bucket}"
    )
    lines = [report.metrics.format_report(title)]
    if observer is not None:
        lines.extend(_obs_outputs(observer.build(report), args))
    if store is not None:
        new = max(0, len(engine.surface) - warm)
        store.save(engine)
        lines.append(_store_line(new, warm))
    return "\n".join(lines)


def _cmd_fleet(args: argparse.Namespace) -> str:
    from .fleet import FleetSimulator, RetryPolicy, SweepDriver

    model = get_model(args.model)
    base = MeadowEngine(
        model, zcu102_config(args.bandwidths[0]), _PLANS[args.plan]()
    )
    budget = _kv_budget_bytes(args)
    factory = _source_factory(args)
    _check_fault_names([args.faults], "--faults")
    if args.faults_grid is not None:
        _check_fault_names(args.faults_grid, "--faults-grid")
    observer = _make_observer(args)
    # One engine per *distinct* bandwidth, warm-started from the store
    # on creation: shards sharing hardware share the engine (and its
    # warm latency surface), so repeated profile entries like
    # `12 1 12 1` cost nothing extra.
    driver = SweepDriver(
        base,
        bandwidths_gbps=args.bandwidths,
        kv_budget_bytes=(
            [budget] * len(args.bandwidths) if budget is not None else None
        ),
        surface_store=_make_store(args),
    )

    if not args.sweep:
        engines = [driver.engine_for(bw) for bw in args.bandwidths]
        retry = None
        if args.retry_budget is not None or args.deadline_s is not None:
            retry = RetryPolicy(
                max_retries=(
                    args.retry_budget if args.retry_budget is not None else 2
                ),
                deadline_s=args.deadline_s,
                seed=args.fault_seed,
            )
        fleet = FleetSimulator(
            engines,
            policy=args.policy,
            kv_budget_bytes=budget,
            max_batch=args.max_batch,
            ctx_bucket=args.ctx_bucket,
            steal=args.steal,
            faults=None if args.faults == "none" else args.faults,
            retry=retry,
            shedding=None if args.shed == "none" else args.shed,
            fault_seed=args.fault_seed,
            obs=observer,
        )
        report = fleet.run(factory())
        header = (
            f"fleet bandwidth profile: "
            f"{' '.join(f'{b:g}' for b in args.bandwidths)} Gbps — "
            f"{args.requests} requests, {args.arrival} arrivals (seed {args.seed})"
        )
        lines = [header, report.describe()]
        if report.obs is not None:
            lines.extend(_obs_outputs(report.obs, args))
        if driver.surface_store is not None:
            lines.append(_store_line(*driver.save_surfaces()))
        return "\n".join(lines)

    result = driver.sweep(
        factory,
        n_engines_grid=args.num_engines or [len(args.bandwidths)],
        policies=args.policies or list(POLICY_NAMES),
        max_batch_grid=args.max_batches or [args.max_batch],
        ctx_bucket_grid=args.ctx_buckets or [args.ctx_bucket],
        steal_grid=_parse_steal_grid(args.steal_grid, args.steal),
        max_energy_per_token_uj=args.max_energy_per_token_uj,
        workers=args.workers if args.workers is not None else os.cpu_count(),
        faults_grid=args.faults_grid or [args.faults],
        fault_seed=args.fault_seed,
    )
    lines = [
        (
            f"fleet sweep: {model.name} plan={args.plan}, profile "
            f"{' '.join(f'{b:g}' for b in args.bandwidths)} Gbps, "
            f"{args.requests} requests, {args.arrival} arrivals (seed {args.seed})"
        ),
        result.format_table(),
        f"Pareto front: {len(result.pareto_front())} of {len(result.points)} points",
    ]
    if driver.surface_store is not None:
        lines.append(_store_line(*driver.save_surfaces()))
    if args.json is not None:
        import json

        with open(args.json, "w") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
        lines.append(f"wrote {args.json}")
    return "\n".join(lines)


def _cmd_plan(args: argparse.Namespace) -> str:
    from .errors import ConfigError
    from .fleet import CapacityPlanner, WorkloadModel
    from .serving import LengthDistribution

    model = get_model(args.model)
    base = MeadowEngine(
        model, zcu102_config(args.bandwidths[0]), _PLANS[args.plan]()
    )
    workload = WorkloadModel.from_dists(
        LengthDistribution("uniform", *args.prompt_tokens),
        LengthDistribution("geometric", *args.output_tokens),
        n_samples=args.samples,
        seed=args.seed,
    )
    planner = CapacityPlanner(
        base,
        args.bandwidths,
        workload,
        max_batch=args.max_batch,
        ctx_bucket=args.ctx_bucket,
        surface_store=_make_store(args),
    )
    if args.engines is not None:
        forecast = planner.forecast(args.engines, args.rate)
    elif args.target_p99_ttft_ms is not None:
        forecast = planner.engines_for(
            args.target_p99_ttft_ms / 1e3,
            args.rate,
            max_engines=args.max_engines,
        )
    else:
        raise ConfigError(
            "pass --engines N to forecast a fixed fleet, or "
            "--target-p99-ttft-ms to size one"
        )
    lines = [forecast.format_report()]
    if planner.driver.surface_store is not None:
        lines.append(_store_line(*planner.driver.save_surfaces()))
    return "\n".join(lines)


def _load_bench_record(path) -> dict:
    import json

    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CLIError(f"cannot read bench record {path}: {exc}")
    except ValueError as exc:
        raise CLIError(f"bench record {path} is not valid JSON: {exc}")
    if not isinstance(doc, dict) or not isinstance(doc.get("meta"), dict):
        raise CLIError(
            f"bench record {path} has no meta stamp (see bench_meta.stamp)"
        )
    return doc


def _cmd_bench(args: argparse.Namespace) -> str:
    """List committed ``BENCH_*.json`` baselines, or gate fresh records.

    The committed records are the perf trajectory: one stamped JSON per
    benchmark at the repo root, refreshed with ``--bench-record`` when a
    PR intentionally moves the number. ``--check`` compares fresh bench
    output against the baseline sharing its ``meta.schema`` and fails
    (exit 2) when the measured speedup drops below the tolerance band.
    """
    from pathlib import Path

    root = Path(args.root)
    by_schema = {}
    rows = []
    for path in sorted(root.glob("BENCH_*.json")):
        doc = _load_bench_record(path)
        meta = doc["meta"]
        schema = str(meta.get("schema", "?"))
        by_schema[schema] = (path, doc)
        speedup = doc.get("speedup")
        rows.append([
            path.name,
            schema,
            str(meta.get("git_sha", "?"))[:12],
            f"{speedup:.2f}x" if isinstance(speedup, (int, float)) else "-",
        ])

    if args.check is None:
        if not rows:
            return f"no BENCH_*.json records under {root}"
        return format_table(["record", "schema", "git sha", "speedup"], rows)

    lines = []
    regressions = []
    for fresh_name in args.check:
        fresh = _load_bench_record(Path(fresh_name))
        schema = str(fresh["meta"].get("schema", "?"))
        entry = by_schema.get(schema)
        if entry is None:
            raise CLIError(
                f"no committed BENCH_*.json baseline for schema "
                f"{schema!r} under {root}"
            )
        base_path, base = entry
        base_speedup = base.get("speedup")
        fresh_speedup = fresh.get("speedup")
        if not isinstance(base_speedup, (int, float)) or not isinstance(
            fresh_speedup, (int, float)
        ):
            raise CLIError(
                f"records for {schema!r} carry no numeric 'speedup' field"
            )
        floor = base_speedup * (1.0 - args.tolerance)
        ok = fresh_speedup >= floor
        lines.append(
            f"{schema}: fresh {fresh_speedup:.2f}x vs baseline "
            f"{base_speedup:.2f}x ({base_path.name}), floor "
            f"{floor:.2f}x — {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            regressions.append(schema)
    if regressions:
        raise CLIError(
            "\n".join(lines)
            + f"\nperf regression in: {', '.join(regressions)}"
        )
    return "\n".join(lines)


_COMMANDS = {
    "ttft": _cmd_ttft,
    "tbt": _cmd_tbt,
    "sweep": _cmd_sweep,
    "pack-stats": _cmd_pack_stats,
    "grid": _cmd_grid,
    "resources": _cmd_resources,
    "pareto": _cmd_pareto,
    "fidelity": _cmd_fidelity,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "fleet": _cmd_fleet,
    "plan": _cmd_plan,
    "bench": _cmd_bench,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors (:class:`~repro.errors.ReproError`, including
    :class:`~repro.errors.CLIError`) become a one-line ``error: ...`` on
    stderr and exit code 2 — shell users never see a traceback for a
    bad flag value.
    """
    args = build_parser().parse_args(argv)
    try:
        print(_COMMANDS[args.command](args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
