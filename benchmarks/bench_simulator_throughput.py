"""Library performance — throughput of the reproduction's own kernels.

Unlike the figure benches (which report *simulated* cycles once), these
use pytest-benchmark's repeated timing to track the wall-clock speed of
the library's hot paths: the vectorized bit packer, the WILU fast parse,
a full workload simulation, and a functional forward pass. Regressions
here make every other bench slower.

This file is also the tracked before/after evidence for the analytical
fast path (two-step pricing in :class:`~repro.sim.WorkloadSimulator` +
the :class:`~repro.sim.surface.LatencySurface`), measured against the
layer-by-layer walk kept in ``tests/oracles/layer_walk.py``:

* the *serving-shaped workload mix* replays the (stage, context, batch)
  sequence a continuous-batching scheduler issues — repeats included,
  exactly as ``ctx_bucket`` quantization produces them — through both
  the walk and the fast path, asserting bit-identical numbers and a
  >= 10x sims/sec speedup;
* the *cold fill* (``--cold-fill``) fills a fresh surface, on a fresh
  simulator whose decode memo is empty, with every point a short-prompt
  serving run needs — prefill 64-256 at batch 1, decode contexts 80-352
  in steps of 16 at batch 1-16, 12 Gbps — and reports filled points/s,
  the speedup over the walk (floored at ``COLD_FILL_MIN_SPEEDUP``) and
  exact match. Its record is the committed ``BENCH_sim_throughput.json``
  baseline.

Run it standalone for the JSON artifacts CI tracks::

    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py \
        --quick --json results/sim_throughput.json
    PYTHONPATH=src python benchmarks/bench_simulator_throughput.py \
        --cold-fill --json results/sim_cold_fill.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Dict, List, Tuple

import numpy as np
import pytest

from bench_meta import REPO_ROOT, stamp, write_bench_record

sys.path.insert(0, str(REPO_ROOT / "tests"))
from oracles.layer_walk import simulate_reference  # noqa: E402

from repro import ExecutionPlan, MeadowEngine, OPT_125M, zcu102_config
from repro.functional import TinyTransformer, quantize_static
from repro.models import (
    TransformerConfig,
    Workload,
    decode_workload,
    prefill_workload,
)
from repro.packing import pack_weights, spread_mode_table, pack_ids, unpack_ids_fast
from repro.quant import WeightProfile, generate_int8_weights
from repro.sim import LatencySurface, WorkloadSimulator
from repro.utils import ceil_div

# --------------------------------------------------------------------------
# Serving-shaped workload mix (the fast-path before/after evidence)
# --------------------------------------------------------------------------

#: Decode contexts are quantized exactly like the scheduler's default
#: ``repro serve --ctx-bucket`` setting, which is what makes the mix repeat
#: operating points the way a real stream does.
CTX_BUCKET = 16


def serving_mix(model: TransformerConfig, quick: bool = False) -> List[Workload]:
    """The workload sequence a continuous-batching scheduler would issue.

    Prefills for a fleet of requests over a small prompt-length menu,
    then per-batch decode streams stepping token by token through
    bucketed contexts. Repeats are intentional: they are what the
    surface caches and what the reference path pays for on every call.
    """
    prompts = (64, 256) if quick else (64, 128, 256, 512)
    requests_per_prompt = 2 if quick else 8
    batches = (1, 4) if quick else (1, 2, 4, 8)
    steps = 24 if quick else 96
    mix: List[Workload] = []
    for prompt in prompts:
        for _ in range(requests_per_prompt):
            mix.append(prefill_workload(model, prompt))
    for batch in batches:
        start = prompts[-1]
        for step in range(steps):
            ctx = ceil_div(start + 1 + step, CTX_BUCKET) * CTX_BUCKET
            mix.append(decode_workload(model, ctx, batch=batch))
    return mix


def run_serving_mix(
    engine: MeadowEngine, mix: List[Workload]
) -> Dict[str, object]:
    """Time the reference walk vs the fast path over one mix.

    Returns the JSON-serializable record CI archives. The fast path must
    match the reference exactly (float equality on latency and energy)
    on every distinct operating point, or this raises ``AssertionError``.
    """
    reference = WorkloadSimulator(
        engine.model, engine.config, engine.plan, engine.planner
    )
    distinct: Dict[Tuple, Workload] = {
        (wl.stage, wl.kv_len, wl.batch): wl for wl in mix
    }

    # Warm the shared one-time caches (packing statistics, tiled-GEMM
    # schedules) through the reference path so neither timed loop pays
    # for them; the surface itself stays cold.
    for wl in distinct.values():
        simulate_reference(reference, wl)

    # Fast path first, on a cold surface: the timing honestly includes
    # simulating every distinct point, not just the repeat lookups.
    t0 = time.perf_counter()
    for wl in mix:
        engine.simulate_fast(wl)
    fast_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for wl in mix:
        simulate_reference(reference, wl)
    ref_s = time.perf_counter() - t0

    # Correctness gate: fast == reference, bit for bit, on every point.
    for wl in distinct.values():
        ref = simulate_reference(reference, wl)
        point = engine.simulate_fast(wl)
        assert point.latency_s == ref.latency_s, wl
        assert point.energy_uj == ref.energy.total_uj, wl
        assert point.total_cycles == ref.total_cycles, wl

    # Core speedup on distinct points only (no surface repeats): what the
    # two-step pricing delivers on a cold sweep.
    fresh = WorkloadSimulator(engine.model, engine.config, engine.plan, engine.planner)
    t0 = time.perf_counter()
    for wl in distinct.values():
        fresh.simulate(wl)
    distinct_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    for wl in distinct.values():
        simulate_reference(reference, wl)
    distinct_ref_s = time.perf_counter() - t0

    return {
        "model": engine.model.name,
        "plan": engine.plan.name,
        "n_items": len(mix),
        "n_distinct": len(distinct),
        "ref_sims_per_s": len(mix) / ref_s,
        "fast_sims_per_s": len(mix) / fast_s,
        "mix_speedup": ref_s / fast_s,
        "distinct_speedup": distinct_ref_s / distinct_s,
        "exact_match": True,
    }


def _default_engine() -> MeadowEngine:
    return MeadowEngine(OPT_125M, zcu102_config(12.0), ExecutionPlan.meadow())


# --------------------------------------------------------------------------
# Cold surface fill (the first-run cost of a new config)
# --------------------------------------------------------------------------


#: The cold fill's floor over the layer walk: about 0.6x the ratio the
#: totals output with its per-batch decode memo measures (24-42x, median
#: 30x, on a 2-vCPU VM), and above the 11-17x that filling through
#: ``simulate`` measured there, so a revert to report-building fills
#: fails it.
COLD_FILL_MIN_SPEEDUP = 18.0


def cold_fill_points(model: TransformerConfig) -> List[Workload]:
    """Every point a short-prompt serving run asks a fresh surface for.

    Prompts of 64-256 tokens at batch 1, and decode contexts 80-352 in
    16-token buckets at every batch size 1-16.
    """
    points = [prefill_workload(model, tokens) for tokens in range(64, 257)]
    points += [
        decode_workload(model, context, batch)
        for context in range(80, 353, 16)
        for batch in range(1, 17)
    ]
    return points


def run_cold_fill(engine: MeadowEngine, repeats: int = 3) -> Dict[str, object]:
    """Time filling a fresh surface against the layer-by-layer walk.

    Each timing starts from a fresh :class:`LatencySurface` on a fresh
    simulator whose one-time tables are already built, so its per-batch
    decode memo starts empty, as on a new config; the best of
    ``repeats`` timings is kept for both paths (the runs are
    deterministic, so the minimum is the least-noise estimate). Every
    filled point must equal the walk's scalars exactly, or this raises
    ``AssertionError``.
    """
    points = cold_fill_points(engine.model)

    fill_s = math.inf
    for _ in range(repeats):
        sim = WorkloadSimulator(
            engine.model, engine.config, engine.plan, engine.planner
        )
        sim._block_tables()  # the one-time tables, outside the timing
        surface = LatencySurface(sim)
        t0 = time.perf_counter()
        for wl in points:
            surface.point(wl)
        fill_s = min(fill_s, time.perf_counter() - t0)

    oracle_s = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        refs = [simulate_reference(sim, wl) for wl in points]
        oracle_s = min(oracle_s, time.perf_counter() - t0)

    for wl, ref in zip(points, refs):
        point = surface.point(wl)
        assert point.latency_s == ref.latency_s, wl
        assert point.total_cycles == ref.total_cycles, wl
        assert point.energy_uj == ref.energy.total_uj, wl

    return {
        "model": engine.model.name,
        "plan": engine.plan.name,
        "bandwidth_gbps": engine.config.dram_bandwidth_gbps,
        "n_points": len(points),
        "fill_points_per_s": len(points) / fill_s,
        "oracle_points_per_s": len(points) / oracle_s,
        "speedup": oracle_s / fill_s,
        "exact_match": True,
    }


def main(argv=None) -> int:
    """Standalone mode: emit the JSON record and enforce regression floors."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI-sized mix")
    parser.add_argument(
        "--cold-fill", action="store_true",
        help="time a cold surface fill against the layer-by-layer walk "
             "instead of the serving mix",
    )
    parser.add_argument("--json", type=str, default=None, help="write record here")
    parser.add_argument(
        "--bench-record", action="store_true",
        help="also refresh the committed BENCH_sim_throughput.json "
             "perf-trajectory record at the repo root (--cold-fill only)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail when the speedup over the walk drops below this "
             f"(default 10 for the mix, {COLD_FILL_MIN_SPEEDUP:g} for --cold-fill)",
    )
    parser.add_argument(
        "--min-sims-per-sec", type=float, default=0.0,
        help="fail when fast-path sims/sec (mix) or filled points/sec "
             "(--cold-fill) drops below this floor",
    )
    args = parser.parse_args(argv)

    engine = _default_engine()
    if args.cold_fill:
        record = stamp(run_cold_fill(engine), "repro.bench.sim_throughput")
        speedup, rate = record["speedup"], record["fill_points_per_s"]
        min_speedup = (
            COLD_FILL_MIN_SPEEDUP if args.min_speedup is None else args.min_speedup
        )
        print(
            f"cold surface fill ({record['n_points']} points) on "
            f"{record['model']} plan={record['plan']} @ "
            f"{record['bandwidth_gbps']:g} Gbps:\n"
            f"  layer walk: {record['oracle_points_per_s']:.1f} points/s\n"
            f"  fill:       {rate:.1f} points/s ({speedup:.1f}x)"
        )
    else:
        record = stamp(
            run_serving_mix(engine, serving_mix(engine.model, quick=args.quick)),
            "repro.bench.sim_throughput",
        )
        speedup, rate = record["mix_speedup"], record["fast_sims_per_s"]
        min_speedup = 10.0 if args.min_speedup is None else args.min_speedup
        print(
            f"serving mix ({record['n_items']} sims, {record['n_distinct']} distinct) "
            f"on {record['model']} plan={record['plan']}:\n"
            f"  reference: {record['ref_sims_per_s']:.1f} sims/s\n"
            f"  fast path: {rate:.1f} sims/s "
            f"({speedup:.1f}x; {record['distinct_speedup']:.1f}x on "
            f"distinct points)"
        )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {args.json}")
    if args.bench_record and args.cold_fill:
        print(f"wrote {write_bench_record(record, 'sim_throughput')}")

    ok = True
    if speedup < min_speedup:
        print(f"FAIL: speedup {speedup:.1f}x < {min_speedup}x")
        ok = False
    if rate < args.min_sims_per_sec:
        print(f"FAIL: {rate:.1f}/s < floor {args.min_sims_per_sec}")
        ok = False
    return 0 if ok else 1


def test_serving_mix_fast_path_speedup(results_dir):
    """Fast path >= 10x over the reference walk on the serving mix."""
    engine = _default_engine()
    record = stamp(
        run_serving_mix(engine, serving_mix(engine.model)),
        "repro.bench.sim_throughput",
    )
    (results_dir / "sim_throughput.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    assert record["exact_match"]
    assert record["mix_speedup"] >= 10.0, record


def test_cold_fill_speedup(results_dir):
    """A cold surface fill >= 18x the layer walk, every point identical."""
    record = stamp(run_cold_fill(_default_engine()), "repro.bench.sim_throughput")
    (results_dir / "sim_cold_fill.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    assert record["exact_match"]
    assert record["speedup"] >= COLD_FILL_MIN_SPEEDUP, record


# --------------------------------------------------------------------------
# pytest-benchmark wall-clock tracking of the other library hot paths
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def matrix():
    return generate_int8_weights((1024, 768), WeightProfile("m", 1.2), seed=7)


def test_perf_pack_weights(benchmark, matrix):
    """Full pack (encode + reindex + bitstream) of a 0.75 MB matrix."""
    packed = benchmark(pack_weights, matrix)
    assert packed.compression_ratio > 1.0
    mb_per_s = matrix.size / 1e6 / benchmark.stats["mean"]
    print(f"\npacking throughput: {mb_per_s:.1f} MB/s")


def test_perf_unpack_fast(benchmark, matrix):
    """Vectorized WILU parse of the packed stream."""
    packed = pack_weights(matrix)
    ids = benchmark(unpack_ids_fast, packed.stream)
    assert ids.size == packed.stream.n_ids


def test_perf_pack_ids_bitstream(benchmark):
    """Bit-level packet construction over one million IDs."""
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 2048, size=1_000_000)
    table = spread_mode_table(11, 8)
    stream = benchmark(pack_ids, ids, 8, table)
    assert stream.total_bits > 0


def test_perf_workload_simulation(benchmark, planner):
    """One full OPT-125M prefill simulation (12 layers, all ops)."""
    sim = WorkloadSimulator(
        OPT_125M, zcu102_config(12.0), ExecutionPlan.meadow(), planner
    )
    wl = prefill_workload(OPT_125M, 512)
    report = benchmark(sim.simulate, wl)
    assert report.total_cycles > 0


def test_perf_workload_simulation_reference(benchmark, planner):
    """The same prefill through the layer-by-layer walk (test oracle)."""
    sim = WorkloadSimulator(
        OPT_125M, zcu102_config(12.0), ExecutionPlan.meadow(), planner
    )
    wl = prefill_workload(OPT_125M, 512)
    report = benchmark(simulate_reference, sim, wl)
    assert report.total_cycles > 0


def test_perf_functional_forward(benchmark):
    """Functional int8 forward pass of a small decoder."""
    tiny = TransformerConfig("tiny-perf", 2, 64, 4, 128, max_seq_len=64)
    model = TinyTransformer(tiny, seed=0)
    x = quantize_static(np.random.default_rng(1).normal(0, 0.5, size=(16, 64)), 0.05)

    def run():
        model.reset()
        return model.forward(x)

    out = benchmark(run)
    assert out.shape == (16, 64)


if __name__ == "__main__":
    sys.exit(main())
