"""Capacity planner validation — analytical forecasts vs the simulator.

The planner answers "how many engines for this rate at this p99 TTFT
target" from surface points alone: an M/G/1 prefill-priority model per
shard, a Wardrop load split across the fleet, and a pooling correction
for same-speed groups (see :mod:`repro.fleet.planner`). That is an
O(1) computation — no streams, no event loop — so the whole point is
how much accuracy the abstraction costs.

This benchmark measures exactly that: for a grid of fleet-size/rate
mixes on the heterogeneous 12/1/12/1 Gbps fleet, it simulates a seeded
Poisson stream under the predicted-latency router and compares the
simulated p99 TTFT with the planner's forecast. Every mix must land
within :data:`repro.fleet.planner.PLANNER_P99_REL_ERR_BOUND` — the
bound quoted in ``docs/fleet.md`` — and CI enforces it on every push.

The mixes span the regimes the model must get right: a single shard
(pure M/G/1), homogeneous-pair pooling, the heterogeneous split that
must starve the 1 Gbps boxes, and near-saturation load where the
decode-batch fixpoint escalates.

Standalone mode (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_capacity_planner.py \
        --quick --json results/planner_validation.json
"""

import argparse
import json
import sys
import time

from bench_meta import stamp

from repro import ExecutionPlan, MeadowEngine, OPT_125M, zcu102_config
from repro.analysis import banner, format_table
from repro.fleet import (
    CapacityPlanner,
    PLANNER_P99_REL_ERR_BOUND,
    WorkloadModel,
    validate_planner,
)
from repro.serving import LengthDistribution

#: Same fleet shape and traffic mixture as ``bench_fleet_sweep`` — the
#: planner is validated on the workload the sweep benchmarks run.
BANDWIDTH_PROFILE = [12.0, 1.0, 12.0, 1.0]
PROMPTS = LengthDistribution("uniform", 64, 256)
OUTPUTS = LengthDistribution("geometric", 24, 96)

#: (n_engines, rate_rps, n_requests) validation mixes. The last two
#: load each 12 Gbps box at 5 req/s, about 85% of its drain capacity,
#: where the decode-batch fixpoint escalates to 10 of 16 slots. (8 req/s
#: per box, the old near-saturation mixes, is past capacity under
#: slot-bounded admission: the planner forecasts infinite TTFT there,
#: and a finite stream's p99 only measures how long it ran.)
MIXES = [
    (1, 2.0, 96),
    (2, 4.0, 96),
    (4, 8.0, 96),
    (4, 10.0, 96),
    (2, 5.0, 96),
]
#: Quick mode trims mixes, not stream length — short streams make the
#: simulated p99 too noisy to hold the bound with margin.
QUICK_MIXES = [
    (1, 2.0, 96),
    (2, 4.0, 96),
    (4, 8.0, 96),
]


def _planner() -> CapacityPlanner:
    base = MeadowEngine(OPT_125M, zcu102_config(12.0), ExecutionPlan.meadow())
    workload = WorkloadModel.from_dists(PROMPTS, OUTPUTS, n_samples=128, seed=7)
    return CapacityPlanner(
        base, BANDWIDTH_PROFILE, workload, max_batch=16, ctx_bucket=16
    )


def run_validation(quick: bool = False) -> dict:
    """Planner-vs-simulator p99 TTFT across the validation mixes.

    Also times both sides: the planner's forecasts must come back in
    milliseconds where the simulations take seconds — that gap is the
    subsystem's reason to exist, so the record keeps the receipts.
    """
    planner = _planner()
    mixes = QUICK_MIXES if quick else MIXES

    t0 = time.perf_counter()
    records = validate_planner(planner, PROMPTS, OUTPUTS, mixes, seed=0)
    validate_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    for n_engines, rate_rps, _ in mixes:
        planner.forecast(n_engines, rate_rps)
    forecast_s = time.perf_counter() - t0

    max_rel_err = max(r.rel_err for r in records)
    return {
        "model": OPT_125M.name,
        "bandwidth_profile_gbps": BANDWIDTH_PROFILE,
        "bound": PLANNER_P99_REL_ERR_BOUND,
        "mixes": [r.to_dict() for r in records],
        "max_rel_err": max_rel_err,
        "within_bound": max_rel_err <= PLANNER_P99_REL_ERR_BOUND,
        "forecast_wall_s": forecast_s,
        "validate_wall_s": validate_s,
    }


def render_validation(record: dict) -> str:
    rows = [
        [
            f"{m['n_engines']:.0f}",
            f"{m['rate_rps']:g}",
            f"{m['predicted_p99_ttft_s'] * 1e3:.1f}",
            f"{m['simulated_p99_ttft_s'] * 1e3:.1f}",
            f"{m['rel_err']:.3f}",
        ]
        for m in record["mixes"]
    ]
    return "{}\n{}\nmax rel err {:.3f} (bound {:.2f})".format(
        banner(
            f"Capacity planner vs simulator ({record['model']}, "
            f"{' '.join(f'{b:g}' for b in BANDWIDTH_PROFILE)} Gbps fleet)"
        ),
        format_table(
            ["engines", "req/s", "planned p99 TTFT (ms)",
             "simulated (ms)", "rel err"],
            rows,
        ),
        record["max_rel_err"],
        record["bound"],
    )


def main(argv=None) -> int:
    """Standalone mode: emit the record and enforce the error bound."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized mixes")
    parser.add_argument("--json", type=str, default=None, help="write record here")
    args = parser.parse_args(argv)

    record = stamp(run_validation(quick=args.quick),
                   "repro.bench.planner_validation")
    print(render_validation(record))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {args.json}")
    if not record["within_bound"]:
        print(
            f"FAIL: max rel err {record['max_rel_err']:.3f} exceeds the "
            f"documented bound {record['bound']:.2f}"
        )
        return 1
    return 0


def test_planner_within_documented_bound(emit, results_dir):
    """The acceptance claim: planner p99 TTFT lands within the
    documented relative-error bound on every benchmark mix, while the
    forecasts themselves cost a small fraction of the simulations."""
    record = stamp(run_validation(), "repro.bench.planner_validation")
    emit("planner_validation", render_validation(record))
    (results_dir / "planner_validation.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    assert record["within_bound"], record
    assert record["forecast_wall_s"] < record["validate_wall_s"], record


if __name__ == "__main__":
    sys.exit(main())
