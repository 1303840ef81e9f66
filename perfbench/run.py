"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload warm-overload --seed 0 --seconds 30 --trace 0

``--trace 0`` runs two fresh processes one after another. Each sets the
workload up and then repeats it for its share of ``--seconds`` (cold
workloads repeat once per process, so every repetition starts cold),
with a yardstick unit of fixed work after each repetition. Set-up time
and peak RSS are medians over the processes; throughput is the work of
all repetitions over their total measured time. Times are reported in
reference seconds (see ``yardstick.py``); the plain host figures are
printed beside them.

``--trace 1`` repeats the workload untraced for half of ``--seconds``
and then traces one repetition in the same process (cold workloads:
the untraced repetition runs in a process of its own). It reports the
per-layer metrics of the traced repetition, plus the tracing overhead
against the untraced median.

Every repetition's outputs are checked (request conservation, warm
surfaces that simulate nothing new, a cold workload that never sees a
surface store) and the digest of each report must be identical across
all repetitions and processes. The last line of standard output is one
JSON object: ``correct``, ``attempted`` and ``failed`` (repetitions)
and ``metrics``. A per-run record, with the Python and numpy versions,
``nproc``, the yardstick's unit times and every repetition, is written
under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import OUT_DIR, WORKLOADS  # noqa: E402
from yardstick import REFERENCE_UNIT_S  # noqa: E402

#: Every run must end well inside the 180 s limit.
DEADLINE_S = 170.0
#: Worker processes per untraced run. A warm process pays ~3.5 s of
#: set-up that is not measured, so two are enough for a median of set-up
#: time and leave the rest of the run to measuring. A cold process runs
#: one 8-15 s repetition, so two measure about as long as a 30 s warm
#: run does.
N_PROCESSES = 2

END_TO_END_UNITS = {
    "req_per_ref_s": "req/ref_s",
    "tok_per_ref_s": "tok/ref_s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
}
PER_LAYER_UNITS = {
    "sim.points": "count",
    "sim.self_s": "s",
    "sim.point_us_p50": "us",
    "sim.point_us_p99": "us",
    "surface.calls": "count",
    "surface.hit_frac": "ratio",
    "surface.self_s": "s",
    "scheduler.advance_calls": "count",
    "scheduler.advance_self_s": "s",
    "scheduler.api_calls": "count",
    "scheduler.api_self_s": "s",
    "routing.calls": "count",
    "routing.self_s": "s",
    "routing.route_us_p99": "us",
    "routing.model_evals": "count",
    "fleet.self_s": "s",
    "planner.self_s": "s",
    "sweep.self_s": "s",
    "obs.self_s": "s",
    "trace.overhead_frac": "ratio",
    "untraced_s": "s",
}


def environment() -> Dict[str, Any]:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def spawn(args, budget_s: float, trace: int, deadline: float) -> Dict[str, Any]:
    """Run one worker process to completion and parse its result line."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget", repr(budget_s), "--trace", str(trace),
    ]
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE, env=env, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workers: List[Dict[str, Any]]) -> Dict[str, float]:
    """End-to-end metrics, with host times in reference seconds.

    Each process's host seconds are scaled by ``REFERENCE_UNIT_S`` over
    that process's mean yardstick time (see ``yardstick.py``).
    Throughput is total work over total measured time, not a median of
    per-repetition rates: the host alternates between a fast and a
    ~1.3x slower phase for seconds at a time, so a median of a handful of
    repetitions jumps between the two phases.
    """
    reps = [rep for w in workers for rep in w["reps"]]
    scales = [
        REFERENCE_UNIT_S / statistics.fmean(w["yardstick_s"]) for w in workers
    ]
    ref_s = sum(
        scale * sum(r["wall_s"] for r in w["reps"])
        for scale, w in zip(scales, workers)
    )
    return {
        "req_per_ref_s": sum(r["completed"] for r in reps) / ref_s,
        "tok_per_ref_s": sum(r["tokens"] for r in reps) / ref_s,
        "setup_s": statistics.median(
            scale * w["setup_s"] for scale, w in zip(scales, workers)
        ),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "completed_frac": statistics.median(
            r["completed"] / r["offered"] for r in reps
        ),
    }


def host_figures(workers: List[Dict[str, Any]]) -> Dict[str, float]:
    """The same throughput and set-up time in plain host seconds."""
    reps = [rep for w in workers for rep in w["reps"]]
    wall_s = sum(r["wall_s"] for r in reps)
    units = [u for w in workers for u in w["yardstick_s"]]
    return {
        "host_req_per_s": sum(r["completed"] for r in reps) / wall_s,
        "host_tok_per_s": sum(r["tokens"] for r in reps) / wall_s,
        "host_setup_s": statistics.median(w["setup_s"] for w in workers),
        "yardstick_unit_s": statistics.fmean(units),
    }


def per_layer(workers: List[Dict[str, Any]]) -> Dict[str, float]:
    layers = dict(workers[-1]["layers"])
    reps = [rep for w in workers for rep in w["reps"]]
    base = statistics.median(r["wall_s"] for r in reps if not r["traced"])
    traced = next(r["wall_s"] for r in reps if r["traced"])
    layers["trace.overhead_frac"] = traced / base - 1.0
    return layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print(
            "perfbench: run from the root of a checkout (src/repro not found)",
            file=sys.stderr,
        )
        return 2

    env = environment()
    try:
        if args.trace:
            # A cold workload cannot repeat in one process, so its
            # untraced baseline runs in a process of its own.
            workers = []
            if WORKLOADS[args.workload].one_rep_per_process:
                workers.append(spawn(args, args.seconds / 2, 0, deadline))
            workers.append(spawn(args, args.seconds / 2, 1, deadline))
            metrics = per_layer(workers)
            units = PER_LAYER_UNITS
        else:
            workers = [
                spawn(args, args.seconds / N_PROCESSES, 0, deadline)
                for _ in range(N_PROCESSES)
            ]
            metrics = end_to_end(workers)
            units = END_TO_END_UNITS
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"CHECK FAILED: {exc}")
        print(json.dumps(
            {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        ))
        return 1

    reps = [rep for w in workers for rep in w["reps"]]
    digests = sorted({rep["digest"] for rep in reps})
    problems = []
    if len(digests) != 1:
        problems.append(f"report digests differ across repetitions: {digests}")

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(reps)} repetitions in {len(workers)} processes"
    )
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(
        f"digest {digests[0]}  modelled "
        f"{json.dumps(reps[0]['modelled'], sort_keys=True)}"
    )
    for name, unit in units.items():
        print(f"  {name:<26} {metrics[name]:>16.6f} {unit}")
    host = host_figures(workers)
    print(f"host seconds, not converted: {json.dumps(host, sort_keys=True)}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "digests": digests,
        "metrics": metrics,
        "host": host,
        "workers": workers,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({
        "correct": not problems,
        "attempted": len(reps),
        "failed": len(reps) if problems else 0,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
