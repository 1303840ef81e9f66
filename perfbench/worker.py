"""One benchmark process: set up a workload, run measured repetitions.

Started by ``run.py`` from the root of a checkout; not meant to be run
by hand. Prints one JSON line with the set-up time (measured from the
instant the parent started this process), peak RSS, one entry per
repetition, and the times of the yardstick units run between
repetitions. With ``--trace 1`` the last repetition runs with the layer
wrappers installed and the line also carries per-layer metrics; the
spans are written under ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Yardstick time after each repetition, as a share of its wall time.
YARDSTICK_SHARE = 0.15


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    import repro

    src = os.path.join(ROOT, "src", "repro")
    if os.path.dirname(os.path.abspath(repro.__file__)) != src:
        raise SystemExit(f"imported repro from {repro.__file__}, not {src}")
    import yardstick
    from layers import LayerTracer
    from workloads import OUT_DIR, WORKLOADS, CheckError

    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    setup_s = time.monotonic() - args.spawned_at

    reps = []
    layers = None
    start = time.perf_counter()
    units = [yardstick.unit()]

    def budget_spent() -> bool:
        return (
            workload.one_rep_per_process
            or time.perf_counter() - start >= args.budget
        )

    while True:
        # A traced worker repeats untraced until its budget is spent,
        # then traces one last repetition: the untraced ones just before
        # it are the overhead baseline.
        tracer = LayerTracer() if args.trace and budget_spent() else None
        state["yardstick_units"] = units if tracer is None else None
        n_units = len(units)
        gc.collect()
        try:
            with tracer.installed() if tracer is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                out = workload.rep(state)
                wall_s = time.perf_counter() - t0 - sum(units[n_units:])
            summary = workload.check(state, out)
        except CheckError as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            return 3
        del out
        summary["wall_s"] = wall_s
        summary["traced"] = tracer is not None
        reps.append(summary)
        # Yardstick units fill a share of each repetition's time, so a
        # long cold repetition is bracketed as densely as a 1.5 s warm one.
        spent = 0.0
        while spent < YARDSTICK_SHARE * wall_s:
            units.append(yardstick.unit())
            spent += units[-1]
        if tracer is not None:
            layers = tracer.metrics(wall_s)
            tracer.write(os.path.join(
                OUT_DIR, f"spans-{args.workload}-seed{args.seed}.bin"
            ))
            break
        if not args.trace and budget_spent():
            break

    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "reps": reps,
        "yardstick_s": units,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
