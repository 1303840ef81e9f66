"""Golden guard: the latency model's raw numbers, pinned per plan.

The serving goldens in ``test_serving_claims.py`` pin *composed* fleet
metrics; twice in this repo's history an upstream ``sim/`` change
drifted them silently and the re-pin landed a PR late (the ROADMAP
"known wart"). This guard sits one layer lower: it pins the modeled
latency/energy of representative operating points for every execution
plan at both bandwidth corners, straight off the latency surface. Any
fidelity-level change — packing, dataflow, energy model — trips this
file in the same commit that caused it, with a one-line re-record hint
instead of a cryptic downstream diff.

Re-record (only when a fidelity change is intentional)::

    PYTHONPATH=src python tests/integration/test_golden_guard.py --record
"""

import json
from pathlib import Path

import pytest

from repro import MeadowEngine, zcu102_config
from repro.baselines import cta, flightllm, gemm_baseline
from repro.core import ExecutionPlan
from repro.models import OPT_125M

GOLDEN_PATH = Path(__file__).with_name("golden_model_numbers.json")

RECORD_HINT = (
    "modeled numbers drifted — if the fidelity change is intentional, "
    "re-record in THIS commit with: "
    "PYTHONPATH=src python tests/integration/test_golden_guard.py --record"
)

_PLANS = {
    "meadow": ExecutionPlan.meadow,
    "gemm": gemm_baseline,
    "cta": cta,
    "flightllm": flightllm,
}

#: Bandwidth corners of the paper's sweep (Gbps).
_BANDWIDTHS = (1.0, 12.0)

#: (stage, tokens, batch) points pinned at every corner: short and long
#: prompts, shallow and deep decode contexts, and batched decode.
#: Batched prefill is left out: it is not a TPHS shape.
_POINTS = (
    ("prefill", 32, 1),
    ("prefill", 128, 1),
    ("prefill", 512, 1),
    ("decode", 192, 1),
    ("decode", 576, 1),
    ("decode", 320, 4),
    ("decode", 192, 16),
)


def compute_goldens():
    """Current modeled numbers for every (plan, bandwidth) corner."""
    out = {}
    for plan_name, plan_factory in sorted(_PLANS.items()):
        for bw in _BANDWIDTHS:
            engine = MeadowEngine(OPT_125M, zcu102_config(bw), plan_factory())
            block = {}
            for stage, tokens, batch in _POINTS:
                lookup = getattr(engine.surface, stage)
                point = lookup(tokens, batch)
                name = f"{stage}{tokens}" + (f"x{batch}" if batch > 1 else "")
                block[f"{name}_latency_s"] = point.latency_s
                block[f"{name}_energy_uj"] = point.energy_uj
            out[f"{plan_name}@{bw:g}gbps"] = block
    return out


def test_modeled_numbers_match_goldens():
    assert GOLDEN_PATH.exists(), f"missing {GOLDEN_PATH.name}; {RECORD_HINT}"
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    current = compute_goldens()
    assert sorted(golden) == sorted(current), RECORD_HINT
    drifts = []
    for key, block in golden.items():
        for metric, want in block.items():
            got = current[key].get(metric)
            if got != pytest.approx(want, rel=1e-9):
                drifts.append(
                    f"  {key}.{metric}: golden {want!r} -> current {got!r}"
                )
    assert not drifts, "\n".join(["modeled numbers drifted:"] + drifts + [RECORD_HINT])


def test_goldens_are_deterministic():
    # The guard is only as strong as the numbers are reproducible.
    assert compute_goldens() == compute_goldens()


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="golden guard recorder")
    parser.add_argument(
        "--record", action="store_true",
        help=f"rewrite {GOLDEN_PATH.name} from the current model",
    )
    args = parser.parse_args()
    if not args.record:
        parser.error("run under pytest to check; pass --record to re-pin")
    GOLDEN_PATH.write_text(
        json.dumps(compute_goldens(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"recorded {GOLDEN_PATH}")
