"""Export golden: the trace and metrics files of two runs, pinned.

The equivalence property (``test_log_lifecycle.py``) compares the
exporter with a reference that shares its inputs; it cannot see a
change that moves both. This guard pins the files themselves:

* ``obs_fixture_chaos`` — the observer suite's chaotic two-shard run
  (``tests/obs/conftest.py``'s ``chaos_reports``): jsq routing, the
  ``chaos`` fault scenario with retries, gauges every 10 ms;
* ``cli_crash`` — ``repro fleet --model opt-125m --bandwidths 12 1
  --requests 24 --arrival bursty --burst-size 8 --seed 0 --faults crash
  --retry-budget 2 --steal``, whose crash evicts seven requests, three
  of them mid-decode, and whose retries re-route them.

Per file it pins two SHA-256 digests: of the bytes, and of the
document with every float replaced by a placeholder (its *shape*:
every event, name, id, count and order). The shape is checked
everywhere. The bytes are checked on the Python minor version and
numpy version that recorded them: the modelled latencies are floats
from the layer simulation, which other interpreters and numpy releases
may round differently in the last bits.

Re-record (only when an export change is intentional)::

    PYTHONPATH=src python tests/obs/test_export_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro import ExecutionPlan, MeadowEngine, zcu102_config
from repro.cli import main
from repro.fleet import FleetSimulator, RetryPolicy
from repro.models import TransformerConfig
from repro.obs import FleetObserver
from repro.packing import PackingPlanner
from repro.serving import LengthDistribution, bursty_stream

GOLDEN_PATH = Path(__file__).with_name("golden_export_digests.json")

RECORD_HINT = (
    "exported files drifted — if the change is intentional, re-record "
    "in THIS commit with: "
    "PYTHONPATH=src python tests/obs/test_export_golden.py --record"
)

MB = 1024 * 1024

CLI_CRASH = [
    "fleet", "--model", "opt-125m", "--bandwidths", "12", "1",
    "--requests", "24", "--arrival", "bursty", "--burst-size", "8",
    "--seed", "0", "--faults", "crash", "--retry-budget", "2", "--steal",
]


def _obs_fixture_chaos(out: Path) -> None:
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
    stream = bursty_stream(
        12, 8, 0.02,
        LengthDistribution("uniform", 8, 64),
        LengthDistribution("geometric", 8, 32),
        seed=0,
    )
    report = FleetSimulator(
        [fast, slow], policy="jsq", max_batch=8, ctx_bucket=16,
        faults="chaos", retry=RetryPolicy(max_retries=2, seed=1), fault_seed=1,
        obs=FleetObserver(tick_s=0.01),
    ).run(stream)
    report.obs.write_trace(str(out / "trace.json"))
    report.obs.write_metrics(str(out / "metrics.json"))


def _cli_crash(out: Path) -> None:
    argv = CLI_CRASH + [
        "--trace-out", str(out / "trace.json"),
        "--metrics-out", str(out / "metrics.json"),
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


SCENARIOS = {"obs_fixture_chaos": _obs_fixture_chaos, "cli_crash": _cli_crash}


def platform() -> dict:
    """What the byte digests depend on besides the code."""
    return {
        "python": "%d.%d" % sys.version_info[:2],
        "numpy": np.__version__,
    }


def digests(path: Path) -> dict:
    data = path.read_bytes()
    shape = json.loads(data, parse_float=lambda _: "<float>")
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "shape_sha256": hashlib.sha256(
            json.dumps(shape, sort_keys=True).encode()
        ).hexdigest(),
    }


def compute_digests() -> dict:
    out = {}
    for name, run in SCENARIOS.items():
        with tempfile.TemporaryDirectory() as tmp:
            run(Path(tmp))
            out[name] = {
                f: digests(Path(tmp) / f"{f}.json") for f in ("trace", "metrics")
            }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), f"missing {GOLDEN_PATH.name}; {RECORD_HINT}"
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_export_matches_golden(golden, tmp_path, name):
    assert sorted(golden["scenarios"]) == sorted(SCENARIOS), RECORD_HINT
    SCENARIOS[name](tmp_path)
    same_platform = golden["platform"] == platform()
    for f in ("trace", "metrics"):
        want = golden["scenarios"][name][f]
        got = digests(tmp_path / f"{f}.json")
        assert got["shape_sha256"] == want["shape_sha256"], (
            f"{name} {f}: event shape drifted; {RECORD_HINT}"
        )
        if same_platform:
            assert got["sha256"] == want["sha256"], (
                f"{name} {f}: bytes drifted; {RECORD_HINT}"
            )


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="export digest recorder")
    parser.add_argument(
        "--record", action="store_true",
        help=f"rewrite {GOLDEN_PATH.name} from the current exporter",
    )
    if not parser.parse_args().record:
        parser.error("run under pytest to check; pass --record to re-pin")
    doc = {"platform": platform(), "scenarios": compute_digests()}
    GOLDEN_PATH.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"recorded {GOLDEN_PATH}")
