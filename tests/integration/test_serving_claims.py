"""Golden regression tests pinning fleet-level serving metrics.

A small fixed scenario (seeded Poisson stream on the tiny serving model)
is simulated and its fleet metrics compared against values recorded when
the serving subsystem landed. Any refactor of ``sim/`` or the scheduler
that shifts these numbers — intentionally or not — must update the
goldens consciously.

The pinned values live in ``GOLDEN`` below; ``rel=1e-9`` tolerates
nothing but libm noise across platforms.
"""

import pytest

from repro import ExecutionPlan, MeadowEngine, zcu102_config
from repro.models import TransformerConfig
from repro.packing import PackingPlanner
from repro.serving import (
    FleetMetrics,
    LengthDistribution,
    ServingSimulator,
    poisson_stream,
)

MB = 1024 * 1024

MODEL = TransformerConfig(
    name="golden-tiny", n_layers=2, d_model=64, n_heads=4, d_ff=128, max_seq_len=256
)
PROMPTS = LengthDistribution("uniform", 8, 64)
OUTPUTS = LengthDistribution("geometric", 8, 32)


def _run(plan: ExecutionPlan, planner=None) -> FleetMetrics:
    engine = MeadowEngine(
        MODEL,
        zcu102_config(1.0).replace(dram_capacity_bytes=64 * MB),
        plan,
        planner,
    )
    sim = ServingSimulator(engine, kv_budget_bytes=MB // 2, max_batch=8)
    # 500 req/s saturates the box, so the numbers measure the scheduler
    # and service model, not the arrival process.
    stream = poisson_stream(24, 500.0, PROMPTS, OUTPUTS, seed=0)
    return sim.run(stream).metrics


# Recorded from the run that introduced the serving subsystem; the
# meadow block was re-pinned when the fleet subsystem landed (the PR 2
# planner-stat batching had shifted packed-bit rounding by ~3e-5 rel
# without updating these values), and again with the event-calendar
# fleet core (a PR 5 surface change had drifted it ~6e-5 rel, stale
# in the same way — the gemm block was unaffected both times). It was
# re-pinned once more when the packing statistics were keyed by each
# matrix's own seed: before that, same-shape Q/K/V/OUT matrices shared
# whichever statistic was computed first, which depended on the hash
# seed and on the state of the on-disk statistics cache. The gemm block
# was re-pinned when admission became slot-bounded (at most max_batch
# requests hold a slot): its slower steps had let more than max_batch
# decodes pile up, and they used to rotate through the batch.
GOLDEN = {
    "meadow": {
        "throughput_tok_s": 2622.0957334436757,
        "ttft_p99_s": 0.0026751652580712182,
        "tbt_p50_s": 0.0010581439999999987,
        "e2e_p95_s": 0.028744162579126008,
        "duration_s": 0.07551211707284262,
        "total_generated_tokens": 198,
    },
    "gemm": {
        "throughput_tok_s": 2215.316997093504,
        "ttft_p99_s": 0.008526287386229014,
        "tbt_p50_s": 0.0018334719999999992,
        "e2e_p95_s": 0.054523212179126014,
        "duration_s": 0.089377728,
        "total_generated_tokens": 198,
    },
}


class TestGoldenServingMetrics:
    @pytest.fixture(scope="class")
    def meadow_metrics(self) -> FleetMetrics:
        return _run(ExecutionPlan.meadow(), PackingPlanner(depth_buckets=1))

    @pytest.fixture(scope="class")
    def gemm_metrics(self) -> FleetMetrics:
        return _run(ExecutionPlan.gemm_baseline())

    def test_meadow_fleet_metrics_pinned(self, meadow_metrics):
        g = GOLDEN["meadow"]
        assert meadow_metrics.total_generated_tokens == g["total_generated_tokens"]
        assert meadow_metrics.throughput_tok_s == pytest.approx(
            g["throughput_tok_s"], rel=1e-9
        )
        assert meadow_metrics.ttft.p99_s == pytest.approx(g["ttft_p99_s"], rel=1e-9)
        assert meadow_metrics.tbt.p50_s == pytest.approx(g["tbt_p50_s"], rel=1e-9)
        assert meadow_metrics.e2e.p95_s == pytest.approx(g["e2e_p95_s"], rel=1e-9)
        assert meadow_metrics.duration_s == pytest.approx(g["duration_s"], rel=1e-9)

    def test_gemm_fleet_metrics_pinned(self, gemm_metrics):
        g = GOLDEN["gemm"]
        assert gemm_metrics.total_generated_tokens == g["total_generated_tokens"]
        assert gemm_metrics.throughput_tok_s == pytest.approx(
            g["throughput_tok_s"], rel=1e-9
        )
        assert gemm_metrics.ttft.p99_s == pytest.approx(g["ttft_p99_s"], rel=1e-9)
        assert gemm_metrics.tbt.p50_s == pytest.approx(g["tbt_p50_s"], rel=1e-9)
        assert gemm_metrics.e2e.p95_s == pytest.approx(g["e2e_p95_s"], rel=1e-9)

    def test_meadow_serves_faster_than_gemm(self, meadow_metrics, gemm_metrics):
        # The single-request speedups (Figs. 6-7) must survive composition
        # into multi-user serving: same token work, shorter makespan.
        assert meadow_metrics.throughput_tok_s > gemm_metrics.throughput_tok_s
        assert meadow_metrics.ttft.p99_s < gemm_metrics.ttft.p99_s

    def test_report_text_stable_across_runs(self):
        a = _run(ExecutionPlan.gemm_baseline()).format_report("golden")
        b = _run(ExecutionPlan.gemm_baseline()).format_report("golden")
        assert a == b
