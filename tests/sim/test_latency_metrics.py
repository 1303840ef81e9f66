"""Tests for TTFT / TBT / end-to-end metrics and the fleet-metric helpers."""

import math
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import ExecutionPlan
from repro.errors import ConfigError
from repro.sim import (
    LatencySummary,
    ValueCounts,
    end_to_end,
    percentile,
    stage_occupancy,
    tbt,
    tokens_per_second,
    ttft,
)


class TestTtft:
    def test_ttft_grows_with_prompt(self, small_model, zcu12, shared_planner):
        plan = ExecutionPlan.meadow()
        short = ttft(small_model, zcu12, plan, 64, planner=shared_planner)
        long = ttft(small_model, zcu12, plan, 512, planner=shared_planner)
        assert long.latency_s > short.latency_s

    def test_ttft_shrinks_with_bandwidth(self, small_model, zcu12, shared_planner):
        plan = ExecutionPlan.gemm_baseline()
        slow = ttft(small_model, zcu12.with_bandwidth(1), plan, 128)
        fast = ttft(small_model, zcu12.with_bandwidth(12), plan, 128)
        assert fast.latency_s < slow.latency_s


class TestTbt:
    def test_tbt_measured_at_context(self, small_model, zcu12, shared_planner):
        plan = ExecutionPlan.meadow()
        report = tbt(small_model, zcu12, plan, 64, prefill_tokens=256, planner=shared_planner)
        assert report.workload.kv_len == 320
        assert report.workload.n_tokens == 1

    def test_later_tokens_slightly_slower(self, small_model, zcu12, shared_planner):
        plan = ExecutionPlan.meadow()
        early = tbt(small_model, zcu12, plan, 1, planner=shared_planner)
        late = tbt(small_model, zcu12, plan, 512, planner=shared_planner)
        assert late.latency_s > early.latency_s

    def test_rejects_zeroth_token(self, small_model, zcu12):
        with pytest.raises(ConfigError):
            tbt(small_model, zcu12, ExecutionPlan.gemm_baseline(), 0)


class TestEndToEnd:
    def test_total_is_prefill_plus_decode(self, small_model, zcu12, shared_planner):
        plan = ExecutionPlan.meadow()
        gen = end_to_end(small_model, zcu12, plan, 128, 32, planner=shared_planner)
        assert gen.total_s == pytest.approx(gen.prefill_s + gen.decode_s)
        assert gen.generated_tokens == 32

    def test_sampling_approximates_exact_integration(
        self, small_model, zcu12, shared_planner
    ):
        plan = ExecutionPlan.gemm_baseline()
        exact = end_to_end(small_model, zcu12, plan, 64, 16, sample_every=1)
        sampled = end_to_end(small_model, zcu12, plan, 64, 16, sample_every=8)
        assert sampled.decode_s == pytest.approx(exact.decode_s, rel=0.02)

    def test_tokens_per_second_positive(self, small_model, zcu12, shared_planner):
        gen = end_to_end(
            small_model, zcu12, ExecutionPlan.meadow(), 64, 8, planner=shared_planner
        )
        assert gen.tokens_per_second > 0

    def test_rejects_bad_counts(self, small_model, zcu12):
        with pytest.raises(ConfigError):
            end_to_end(small_model, zcu12, ExecutionPlan.gemm_baseline(), 64, 0)
        with pytest.raises(ConfigError):
            end_to_end(small_model, zcu12, ExecutionPlan.gemm_baseline(), 64, 8, sample_every=0)


class TestPercentile:
    def test_interpolates_between_order_statistics(self):
        assert percentile([0.0, 10.0], 50) == pytest.approx(5.0)
        assert percentile([1.0, 2.0, 3.0, 4.0], 25) == pytest.approx(1.75)

    def test_endpoints_are_min_and_max(self):
        values = [7.0, 3.0, 9.0, 1.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_single_sample_is_every_percentile(self):
        for q in (0, 50, 95, 99, 100):
            assert percentile([4.2], q) == 4.2

    def test_ties_collapse(self):
        assert percentile([2.0, 2.0, 2.0, 2.0], 99) == 2.0
        assert percentile([1.0, 2.0, 2.0, 2.0], 50) == 2.0

    def test_input_order_irrelevant(self):
        assert percentile([3.0, 1.0, 2.0], 95) == percentile([1.0, 2.0, 3.0], 95)

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ConfigError):
            percentile([], 50)
        with pytest.raises(ConfigError):
            percentile([1.0], -1)
        with pytest.raises(ConfigError):
            percentile([1.0], 101)


class TestLatencySummary:
    def test_empty_stream_summarizes_to_zeros(self):
        summary = LatencySummary.of([])
        assert summary.n == 0
        assert summary.mean_s == summary.p50_s == summary.p95_s == summary.p99_s == 0.0

    def test_single_request_stream(self):
        summary = LatencySummary.of([0.25])
        assert summary.n == 1
        assert summary.mean_s == 0.25
        assert summary.p50_s == summary.p95_s == summary.p99_s == 0.25

    def test_tied_population(self):
        summary = LatencySummary.of([1.0] * 5)
        assert summary.p50_s == summary.p99_s == 1.0
        assert summary.mean_s == 1.0


def _flat_summary(arrays):
    """The reference fold: flatten every gap into one list and sort it."""
    return LatencySummary.of([t for gaps in arrays for t in gaps])


@st.composite
def gap_arrays(draw):
    """Per-record gap arrays with heavy repeats and 1-ULP neighbours.

    Every gap is one of a few positive finite base values, nudged by at
    most one ULP either way, so equal and adjacent doubles are common;
    records may be empty.
    """
    pool = draw(
        st.lists(
            st.floats(min_value=1e-9, max_value=1e3),
            min_size=1, max_size=4,
        )
    )
    gap = st.builds(
        lambda base, ulp: (
            base if ulp == 0
            else math.nextafter(base, math.inf if ulp > 0 else 0.0)
        ),
        st.sampled_from(pool),
        st.integers(-1, 1),
    )
    return [
        array("d", gaps)
        for gaps in draw(st.lists(st.lists(gap, max_size=12), max_size=8))
    ]


class TestCompactSummary:
    """``LatencySummary.of_sorted`` over a ``ValueCounts`` table equals
    the flatten-and-sort fold field for field, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(gap_arrays())
    @example([])
    @example([array("d")])
    @example([array("d", [0.25])])
    @example([array("d"), array("d", [0.1] * 7), array("d")])
    @example([array("d", [1.0, math.nextafter(1.0, 2.0), 1.0])])
    def test_table_summary_equals_flat_summary(self, arrays):
        table = ValueCounts.of_arrays(arrays)
        flat = sorted(t for gaps in arrays for t in gaps)
        assert list(table) == flat
        assert [table[i] for i in range(len(table))] == flat
        assert LatencySummary.of_sorted(table) == _flat_summary(arrays)

    @settings(max_examples=200, deadline=None)
    @given(gap_arrays(), st.integers(1, 4))
    def test_merged_tables_equal_flat_summary(self, arrays, n_parts):
        parts = [ValueCounts.of_arrays(arrays[i::n_parts]) for i in range(n_parts)]
        merged = ValueCounts.merge(parts)
        assert merged == ValueCounts.of_arrays(arrays)
        assert LatencySummary.of_sorted(merged) == _flat_summary(arrays)

    def test_table_is_sized_by_distinct_values(self):
        table = ValueCounts.of_arrays([array("d", [0.5, 0.25] * 50), [0.25]])
        assert table.values == array("d", [0.25, 0.5])
        assert table.counts == array("q", [51, 50])
        assert len(table) == 101
        assert table[-1] == 0.5
        with pytest.raises(IndexError):
            table[101]


class TestThroughputHelpers:
    def test_tokens_per_second(self):
        assert tokens_per_second(100, 4.0) == 25.0

    def test_zero_duration_stream_does_not_divide_by_zero(self):
        assert tokens_per_second(0, 0.0) == 0.0
        assert tokens_per_second(5, 0.0) == float("inf")

    def test_rejects_negative_inputs(self):
        with pytest.raises(ConfigError):
            tokens_per_second(-1, 1.0)
        with pytest.raises(ConfigError):
            tokens_per_second(1, -1.0)

    def test_stage_occupancy_zero_duration_stream(self):
        # A measured makespan of zero (degenerate interleaved stream)
        # used to divide by zero; it now reports an idle pipeline.
        assert stage_occupancy(4, [2, 3], total_cycles=0) == [0.0, 0.0]

    def test_stage_occupancy_with_measured_total(self):
        assert stage_occupancy(10, [4, 2], total_cycles=80) == [0.5, 0.25]

    def test_stage_occupancy_closed_form_unchanged(self):
        occ = stage_occupancy(50, [4, 4, 4])
        assert all(0.9 < f <= 1.0 for f in occ)
