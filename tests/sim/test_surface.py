"""Tests for the LatencySurface compact operating-point table."""

from __future__ import annotations

import pytest

from repro.core import ExecutionPlan
from repro.errors import ConfigError
from repro.models import Stage, decode_workload, prefill_workload
from repro.sim import LatencySurface, WorkloadSimulator


@pytest.fixture()
def surface(small_model, zcu12, shared_planner):
    sim = WorkloadSimulator(small_model, zcu12, ExecutionPlan.meadow(), shared_planner)
    return LatencySurface(sim)


class TestPoints:
    def test_prefill_matches_full_simulation(self, surface, small_model):
        point = surface.prefill(128)
        report = surface.simulator.simulate(prefill_workload(small_model, 128))
        assert point.latency_s == report.latency_s
        assert point.total_cycles == report.total_cycles
        assert point.energy_uj == report.energy.total_uj
        assert point.stage is Stage.PREFILL
        assert point.tokens == 128 and point.batch == 1

    def test_decode_matches_full_simulation(self, surface, small_model):
        point = surface.decode(256, batch=4)
        report = surface.simulator.simulate(decode_workload(small_model, 256, batch=4))
        assert point.latency_s == report.latency_s
        assert point.energy_uj == report.energy.total_uj
        assert point.stage is Stage.DECODE
        assert point.tokens == 256 and point.batch == 4

    def test_latency_ms_property(self, surface):
        point = surface.prefill(64)
        assert point.latency_ms == point.latency_s * 1e3

    def test_point_accepts_arbitrary_workload(self, surface, small_model):
        wl = decode_workload(small_model, 100, batch=2)
        assert surface.point(wl) is surface.decode(100, batch=2)


class TestCaching:
    def test_repeats_hit_the_same_object(self, surface):
        first = surface.decode(200)
        assert surface.decode(200) is first
        assert len(surface) == 1

    def test_distinct_points_accumulate(self, surface):
        surface.prefill(64)
        surface.decode(64, batch=2)
        surface.decode(64)
        surface.decode(65)
        assert len(surface) == 4

    def test_prefill_and_decode_do_not_collide(self, surface):
        """Same (tokens, batch) in both stages must be distinct entries."""
        p = surface.prefill(96)
        d = surface.decode(96)
        assert p is not d
        assert p.latency_s != d.latency_s

    def test_materialize_precomputes_grid(self, surface):
        surface.materialize(prefill_tokens=[64, 128])
        n = surface.materialize(decode_contexts=[128, 144, 160], batches=[1, 2])
        assert n == len(surface) == 8
        # The hot loop after materialization is pure dict hits.
        before = len(surface)
        surface.decode(144, batch=2)
        assert len(surface) == before


class TestDecodeRun:
    """Run-length lookups powering the event-compressed scheduler."""

    def test_point_is_the_bucketed_decode_point(self, surface):
        point, run = surface.decode_run(130, batch=2, ctx_bucket=16)
        assert point is surface.decode(144, batch=2)
        assert run == 144 - 130 + 1

    def test_exact_buckets_have_unit_runs(self, surface):
        point, run = surface.decode_run(100, ctx_bucket=1)
        assert point is surface.decode(100)
        assert run == 1

    def test_boundary_context_runs_one_step(self, surface):
        _, run = surface.decode_run(144, ctx_bucket=16)
        assert run == 1
        _, run = surface.decode_run(145, ctx_bucket=16)
        assert run == 16

    def test_run_saturates_at_max_seq_len(self, surface, small_model):
        max_len = small_model.max_seq_len
        ctx = max_len - 3
        point, run = surface.decode_run(ctx, ctx_bucket=64)
        # The bucket rounds past the model limit: the key pins to
        # max_seq_len and the run covers every remaining legal context.
        assert point is surface.decode(max_len)
        assert run == max_len - ctx + 1

    def test_rejects_bad_bucket(self, surface):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            surface.decode_run(100, ctx_bucket=0)


class TestMaterialization:
    def test_report_returns_full_breakdown(self, surface, small_model):
        wl = prefill_workload(small_model, 64)
        point = surface.point(wl)
        report = surface.report(wl)
        assert report.latency_s == point.latency_s
        assert report.n_layers == small_model.n_layers
        assert all(len(ops) > 0 for ops in report.layer_ops)

    def test_reports_are_not_retained(self, surface, small_model):
        wl = prefill_workload(small_model, 64)
        surface.report(wl)
        # Materializing a report does not populate the scalar table.
        assert len(surface) == 0

    def test_invalid_context_still_rejected(self, surface):
        with pytest.raises(ConfigError):
            surface.decode(0)
        with pytest.raises(ConfigError):
            surface.prefill(-1)

    def test_foreign_model_rejected_even_on_cache_hit(self, surface, tiny_model):
        """A cached (stage, ctx, batch) key must not serve another model."""
        from repro.errors import SimulationError

        surface.decode(64)  # warm the (DECODE, 64, 1) key
        with pytest.raises(SimulationError):
            surface.point(decode_workload(tiny_model, 64))


class TestSerialization:
    """export_points()/merge_points(): the one format surface points
    travel in, exact through ``json``."""

    def test_round_trip_is_exact(self, surface, small_model):
        import json

        surface.prefill(64)
        surface.prefill(128)
        surface.decode(128, batch=2)
        surface.decode(144)
        entries = json.loads(json.dumps(surface.export_points()))

        from repro.sim import LatencySurface

        loaded = LatencySurface(surface.simulator)
        assert loaded.merge_points(entries) == 4
        assert len(loaded) == len(surface) == 4
        # Bit-exact: a merged point equals the freshly simulated one.
        assert loaded.prefill(64) == surface.prefill(64)
        assert loaded.decode(128, batch=2) == surface.decode(128, batch=2)

    def test_loaded_points_skip_simulation(self, surface, small_model):
        from repro.sim import LatencySurface

        surface.decode(160)
        loaded = LatencySurface(surface.simulator)
        loaded.merge_points(surface.export_points())

        class Exploding:
            def __getattr__(self, name):
                raise AssertionError("simulated on what should be a hit")

        loaded._sim = Exploding()  # any miss would now blow up
        assert loaded.decode(160).latency_s == surface.decode(160).latency_s

    def test_entries_are_sorted(self, surface):
        surface.decode(96)
        surface.prefill(32)
        surface.decode(64)
        entries = surface.export_points()
        keys = [(p["stage"], p["tokens"], p["batch"]) for p in entries]
        assert keys == sorted(keys)


class TestDeltaShipping:
    """point_keys()/export_points()/merge_points(): the parallel-sweep
    surface delta protocol."""

    def test_export_excludes_snapshot(self, surface):
        surface.decode(64)
        shipped = surface.point_keys()
        surface.decode(128)
        delta = surface.export_points(exclude=shipped)
        assert [(e["tokens"]) for e in delta] == [128]

    def test_merge_adds_only_new_points(self, surface, small_model, zcu12,
                                        shared_planner):
        from repro.core import ExecutionPlan
        from repro.sim import LatencySurface, WorkloadSimulator

        surface.decode(64)
        surface.decode(128)
        sim = WorkloadSimulator(
            small_model, zcu12, ExecutionPlan.meadow(), shared_planner
        )
        other = LatencySurface(sim)
        other.decode(64)
        incumbent = other.decode(64)
        added = other.merge_points(surface.export_points())
        assert added == 1
        assert len(other) == 2
        # The incumbent survives the merge; values agree bit for bit.
        assert other.decode(64) is incumbent
        assert other.decode(128) == surface.decode(128)


class TestBatchedKernels:
    """The bulk lookups answer exactly like their scalar equivalents."""

    def test_decode_run_many_empty_batch_rejected(self, surface):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            surface.decode_run_many([], batch=1)

    def test_decode_run_many_single_probe_on_hit(self, surface):
        surface.decode_run_many([100, 120, 140], batch=3, ctx_bucket=64)
        before = surface.n_simulated
        point, run = surface.decode_run_many(
            [100, 120, 140], batch=3, ctx_bucket=64
        )
        assert surface.n_simulated == before  # pure dict hit
        assert point.tokens == 192 and run == 192 - 141 + 1

    def test_property_decode_run_many_matches_decode_run(self, surface):
        """For any batch of contexts and any bucket, the bulk query is
        the scalar ``decode_run(max(contexts) + 1, ...)`` — same point
        object, same run length — including at max_seq_len saturation.

        Shapes with ``batch > max(contexts) + 1`` are out of the model's
        domain (the TPHS planner requires ``kv_len >= n_tokens``) and are
        rejected identically by both paths, so the strategy skips them."""
        from hypothesis import assume, given, settings, strategies as st

        max_ctx = surface.simulator.model.max_seq_len - 1

        @settings(max_examples=40, deadline=None)
        @given(
            contexts=st.lists(
                st.integers(min_value=1, max_value=max_ctx),
                min_size=1, max_size=8,
            ),
            ctx_bucket=st.sampled_from([1, 7, 64, 256, 1024]),
        )
        def check(contexts, ctx_bucket) -> None:
            batch = len(contexts)
            assume(max(contexts) + 1 >= batch)
            many_point, many_run = surface.decode_run_many(
                contexts, batch=batch, ctx_bucket=ctx_bucket
            )
            one_point, one_run = surface.decode_run(
                max(contexts) + 1, batch=batch, ctx_bucket=ctx_bucket
            )
            assert many_point is one_point
            assert many_run == one_run

        check()

    def test_property_queued_prefill_matches_plain_sum(self, surface):
        """The histogram kernel accumulates the exact same floats, in
        the same order, as the scalar per-length loop it replaced."""
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=40, deadline=None)
        @given(
            hist=st.lists(
                st.tuples(
                    st.integers(min_value=1, max_value=192),
                    st.integers(min_value=1, max_value=9),
                ),
                max_size=6,
            ),
        )
        def check(hist) -> None:
            bulk = surface.queued_prefill_s(hist)
            scalar = 0.0
            for tokens, count in hist:
                scalar += count * surface.prefill(tokens).latency_s
            assert bulk == scalar

        check()
