"""Two-step pricing == the layer-by-layer walk, bit for bit.

:meth:`WorkloadSimulator.simulate` prices weight-independent terms once
per call and weight transfers once per layer class. It must reproduce
the walk in ``tests/oracles/layer_walk.py`` *exactly* — exact float
equality, not approx — on latency, energy (total and per category) and
every per-stage/per-op breakdown, across all execution plans, stages,
batch sizes, bandwidths and packing-planner depth buckets. Any
divergence means the fast path changed a modeled number, which it is
never allowed to do. :meth:`WorkloadSimulator.totals` must carry the
walk's total cycles and energy on the same terms, and both must hold
when a decode point reuses its batch's memoized ops.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st
from oracles.layer_walk import simulate_reference

from repro import zcu102_config
from repro.baselines import cta, flightllm, gemm_baseline
from repro.core import DataflowMode, ExecutionPlan
from repro.errors import ConfigError, ScheduleError
from repro.models import (
    Stage,
    TransformerConfig,
    Workload,
    decode_workload,
    prefill_workload,
)
from repro.packing import PackingPlanner
from repro.sim import LatencySurface, WorkloadSimulator

PLAN_BUILDERS = {
    "meadow": ExecutionPlan.meadow,
    "gemm": gemm_baseline,
    "cta": cta,
    "flightllm": flightllm,
}


def assert_reports_identical(fast, ref):
    """Exact equality on every number both report flavours expose."""
    assert fast.latency_s == ref.latency_s
    assert fast.total_cycles == ref.total_cycles
    assert fast.energy.picojoules == ref.energy.picojoules
    assert list(fast.energy.picojoules) == list(ref.energy.picojoules)
    assert fast.energy.total_uj == ref.energy.total_uj
    assert fast.n_layers == ref.n_layers
    assert fast.breakdown() == ref.breakdown()
    assert fast.by_op_kind() == ref.by_op_kind()
    for layer in range(ref.n_layers):
        assert fast.layer_total_cycles(layer) == ref.layer_total_cycles(layer)
        assert fast.layer_breakdown(layer) == ref.layer_breakdown(layer)
        assert [
            (op.kind, op.dataflow, op.breakdown, op.macs)
            for op in fast.layer_ops[layer]
        ] == [
            (op.kind, op.dataflow, op.breakdown, op.macs)
            for op in ref.layer_ops[layer]
        ]
    assert fast.traffic_bits() == ref.traffic_bits()


@pytest.mark.parametrize("plan_name", sorted(PLAN_BUILDERS))
@pytest.mark.parametrize(
    "stage,tokens,batch",
    [
        ("prefill", 64, 1),
        ("prefill", 192, 1),
        ("decode", 256, 1),
        ("decode", 300, 8),
    ],
)
def test_all_plans_stages_batches(
    small_model, zcu12, shared_planner, plan_name, stage, tokens, batch
):
    plan = PLAN_BUILDERS[plan_name]()
    planner = shared_planner if plan.packing is not None else None
    sim = WorkloadSimulator(small_model, zcu12, plan, planner)
    if stage == "prefill":
        wl = prefill_workload(small_model, tokens, batch)
    else:
        wl = decode_workload(small_model, tokens, batch)
    assert_reports_identical(sim.simulate(wl), simulate_reference(sim, wl))


def test_batched_prefill_gemm_plans(small_model, zcu12):
    """Batched prefill (unsupported under TPHS) on the GEMM-mode plans."""
    for builder in (gemm_baseline, cta, flightllm):
        sim = WorkloadSimulator(small_model, zcu12, builder())
        wl = prefill_workload(small_model, 192, batch=4)
        assert_reports_identical(sim.simulate(wl), simulate_reference(sim, wl))


@pytest.mark.parametrize("packed", [True, False], ids=["packed", "unpacked"])
def test_packed_unpacked_sweep(small_model, zcu1, shared_planner, packed):
    """Both bandwidth-starved operating modes, packed and raw weights."""
    plan = ExecutionPlan.meadow() if packed else gemm_baseline()
    planner = shared_planner if packed else None
    sim = WorkloadSimulator(small_model, zcu1, plan, planner)
    for wl in (
        prefill_workload(small_model, 128),
        decode_workload(small_model, 512, batch=2),
    ):
        assert_reports_identical(sim.simulate(wl), simulate_reference(sim, wl))


@pytest.mark.parametrize("plan_name", sorted(PLAN_BUILDERS))
def test_small_brams_refetch_equivalence(small_model, zcu12, shared_planner, plan_name):
    """64 KB BRAMs: the weight GEMMs re-stream weights or activations.

    The default 1 MB BRAMs hold every ``small_model`` weight, so only
    shrunken BRAMs reach the refetch branches of the tiled schedule.
    """
    config = zcu12.replace(weight_bram_bytes=64 * 1024, input_bram_bytes=64 * 1024)
    plan = PLAN_BUILDERS[plan_name]()
    planner = shared_planner if plan.packing is not None else None
    sim = WorkloadSimulator(small_model, config, plan, planner)
    for wl in (
        prefill_workload(small_model, 1024),
        prefill_workload(small_model, 300),
        decode_workload(small_model, 700, batch=16),
    ):
        assert_reports_identical(sim.simulate(wl), simulate_reference(sim, wl))


class TestLayerClasses:
    def test_unpacked_plans_collapse_to_one_class(self, small_model, zcu12):
        sim = WorkloadSimulator(small_model, zcu12, gemm_baseline())
        tables = sim._block_tables()
        assert len(tables.class_bits) == 1
        assert set(tables.layer_class) == {0}

    def test_bucketed_packing_bounds_class_count(self, small_model, zcu12):
        planner = PackingPlanner(depth_buckets=2)
        sim = WorkloadSimulator(small_model, zcu12, ExecutionPlan.meadow(), planner)
        tables = sim._block_tables()
        assert len(tables.layer_class) == small_model.n_layers
        assert len(tables.class_bits) <= 2

    def test_exact_planner_gives_one_class_per_layer(self, small_model, zcu12):
        """Genuinely heterogeneous layers: one class per layer, still exact."""
        planner = PackingPlanner(depth_buckets=None)  # exact per-layer stats
        sim = WorkloadSimulator(small_model, zcu12, ExecutionPlan.meadow(), planner)
        assert len(sim._block_tables().class_bits) == small_model.n_layers
        wl = prefill_workload(small_model, 96)
        assert_reports_identical(sim.simulate(wl), simulate_reference(sim, wl))

    def test_class_members_share_one_record_list(self, small_model, zcu12, shared_planner):
        sim = WorkloadSimulator(small_model, zcu12, ExecutionPlan.meadow(), shared_planner)
        wl = decode_workload(small_model, 200)
        fast = sim.simulate(wl)
        ref = simulate_reference(sim, wl)
        assert_reports_identical(fast, ref)
        # The depth-2 planner puts layers 0 and 1 in one class: the
        # simulator hands both the same list; the walk builds one each.
        assert fast.layer_ops[0] is fast.layer_ops[1]
        assert ref.layer_ops[0] is not ref.layer_ops[1]


def test_vit_workload_equivalence(zcu12):
    from repro import DEIT_S
    from repro.models import vit_workload

    sim = WorkloadSimulator(DEIT_S, zcu12, gemm_baseline())
    wl = vit_workload(DEIT_S)
    assert_reports_identical(sim.simulate(wl), simulate_reference(sim, wl))


#: The ``small_model`` fixture's shape, as a constant so hypothesis can
#: use it without a function-scoped fixture.
_PROPERTY_MODEL = TransformerConfig(
    name="small", n_layers=4, d_model=256, n_heads=8, d_ff=1024, max_seq_len=1024
)
_PLANNERS = {buckets: PackingPlanner(depth_buckets=buckets) for buckets in (None, 2, 4)}


# ------------------------------------------------------------- memo hits
#: Every plan, and every depth bucket for the packed one.
_SIM_CASES = [
    (name, buckets)
    for name in sorted(PLAN_BUILDERS)
    for buckets in ((None, 2, 4) if PLAN_BUILDERS[name]().packing is not None else (None,))
]


def _row_workloads(model):
    """A decode row per batch, with two prefills among them."""
    workloads = [decode_workload(model, ctx, 1) for ctx in range(16, 401, 4)]
    for batch in (3, 16):
        workloads += [decode_workload(model, ctx, batch) for ctx in range(16, 401, 11)]
    workloads += [prefill_workload(model, 64), prefill_workload(model, 192)]
    return workloads


def _check_totals(sim, wl, ref):
    total_cycles, energy_uj = sim.totals(wl)
    assert total_cycles == ref.total_cycles
    assert energy_uj == ref.energy.total_uj


@pytest.mark.parametrize("brams", ["1MB", "64KB"])
@pytest.mark.parametrize("plan_name,buckets", _SIM_CASES)
def test_memo_hits_match_layer_walk(small_model, zcu12, plan_name, buckets, brams):
    """Many contexts of one batch priced on one simulator, shuffled.

    Every decode point after a batch's first reuses the memoized ops
    that do not read the KV span; prefills interleaved with them must
    neither use nor disturb that memo. Each workload is priced once
    through :meth:`simulate` and once through :meth:`totals`, in one
    shuffled order, and both must equal the walk. The 64 KB BRAMs give
    the weight GEMMs refetch factors that change with the batch.
    """
    config = zcu12
    if brams == "64KB":
        config = zcu12.replace(weight_bram_bytes=64 * 1024, input_bram_bytes=64 * 1024)
    plan = PLAN_BUILDERS[plan_name]()
    planner = _PLANNERS[buckets] if plan.packing is not None else None
    sim = WorkloadSimulator(small_model, config, plan, planner)
    refs = {wl: simulate_reference(sim, wl) for wl in _row_workloads(small_model)}
    calls = [(wl, out) for wl in refs for out in ("report", "totals")]
    random.Random(0).shuffle(calls)
    for wl, out in calls:
        if out == "report":
            assert_reports_identical(sim.simulate(wl), refs[wl])
        else:
            _check_totals(sim, wl, refs[wl])


@pytest.mark.parametrize("out", ["simulate", "totals"])
def test_schedule_error_after_a_hit(small_model, zcu12, shared_planner, out):
    """A batch TPHS cannot schedule raises the walk's error on a hit."""
    sim = WorkloadSimulator(small_model, zcu12, ExecutionPlan.meadow(), shared_planner)
    sim.simulate(decode_workload(small_model, 64, batch=8))  # memoize batch 8
    wl = decode_workload(small_model, 4, batch=8)
    with pytest.raises(ScheduleError) as ref_error:
        simulate_reference(sim, wl)
    with pytest.raises(ScheduleError) as fast_error:
        getattr(sim, out)(wl)
    assert str(fast_error.value) == str(ref_error.value)


@pytest.mark.parametrize("plan_name", sorted(PLAN_BUILDERS))
@pytest.mark.parametrize("out", ["simulate", "totals"])
def test_context_error_after_a_hit(small_model, zcu12, shared_planner, plan_name, out):
    """A context past ``max_seq_len`` raises the walk's error on a hit."""
    plan = PLAN_BUILDERS[plan_name]()
    planner = shared_planner if plan.packing is not None else None
    sim = WorkloadSimulator(small_model, zcu12, plan, planner)
    sim.totals(decode_workload(small_model, 64))  # memoize batch 1
    wl = Workload(small_model, Stage.DECODE, 1, small_model.max_seq_len + 1, 1)
    with pytest.raises(ConfigError) as ref_error:
        simulate_reference(sim, wl)
    with pytest.raises(ConfigError) as fast_error:
        getattr(sim, out)(wl)
    assert str(fast_error.value) == str(ref_error.value)


# --------------------------------------------------------------- property
_WORKLOAD_SHAPES = st.tuples(
    st.sampled_from([Stage.PREFILL, Stage.DECODE]),
    st.integers(1, 1024),
    st.integers(1, 16),
)


@settings(max_examples=60, deadline=None)
@given(
    plan_name=st.sampled_from(sorted(PLAN_BUILDERS)),
    shapes=st.lists(_WORKLOAD_SHAPES, min_size=2, max_size=6),
    bandwidth=st.sampled_from([1.0, 3.0, 6.0, 12.0]),
    depth_buckets=st.sampled_from([None, 2, 4]),
)
def test_simulate_matches_layer_walk(plan_name, shapes, bandwidth, depth_buckets):
    """Any plan x shapes x bandwidth x planner: identical reports.

    The workloads are priced in order on one simulator, so later decode
    points of a batch reuse its memoized ops. Shapes TPHS cannot
    schedule (``batch * n_tokens > kv_len``) must raise the same
    :class:`ScheduleError` on both sides, and a :class:`LatencySurface`
    point, filled through :meth:`WorkloadSimulator.totals`, must carry
    the walk's exact scalars.
    """
    plan = PLAN_BUILDERS[plan_name]()
    planner = _PLANNERS[depth_buckets] if plan.packing is not None else None
    sim = WorkloadSimulator(_PROPERTY_MODEL, zcu102_config(bandwidth), plan, planner)
    surface = LatencySurface(sim)
    for stage, tokens, batch in shapes:
        if stage is Stage.PREFILL:
            wl = prefill_workload(_PROPERTY_MODEL, tokens, batch)
        else:
            wl = decode_workload(_PROPERTY_MODEL, tokens, batch)
        if plan.attention_dataflow is DataflowMode.TPHS and batch * wl.n_tokens > wl.kv_len:
            with pytest.raises(ScheduleError) as fast_error:
                sim.simulate(wl)
            with pytest.raises(ScheduleError) as ref_error:
                simulate_reference(sim, wl)
            assert str(fast_error.value) == str(ref_error.value)
            continue
        ref = simulate_reference(sim, wl)
        assert_reports_identical(sim.simulate(wl), ref)
        point = surface.point(wl)
        assert point.latency_s == ref.latency_s
        assert point.total_cycles == ref.total_cycles
        assert point.energy_uj == ref.energy.total_uj
