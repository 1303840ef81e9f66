"""Fuzz the public Python API's numeric inputs.

Every public constructor and entry point checks its numbers when it is
called, through :func:`repro.errors.check_count` (an integral number at
or above a bound; bools, NaN, infinities and fractions refused,
integral floats accepted) or :func:`repro.errors.check_real` (a real in
an interval whose ends are open or closed; bools, non-numbers and NaN
refused). Each numeric argument is tried with every value in
:data:`VALUES`: a value its docstring calls valid must run a 4-request
scenario that conserves its requests, and any other must raise a
:class:`~repro.errors.ReproError`, never a bare ``TypeError`` or a
silent number. Every case runs in-process under ``signal.alarm``.

:data:`PROBES` adds inputs that used to construct, run or return
without complaint (a NaN decode context that ``MeadowEngine.decode``
timed, a fractional request id, a NaN fault seed that drew a different
chaos schedule on each run) and pins the message each now raises when
it is called.
"""

from __future__ import annotations

import contextlib
import math
import signal

import pytest

from oracles.source_loop import run_source
from repro import ExecutionPlan, MeadowEngine, zcu102_config
from repro.errors import ConfigError, ReproError
from repro.fleet import (
    CalibratedLatencyPolicy,
    CapacityPlanner,
    DropOldestShedding,
    FaultKind,
    FaultSchedule,
    FleetReport,
    FleetSimulator,
    FleetSweepResult,
    RetryPolicy,
    ShardFault,
    SweepDriver,
    WorkloadModel,
    make_fault_schedule,
)
from repro.fleet.planner import FleetForecast
from repro.hardware import kv_cache_budget_bytes
from repro.models import (
    Stage,
    TransformerConfig,
    Workload,
    decode_workload,
    prefill_workload,
)
from repro.obs import FleetObserver
from repro.packing import PackingConfig, PackingPlanner
from repro.serving import (
    ClosedLoopSource,
    ContinuousBatchingScheduler,
    LengthDistribution,
    Request,
    RequestStream,
    ServingReport,
    ServingResult,
    ServingSimulator,
    bursty_stream,
    poisson_stream,
)

NAN, INF = math.nan, math.inf
MB = 1024 * 1024

#: The values every numeric argument is tried with, by row id.
VALUES = {
    "nan": NAN, "inf": INF, "-inf": -INF, "0": 0, "-1": -1, "0.5": 0.5,
    "2.5": 2.5, "True": True, "None": None, "str": "1",
}

MODEL = TransformerConfig(
    name="fuzz-tiny", n_layers=2, d_model=64, n_heads=4, d_ff=128,
    max_seq_len=256,
)
HARDWARE = zcu102_config(1.0).replace(dram_capacity_bytes=64 * MB)
FIXED8 = LengthDistribution("fixed", 8)
GEO = LengthDistribution("geometric", 4, 16)


@pytest.fixture(scope="module")
def engine() -> MeadowEngine:
    return _engine()


def _engine(config=HARDWARE, planner=None) -> MeadowEngine:
    return MeadowEngine(
        MODEL, config, ExecutionPlan.meadow(),
        planner or PackingPlanner(depth_buckets=1),
    )


def _stream(**knobs):
    """Four Poisson requests; ``knobs`` override poisson_stream's args."""
    args = dict(
        n_requests=4, rate_rps=50.0, prompt_dist=FIXED8, output_dist=GEO,
        seed=0,
    )
    return poisson_stream(**{**args, **knobs})


def _four(**fields):
    """Four requests; ``fields`` override the first one's."""
    first = {
        "request_id": 0, "arrival_s": 0.0, "prompt_tokens": 8,
        "output_tokens": 4, **fields,
    }
    requests = [Request(**first)] + [Request(i, 0.01 * i, 8, 4) for i in (1, 2, 3)]
    return RequestStream(
        "four", tuple(sorted(requests, key=lambda r: (r.arrival_s, r.request_id)))
    )


def _serve(engine, source=None, **knobs):
    return ServingSimulator(engine, **knobs).run(source or _stream())


def _fleet(engine, source=None, **knobs):
    return FleetSimulator([engine, engine], **knobs).run(source or _stream())


def _planner(engine, workload=None, bandwidth=1.0, **knobs):
    workload = workload or WorkloadModel.from_dists(FIXED8, GEO, n_samples=16)
    return CapacityPlanner(engine, [bandwidth], workload, **knobs)


def _closed_loop(**knobs):
    args = dict(
        n_users=2, total_requests=4, think_time_s=0.01, prompt_dist=FIXED8,
        output_dist=GEO, seed=0,
    )
    return ClosedLoopSource(**{**args, **knobs})


def _with_fault(engine, **fields):
    fault = {
        "kind": FaultKind.CRASH, "shard_id": 0, "at_s": 0.02,
        "duration_s": 0.05, **fields,
    }
    schedule = FaultSchedule("probe", (ShardFault(**fault),))
    return _fleet(engine, faults=schedule)


def _hardware(**fields):
    return _engine(HARDWARE.replace(**fields))


def _sweep(engine, **knobs):
    return SweepDriver(engine, [1.0]).sweep(
        _stream, n_engines_grid=(1,), policies=("round-robin",), **knobs
    )


def _sweep_grid(engine, **grid):
    """A one-bandwidth sweep over ``grid``, which must raise or run
    without its stream factory being called before the grid is checked."""
    calls = []

    def factory():
        calls.append(None)
        return _stream()

    grid = {"n_engines_grid": (1,), "policies": ("round-robin",), **grid}
    try:
        return SweepDriver(engine, [1.0]).sweep(factory, **grid)
    except ConfigError:
        assert not calls, f"stream factory ran {len(calls)} times"
        raise


def _four_of(prompt_tokens, output_tokens):
    """Four requests, each with these token counts."""
    return RequestStream("four", tuple(
        Request(i, 0.01 * i, prompt_tokens, output_tokens) for i in range(4)
    ))


#: (entry, argument, probe, valid): ``probe(engine, value)`` calls the
#: entry with the argument set to ``value``; ``valid`` names the values
#: (keys of :data:`VALUES`) its docstring accepts.
ARGS = [
    ("Request", "request_id", lambda e, v: _serve(e, _four(request_id=v)), {"0"}),
    ("Request", "arrival_s", lambda e, v: _serve(e, _four(arrival_s=v)),
     {"0", "0.5", "2.5"}),
    ("Request", "prompt_tokens", lambda e, v: _serve(e, _four(prompt_tokens=v)), set()),
    ("Request", "output_tokens", lambda e, v: _serve(e, _four(output_tokens=v)), set()),
    ("Request", "deadline_s", lambda e, v: _serve(e, _four(deadline_s=v)),
     {"inf", "0.5", "2.5", "None"}),
    ("LengthDistribution", "fixed-lo", lambda e, v: _serve(
        e, _stream(output_dist=LengthDistribution("fixed", v))), set()),
    ("LengthDistribution", "uniform-lo", lambda e, v: _serve(
        e, _stream(output_dist=LengthDistribution("uniform", v, 64))), set()),
    ("LengthDistribution", "uniform-hi", lambda e, v: _serve(
        e, _stream(output_dist=LengthDistribution("uniform", 1, v))), set()),
    ("LengthDistribution", "geometric-lo", lambda e, v: _serve(
        e, _stream(output_dist=LengthDistribution("geometric", v, 16))), {"2.5"}),
    ("LengthDistribution", "geometric-hi", lambda e, v: _serve(
        e, _stream(output_dist=LengthDistribution("geometric", 4, v))), set()),
    ("poisson_stream", "n_requests", lambda e, v: _serve(e, _stream(n_requests=v)), set()),
    ("poisson_stream", "rate_rps", lambda e, v: _serve(e, _stream(rate_rps=v)),
     {"inf", "0.5", "2.5"}),
    ("poisson_stream", "seed", lambda e, v: _serve(e, _stream(seed=v)), {"0", "-1"}),
    ("bursty_stream", "n_requests", lambda e, v: _serve(
        e, bursty_stream(v, 2, 0.01, FIXED8, GEO)), set()),
    ("bursty_stream", "burst_size", lambda e, v: _serve(
        e, bursty_stream(4, v, 0.01, FIXED8, GEO)), set()),
    ("bursty_stream", "burst_gap_s", lambda e, v: _serve(
        e, bursty_stream(4, 2, v, FIXED8, GEO)), {"0.5", "2.5"}),
    ("bursty_stream", "seed", lambda e, v: _serve(
        e, bursty_stream(4, 2, 0.01, FIXED8, GEO, seed=v)), {"0", "-1"}),
    ("ClosedLoopSource", "n_users", lambda e, v: _fleet(
        e, _closed_loop(n_users=v)), set()),
    ("ClosedLoopSource", "total_requests", lambda e, v: _fleet(
        e, _closed_loop(total_requests=v)), set()),
    ("ClosedLoopSource", "think_time_s", lambda e, v: _fleet(
        e, _closed_loop(think_time_s=v)), {"0", "0.5", "2.5"}),
    ("ClosedLoopSource", "seed", lambda e, v: _fleet(e, _closed_loop(seed=v)),
     {"0", "-1"}),
    ("ContinuousBatchingScheduler", "kv_budget_bytes", lambda e, v: run_source(
        ContinuousBatchingScheduler(e, kv_budget_bytes=v), _stream()), {"None"}),
    ("ContinuousBatchingScheduler", "max_batch", lambda e, v: run_source(
        ContinuousBatchingScheduler(e, max_batch=v), _stream()), set()),
    ("ContinuousBatchingScheduler", "ctx_bucket", lambda e, v: run_source(
        ContinuousBatchingScheduler(e, ctx_bucket=v), _stream()), set()),
    ("ServingSimulator", "kv_budget_bytes", lambda e, v: _serve(e, kv_budget_bytes=v),
     {"None"}),
    ("ServingSimulator", "max_batch", lambda e, v: _serve(e, max_batch=v), set()),
    ("ServingSimulator", "ctx_bucket", lambda e, v: _serve(e, ctx_bucket=v), set()),
    ("FleetSimulator", "kv_budget_bytes", lambda e, v: _fleet(e, kv_budget_bytes=v),
     {"None"}),
    ("FleetSimulator", "max_batch", lambda e, v: _fleet(e, max_batch=v), set()),
    ("FleetSimulator", "ctx_bucket", lambda e, v: _fleet(e, ctx_bucket=v), set()),
    ("FleetSimulator", "per-shard-max_batch", lambda e, v: _fleet(
        e, max_batch=[16, v]), set()),
    ("FleetSimulator", "fault_seed", lambda e, v: _fleet(
        e, faults="chaos", fault_seed=v), {"0", "-1"}),
    ("RetryPolicy", "max_retries", lambda e, v: _fleet(
        e, faults="crash", retry=RetryPolicy(max_retries=v)), {"0"}),
    ("RetryPolicy", "base_backoff_s", lambda e, v: _fleet(
        e, faults="crash", retry=RetryPolicy(base_backoff_s=v)), {"0", "0.5", "2.5"}),
    ("RetryPolicy", "backoff_multiplier", lambda e, v: _fleet(
        e, faults="crash", retry=RetryPolicy(backoff_multiplier=v)), {"2.5"}),
    ("RetryPolicy", "jitter_s", lambda e, v: _fleet(
        e, faults="crash", retry=RetryPolicy(jitter_s=v)), {"0", "0.5", "2.5"}),
    ("RetryPolicy", "deadline_s", lambda e, v: _fleet(
        e, faults="crash", retry=RetryPolicy(deadline_s=v)),
     {"inf", "0.5", "2.5", "None"}),
    ("RetryPolicy", "seed", lambda e, v: _fleet(
        e, faults="crash", retry=RetryPolicy(seed=v)), {"0", "-1"}),
    ("DropOldestShedding", "max_waiting", lambda e, v: _fleet(
        e, shedding=DropOldestShedding(v)), set()),
    ("CalibratedLatencyPolicy", "alpha", lambda e, v: _fleet(
        e, policy=CalibratedLatencyPolicy(v)), {"0.5"}),
    ("ShardFault", "shard_id", lambda e, v: _with_fault(e, shard_id=v), {"0"}),
    ("ShardFault", "at_s", lambda e, v: _with_fault(e, at_s=v), {"0", "0.5", "2.5"}),
    ("ShardFault", "duration_s", lambda e, v: _with_fault(e, duration_s=v),
     {"0.5", "2.5"}),
    ("ShardFault", "bandwidth_factor", lambda e, v: _with_fault(
        e, kind=FaultKind.BROWNOUT, bandwidth_factor=v), {"0.5"}),
    ("make_fault_schedule", "n_shards", lambda e, v: _fleet(
        e, faults=make_fault_schedule("chaos", v, 1.0)), set()),
    ("make_fault_schedule", "span_s", lambda e, v: _fleet(
        e, faults=make_fault_schedule("chaos", 2, v)), {"0", "0.5", "2.5"}),
    ("make_fault_schedule", "seed", lambda e, v: _fleet(
        e, faults=make_fault_schedule("chaos", 2, 1.0, v)), {"0", "-1"}),
    ("HardwareConfig", "n_parallel_pe", lambda e, v: _serve(
        _hardware(n_parallel_pe=v)), set()),
    ("HardwareConfig", "weight_bram_bytes", lambda e, v: _serve(
        _hardware(weight_bram_bytes=v)), set()),
    ("HardwareConfig", "clock_hz", lambda e, v: _serve(_hardware(clock_hz=v)),
     {"0.5", "2.5"}),
    ("HardwareConfig", "dram_bandwidth_gbps", lambda e, v: _serve(
        _hardware(dram_bandwidth_gbps=v)), {"inf", "0.5", "2.5"}),
    ("HardwareConfig", "dram_burst_efficiency", lambda e, v: _serve(
        _hardware(dram_burst_efficiency=v)), {"0.5"}),
    ("HardwareConfig", "dram_capacity_bytes", lambda e, v: _serve(
        _hardware(dram_capacity_bytes=v)), set()),
    ("kv_cache_budget_bytes", "packed_weight_bits", lambda e, v: _serve(
        e, kv_budget_bytes=kv_cache_budget_bytes(
            e.config, e.model, packed_weight_bits=v)), {"0", "None"}),
    ("kv_cache_budget_bytes", "reserve_fraction", lambda e, v: _serve(
        e, kv_budget_bytes=kv_cache_budget_bytes(
            e.config, e.model, reserve_fraction=v)), {"0", "0.5"}),
    ("prefill_workload", "prompt_tokens", lambda e, v: prefill_workload(
        e.model, v), set()),
    ("prefill_workload", "batch", lambda e, v: prefill_workload(e.model, 8, v), set()),
    ("decode_workload", "context_len", lambda e, v: decode_workload(e.model, v), set()),
    ("decode_workload", "batch", lambda e, v: decode_workload(e.model, 8, v), set()),
    ("Workload", "kv_len", lambda e, v: Workload(e.model, Stage.DECODE, 1, v), set()),
    ("Workload", "batch", lambda e, v: Workload(e.model, Stage.DECODE, 1, 8, v), set()),
    ("MeadowEngine.prefill", "prompt_tokens", lambda e, v: e.prefill(v), set()),
    ("MeadowEngine.decode", "context_len", lambda e, v: e.decode(v), set()),
    ("MeadowEngine.decode", "batch", lambda e, v: e.decode(8, v), set()),
    ("PackingConfig", "chunk_size", lambda e, v: PackingConfig(chunk_size=v), set()),
    ("PackingConfig", "packet_size", lambda e, v: PackingConfig(packet_size=v), set()),
    ("PackingConfig", "n_modes", lambda e, v: PackingConfig(n_modes=v), set()),
    ("PackingPlanner", "depth_buckets", lambda e, v: _serve(
        _engine(planner=PackingPlanner(depth_buckets=v))), {"None"}),
    ("PackingPlanner", "base_seed", lambda e, v: _serve(
        _engine(planner=PackingPlanner(depth_buckets=1, base_seed=v))), {"0", "-1"}),
    ("WorkloadModel", "prompt_tokens", lambda e, v: _planner(
        e, WorkloadModel((8, v), (4, 4))).forecast(1, 1.0), set()),
    ("WorkloadModel.from_dists", "n_samples", lambda e, v: _planner(
        e, WorkloadModel.from_dists(FIXED8, GEO, n_samples=v)).forecast(1, 1.0), set()),
    ("WorkloadModel.from_dists", "seed", lambda e, v: _planner(
        e, WorkloadModel.from_dists(FIXED8, GEO, n_samples=16, seed=v)
    ).forecast(1, 1.0), {"0", "-1"}),
    ("CapacityPlanner", "bandwidths_gbps", lambda e, v: _planner(
        e, bandwidth=v).forecast(1, 1.0), {"inf", "0.5", "2.5"}),
    ("CapacityPlanner", "max_batch", lambda e, v: _planner(
        e, max_batch=v).forecast(1, 1.0), set()),
    ("CapacityPlanner", "ctx_bucket", lambda e, v: _planner(
        e, ctx_bucket=v).forecast(1, 1.0), set()),
    ("CapacityPlanner.forecast", "n_engines", lambda e, v: _planner(e).forecast(
        v, 1.0), set()),
    ("CapacityPlanner.forecast", "rate_rps", lambda e, v: _planner(e).forecast(
        1, v), {"0.5", "2.5"}),
    ("CapacityPlanner.engines_for", "target_p99_ttft_s", lambda e, v: _planner(
        e).engines_for(v, 1.0), {"inf", "0.5", "2.5"}),
    ("CapacityPlanner.engines_for", "rate_rps", lambda e, v: _planner(
        e).engines_for(1.0, v), {"0.5", "2.5"}),
    ("CapacityPlanner.engines_for", "max_engines", lambda e, v: _planner(
        e).engines_for(1.0, 1.0, v), set()),
    ("SweepDriver", "bandwidths_gbps", lambda e, v: SweepDriver(e, [v]).run_point(
        _stream(), 1, "round-robin"), {"inf", "0.5", "2.5"}),
    ("SweepDriver", "kv_budget_bytes", lambda e, v: SweepDriver(
        e, [1.0], kv_budget_bytes=[v]).run_point(_stream(), 1, "round-robin"),
     {"None"}),
    ("SweepDriver.fleet_profile", "n_engines", lambda e, v: SweepDriver(
        e, [1.0]).fleet_profile(v), set()),
    ("SweepDriver.sweep", "workers", lambda e, v: _sweep(e, workers=v), {"None"}),
    ("FleetObserver", "tick_s", lambda e, v: _fleet(e, obs=FleetObserver(v)),
     {"inf", "0.5", "2.5"}),
]


@contextlib.contextmanager
def _alarm(seconds: int = 20):
    """Fail a case that runs longer than ``seconds`` instead of hanging."""

    def _expire(signum, frame):
        raise TimeoutError(f"case ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_conserves(outcome) -> None:
    """A valid input's run served or accounted for its four requests."""
    if isinstance(outcome, FleetForecast):
        assert outcome.shards and outcome.rate_rps > 0
        return
    if isinstance(outcome, FleetSweepResult):
        assert [p.n_requests for p in outcome.points] == [4]
        return
    if isinstance(outcome, FleetReport) and outcome.resilience is not None:
        res = outcome.resilience
        assert res.n_submitted == 4
        assert res.n_ok + res.n_retried + res.n_shed + res.n_expired + res.n_lost == 4
        return
    if isinstance(outcome, FleetReport):
        results = outcome.result.shard_results
    elif isinstance(outcome, ServingReport):
        results = (outcome.result,)
    else:
        assert isinstance(outcome, ServingResult), type(outcome)
        results = (outcome,)
    records = [rec for result in results for rec in result.records]
    assert sorted(rec.request.request_id for rec in records) == [0, 1, 2, 3]
    for rec in records:
        req = rec.request
        assert type(req.prompt_tokens) is int and type(req.output_tokens) is int
        assert rec.generated_tokens == req.output_tokens


@pytest.mark.parametrize(
    "probe, value, valid",
    [
        pytest.param(probe, VALUES[key], key in valid, id=f"{entry}-{arg}-{key}")
        for entry, arg, probe, valid in ARGS
        for key in VALUES
    ],
)
def test_numeric_argument(engine, probe, value, valid):
    with _alarm():
        if valid:
            _assert_conserves(probe(engine, value))
        else:
            with pytest.raises(ReproError):
                probe(engine, value)


def _twice(engine, seed):
    """Two chaos runs of one stream with ``seed`` as every seed; equal."""
    reports = [
        _fleet(
            engine, _stream(), faults="chaos", fault_seed=seed,
            retry=RetryPolicy(seed=seed),
        )
        for _ in range(2)
    ]
    assert reports[0] == reports[1]
    return reports[0]


def _raises_twice(engine):
    """The NaN-seed chaos run raises, the same way both times."""
    errors = []
    for _ in range(2):
        with pytest.raises(ConfigError) as info:
            _twice(engine, NAN)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    raise ConfigError(errors[0])


#: (id, probe, expected): ``expected`` is the start of the ConfigError
#: the probe raises at construction, or None for a valid input whose
#: run must conserve its requests.
PROBES = [
    ("engine-decode-nan", lambda e: e.decode(NAN), "context_len must be >= 1"),
    ("engine-prefill-2.5", lambda e: e.prefill(2.5), "prompt_tokens must be >= 1"),
    ("decode-workload-2.5", lambda e: decode_workload(e.model, 2.5),
     "context_len must be >= 1"),
    ("fault-schedule-nan-span", lambda e: make_fault_schedule("chaos", 2, NAN),
     "span_s must be non-negative"),
    ("packing-planner-depth-2.5", lambda e: PackingPlanner(depth_buckets=2.5),
     "depth_buckets must be >= 1"),
    ("kv-budget-nan-packed-bits", lambda e: kv_cache_budget_bytes(
        e.config, e.model, packed_weight_bits=NAN), "packed_weight_bits must be >= 0"),
    ("retry-max-retries-1.5", lambda e: RetryPolicy(max_retries=1.5),
     "max_retries must be >= 0"),
    ("retry-max-retries-nan", lambda e: RetryPolicy(max_retries=NAN),
     "max_retries must be >= 0"),
    ("drop-oldest-2.5", lambda e: DropOldestShedding(2.5), "max_waiting must be >= 1"),
    ("drop-oldest-nan", lambda e: DropOldestShedding(NAN), "max_waiting must be >= 1"),
    ("drop-oldest-true", lambda e: DropOldestShedding(True), "max_waiting must be >= 1"),
    ("crash-shard-0.5", lambda e: ShardFault(FaultKind.CRASH, 0.5, 1.0, 1.0),
     "shard_id must be >= 0"),
    ("request-id-1.5", lambda e: Request(1.5, 0.0, 8, 4), "request_id must be >= 0"),
    ("request-id-nan", lambda e: Request(NAN, 0.0, 8, 4), "request_id must be >= 0"),
    ("bursty-burst-size-2.5", lambda e: bursty_stream(4, 2.5, 0.1, FIXED8, GEO),
     "burst_size must be >= 1"),
    ("closed-loop-users-2.5", lambda e: _closed_loop(n_users=2.5),
     "n_users must be >= 1"),
    ("closed-loop-users-nan", lambda e: _closed_loop(n_users=NAN),
     "n_users must be >= 1"),
    ("closed-loop-total-nan", lambda e: _closed_loop(total_requests=NAN),
     "total_requests must be >= 1"),
    ("sweep-driver-nan-bandwidth", lambda e: SweepDriver(e, [NAN]),
     "bandwidths_gbps must be positive"),
    ("serving-max-batch-2.5", lambda e: ServingSimulator(e, max_batch=2.5),
     "max_batch must be >= 1"),
    ("serving-kv-nan", lambda e: ServingSimulator(e, kv_budget_bytes=NAN),
     "kv_budget_bytes must be positive"),
    ("fleet-max-batch-0", lambda e: FleetSimulator([e], max_batch=0),
     "max_batch must be >= 1"),
    ("fleet-ctx-bucket-1.5", lambda e: FleetSimulator([e], ctx_bucket=1.5),
     "ctx_bucket must be >= 1"),
    ("fleet-kv-nan", lambda e: FleetSimulator([e], kv_budget_bytes=NAN),
     "kv_budget_bytes must be positive"),
    ("planner-max-batch-2.5", lambda e: _planner(e, max_batch=2.5),
     "max_batch must be >= 1"),
    ("planner-max-batch-nan", lambda e: _planner(e, max_batch=NAN),
     "max_batch must be >= 1"),
    ("poisson-n-2.5", lambda e: _stream(n_requests=2.5), "n_requests must be >= 1"),
    ("poisson-n-nan", lambda e: _stream(n_requests=NAN), "n_requests must be >= 1"),
    ("workload-model-nan-sample", lambda e: WorkloadModel((8, NAN), (4, 4)),
     "prompt_tokens must be >= 1"),
    ("from-dists-n-samples-2.5", lambda e: WorkloadModel.from_dists(
        FIXED8, GEO, n_samples=2.5), "n_samples must be >= 1"),
    ("fleet-profile-2.5", lambda e: SweepDriver(e, [1.0]).fleet_profile(2.5),
     "n_engines must be >= 1"),
    ("sweep-workers-2.5", lambda e: _sweep(e, workers=2.5), "workers must be >= 1"),
    ("sweep-max-energy-nan", lambda e: _sweep(e, max_energy_per_token_uj=NAN),
     "max_energy_per_token_uj must be positive"),
    ("engines-for-max-engines-2.5", lambda e: _planner(e).engines_for(1.0, 1.0, 2.5),
     "max_engines must be >= 1"),
    ("sweep-grid-n-engines-1.5", lambda e: _sweep_grid(e, n_engines_grid=(1, 1.5)),
     "n_engines must be >= 1"),
    ("sweep-grid-max-batch-2.5", lambda e: _sweep_grid(e, max_batch_grid=(16, 2.5)),
     "max_batch must be >= 1"),
    ("sweep-grid-ctx-bucket-0", lambda e: _sweep_grid(e, ctx_bucket_grid=(1, 0)),
     "ctx_bucket must be >= 1"),
    ("sweep-grid-policy-bogus", lambda e: _sweep_grid(
        e, policies=("round-robin", "bogus")), "unknown routing policy 'bogus'"),
    ("sweep-grid-faults-bogus", lambda e: _sweep_grid(
        e, faults_grid=("none", "bogus")), "unknown fault scenario 'bogus'"),
    ("sweep-grid-counts-2.0", lambda e: _sweep_grid(
        e, n_engines_grid=(1.0,), max_batch_grid=(2.0,), ctx_bucket_grid=(16.0,)),
     None),
    # Scheduler knobs, request token counts and length-distribution
    # bounds: each bad value raises where it is built, and the integral
    # floats serve as ints.
    ("kv-nan", lambda e: _serve(e, kv_budget_bytes=NAN),
     "kv_budget_bytes must be positive"),
    ("kv-inf", lambda e: _serve(e, kv_budget_bytes=INF),
     "kv_budget_bytes must be positive"),
    ("kv-zero", lambda e: _serve(e, kv_budget_bytes=0),
     "kv_budget_bytes must be positive"),
    ("max-batch-nan", lambda e: _serve(e, max_batch=NAN), "max_batch must be >= 1"),
    ("max-batch-2.5", lambda e: _serve(e, max_batch=2.5), "max_batch must be >= 1"),
    ("max-batch-true", lambda e: _serve(e, max_batch=True), "max_batch must be >= 1"),
    ("max-batch-inf", lambda e: _serve(e, max_batch=INF), "max_batch must be >= 1"),
    ("max-batch-zero", lambda e: _serve(e, max_batch=0), "max_batch must be >= 1"),
    ("max-batch-2.0", lambda e: _serve(e, max_batch=2.0), None),
    ("ctx-bucket-1.5", lambda e: _serve(e, ctx_bucket=1.5), "ctx_bucket must be >= 1"),
    ("ctx-bucket-true", lambda e: _serve(e, ctx_bucket=True),
     "ctx_bucket must be >= 1"),
    ("ctx-bucket-nan", lambda e: _serve(e, ctx_bucket=NAN), "ctx_bucket must be >= 1"),
    ("ctx-bucket-16.0", lambda e: _serve(e, ctx_bucket=16.0), None),
    ("prompt-2.5", lambda e: _serve(e, _four_of(2.5, 4)),
     "prompt_tokens must be >= 1"),
    ("output-2.5", lambda e: _serve(e, _four_of(8, 2.5)),
     "output_tokens must be >= 1"),
    ("prompt-true", lambda e: _serve(e, _four_of(True, 4)),
     "prompt_tokens must be >= 1"),
    ("output-true", lambda e: _serve(e, _four_of(8, True)),
     "output_tokens must be >= 1"),
    ("output-nan", lambda e: _serve(e, _four_of(8, NAN)),
     "output_tokens must be >= 1"),
    ("output-inf", lambda e: _serve(e, _four_of(8, INF)),
     "output_tokens must be >= 1"),
    ("counts-8.0-4.0", lambda e: _serve(e, _four_of(8.0, 4.0)), None),
    ("geometric-nan-lo", lambda e: LengthDistribution("geometric", NAN, 64),
     "lo must be >= 1"),
    ("geometric-inf-lo", lambda e: LengthDistribution("geometric", INF, 64),
     "lo must be >= 1"),
    ("geometric-inf-hi", lambda e: LengthDistribution("geometric", 4, INF),
     "hi must be >= 1"),
    ("uniform-nan-lo", lambda e: LengthDistribution("uniform", NAN, 64),
     "lo must be >= 1"),
    ("uniform-nan-hi", lambda e: LengthDistribution("uniform", 8, NAN),
     "hi must be >= 1"),
    ("uniform-2.5-lo", lambda e: LengthDistribution("uniform", 2.5, 64),
     "lo must be >= 1"),
    ("uniform-64.5-hi", lambda e: LengthDistribution("uniform", 8, 64.5),
     "hi must be >= 1"),
    ("fixed-2.5", lambda e: LengthDistribution("fixed", 2.5), "lo must be >= 1"),
    ("fixed-true", lambda e: LengthDistribution("fixed", True), "lo must be >= 1"),
    ("fixed-inf", lambda e: LengthDistribution("fixed", INF), "lo must be >= 1"),
    ("geometric-mean-2.5", lambda e: _serve(
        e, _stream(output_dist=LengthDistribution("geometric", 2.5, 16))), None),
    ("uniform-8.0-16.0", lambda e: _serve(
        e, _stream(prompt_dist=LengthDistribution("uniform", 8.0, 16.0))), None),
    ("chaos-nan-seeds-twice", _raises_twice, "seed must be an integer"),
    ("chaos-seed-minus-3-twice", lambda e: _twice(e, -3), None),
    ("chaos-seed-4.0-twice", lambda e: _twice(e, 4.0), None),
]


@pytest.mark.parametrize(
    "probe, expected", [case[1:] for case in PROBES], ids=[case[0] for case in PROBES]
)
def test_probe(engine, probe, expected):
    with _alarm():
        if expected is not None:
            with pytest.raises(ConfigError, match=f"^{expected}"):
                probe(engine)
        else:
            _assert_conserves(probe(engine))
