"""CapacityPlanner: closed-form fleet answers from surface points.

The sweep answers "which configuration is best" by simulating every grid
point; this module answers the capacity question — *how many engines for
this arrival rate at this p99 TTFT target* — without simulating at all.
Each shard is modeled as an M/G/1 queue with non-preemptive prefill
priority (prefills always run before decode iterations, exactly the
scheduler's policy, so an arriving prefill waits only for queued
prefills and the decode iteration in progress). Service times come from
the same :class:`~repro.sim.surface.LatencySurface` points the simulator
uses, so the model and the simulator share one notion of hardware speed;
the only thing the planner abstracts away is queueing dynamics.

Model summary, per shard at arrival rate λ:

* a workload sample (:class:`WorkloadModel`) fixes the prompt/output
  length mixture; per-sample prefill latencies and decode spans are read
  off the surface.
* the operating decode batch ``b`` solves the Little's-law fixpoint
  ``b = ceil(λ·E[span(b)] / (1 - ρ_p))`` — the mean number of requests
  inside their decode phase, whose wall-clock duration stretches by the
  prefill share of the server — then escalates while a deeper batch is
  needed to drain the offered decode work (decode cost is sublinear in
  batch, so backlog self-stabilizes at a deeper batch exactly as the
  scheduler's decode list grows toward ``max_batch``).
* utilization splits into prefill work ``ρ_p = λ·E[S_p]`` and decode
  work ``ρ_d = λ·E[span(b)]/b`` (an iteration at batch ``b`` advances
  ``b`` requests). Stability requires ``ρ_p + ρ_d < 1`` at a batch of
  at most ``max_batch``. Past that the scheduler's slot-bounded
  admission holds the excess in the pending queue, which then grows
  without bound, so TTFT diverges along with throughput.
* a new arrival's prefill delay follows the Pollaczek–Khinchine
  high-priority wait ``W = R / (1 - ρ_p)`` with residual work
  ``R = λ·E[S_p²]/2 + P(decode) · d̄(b)/2`` (``d̄``: one decode
  iteration at the mixture's mean context; ``P(decode)`` the chance the
  arrival lands mid-iteration).
* TTFT quantiles come from the mixture CDF of ``wait + prefill(p_i)``
  with an exponential tail on the wait (an atom at zero when the
  arrival finds nothing blocking).
* fleet load splits at the *latency-equalizing* (Wardrop) equilibrium:
  arrivals spread so every shard that receives traffic has the same
  mean TTFT, and shards whose empty-queue TTFT already exceeds that
  level receive none — the idealization of what the predicted-latency
  router converges to. (A fast/slow fleet at moderate load routes
  everything to the fast boxes; capacity-proportional splitting would
  wrongly charge the fleet p99 with slow-box prefills the router never
  schedules.) Shard TTFT mixtures then merge arrival-weighted into
  fleet quantiles.
* ``k`` same-speed shards sharing traffic are not independent queues:
  the router sends each arrival to the currently cheapest shard, which
  in heavy traffic achieves *complete resource pooling* — the group
  behaves like one server of ``k``-fold speed at the same utilization,
  dividing the queueing wait by ``k`` (an M/G/1 with arrival ``kλ``
  and service ``S/k`` has ``E[W] = E[W_1]/k``). The forecast applies
  that pooling factor per same-bandwidth group.

Every number is a handful of dict lookups and bisections — O(1) in
stream length and fleet size, which is what makes
:meth:`CapacityPlanner.engines_for` an interactive query where the sweep
takes minutes. The price is abstraction: KV admission stalls, burst
correlation, routing transients and waits for a free slot just below
saturation are not modeled. The
:func:`validate_planner` harness quantifies that gap against the real
simulator and CI enforces the documented bound
(:data:`PLANNER_P99_REL_ERR_BOUND`).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from ..core.meadow import MeadowEngine
from ..errors import ConfigError
from ..serving.request import LengthDistribution, RequestSource, poisson_stream
from .sweep import SweepDriver

__all__ = [
    "PLANNER_P99_REL_ERR_BOUND",
    "WorkloadModel",
    "ShardForecast",
    "FleetForecast",
    "CapacityPlanner",
    "ValidationRecord",
    "validate_planner",
]

#: Documented planner-vs-simulator relative error bound on p99 TTFT for
#: the benchmark fleet mixes (see ``benchmarks/bench_capacity_planner.py``,
#: which measures and enforces it in CI). The planner abstracts KV
#: admission, slot waits, burst correlation and finite-stream effects,
#: so its p99 is a steady-state estimate, not a replay.
PLANNER_P99_REL_ERR_BOUND = 0.35


@dataclass(frozen=True)
class WorkloadModel:
    """A frozen sample of the request-length mixture.

    The planner is distribution-driven: it needs the joint
    (prompt, output) length mixture, not arrival times. ``from_dists``
    draws the sample the same way the stream generators do (prompt then
    output per request from one seeded RNG), so a planner built from the
    same distributions as a benchmark stream models the same traffic.
    """

    prompt_tokens: Tuple[int, ...]
    output_tokens: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.prompt_tokens:
            raise ConfigError("workload model needs at least one sample")
        if len(self.prompt_tokens) != len(self.output_tokens):
            raise ConfigError(
                f"prompt/output sample lengths differ: "
                f"{len(self.prompt_tokens)} vs {len(self.output_tokens)}"
            )
        if min(self.prompt_tokens) < 1 or min(self.output_tokens) < 1:
            raise ConfigError("workload samples must be >= 1 token")

    @classmethod
    def from_dists(
        cls,
        prompt_dist: LengthDistribution,
        output_dist: LengthDistribution,
        n_samples: int = 128,
        seed: int = 0,
    ) -> "WorkloadModel":
        """Sample the mixture with the stream generators' draw order."""
        if n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
        rng = random.Random(seed)
        prompts: List[int] = []
        outputs: List[int] = []
        for _ in range(n_samples):
            prompts.append(prompt_dist.sample(rng))
            outputs.append(output_dist.sample(rng))
        return cls(tuple(prompts), tuple(outputs))

    @property
    def n_samples(self) -> int:
        return len(self.prompt_tokens)

    @property
    def mean_output_tokens(self) -> float:
        return sum(self.output_tokens) / len(self.output_tokens)


@dataclass(frozen=True)
class ShardForecast:
    """Steady-state prediction for one shard at one arrival rate."""

    bandwidth_gbps: float
    arrival_rate_rps: float
    #: Fraction of the shard's time doing work (prefill + decode).
    utilization: float
    #: ``False`` when offered load exceeds drain capacity. The pending
    #: queue then grows without bound, so TTFT is infinite.
    stable: bool
    #: Operating decode batch (Little's-law fixpoint, clamped to
    #: [1, max_batch]; 0 for a shard the router sends no traffic).
    decode_batch: int
    ttft_p50_s: float
    ttft_p99_s: float
    #: Delivered generation throughput (tokens/s), capacity-capped when
    #: unstable.
    throughput_tok_s: float


@dataclass(frozen=True)
class FleetForecast:
    """Fleet-level steady-state prediction (merged over shards)."""

    n_engines: int
    rate_rps: float
    shards: Tuple[ShardForecast, ...]
    ttft_p50_s: float
    ttft_p99_s: float
    throughput_tok_s: float
    #: Arrival-weighted mean shard utilization.
    utilization: float
    stable: bool

    def format_report(self) -> str:
        lines = [
            f"capacity forecast: {self.n_engines} engine(s) at "
            f"{self.rate_rps:.3f} req/s — "
            + ("stable" if self.stable else "OVERLOADED"),
            f"  utilization {self.utilization * 100:.1f}%   "
            f"throughput {self.throughput_tok_s:.1f} tok/s",
            f"  TTFT p50 {_fmt_ms(self.ttft_p50_s)}   "
            f"p99 {_fmt_ms(self.ttft_p99_s)}",
        ]
        for i, s in enumerate(self.shards):
            lines.append(
                f"  shard {i} ({s.bandwidth_gbps:g} Gbps): "
                f"{s.arrival_rate_rps:.3f} req/s  "
                f"rho {s.utilization * 100:.1f}%  batch {s.decode_batch}  "
                f"p99 TTFT {_fmt_ms(s.ttft_p99_s)}"
            )
        return "\n".join(lines)


def _fmt_ms(seconds: float) -> str:
    return "inf" if math.isinf(seconds) else f"{seconds * 1e3:.3f} ms"


@dataclass(frozen=True)
class _WaitParams:
    """Solved queueing state of one shard at one arrival rate."""

    batch: int
    rho_p: float
    rho_d: float
    #: Total utilization (can exceed 1: offered load, not time share).
    rho: float
    #: Probability an arriving prefill finds blocking work (queued
    #: prefills or a decode iteration in progress).
    rho_wait: float
    #: P-K mean wait before the arrival's own prefill starts.
    mean_wait_s: float


class _ShardModel:
    """Analytical service model of one engine under one workload.

    Per-sample prefill latencies are computed once; per-batch decode
    spans are memoized surface walks. After warm-up every steady-state
    solve is O(max_batch) float arithmetic — no per-sample loops — so
    the Wardrop split's nested bisections stay interactive.
    """

    def __init__(
        self,
        engine: MeadowEngine,
        workload: WorkloadModel,
        max_batch: int,
        ctx_bucket: int,
    ) -> None:
        max_len = engine.model.max_seq_len
        if max(workload.prompt_tokens) >= max_len:
            raise ConfigError(
                f"workload prompt of {max(workload.prompt_tokens)} tokens "
                f"does not fit model max_seq_len {max_len}"
            )
        self.engine = engine
        self.workload = workload
        self.max_batch = max_batch
        self.ctx_bucket = ctx_bucket
        surface = engine.surface
        self.prefill_s = tuple(
            surface.prefill(p).latency_s for p in workload.prompt_tokens
        )
        n = workload.n_samples
        self.mean_prefill_s = sum(self.prefill_s) / n
        self.mean_prefill_sq = sum(s * s for s in self.prefill_s) / n
        self._mean_spans: Dict[int, float] = {}
        self._mean_steps: Dict[int, float] = {}

    # ------------------------------------------------------------ service
    def decode_spans(self, batch: int) -> Tuple[float, ...]:
        """Per-sample decode-phase duration at a fixed batch size.

        Walks contexts ``p+1 .. p+o-1`` in :meth:`LatencySurface
        .decode_run` jumps (``o-1`` post-prefill tokens), mirroring the
        scheduler's bucketed lookups, clamped at the model's context
        window the same way the scheduler saturates.
        """
        surface = self.engine.surface
        max_len = self.engine.model.max_seq_len
        out: List[float] = []
        for p, o in zip(self.workload.prompt_tokens, self.workload.output_tokens):
            total = 0.0
            ctx = p + 1
            end = min(p + o - 1, max_len)
            while ctx <= end:
                point, run = surface.decode_run(
                    ctx, batch=batch, ctx_bucket=self.ctx_bucket
                )
                take = min(run, end - ctx + 1)
                total += take * point.latency_s
                ctx += take
            out.append(total)
        return tuple(out)

    def mean_span_s(self, batch: int) -> float:
        span = self._mean_spans.get(batch)
        if span is None:
            spans = self.decode_spans(batch)
            span = sum(spans) / len(spans)
            self._mean_spans[batch] = span
        return span

    def mean_step_s(self, batch: int) -> float:
        """One decode iteration at the mixture's mean context."""
        step = self._mean_steps.get(batch)
        if step is None:
            mean_ctx = int(
                sum(self.workload.prompt_tokens) / self.workload.n_samples
                + self.workload.mean_output_tokens / 2
            )
            mean_ctx = max(1, min(mean_ctx, self.engine.model.max_seq_len))
            point, _ = self.engine.surface.decode_run(
                mean_ctx, batch=batch, ctx_bucket=self.ctx_bucket
            )
            step = point.latency_s
            self._mean_steps[batch] = step
        return step

    @property
    def max_rate_rps(self) -> float:
        """Just below drain capacity — beyond it TTFT is unbounded."""
        return 0.99 * self._capacity_rps()

    # ------------------------------------------------------ steady state
    def wait_params(self, rate_rps: float) -> _WaitParams:
        """Solve the shard's queueing state at one arrival rate."""
        if not 0 < rate_rps < math.inf:
            raise ConfigError(f"rate_rps must be positive and finite, got {rate_rps}")
        rho_p = rate_rps * self.mean_prefill_s
        decode_share = max(1e-9, 1.0 - rho_p)

        batch = 1
        seen = set()
        for _ in range(2 * self.max_batch + 4):
            target = max(1, min(
                self.max_batch,
                math.ceil(rate_rps * self.mean_span_s(batch) / decode_share),
            ))
            if target == batch:
                break
            if target in seen:
                batch = max(batch, target)
                break
            seen.add(batch)
            batch = target
        # Escalate while this batch cannot drain the offered decode work
        # (λ·E[span(b)]/b server-seconds per second against the
        # ``1 - ρ_p`` share prefills leave) but a deeper one could.
        while (
            batch < self.max_batch
            and rate_rps * self.mean_span_s(batch) / batch >= decode_share
        ):
            batch += 1

        rho_d = rate_rps * self.mean_span_s(batch) / batch
        rho = rho_p + rho_d
        p_decode = min(rho_d, decode_share)
        residual = (
            rate_rps * self.mean_prefill_sq / 2.0
            + p_decode * self.mean_step_s(batch) / 2.0
        )
        return _WaitParams(
            batch=batch,
            rho_p=rho_p,
            rho_d=rho_d,
            rho=rho,
            rho_wait=min(1.0, rho_p + p_decode),
            mean_wait_s=residual / decode_share,
        )

    def mean_ttft_s(self, rate_rps: float) -> float:
        """Mean TTFT at one rate — the Wardrop equilibrium's currency."""
        if rate_rps <= 0.0:
            return self.mean_prefill_s
        params = self.wait_params(rate_rps)
        if params.rho >= 1.0:
            return math.inf
        return params.mean_wait_s + self.mean_prefill_s

    def rate_for_mean_ttft(self, target_s: float) -> float:
        """The arrival rate at which mean TTFT reaches ``target_s``.

        Zero when even an empty queue exceeds the target (the router
        sends such a shard nothing); capped just below drain capacity.
        """
        if target_s <= self.mean_prefill_s:
            return 0.0
        lo, hi = 0.0, self.max_rate_rps
        if self.mean_ttft_s(hi) <= target_s:
            return hi
        for _ in range(50):
            mid = (lo + hi) / 2.0
            if self.mean_ttft_s(mid) <= target_s:
                lo = mid
            else:
                hi = mid
        return lo

    def solve(
        self, rate_rps: float, bandwidth_gbps: float, pooling: int = 1
    ) -> ShardForecast:
        """Steady-state forecast of this shard at ``rate_rps`` arrivals.

        ``rate_rps == 0`` yields the idle forecast (the Wardrop split
        legitimately starves slow shards at moderate load). ``pooling``
        is the number of same-speed shards this one shares traffic
        with — the router's load balancing divides queueing wait across
        the group (complete resource pooling).
        """
        mean_out = self.workload.mean_output_tokens
        if rate_rps <= 0.0:
            cdf = self.ttft_cdf(0.0, 0.0)
            return ShardForecast(
                bandwidth_gbps=bandwidth_gbps,
                arrival_rate_rps=0.0,
                utilization=0.0,
                stable=True,
                decode_batch=0,
                ttft_p50_s=_quantile(cdf, 0.50, max(self.prefill_s) + 1e-9),
                ttft_p99_s=_quantile(cdf, 0.99, max(self.prefill_s) + 1e-9),
                throughput_tok_s=0.0,
            )
        params = self.wait_params(rate_rps)
        if params.rho >= 1.0:
            # Past drain capacity even at max_batch: admission holds the
            # excess in a pending queue that grows without bound.
            return ShardForecast(
                bandwidth_gbps=bandwidth_gbps,
                arrival_rate_rps=rate_rps,
                utilization=params.rho,
                stable=False,
                decode_batch=params.batch,
                ttft_p50_s=math.inf,
                ttft_p99_s=math.inf,
                throughput_tok_s=self._capacity_rps() * mean_out,
            )
        wait = params.mean_wait_s / max(1, pooling)
        cdf = self.ttft_cdf(params.rho_wait, wait)
        hi = self._ttft_hi(params.rho_wait, wait)
        return ShardForecast(
            bandwidth_gbps=bandwidth_gbps,
            arrival_rate_rps=rate_rps,
            utilization=params.rho,
            stable=True,
            decode_batch=params.batch,
            ttft_p50_s=_quantile(cdf, 0.50, hi),
            ttft_p99_s=_quantile(cdf, 0.99, hi),
            throughput_tok_s=rate_rps * mean_out,
        )

    def _capacity_rps(self) -> float:
        """Drain capacity at the deepest batch (request completions/s)."""
        return 1.0 / (
            self.mean_prefill_s + self.mean_span_s(self.max_batch) / self.max_batch
        )

    def ttft_cdf(
        self, rho_wait: float, mean_wait_s: float
    ) -> Callable[[float], float]:
        """CDF of TTFT = wait + prefill(p_i) over the length mixture.

        The wait is zero with probability ``1 - rho_wait`` (arrival
        finds nothing blocking) and exponential with mean
        ``mean_wait_s / rho_wait`` otherwise, preserving the P-K mean
        exactly.
        """
        prefills = self.prefill_s
        n = len(prefills)

        def cdf(t: float) -> float:
            total = 0.0
            for s in prefills:
                dt = t - s
                if dt < 0:
                    continue
                if rho_wait <= 0.0 or mean_wait_s <= 0.0:
                    total += 1.0
                else:
                    total += 1.0 - rho_wait * math.exp(
                        -dt * rho_wait / mean_wait_s
                    )
            return total / n

        return cdf

    def _ttft_hi(self, rho_wait: float, mean_wait_s: float) -> float:
        """An upper bracket for TTFT quantile bisection."""
        hi = max(self.prefill_s)
        if rho_wait > 0.0 and mean_wait_s > 0.0:
            hi += (mean_wait_s / rho_wait) * math.log(1e4)
        return hi * 1.5 + 1e-9


def _quantile(cdf: Callable[[float], float], q: float, hi: float) -> float:
    """Invert a monotone CDF by bisection on [0, hi]."""
    while cdf(hi) < q:
        hi *= 2.0
    lo = 0.0
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if cdf(mid) >= q:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2.0


class CapacityPlanner:
    """O(1) capacity answers for fleets cloned off one base deployment.

    Mirrors :class:`~repro.fleet.sweep.SweepDriver`'s fleet shape —
    one engine per distinct bandwidth, profile cycled across shards —
    but replaces simulation with per-shard steady-state queueing solved
    from surface points.

    Args:
        base_engine: deployment to fan out (shares planner/surface
            conventions with the sweep driver).
        bandwidths_gbps: per-shard bandwidth profile, cycled like
            :meth:`SweepDriver.fleet_profile`.
        workload: the request-length mixture to plan for.
        max_batch / ctx_bucket: the scheduler knobs the fleet would run
            with — they change modeled decode cost, so they change
            capacity.
        surface_store: optional :class:`~repro.sim.SurfaceStore`,
            forwarded to the internal :class:`SweepDriver` so shard
            surfaces warm-start across runs; call
            ``planner.driver.save_surfaces()`` to persist discoveries.
    """

    def __init__(
        self,
        base_engine: MeadowEngine,
        bandwidths_gbps: Sequence[float],
        workload: WorkloadModel,
        max_batch: int = 16,
        ctx_bucket: int = 1,
        surface_store=None,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if ctx_bucket < 1:
            raise ConfigError(f"ctx_bucket must be >= 1, got {ctx_bucket}")
        self.driver = SweepDriver(
            base_engine, bandwidths_gbps, surface_store=surface_store
        )
        self.workload = workload
        self.max_batch = max_batch
        self.ctx_bucket = ctx_bucket
        self._models: Dict[float, _ShardModel] = {}

    def shard_model(self, bandwidth_gbps: float) -> _ShardModel:
        model = self._models.get(bandwidth_gbps)
        if model is None:
            model = _ShardModel(
                self.driver.engine_for(bandwidth_gbps),
                self.workload,
                self.max_batch,
                self.ctx_bucket,
            )
            self._models[bandwidth_gbps] = model
        return model

    # ------------------------------------------------------------- split
    def _split_rates(
        self, models: Sequence[_ShardModel], rate_rps: float
    ) -> List[float]:
        """Wardrop-equilibrium load split across (possibly unequal) shards.

        Bisects the common mean-TTFT level until the shard rates it
        implies absorb the offered load; shards whose empty-queue TTFT
        exceeds the level receive zero. When the fleet cannot absorb the
        load below drain capacity, the load spreads in proportion to
        each shard's capacity (every shard then reports instability).
        """
        if len(models) == 1:
            return [rate_rps]
        ceiling = sum(m.max_rate_rps for m in models)
        if rate_rps >= ceiling:
            return [
                rate_rps * m.max_rate_rps / ceiling for m in models
            ]
        lo = min(m.mean_prefill_s for m in models)
        hi = max(m.mean_prefill_s for m in models) * 2.0
        while sum(m.rate_for_mean_ttft(hi) for m in models) < rate_rps:
            hi *= 2.0
        for _ in range(50):
            mid = (lo + hi) / 2.0
            if sum(m.rate_for_mean_ttft(mid) for m in models) >= rate_rps:
                hi = mid
            else:
                lo = mid
        rates = [m.rate_for_mean_ttft(hi) for m in models]
        # Close the bisection residual so the split sums exactly.
        total = sum(rates)
        if total <= 0.0:
            return [rate_rps / len(models)] * len(models)
        return [r * rate_rps / total for r in rates]

    # ---------------------------------------------------------- forecasts
    def forecast(self, n_engines: int, rate_rps: float) -> FleetForecast:
        """Steady-state fleet forecast at ``rate_rps`` total arrivals."""
        if not 0 < rate_rps < math.inf:
            raise ConfigError(f"rate_rps must be positive and finite, got {rate_rps}")
        profile = self.driver.fleet_profile(n_engines)
        models = [self.shard_model(b) for b in profile]
        rates = self._split_rates(models, rate_rps)
        # Same-bandwidth shards with traffic form one pooled group: the
        # router balances arrivals across them, dividing queueing wait.
        pooling: Dict[float, int] = {}
        for b, r in zip(profile, rates):
            if r > 0.0:
                pooling[b] = pooling.get(b, 0) + 1
        shards = tuple(
            m.solve(r, b, pooling=pooling.get(b, 1))
            for m, r, b in zip(models, rates, profile)
        )
        stable = all(s.stable for s in shards)
        throughput = sum(s.throughput_tok_s for s in shards)
        utilization = sum(
            s.utilization * s.arrival_rate_rps for s in shards
        ) / rate_rps
        finite = all(
            math.isfinite(s.ttft_p99_s)
            for s in shards
            if s.arrival_rate_rps > 0.0
        )
        if not finite:
            p50 = p99 = math.inf
        else:
            cdfs = []
            hi = 0.0
            for m, s, b in zip(models, shards, profile):
                if s.arrival_rate_rps <= 0.0:
                    continue
                params = m.wait_params(s.arrival_rate_rps)
                wait = params.mean_wait_s / max(1, pooling.get(b, 1))
                cdfs.append((
                    s.arrival_rate_rps,
                    m.ttft_cdf(params.rho_wait, wait),
                ))
                hi = max(hi, m._ttft_hi(params.rho_wait, wait))

            def merged(t: float) -> float:
                return sum(r * cdf(t) for r, cdf in cdfs) / rate_rps

            p50 = _quantile(merged, 0.50, hi)
            p99 = _quantile(merged, 0.99, hi)
        return FleetForecast(
            n_engines=n_engines,
            rate_rps=rate_rps,
            shards=shards,
            ttft_p50_s=p50,
            ttft_p99_s=p99,
            throughput_tok_s=throughput,
            utilization=utilization,
            stable=stable,
        )

    def engines_for(
        self,
        target_p99_ttft_s: float,
        rate_rps: float,
        max_engines: int = 64,
    ) -> FleetForecast:
        """Smallest stable fleet meeting the p99 TTFT target.

        Scans fleet sizes upward (each probe is O(1), so the scan is
        interactive even at hundreds of engines) and returns the first
        :class:`FleetForecast` that is throughput-stable with
        ``ttft_p99_s`` within target. Raises :class:`ConfigError` when
        even ``max_engines`` cannot meet it — e.g. a target below the
        no-load floor (the p99 prompt's prefill latency on the fastest
        shard).
        """
        if not target_p99_ttft_s > 0:
            raise ConfigError(
                f"target_p99_ttft_s must be positive, got {target_p99_ttft_s}"
            )
        last = None
        for n in range(1, max_engines + 1):
            forecast = self.forecast(n, rate_rps)
            last = forecast
            if forecast.stable and forecast.ttft_p99_s <= target_p99_ttft_s:
                return forecast
        assert last is not None
        raise ConfigError(
            f"no fleet of <= {max_engines} engines meets p99 TTFT "
            f"{target_p99_ttft_s * 1e3:.3f} ms at {rate_rps:g} req/s "
            f"(best at {max_engines}: {_fmt_ms(last.ttft_p99_s)})"
        )


# ------------------------------------------------------------- validation
@dataclass(frozen=True)
class ValidationRecord:
    """One planner-vs-simulator comparison point."""

    n_engines: int
    rate_rps: float
    n_requests: int
    predicted_p99_ttft_s: float
    simulated_p99_ttft_s: float
    rel_err: float

    def to_dict(self) -> Dict[str, float]:
        return {
            "n_engines": self.n_engines,
            "rate_rps": self.rate_rps,
            "n_requests": self.n_requests,
            "predicted_p99_ttft_s": self.predicted_p99_ttft_s,
            "simulated_p99_ttft_s": self.simulated_p99_ttft_s,
            "rel_err": self.rel_err,
        }


def validate_planner(
    planner: CapacityPlanner,
    prompt_dist: LengthDistribution,
    output_dist: LengthDistribution,
    mixes: Sequence[Tuple[int, float, int]],
    seed: int = 0,
    policy: str = "predicted-latency",
) -> List[ValidationRecord]:
    """Compare planner p99 TTFT against full fleet simulations.

    ``mixes`` is a sequence of ``(n_engines, rate_rps, n_requests)``
    scenarios; each is simulated as a seeded Poisson stream on the
    planner's fleet shape (same bandwidth profile, knobs and length
    distributions) and compared to :meth:`CapacityPlanner.forecast`.
    Returns one record per mix — callers assert ``rel_err`` against
    :data:`PLANNER_P99_REL_ERR_BOUND` (the benchmark does, in CI).
    """
    records: List[ValidationRecord] = []
    for n_engines, rate_rps, n_requests in mixes:
        source: RequestSource = poisson_stream(
            n_requests=n_requests,
            rate_rps=rate_rps,
            prompt_dist=prompt_dist,
            output_dist=output_dist,
            seed=seed,
        )
        report = planner.driver.run_point(
            source,
            n_engines,
            policy,
            max_batch=planner.max_batch,
            ctx_bucket=planner.ctx_bucket,
        )
        simulated = report.metrics.ttft.p99_s
        predicted = planner.forecast(n_engines, rate_rps).ttft_p99_s
        if simulated <= 0:
            raise ConfigError(
                f"mix ({n_engines}, {rate_rps}, {n_requests}) produced "
                f"no TTFT sample to validate against"
            )
        rel_err = (
            math.inf if math.isinf(predicted)
            else abs(predicted - simulated) / simulated
        )
        records.append(
            ValidationRecord(
                n_engines=n_engines,
                rate_rps=rate_rps,
                n_requests=n_requests,
                predicted_p99_ttft_s=predicted,
                simulated_p99_ttft_s=simulated,
                rel_err=rel_err,
            )
        )
    return records
