"""SweepDriver: Pareto fronts over fleet size, routing policy and knobs.

PR 2's :class:`~repro.sim.surface.LatencySurface` made one engine
evaluation a dict lookup per repeated operating point; this driver
makes *fleet design* questions cheap the same way. It clones one base
deployment across a bandwidth profile (clones share the packing
planner, so packing statistics are derived once for the whole sweep),
caches one engine per distinct bandwidth (so every grid point reuses
every surface point any earlier grid point simulated), and evaluates a
``(n_engines x policy x max_batch x ctx_bucket x steal)`` grid of
fleet simulations against regenerated seeded scenarios, optionally
filtered to an energy-per-token ceiling before Pareto extraction.

The output is the capacity planner's curve: each grid point carries
aggregate tokens/s and p99 TTFT / TBT, and :meth:`FleetSweepResult
.pareto_front` extracts the non-dominated set (maximize throughput,
minimize both tails). :meth:`FleetSweepResult.to_json` emits a
versioned document the `repro fleet --sweep --json` CLI writes and CI's
smoke job validates.

Grid points are independent, so :meth:`SweepDriver.sweep` can fan them
out across a ``ProcessPoolExecutor`` (``workers=N``). The parent
broadcasts its warm surface points (``export_points()`` entries) to
each worker once at pool start, workers ship back only the surface
points they newly discover with each result, and the parent merges those
deltas — so later grid points still benefit from earlier points' work,
just like the serial walk. Results are bit-identical to the serial walk
in deterministic grid order: surface values are exact whether warm or
cold, the parent materializes every (seeded) source itself, and results
are collected in submission order.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from ..sim.surface_store import SurfaceStore

from ..core.meadow import MeadowEngine
from ..errors import ConfigError, check_count, check_real
from ..models import Stage
from ..serving.request import RequestSource
from ..serving.scheduler import check_kv_budget
from .faults import make_fault_schedule
from .routing import POLICY_NAMES, make_policy
from .simulator import FleetReport, FleetSimulator

__all__ = ["SWEEP_SCHEMA_VERSION", "SweepPoint", "FleetSweepResult", "SweepDriver"]

#: Version stamped into sweep JSON documents; bump on schema changes.
#: v2 added the energy axis (``energy_uj`` / ``energy_per_token_uj``).
#: v3 added the work-stealing axis (``steal``) and the optional
#: ``filters`` block (``max_energy_per_token_uj``).
#: v4 added the fault-scenario axis (``faults``): each point names the
#: seeded chaos scenario it ran under (``"none"`` = fault-free).
SWEEP_SCHEMA_VERSION = 4


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated fleet configuration and its headline metrics."""

    n_engines: int
    policy: str
    max_batch: int
    ctx_bucket: int
    bandwidths_gbps: Tuple[float, ...]
    throughput_tok_s: float
    ttft_p50_s: float
    ttft_p99_s: float
    tbt_p50_s: float
    tbt_p99_s: float
    e2e_p99_s: float
    n_requests: int
    total_generated_tokens: int
    duration_s: float
    max_queue_depth: int
    peak_kv_fraction: float
    #: Modeled energy of every iteration the fleet executed, summed from
    #: the shards' surface points — the power-budget axis the paper
    #: targets. Reported (and selectable via :meth:`FleetSweepResult
    #: .best_by`), not a Pareto-front objective.
    energy_uj: float = 0.0
    energy_per_token_uj: float = 0.0
    #: Whether the fleet ran with work stealing enabled (v3 grid axis).
    steal: bool = False
    #: The named fault scenario the point ran under (v4 grid axis);
    #: ``"none"`` means an empty fault heap.
    faults: str = "none"

    def key(self) -> Tuple[int, str, int, int, bool, str]:
        """The configuration axes identifying this grid point."""
        return (
            self.n_engines, self.policy, self.max_batch,
            self.ctx_bucket, self.steal, self.faults,
        )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (tuples become lists)."""
        d = asdict(self)
        d["bandwidths_gbps"] = list(self.bandwidths_gbps)
        return d


def _dominates(a: SweepPoint, b: SweepPoint) -> bool:
    """Pareto dominance: no worse on all objectives, better on one.

    Objectives: maximize ``throughput_tok_s``; minimize ``ttft_p99_s``
    and ``tbt_p99_s``. The energy axis (``energy_uj`` /
    ``energy_per_token_uj``) is deliberately *not* an objective — the
    front stays comparable across schema versions; energy-constrained
    planners read it off the points or pick via
    ``best_by("energy_per_token_uj")``.
    """
    no_worse = (
        a.throughput_tok_s >= b.throughput_tok_s
        and a.ttft_p99_s <= b.ttft_p99_s
        and a.tbt_p99_s <= b.tbt_p99_s
    )
    strictly_better = (
        a.throughput_tok_s > b.throughput_tok_s
        or a.ttft_p99_s < b.ttft_p99_s
        or a.tbt_p99_s < b.tbt_p99_s
    )
    return no_worse and strictly_better


@dataclass(frozen=True)
class FleetSweepResult:
    """Every grid point of one sweep, with Pareto extraction."""

    model_name: str
    plan_name: str
    source_name: str
    points: Tuple[SweepPoint, ...]
    #: Energy ceiling (uJ/token) the grid was filtered by before Pareto
    #: extraction; ``None`` when unconstrained.
    max_energy_per_token_uj: Optional[float] = None

    def pareto_front(self) -> Tuple[SweepPoint, ...]:
        """Non-dominated points, ordered by descending throughput.

        A point survives unless some other point is at least as good on
        throughput and both latency tails and strictly better on one;
        ties (identical objectives) all survive, so the front is never
        empty for a non-empty sweep.
        """
        front = [
            p
            for p in self.points
            if not any(_dominates(q, p) for q in self.points)
        ]
        front.sort(
            key=lambda p: (-p.throughput_tok_s, p.ttft_p99_s, p.tbt_p99_s)
        )
        return tuple(front)

    def best_by(self, attribute: str, minimize: bool = True) -> SweepPoint:
        """The grid point extremal in one metric (ties: first in grid order).

        Raises :class:`ConfigError` naming the valid attributes when
        ``attribute`` is not a :class:`SweepPoint` field.
        """
        if not self.points:
            raise ConfigError("sweep produced no points")
        valid = tuple(f.name for f in fields(SweepPoint))
        if attribute not in valid:
            raise ConfigError(
                f"unknown sweep attribute {attribute!r}; valid attributes "
                f"are: {', '.join(valid)}"
            )
        values = [getattr(p, attribute) for p in self.points]
        pick = min(values) if minimize else max(values)
        return self.points[values.index(pick)]

    def to_json(self) -> Dict[str, Any]:
        """Versioned JSON document: grid, objectives and Pareto front."""
        front = self.pareto_front()
        front_keys = {p.key() for p in front}
        points = []
        for p in self.points:
            d = p.to_dict()
            d["pareto"] = p.key() in front_keys
            points.append(d)
        doc = {
            "version": SWEEP_SCHEMA_VERSION,
            "model": self.model_name,
            "plan": self.plan_name,
            "source": self.source_name,
            "objectives": {
                "throughput_tok_s": "max",
                "ttft_p99_s": "min",
                "tbt_p99_s": "min",
            },
            "points": points,
            "pareto_front": [p.to_dict() for p in front],
        }
        if self.max_energy_per_token_uj is not None:
            doc["filters"] = {
                "max_energy_per_token_uj": self.max_energy_per_token_uj
            }
        return doc

    def format_table(self) -> str:
        """Fixed-width text table with Pareto markers."""
        from ..analysis import format_table

        front_keys = {p.key() for p in self.pareto_front()}
        rows = [
            [
                p.n_engines,
                p.policy,
                p.max_batch,
                p.ctx_bucket,
                "on" if p.steal else "",
                p.faults if p.faults != "none" else "",
                f"{p.throughput_tok_s:.1f}",
                f"{p.ttft_p99_s * 1e3:.3f}",
                f"{p.tbt_p99_s * 1e3:.3f}",
                "*" if p.key() in front_keys else "",
            ]
            for p in self.points
        ]
        return format_table(
            [
                "engines",
                "policy",
                "max_batch",
                "ctx_bucket",
                "steal",
                "faults",
                "tok/s",
                "p99 TTFT (ms)",
                "p99 TBT (ms)",
                "Pareto",
            ],
            rows,
        )


class SweepDriver:
    """Evaluate fleet configuration grids from one base deployment.

    Args:
        base_engine: the deployment to fan out. Clones share its
            packing planner (stats are model/packing-scoped), and one
            engine is cached per distinct bandwidth so surfaces warm
            monotonically across the whole sweep.
        bandwidths_gbps: the fleet's per-shard bandwidth profile. A
            fleet of ``k`` engines takes the first ``k`` entries,
            cycling when ``k`` exceeds the profile — so ``[12, 1]``
            at ``k=4`` is two fast and two slow boxes.
        kv_budget_bytes: optional per-shard override, broadcast or
            cycled like the bandwidth profile.
        surface_store: optional :class:`~repro.sim.SurfaceStore`. Each
            engine warm-starts from the store the moment
            :meth:`engine_for` creates it; call :meth:`save_surfaces`
            after a sweep to append what the run discovered. Numbers
            are identical either way — the store only skips
            re-simulating known points.
    """

    def __init__(
        self,
        base_engine: MeadowEngine,
        bandwidths_gbps: Sequence[float],
        kv_budget_bytes: Optional[Sequence[Optional[int]]] = None,
        surface_store: Optional["SurfaceStore"] = None,
    ) -> None:
        if not bandwidths_gbps:
            raise ConfigError("bandwidths_gbps must not be empty")
        self.base_engine = base_engine
        self.bandwidths_gbps = tuple(
            float(check_real("bandwidths_gbps", b, 0, math.inf, "(]"))
            for b in bandwidths_gbps
        )
        self.kv_budget_bytes = None if kv_budget_bytes is None else tuple(
            check_kv_budget("kv_budget_bytes", b) for b in kv_budget_bytes
        )
        if self.kv_budget_bytes is not None and len(self.kv_budget_bytes) != len(
            self.bandwidths_gbps
        ):
            raise ConfigError(
                "kv_budget_bytes must match bandwidths_gbps in length"
            )
        self.surface_store = surface_store
        self._engines: Dict[float, MeadowEngine] = {}
        self._store_loaded: Dict[float, int] = {}

    def engine_for(self, bandwidth_gbps: float) -> MeadowEngine:
        """The cached clone of the base deployment at one bandwidth."""
        engine = self._engines.get(bandwidth_gbps)
        if engine is None:
            if bandwidth_gbps == self.base_engine.config.dram_bandwidth_gbps:
                engine = self.base_engine
            else:
                engine = self.base_engine.clone(
                    config=self.base_engine.config.with_bandwidth(bandwidth_gbps)
                )
            self._engines[bandwidth_gbps] = engine
            if self.surface_store is not None:
                self._store_loaded[bandwidth_gbps] = self.surface_store.load(
                    engine
                )
        return engine

    def save_surfaces(self) -> Tuple[int, int]:
        """Append every cached engine's surface to the store.

        Returns ``(new_points, warm_points)``: how many exact points
        this driver's runs discovered beyond what the store supplied,
        and how many the store supplied. ``(0, 0)`` without a store.
        A parallel sweep's worker discoveries count too — they were
        merged back into the parent engines with each result.
        """
        if self.surface_store is None:
            return (0, 0)
        new = warm = 0
        for bandwidth, engine in sorted(self._engines.items()):
            loaded = self._store_loaded.get(bandwidth, 0)
            warm += loaded
            new += max(0, len(engine.surface) - loaded)
            self.surface_store.save(engine)
        return new, warm

    def fleet_profile(self, n_engines: int) -> Tuple[float, ...]:
        """Bandwidths of a fleet of ``n_engines`` (profile cycled)."""
        n_engines = check_count("n_engines", n_engines)
        profile = self.bandwidths_gbps
        return tuple(profile[i % len(profile)] for i in range(n_engines))

    def run_point(
        self,
        source: RequestSource,
        n_engines: int,
        policy: str,
        max_batch: int = 16,
        ctx_bucket: int = 1,
        steal: bool = False,
        faults: str = "none",
        fault_seed: int = 0,
    ) -> FleetReport:
        """Evaluate one grid point (exposed for benchmarks and tests).

        ``faults`` names a seeded chaos scenario from
        :data:`~repro.fleet.faults.FAULT_SCENARIOS`; ``"none"`` keeps
        the exact fault-free code path.
        """
        profile = self.fleet_profile(n_engines)
        engines = [self.engine_for(b) for b in profile]
        budgets = None
        if self.kv_budget_bytes is not None:
            budgets = [
                self.kv_budget_bytes[i % len(self.kv_budget_bytes)]
                for i in range(n_engines)
            ]
        fleet = FleetSimulator(
            engines,
            policy=make_policy(policy),
            kv_budget_bytes=budgets,
            max_batch=max_batch,
            ctx_bucket=ctx_bucket,
            steal=steal,
            faults=None if faults == "none" else faults,
            fault_seed=fault_seed,
        )
        return fleet.run(source)

    def evaluate_point(
        self, source: RequestSource, grid_point: "_GridPoint"
    ) -> SweepPoint:
        """Evaluate one grid configuration into its :class:`SweepPoint`.

        Pure in the sweep sense: configuration and a fresh source in,
        one frozen result row out; the only driver state touched is the
        append-only surface cache. This is the task the parallel path
        ships to workers.
        """
        gp = grid_point
        report = self.run_point(
            source, gp.n_engines, gp.policy, gp.max_batch,
            gp.ctx_bucket, steal=gp.steal,
            faults=gp.faults, fault_seed=gp.fault_seed,
        )
        m = report.metrics
        energy_uj = sum(
            r.total_energy_uj for r in report.result.shard_results
        )
        return SweepPoint(
            n_engines=gp.n_engines,
            policy=gp.policy,
            max_batch=gp.max_batch,
            ctx_bucket=gp.ctx_bucket,
            bandwidths_gbps=self.fleet_profile(gp.n_engines),
            throughput_tok_s=m.throughput_tok_s,
            ttft_p50_s=m.ttft.p50_s,
            ttft_p99_s=m.ttft.p99_s,
            tbt_p50_s=m.tbt.p50_s,
            tbt_p99_s=m.tbt.p99_s,
            e2e_p99_s=m.e2e.p99_s,
            n_requests=m.n_requests,
            total_generated_tokens=m.total_generated_tokens,
            duration_s=m.duration_s,
            max_queue_depth=m.max_queue_depth,
            peak_kv_fraction=m.peak_kv_fraction,
            energy_uj=energy_uj,
            energy_per_token_uj=(
                energy_uj / m.total_generated_tokens
                if m.total_generated_tokens
                else 0.0
            ),
            steal=gp.steal,
            faults=gp.faults,
        )

    @staticmethod
    def grid_points(
        n_engines_grid: Sequence[int],
        policies: Sequence[str],
        max_batch_grid: Sequence[int],
        ctx_bucket_grid: Sequence[int],
        steal_grid: Sequence[bool],
        faults_grid: Sequence[str] = ("none",),
        fault_seed: int = 0,
    ) -> List["_GridPoint"]:
        """The deterministic grid order shared by serial and parallel
        sweeps: engines, then policy, then max_batch, then ctx_bucket,
        then steal, then faults. Every value is checked here, before
        any point runs: counts by the count rule, policy and fault
        scenario names by building what they name."""
        n_engines_grid = [check_count("n_engines", n) for n in n_engines_grid]
        max_batch_grid = [check_count("max_batch", b) for b in max_batch_grid]
        ctx_bucket_grid = [check_count("ctx_bucket", c) for c in ctx_bucket_grid]
        fault_seed = check_count("fault_seed", fault_seed, None)
        for policy in policies:
            make_policy(policy)
        for faults in faults_grid:
            if faults != "none":
                make_fault_schedule(faults, 1, 1.0)
        return [
            _GridPoint(
                n_engines, policy, max_batch, ctx_bucket, steal,
                faults, fault_seed,
            )
            for n_engines in n_engines_grid
            for policy in policies
            for max_batch in max_batch_grid
            for ctx_bucket in ctx_bucket_grid
            for steal in steal_grid
            for faults in faults_grid
        ]

    def _sweep_parallel(
        self,
        grid: Sequence["_GridPoint"],
        sources: Sequence[RequestSource],
        workers: int,
    ) -> List[SweepPoint]:
        """Fan the grid over a process pool; bit-identical to serial.

        The parent pre-materializes every engine the grid can touch and
        broadcasts their ``export_points()`` entries through the pool
        initializer, so children start as warm as the parent. Each task
        returns its :class:`SweepPoint` plus the surface points that
        worker discovered since it last shipped any; the parent merges the
        deltas so the warm cache survives the sweep exactly as in the
        serial walk. Futures are collected in submission order, so point
        order — and therefore the versioned Pareto JSON — is identical.
        """
        from concurrent.futures import ProcessPoolExecutor

        for gp in grid:
            for bandwidth in set(self.fleet_profile(gp.n_engines)):
                self.engine_for(bandwidth)
        payload = (
            # A clone has an empty surface: the base engine's points
            # travel as entries too, not pickled inside it.
            self.base_engine.clone(),
            self.bandwidths_gbps,
            self.kv_budget_bytes,
            {
                bandwidth: engine.surface.export_points()
                for bandwidth, engine in self._engines.items()
            },
        )
        points: List[SweepPoint] = []
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_sweep_worker,
            initargs=(payload,),
        ) as pool:
            futures = [
                pool.submit(_run_sweep_task, gp, source)
                for gp, source in zip(grid, sources)
            ]
            for future in futures:
                point, deltas = future.result()
                points.append(point)
                for bandwidth, entries in deltas.items():
                    self.engine_for(bandwidth).surface.merge_points(entries)
        return points

    def sweep(
        self,
        stream_factory: Callable[[], RequestSource],
        n_engines_grid: Sequence[int] = (1, 2, 4),
        policies: Sequence[str] = POLICY_NAMES,
        max_batch_grid: Sequence[int] = (16,),
        ctx_bucket_grid: Sequence[int] = (1,),
        steal_grid: Sequence[bool] = (False,),
        max_energy_per_token_uj: Optional[float] = None,
        workers: Optional[int] = None,
        faults_grid: Sequence[str] = ("none",),
        fault_seed: int = 0,
    ) -> FleetSweepResult:
        """Evaluate the full configuration grid.

        ``stream_factory`` must return a *fresh* source per call
        (closed-loop sources are single-use); seeded factories make the
        whole sweep reproducible. Grid order is deterministic:
        engines, then policy, then max_batch, then ctx_bucket, then
        steal, then faults (``faults_grid`` names seeded chaos
        scenarios; ``"none"`` points take the exact fault-free path).

        ``workers`` > 1 fans the grid over that many processes (see
        :meth:`_sweep_parallel`); ``None`` or 1 runs serially in-process.
        Either way the result — including the versioned Pareto JSON — is
        bit-identical, because every surface point is exact regardless
        of cache warmth and sources are materialized by the parent.

        ``max_energy_per_token_uj`` drops grid points whose modeled
        ``energy_per_token_uj`` exceeds the ceiling *before* Pareto
        extraction — the front's objectives are unchanged, only its
        candidate set shrinks. Raises :class:`ConfigError` if the
        filter rejects every point.
        """
        if workers is not None:
            workers = check_count("workers", workers)
        if max_energy_per_token_uj is not None:
            check_real(
                "max_energy_per_token_uj", max_energy_per_token_uj, 0, math.inf, "(]"
            )
        grid = self.grid_points(
            n_engines_grid, policies, max_batch_grid, ctx_bucket_grid,
            steal_grid, faults_grid, fault_seed,
        )
        if not grid:
            raise ConfigError("sweep grid is empty")
        # The parent materializes every (seeded) source itself — worker
        # processes never touch the factory, so closures and lambdas
        # need not pickle and the arrival streams are identical to the
        # serial walk's by construction.
        sources = [stream_factory() for _ in grid]
        source_name = sources[0].name
        if workers is not None and workers > 1 and len(grid) > 1:
            points = self._sweep_parallel(grid, sources, workers)
        else:
            points = [
                self.evaluate_point(source, gp)
                for gp, source in zip(grid, sources)
            ]
        if max_energy_per_token_uj is not None:
            kept = [
                p for p in points
                if p.energy_per_token_uj <= max_energy_per_token_uj
            ]
            if not kept:
                raise ConfigError(
                    f"energy filter {max_energy_per_token_uj} uJ/token "
                    f"rejected all {len(points)} sweep points (min is "
                    f"{min(p.energy_per_token_uj for p in points):.3f})"
                )
            points = kept
        return FleetSweepResult(
            model_name=self.base_engine.model.name,
            plan_name=self.base_engine.plan.name,
            source_name=source_name or "unknown",
            points=tuple(points),
            max_energy_per_token_uj=max_energy_per_token_uj,
        )


@dataclass(frozen=True)
class _GridPoint:
    """One configuration of the sweep grid (no results attached)."""

    n_engines: int
    policy: str
    max_batch: int
    ctx_bucket: int
    steal: bool
    faults: str = "none"
    fault_seed: int = 0


# ---------------------------------------------------------------- workers
#
# Module-level state for ProcessPoolExecutor workers: each worker process
# rebuilds one SweepDriver from the parent's broadcast payload at pool
# start, then evaluates grid tasks against it. ``_WORKER_SHIPPED`` tracks
# which surface keys the parent already knows (broadcast + previously
# shipped deltas), so each task result carries only newly discovered
# points.

_WORKER_DRIVER: Optional[SweepDriver] = None
_WORKER_SHIPPED: Dict[float, FrozenSet[Tuple[Stage, int, int]]] = {}


def _init_sweep_worker(
    payload: Tuple[
        MeadowEngine,
        Tuple[float, ...],
        Optional[Tuple[Optional[int], ...]],
        Mapping[float, List[Dict[str, Any]]],
    ],
) -> None:
    global _WORKER_DRIVER, _WORKER_SHIPPED
    base_engine, bandwidths_gbps, kv_budget_bytes, surface_points = payload
    _WORKER_DRIVER = SweepDriver(base_engine, bandwidths_gbps, kv_budget_bytes)
    _WORKER_SHIPPED = {}
    for bandwidth, entries in surface_points.items():
        engine = _WORKER_DRIVER.engine_for(bandwidth)
        engine.surface.merge_points(entries)
        _WORKER_SHIPPED[bandwidth] = engine.surface.point_keys()


def _run_sweep_task(
    grid_point: _GridPoint, source: RequestSource
) -> Tuple[SweepPoint, Dict[float, List[Dict[str, Any]]]]:
    driver = _WORKER_DRIVER
    assert driver is not None, "worker pool initializer did not run"
    point = driver.evaluate_point(source, grid_point)
    deltas: Dict[float, List[Dict[str, Any]]] = {}
    for bandwidth, engine in driver._engines.items():
        shipped = _WORKER_SHIPPED.get(bandwidth, frozenset())
        entries = engine.surface.export_points(exclude=shipped)
        if entries:
            deltas[bandwidth] = entries
            _WORKER_SHIPPED[bandwidth] = engine.surface.point_keys()
    return point, deltas
