"""LatencySurface: a compact operating-point table over the simulator.

Serving-style callers (the continuous-batching scheduler, fleet sweeps)
only consume three scalars per simulated operating point — latency,
cycles, energy — yet :meth:`~repro.sim.layer_sim.WorkloadSimulator.simulate`
builds a full :class:`~repro.sim.breakdown.StageReport` holding
per-layer, per-op latency records. The surface sits between the two: it
maps ``(stage, context, batch)`` to a frozen :class:`SurfacePoint`,
filling entries lazily through the simulator's totals output
(:meth:`~repro.sim.layer_sim.WorkloadSimulator.totals`, which builds no
records) and retaining only the scalars. A long serving stream therefore
costs one fast simulation per *distinct* operating point plus a dict
lookup per repeat, and holds a few floats per point instead of thousands
of records.

Numbers are exact: ``totals`` and ``simulate`` share one pricing core,
so ``latency_s``, ``total_cycles`` and ``energy_uj`` equal the full
report's values bit for bit. Per-op breakdowns are still available — ask
for them explicitly via :meth:`LatencySurface.report`, which
materializes a full :class:`StageReport` through ``simulate`` on demand.
Every lookup answers from the table or from a fresh simulation; the
surface never estimates a point it has not simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
)

from ..errors import SimulationError
from ..models import Stage, Workload, decode_workload, prefill_workload
from ..utils import ceil_div
from .breakdown import StageReport
from .layer_sim import WorkloadSimulator

__all__ = ["SurfacePoint", "LatencySurface"]


@dataclass(frozen=True)
class SurfacePoint:
    """The scalars of one simulated operating point.

    ``tokens`` is the prompt length for prefill points and the total
    context length for decode points (mirroring the workload builders).
    """

    stage: Stage
    tokens: int
    batch: int
    latency_s: float
    total_cycles: float
    energy_uj: float

    @property
    def latency_ms(self) -> float:
        """Latency in milliseconds."""
        return self.latency_s * 1e3


class LatencySurface:
    """Lazily filled (stage, context, batch) -> :class:`SurfacePoint` table.

    The table is bound to one simulator (hence one model / hardware /
    plan); keys are plain integers so hot callers never construct
    :class:`~repro.models.Workload` objects on a hit. The entry count is
    bounded by ``max_seq_len x distinct batch sizes`` per stage — a few
    floats each — so no eviction is needed even for million-token
    streams.
    """

    def __init__(self, simulator: WorkloadSimulator) -> None:
        self._sim = simulator
        self._points: Dict[Tuple[Stage, int, int], SurfacePoint] = {}
        # Batch-1 prefill latency by prompt length: the queued-prefill
        # sum probes this with a plain int instead of hashing a
        # (Stage, tokens, 1) key per distinct length.
        self._prefill_s: Dict[int, float] = {}
        #: Points filled by *running the simulator* since construction
        #: (loads and merges do not count). The surface store's
        #: warm-start guarantee is phrased in this counter: a run whose
        #: every operating point came off disk reports 0.
        self.n_simulated = 0

    def __len__(self) -> int:
        return len(self._points)

    @property
    def simulator(self) -> WorkloadSimulator:
        """The underlying simulator (model / config / plan binding)."""
        return self._sim

    # ------------------------------------------------------------- lookup
    def _register(self, key: Tuple[Stage, int, int], point: SurfacePoint) -> None:
        self._points[key] = point
        if key[0] is Stage.PREFILL and key[2] == 1:
            self._prefill_s[key[1]] = point.latency_s

    def _insert(self, workload: Workload) -> SurfacePoint:
        """Simulate one point through the simulator's totals output.

        :meth:`WorkloadSimulator.totals` builds no per-op records; its
        cycles and energy are the floats a full report would carry, and
        the latency is converted from those cycles the way
        :attr:`StageReport.latency_s` converts them.
        """
        self.n_simulated += 1
        total_cycles, energy_uj = self._sim.totals(workload)
        point = SurfacePoint(
            stage=workload.stage,
            tokens=workload.kv_len,
            batch=workload.batch,
            latency_s=self._sim.config.cycles_to_seconds(total_cycles),
            total_cycles=total_cycles,
            energy_uj=energy_uj,
        )
        self._register((workload.stage, workload.kv_len, workload.batch), point)
        return point

    def prefill(self, prompt_tokens: int, batch: int = 1) -> SurfacePoint:
        """Point for a prefill pass over ``prompt_tokens`` tokens."""
        point = self._points.get((Stage.PREFILL, prompt_tokens, batch))
        if point is None:
            point = self._insert(prefill_workload(self._sim.model, prompt_tokens, batch))
        return point

    def decode(self, context_len: int, batch: int = 1) -> SurfacePoint:
        """Point for one decode step over ``context_len`` total tokens."""
        point = self._points.get((Stage.DECODE, context_len, batch))
        if point is None:
            point = self._insert(decode_workload(self._sim.model, context_len, batch))
        return point

    def decode_run(
        self, context_len: int, batch: int = 1, ctx_bucket: int = 1
    ) -> Tuple[SurfacePoint, int]:
        """Bucketed decode point plus the run length that shares it.

        The one-member form of :meth:`decode_run_many`: the point a
        decode step over ``context_len`` total tokens is charged, and
        the number of consecutive single-token steps
        (``context_len, context_len + 1, ...``) that share it.
        """
        return self.decode_run_many((context_len - 1,), batch, ctx_bucket)

    def decode_run_many(
        self, contexts: Sequence[int], batch: int, ctx_bucket: int = 1
    ) -> Tuple[SurfacePoint, int]:
        """One decode-bucket query for a whole stable batch.

        ``contexts`` holds each member's current context length; the
        batch decodes at the deepest member's context plus one (the
        scheduler's conservative heterogeneous-batch charge). Serving
        schedulers quantize decode contexts to ``ctx_bucket`` before
        lookup, so consecutive contexts map onto one surface point until
        the next bucket boundary; at the model's ``max_seq_len`` the key
        saturates, so the bucket extends to the deepest legal context.
        Returns the shared point and the number of consecutive
        single-token steps it covers — one bucket's share of a coalesced
        decode run, which the scheduler asks for when its clock reaches
        the bucket. This method holds the one copy of the bucket rule.
        The max, the bucket arithmetic and the table lookup all happen
        here, with a *single* hash probe for the shared ``(bucketed
        context, batch)`` key, instead of per batch member in the
        scheduler's hot loop.
        """
        if ctx_bucket < 1:
            raise SimulationError(f"ctx_bucket must be >= 1, got {ctx_bucket}")
        if not contexts:
            raise SimulationError("decode_run_many needs a non-empty batch")
        context_len = max(contexts) + 1
        max_len = self._sim.model.max_seq_len
        bucketed = ceil_div(context_len, ctx_bucket) * ctx_bucket
        if bucketed >= max_len:
            bucketed = max_len
        point = self._points.get((Stage.DECODE, bucketed, batch))
        if point is None:
            point = self.decode(bucketed, batch=batch)
        return point, bucketed - context_len + 1

    def queued_prefill_s(self, hist: Iterable[Tuple[int, int]]) -> float:
        """Total prefill latency of a waiting-prompt histogram.

        ``hist`` is ``(prompt_tokens, count)`` pairs — the shape of
        :attr:`~repro.serving.SchedulerSnapshot.waiting_prompt_hist`.
        One int-keyed probe per *distinct* length, accumulated in
        iteration order with the same float additions as
        ``count * prefill(tokens).latency_s`` added one by one from
        0.0, so predictive routers get the bulk answer bit-identically
        (not the builtin ``sum``, which Python 3.12 compensates).
        """
        total = 0.0
        table = self._prefill_s
        for tokens, count in hist:
            latency_s = table.get(tokens)
            if latency_s is None:
                latency_s = self.prefill(tokens).latency_s
            total += count * latency_s
        return total

    def point(self, workload: Workload) -> SurfacePoint:
        """Point for an arbitrary workload of the surface's model."""
        # Check the model up front, not only on the miss path inside the
        # simulator — otherwise a foreign workload that happens to share
        # a (stage, context, batch) key with a cached entry would
        # silently return this model's numbers.
        model = self._sim.model
        if workload.model is not model and workload.model != model:
            raise SimulationError(
                f"workload model {workload.model.name} does not match "
                f"surface model {model.name}"
            )
        point = self._points.get((workload.stage, workload.kv_len, workload.batch))
        if point is None:
            point = self._insert(workload)
        return point

    # ------------------------------------------------------ materialization
    def materialize(
        self,
        prefill_tokens: Iterable[int] = (),
        decode_contexts: Iterable[int] = (),
        batches: Iterable[int] = (1,),
    ) -> int:
        """Precompute a grid of points; returns the table size after.

        Useful before handing the surface to a latency-sensitive driver
        (e.g. an interactive sweep) so every lookup in the hot loop is a
        dict hit.
        """
        batch_list = tuple(batches)
        for tokens in prefill_tokens:
            for batch in batch_list:
                self.prefill(tokens, batch)
        for context in decode_contexts:
            for batch in batch_list:
                self.decode(context, batch)
        return len(self._points)

    def report(self, workload: Workload) -> StageReport:
        """Full per-op report for one point (materialized on demand).

        The surface deliberately does not retain reports, and fills
        through :meth:`WorkloadSimulator.totals`, which builds none;
        callers that need op-level breakdowns (traces, stacked-bar
        figures) pay for :meth:`WorkloadSimulator.simulate` only when
        they ask.
        """
        return self._sim.simulate(workload)

    # ------------------------------------------------------- point entries
    def point_keys(self) -> FrozenSet[Tuple[Stage, int, int]]:
        """Keys of every point currently in the table.

        Parallel sweep workers snapshot this after merging the parent's
        broadcast entries, then ship only points discovered since
        (:meth:`export_points`) back with each result.
        """
        return frozenset(self._points)

    def export_points(
        self, exclude: FrozenSet[Tuple[Stage, int, int]] = frozenset()
    ) -> List[Dict[str, Any]]:
        """JSON entries for points whose keys are not in ``exclude``.

        The one format surface points travel in (the surface store's
        files, the parallel sweep's broadcasts and deltas), read back by
        :meth:`merge_points`. Floats round-trip exactly through ``json``;
        entries are in sorted key order for deterministic payloads.
        """
        return [
            {
                "stage": stage.value,
                "tokens": tokens,
                "batch": batch,
                "latency_s": point.latency_s,
                "total_cycles": point.total_cycles,
                "energy_uj": point.energy_uj,
            }
            for (stage, tokens, batch), point in sorted(
                self._points.items(),
                key=lambda item: (item[0][0].value, item[0][1], item[0][2]),
            )
            if (stage, tokens, batch) not in exclude
        ]

    def merge_points(self, entries: Iterable[Mapping[str, Any]]) -> int:
        """Fold :meth:`export_points` entries into the table.

        Existing keys are kept as-is — both sides computed the same
        exact simulation, so the values are identical and keeping the
        incumbent avoids any order dependence. Returns the number of
        newly added points (not counted in :attr:`n_simulated`). A
        malformed entry raises :class:`SimulationError` before any entry
        is merged, so a caller that falls back cold has merged nothing.
        """
        added = 0
        for point in [_parse_point_entry(entry) for entry in entries]:
            key = (point.stage, point.tokens, point.batch)
            if key not in self._points:
                self._register(key, point)
                added += 1
        return added


def _parse_point_entry(entry: Mapping[str, Any]) -> SurfacePoint:
    """Parse one serialized point entry, raising :class:`SimulationError`
    on missing fields or values of the wrong shape."""
    try:
        return SurfacePoint(
            stage=Stage(entry["stage"]),
            tokens=int(entry["tokens"]),
            batch=int(entry["batch"]),
            latency_s=float(entry["latency_s"]),
            total_cycles=float(entry["total_cycles"]),
            energy_uj=float(entry["energy_uj"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SimulationError(f"{type(exc).__name__}: {exc}") from None
