"""Routing policies: which shard of a fleet serves the next request.

A policy sees the arriving :class:`~repro.serving.Request` and one
:class:`~repro.serving.SchedulerSnapshot` per *feasible* shard (shards
whose model context and KV budget could ever hold the request are
pre-filtered by the fleet simulator) and returns the chosen shard id.
Policies are deterministic: given the same request and snapshots they
always pick the same shard, and every tie is broken by ascending shard
id — so a seeded scenario maps to exactly one fleet timeline.

Five policies ship, in increasing awareness of shard state:

* **round-robin** — cycles through the feasible shards, blind to load.
  The baseline every load balancer is measured against.
* **jsq** (join-shortest-queue) — fewest requests anywhere in the shard
  (waiting or decoding). The classic heterogeneity-blind balancer.
* **least-kv** — lowest committed-plus-queued worst-case KV demand as a
  fraction of the shard's budget; the right signal when admission
  control, not compute, is the bottleneck.
* **predicted-latency** — estimates the request's TTFT on every shard
  from the shard's own :class:`~repro.sim.surface.LatencySurface` and
  picks the minimum. Because the surface embeds the shard's bandwidth,
  packing plan and PE fabric, this is the only policy that exploits
  *heterogeneous* fleets (a 12 Gbps box finishes a prefill that a
  1 Gbps box would still be streaming weights for).
* **calibrated-latency** — predicted-latency plus a feedback loop: the
  signed predicted-vs-realized TTFT error of every completion it
  placed folds into a per-shard EWMA bias that corrects later
  predictions, so systematic model error (decode interleaving the
  prediction ignores) is learned away mid-run.

The predicted-latency model mirrors the scheduler's actual policy
(prefill-before-decode, FCFS):

``wait-until-free + queued prefill work + own prefill``

plus, only when the shard's KV budget could not hold the request on
arrival, the decode-drain time to free enough reservations. All terms
are surface lookups, so routing costs dict hits after warm-up and never
perturbs the modeled numbers.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..serving.request import Request
from ..serving.scheduler import SchedulerSnapshot

__all__ = [
    "model_ttft_s",
    "RoutingPolicy",
    "RoundRobinPolicy",
    "JoinShortestQueuePolicy",
    "LeastKVPressurePolicy",
    "PredictedLatencyPolicy",
    "CalibratedLatencyPolicy",
    "ROUTING_POLICIES",
    "make_policy",
]


def model_ttft_s(
    request: Request, now_s: float, snap: SchedulerSnapshot
) -> float:
    """Model the request's TTFT were it routed to this shard now.

    Exact under the shard's own scheduling policy up to batching
    effects: prefills run before decodes and FCFS ties are id-ordered,
    so a new arrival waits for (a) the step in flight, (b) every queued
    prefill ahead of it, then (c) its own prefill. When the KV budget
    cannot cover the queued demand plus this request, admission
    additionally waits for in-flight decodes to drain reservations —
    approximated by the remaining decode tokens at the shard's current
    batched-decode rate.

    Health-aware: a browned-out shard's work terms are scaled by its
    :attr:`~repro.serving.SchedulerSnapshot.latency_scale`, so routing
    and deadline shedding both see degraded boxes as slower — exactly
    how the shard will actually run its steps. At nominal health the factor
    is 1.0 and the multiply is an exact IEEE-754 no-op, keeping
    fault-free predictions bit-identical to the pre-resilience model.
    Shared by :class:`PredictedLatencyPolicy` and
    :class:`~repro.fleet.resilience.DeadlineShedding`.
    """
    surface = snap.engine.surface
    scale = snap.latency_scale
    wait_s = max(0.0, snap.clock_s - now_s)
    # The snapshot carries queued prompts as a (length, count)
    # histogram — sized by distinct lengths, not backlog depth — so
    # the queued-work term costs O(distinct) surface hits, batched
    # into one call (same count * latency sum, in histogram order).
    queued_s = surface.queued_prefill_s(snap.waiting_prompt_hist)
    own_s = surface.prefill(request.prompt_tokens).latency_s
    # Per-term scaling keeps the summation order of the pre-resilience
    # model, so scale == 1.0 is bit-identical (x * 1.0 is exact).
    predicted = wait_s + queued_s * scale + own_s * scale

    model = snap.engine.model
    own_kv = model.n_layers * model.kv_cache_bytes_per_layer(
        request.total_tokens, snap.engine.config.act_bits
    )
    demand = snap.kv_reserved_bytes + snap.waiting_kv_bytes + own_kv
    if demand > snap.kv_budget_bytes and snap.n_decoding > 0:
        # Admission-blocked: charge the decode drain that must free
        # reservations first, at the shard's current batch rate.
        ctx = min(snap.decode_context + 1, model.max_seq_len)
        batch = snap.n_decoding
        step = surface.decode(ctx, batch=batch).latency_s
        steps = (snap.remaining_decode_tokens + batch - 1) // batch
        predicted += step * steps * scale
    return predicted


class RoutingPolicy:
    """Protocol for fleet routing decisions.

    Subclasses override :meth:`route`; stateful policies (round-robin)
    also override :meth:`reset`, which the fleet simulator calls once
    per run so one policy object can drive many runs reproducibly.
    """

    name: str = "policy"

    def reset(self, n_shards: int) -> None:
        """Forget per-run state (called before every fleet run)."""

    def route(
        self,
        request: Request,
        now_s: float,
        snapshots: Sequence[SchedulerSnapshot],
    ) -> int:
        """Pick the serving shard; return its ``shard_id``.

        ``snapshots`` holds one entry per feasible shard, ordered by
        ascending shard id (never empty).
        """
        raise NotImplementedError

    def predicted_ttft_s(
        self, request: Request, now_s: float, snap: SchedulerSnapshot
    ) -> Optional[float]:
        """The TTFT this policy predicts for the request on one shard.

        ``None`` for policies that do not model latency (round-robin,
        JSQ, least-KV). The fleet simulator records the chosen shard's
        prediction on every :class:`~repro.fleet.RoutingDecision`, which
        is what powers the predicted-vs-realized calibration report.
        """
        return None

    def observe(
        self, shard_id: int, predicted_ttft_s: float, realized_ttft_s: float
    ) -> None:
        """Feedback hook: a predicted request completed on its shard.

        The fleet simulator calls this at completion time with the TTFT
        the policy predicted when it placed the request and the TTFT the
        shard realized. The default is a no-op; calibration-aware
        policies (``calibrated-latency``) fold the signed error into a
        per-shard bias so later predictions self-correct mid-run.
        Requests migrated away by work stealing are never observed —
        their original prediction no longer describes any placement.
        """


class RoundRobinPolicy(RoutingPolicy):
    """Cycle through the feasible shards, blind to their state."""

    name = "round-robin"

    def __init__(self) -> None:
        self._turn = 0

    def reset(self, n_shards: int) -> None:
        self._turn = 0

    def route(
        self,
        request: Request,
        now_s: float,
        snapshots: Sequence[SchedulerSnapshot],
    ) -> int:
        # The cursor counts *decisions*, not shards, so a request whose
        # feasible set is narrower than the fleet still advances the
        # rotation deterministically.
        choice = snapshots[self._turn % len(snapshots)]
        self._turn += 1
        return choice.shard_id


class JoinShortestQueuePolicy(RoutingPolicy):
    """Fewest requests in the shard (waiting + decoding); ties by id."""

    name = "jsq"

    def route(
        self,
        request: Request,
        now_s: float,
        snapshots: Sequence[SchedulerSnapshot],
    ) -> int:
        best = min(snapshots, key=lambda s: (s.n_in_system, s.shard_id))
        return best.shard_id


class LeastKVPressurePolicy(RoutingPolicy):
    """Lowest (reserved + queued worst-case) KV demand over budget."""

    name = "least-kv"

    def route(
        self,
        request: Request,
        now_s: float,
        snapshots: Sequence[SchedulerSnapshot],
    ) -> int:
        best = min(snapshots, key=lambda s: (s.kv_pressure, s.shard_id))
        return best.shard_id


class PredictedLatencyPolicy(RoutingPolicy):
    """Minimize the surface-predicted TTFT of this request per shard."""

    name = "predicted-latency"

    def __init__(self) -> None:
        # Last decision's scores, so the fleet simulator's calibration
        # lookup for the chosen shard reuses what route() just computed
        # instead of re-deriving it. Keyed to (request, instant); the
        # model is pure, so a replay returns the identical float.
        self._scored: Tuple[int, float, Dict[int, float]] = (-1, math.nan, {})

    def reset(self, n_shards: int) -> None:
        self._scored = (-1, math.nan, {})

    def predicted_ttft_s(
        self, request: Request, now_s: float, snap: SchedulerSnapshot
    ) -> float:
        """The (possibly bias-corrected) TTFT prediction for one shard.

        A cache wrapper over :meth:`_model_ttft_s`: the fleet
        simulator's calibration lookup for the chosen shard reuses the
        score :meth:`route` just computed instead of re-deriving it.
        """
        req_id, at_s, scores = self._scored
        if req_id == request.request_id and at_s == now_s:
            cached = scores.get(snap.shard_id)
            if cached is not None:
                return cached
        return self._model_ttft_s(request, now_s, snap)

    def _model_ttft_s(
        self, request: Request, now_s: float, snap: SchedulerSnapshot
    ) -> float:
        """The raw (health-aware) TTFT model; see :func:`model_ttft_s`."""
        return model_ttft_s(request, now_s, snap)

    def route(
        self,
        request: Request,
        now_s: float,
        snapshots: Sequence[SchedulerSnapshot],
    ) -> int:
        self._scored = (-1, math.nan, {})
        scores = {
            snap.shard_id: self.predicted_ttft_s(request, now_s, snap)
            for snap in snapshots
        }
        self._scored = (request.request_id, now_s, scores)
        return min(
            snapshots, key=lambda s: (scores[s.shard_id], s.shard_id)
        ).shard_id


class CalibratedLatencyPolicy(PredictedLatencyPolicy):
    """Predicted-latency routing with completion-time error feedback.

    The plain predictive model has a known, *measured* bias — the
    calibration report exists precisely because the model ignores
    decode interleaving after admission. This policy closes that loop:
    every completion of a request it placed feeds the signed
    ``predicted - realized`` TTFT error into a per-shard bias via
    :meth:`observe`, and later predictions subtract the bias (clamped
    at zero — a negative TTFT is meaningless). The integral update
    ``bias += alpha * error`` on corrected predictions is exactly an
    EWMA of the *raw* model error with smoothing ``alpha``: if the raw
    error on a shard settles at ``d``, the bias converges to ``d`` and
    the corrected error to zero. Feedback arrives in completion order,
    which is deterministic for a seeded scenario, so calibrated runs
    stay reproducible.
    """

    name = "calibrated-latency"

    def __init__(self, alpha: float = 0.25) -> None:
        super().__init__()
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._bias: Dict[int, float] = {}

    def reset(self, n_shards: int) -> None:
        super().reset(n_shards)
        self._bias = {}

    def _model_ttft_s(
        self, request: Request, now_s: float, snap: SchedulerSnapshot
    ) -> float:
        raw = super()._model_ttft_s(request, now_s, snap)
        return max(0.0, raw - self._bias.get(snap.shard_id, 0.0))

    def observe(
        self, shard_id: int, predicted_ttft_s: float, realized_ttft_s: float
    ) -> None:
        error = predicted_ttft_s - realized_ttft_s
        self._bias[shard_id] = self._bias.get(shard_id, 0.0) + self.alpha * error


#: Name -> constructor registry (CLI / sweep grids enumerate this).
ROUTING_POLICIES: Dict[str, Callable[[], RoutingPolicy]] = {
    RoundRobinPolicy.name: RoundRobinPolicy,
    JoinShortestQueuePolicy.name: JoinShortestQueuePolicy,
    LeastKVPressurePolicy.name: LeastKVPressurePolicy,
    PredictedLatencyPolicy.name: PredictedLatencyPolicy,
    CalibratedLatencyPolicy.name: CalibratedLatencyPolicy,
}

#: Deterministic enumeration order for sweeps and CLI defaults.
POLICY_NAMES: Tuple[str, ...] = tuple(sorted(ROUTING_POLICIES))


def make_policy(name: str) -> RoutingPolicy:
    """Instantiate a registered routing policy by name."""
    try:
        return ROUTING_POLICIES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown routing policy {name!r}; available: {', '.join(POLICY_NAMES)}"
        ) from None
