"""Routing policies: which shard of a fleet serves the next request.

A policy sees the arriving :class:`~repro.serving.Request` and every
*feasible*, live shard (shards whose model context and KV budget could
ever hold the request, pre-filtered by the fleet simulator). The fleet
hands over the :class:`~repro.serving.ContinuousBatchingScheduler`
shards themselves, read through properties named like the
:class:`~repro.serving.SchedulerSnapshot` fields, so no state is copied
per arrival; a frozen ``snapshot()`` answers the same reads, which is
how tests pose a state. The policy returns ``(shard_id,
predicted_ttft_s)``: the chosen shard and, for the latency-modelling
policies, the TTFT it predicted there before the request joined it
(``None`` for the others). Policies are deterministic: given the same
request and shard states they always pick the same shard, and every tie
is broken by ascending shard id — so a seeded scenario maps to exactly
one fleet timeline.

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
perturbs the modeled numbers. The queued-prefill term is the shard's
kept sum, re-added only after its waiting-prompt histogram changed.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ..errors import ConfigError
from ..serving.request import Request
from ..serving.scheduler import ContinuousBatchingScheduler, SchedulerSnapshot

#: What a policy reads: a live shard, or a frozen copy of one.
Shard = Union[ContinuousBatchingScheduler, SchedulerSnapshot]

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


def model_ttft_s(request: Request, now_s: float, snap: Shard) -> float:
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
    ``latency_scale``, so routing and deadline shedding both see
    degraded boxes as slower — exactly how the shard will actually run
    its steps. At nominal health the factor is 1.0 and the multiply is
    an exact IEEE-754 no-op, keeping fault-free predictions
    bit-identical to the pre-resilience model. ``snap`` is a live shard
    or a frozen snapshot; both answer the same reads.
    Shared by :class:`PredictedLatencyPolicy` and
    :class:`~repro.fleet.resilience.DeadlineShedding`.
    """
    surface = snap.engine.surface
    scale = snap.latency_scale
    wait_s = max(0.0, snap.clock_s - now_s)
    # Queued prompts are a (length, count) histogram — sized by
    # distinct lengths, not backlog depth — summed in histogram order
    # (a live shard keeps the sum until the histogram changes).
    queued_s = snap.queued_prefill_s
    own_s = surface.prefill(request.prompt_tokens).latency_s
    # Per-term scaling keeps the summation order of the pre-resilience
    # model, so scale == 1.0 is bit-identical (x * 1.0 is exact).
    predicted = wait_s + queued_s * scale + own_s * scale

    own_kv = snap.kv_bytes(request.total_tokens)
    demand = snap.kv_reserved_bytes + snap.waiting_kv_bytes + own_kv
    if demand > snap.kv_budget_bytes and snap.n_decoding > 0:
        # Admission-blocked: charge the decode drain that must free
        # reservations first, at the shard's current batch rate.
        ctx = min(snap.decode_context + 1, snap.engine.model.max_seq_len)
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
        self, request: Request, now_s: float, shards: Sequence[Shard]
    ) -> Tuple[int, Optional[float]]:
        """Pick the serving shard: ``(shard_id, predicted_ttft_s)``.

        ``shards`` holds one entry per feasible live shard, ordered by
        ascending shard id (never empty): the live schedulers, or
        frozen snapshots of them. The prediction is
        :meth:`predicted_ttft_s` on the chosen shard as ``route`` saw
        it, before the request joined it; ``None`` for policies that do
        not model latency. The fleet simulator records it on the
        :class:`~repro.fleet.RoutingDecision`, which is what powers the
        predicted-vs-realized calibration report.
        """
        raise NotImplementedError

    def predicted_ttft_s(
        self, request: Request, now_s: float, snap: Shard
    ) -> Optional[float]:
        """The TTFT this policy predicts for the request on one shard.

        ``None`` for policies that do not model latency (round-robin,
        JSQ, least-KV).
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
        self, request: Request, now_s: float, shards: Sequence[Shard]
    ) -> Tuple[int, None]:
        # The cursor counts *decisions*, not shards, so a request whose
        # feasible set is narrower than the fleet still advances the
        # rotation deterministically.
        choice = shards[self._turn % len(shards)]
        self._turn += 1
        return choice.shard_id, None


class JoinShortestQueuePolicy(RoutingPolicy):
    """Fewest requests in the shard (waiting + decoding); ties by id."""

    name = "jsq"

    def route(
        self, request: Request, now_s: float, shards: Sequence[Shard]
    ) -> Tuple[int, None]:
        best = min(shards, key=lambda s: (s.n_in_system, s.shard_id))
        return best.shard_id, None


class LeastKVPressurePolicy(RoutingPolicy):
    """Lowest (reserved + queued worst-case) KV demand over budget."""

    name = "least-kv"

    def route(
        self, request: Request, now_s: float, shards: Sequence[Shard]
    ) -> Tuple[int, None]:
        best = min(shards, key=lambda s: (s.kv_pressure, s.shard_id))
        return best.shard_id, None


class PredictedLatencyPolicy(RoutingPolicy):
    """Minimize the surface-predicted TTFT of this request per shard."""

    name = "predicted-latency"

    def predicted_ttft_s(
        self, request: Request, now_s: float, snap: Shard
    ) -> float:
        """The health-aware TTFT model; see :func:`model_ttft_s`."""
        return model_ttft_s(request, now_s, snap)

    def route(
        self, request: Request, now_s: float, shards: Sequence[Shard]
    ) -> Tuple[int, float]:
        predicted, shard_id = min(
            (self.predicted_ttft_s(request, now_s, shard), shard.shard_id)
            for shard in shards
        )
        return shard_id, predicted


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
        if not 0.0 < alpha <= 1.0:
            raise ConfigError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._bias: Dict[int, float] = {}

    def reset(self, n_shards: int) -> None:
        self._bias = {}

    def predicted_ttft_s(
        self, request: Request, now_s: float, snap: Shard
    ) -> float:
        """The model's TTFT less this shard's learned bias (at least 0)."""
        raw = super().predicted_ttft_s(request, now_s, snap)
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
