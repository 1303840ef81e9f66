"""Resilience policies: retries, deadlines, shedding, and dispositions.

When :mod:`repro.fleet.faults` makes shards crash and brown out, the
fleet needs an answer to three questions this module parameterizes:

* **What happens to work a crash destroyed?**
  :class:`RetryPolicy` — deadline-aware exponential backoff with seeded
  jitter. A harvested request is resubmitted to the *global* router
  (failover re-routing: the retry sees the post-crash fleet, and the
  circuit breaker keeps it off the dead shard) until its retry budget
  or deadline runs out.
* **When should the fleet refuse work instead of degrading everyone?**
  :class:`SheddingPolicy` — graceful load shedding, either rejecting at
  admission when no shard can predictably meet the request's deadline
  (``deadline``), or evicting the oldest waiting request when a chosen
  shard's backlog exceeds a bound (``drop-oldest``).
* **What happened to each request, exactly once?**
  :class:`Disposition` — every submitted request ends in exactly one of
  OK / RETRIED / SHED / EXPIRED / LOST, and
  :meth:`ResilienceReport.build` *enforces* that conservation law,
  turning "did the chaos layer drop a request on the floor?" into a
  hard error instead of a silent accounting gap.

All randomness (retry jitter) is derived from ``(seed, request_id,
attempt)`` — never from global state or event order — so a same-seed
chaos run is bit-reproducible no matter how failures interleave.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from ..errors import ConfigError, SimulationError
from ..serving.request import Request
from .faults import FaultKind
from .routing import Shard, model_ttft_s

__all__ = [
    "Disposition",
    "RetryPolicy",
    "SheddingPolicy",
    "NoShedding",
    "DeadlineShedding",
    "DropOldestShedding",
    "SHEDDING_POLICIES",
    "SHEDDING_NAMES",
    "make_shedding",
    "AppliedFault",
    "ResilienceReport",
]


class Disposition(enum.Enum):
    """The one final fate of a submitted request."""

    #: Completed on its first placement, never disturbed by a fault.
    OK = "ok"
    #: Completed, but only after at least one failure-driven retry.
    RETRIED = "retried"
    #: Rejected or evicted by the shedding policy; never completed.
    SHED = "shed"
    #: Failed and past its deadline — retrying could not meet the SLO.
    EXPIRED = "expired"
    #: Failed with an exhausted retry budget (and no deadline to blame).
    LOST = "lost"


@dataclass(frozen=True)
class RetryPolicy:
    """Deadline-aware exponential backoff for failure-driven retries.

    After a crash destroys a request (waiting or mid-decode), the fleet
    resubmits it at ``t_fail + backoff`` — unless the request is past
    its deadline (→ EXPIRED) or out of budget (→ LOST). Backoff for
    attempt *k* (1-based) is ``base_backoff_s * multiplier**(k-1)``
    plus uniform jitter on ``[0, jitter_s]`` drawn from an RNG keyed by
    ``(seed, request_id, attempt)`` — order-independent, so the same
    seed reproduces the same chaos timeline bit for bit.
    """

    #: Resubmissions allowed per request beyond the original attempt.
    max_retries: int = 2
    base_backoff_s: float = 1e-3
    backoff_multiplier: float = 2.0
    #: Upper bound of the uniform jitter added to every backoff.
    jitter_s: float = 1e-4
    #: Fleet-wide default deadline (seconds since first arrival) used
    #: for requests that carry no ``deadline_s`` of their own. ``None``
    #: means such requests never expire.
    deadline_s: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if not 0 <= self.base_backoff_s < math.inf:
            raise ConfigError(
                f"base_backoff_s must be >= 0 and finite, got {self.base_backoff_s}"
            )
        if not 1.0 <= self.backoff_multiplier < math.inf:
            raise ConfigError(
                f"backoff_multiplier must be >= 1 and finite, got "
                f"{self.backoff_multiplier}"
            )
        if not 0 <= self.jitter_s < math.inf:
            raise ConfigError(f"jitter_s must be >= 0 and finite, got {self.jitter_s}")
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigError(
                f"deadline_s must be positive, got {self.deadline_s}"
            )

    def effective_deadline_s(self, request: Request) -> Optional[float]:
        """The deadline governing one request (its own wins)."""
        return (
            request.deadline_s
            if request.deadline_s is not None
            else self.deadline_s
        )

    def backoff_s(self, request_id: int, attempt: int) -> float:
        """Backoff before retry ``attempt`` (1-based) of one request.

        Keyed RNG, not shared state: two simulations that process
        failures in different internal orders still draw identical
        jitter for the same (request, attempt).
        """
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1, got {attempt}")
        rng = random.Random(self.seed * 1000003 + request_id * 101 + attempt)
        backoff = self.base_backoff_s * self.backoff_multiplier ** (attempt - 1)
        return backoff + rng.uniform(0.0, self.jitter_s)


# ---------------------------------------------------------------- shedding
class SheddingPolicy:
    """Protocol for graceful load shedding.

    Two hooks, both deterministic pure functions of the shard states
    they are handed (the live shards in a fleet run, as for routing):

    * :meth:`reject` runs *before* routing — return True to shed the
      arriving request outright (admission control).
    * :meth:`evict` runs *after* routing — return True to evict the
      chosen shard's oldest waiting request to make room (the arriving
      request is newer and keeps its place; the evicted one is SHED).
    """

    name: str = "none"

    def reject(
        self,
        request: Request,
        now_s: float,
        shards: Sequence[Shard],
        deadline_s: Optional[float],
    ) -> bool:
        """Shed ``request`` at admission? ``shards`` = feasible live shards."""
        return False

    def evict(self, chosen: Shard) -> bool:
        """Evict the chosen shard's oldest waiting request first?"""
        return False


class NoShedding(SheddingPolicy):
    """Admit everything; the queues absorb whatever chaos brings."""

    name = "none"


class DeadlineShedding(SheddingPolicy):
    """Reject requests no shard can predictably serve by their deadline.

    Uses the same surface-driven, health-aware TTFT model the
    predicted-latency router uses (brownouts inflate it, so a degraded
    fleet sheds earlier): if even the *best* feasible shard's predicted
    TTFT exceeds the request's remaining deadline budget, completing it
    on time is already hopeless and admitting it would only steal KV
    and batch slots from requests that can still make their SLOs.
    Requests without a deadline are always admitted.
    """

    name = "deadline"

    def reject(
        self,
        request: Request,
        now_s: float,
        shards: Sequence[Shard],
        deadline_s: Optional[float],
    ) -> bool:
        if deadline_s is None:
            return False
        remaining = request.arrival_s + deadline_s - now_s
        if remaining <= 0.0:
            return True
        best = min(model_ttft_s(request, now_s, shard) for shard in shards)
        return best > remaining


class DropOldestShedding(SheddingPolicy):
    """Bound per-shard backlog by evicting the oldest waiting request.

    When the routed-to shard already queues ``max_waiting`` requests,
    the one that has waited longest is shed — it is the most likely to
    be hopeless anyway, and dropping it shortens the wait for the whole
    queue behind it (the inverse of the work-stealing victim rule,
    applied to overload instead of idleness).
    """

    name = "drop-oldest"

    def __init__(self, max_waiting: int = 8) -> None:
        if max_waiting < 1:
            raise ConfigError(f"max_waiting must be >= 1, got {max_waiting}")
        self.max_waiting = max_waiting

    def evict(self, chosen: Shard) -> bool:
        return chosen.n_waiting >= self.max_waiting


#: Name -> constructor registry (CLI enumerates this).
SHEDDING_POLICIES: Dict[str, Callable[[], SheddingPolicy]] = {
    NoShedding.name: NoShedding,
    DeadlineShedding.name: DeadlineShedding,
    DropOldestShedding.name: DropOldestShedding,
}

#: Deterministic enumeration order for CLI choices.
SHEDDING_NAMES: Tuple[str, ...] = tuple(sorted(SHEDDING_POLICIES))


def make_shedding(name: str) -> SheddingPolicy:
    """Instantiate a registered shedding policy by name."""
    try:
        return SHEDDING_POLICIES[name]()
    except KeyError:
        raise ConfigError(
            f"unknown shedding policy {name!r}; available: "
            f"{', '.join(SHEDDING_NAMES)}"
        ) from None


# ----------------------------------------------------------------- report
@dataclass(frozen=True)
class AppliedFault:
    """One fault as it actually landed on the timeline."""

    kind: FaultKind
    shard_id: int
    at_s: float
    #: Crash: instant the shard is serving again (outage + re-warm).
    #: Brownout: instant nominal bandwidth returns.
    until_s: float
    #: Crash: end of the outage, where the re-warm starts. Brownout: until_s.
    outage_end_s: float
    #: Brownout: the fraction of nominal bandwidth left. Crash: 1.0.
    bandwidth_factor: float
    #: Requests destroyed by a crash (waiting + in-flight); 0 for
    #: brownouts.
    n_requests_hit: int = 0
    #: Decode tokens already generated by in-flight requests the crash
    #: threw away — work that must be redone from scratch on retry.
    lost_generated_tokens: int = 0


@dataclass(frozen=True)
class ResilienceReport:
    """What chaos did to one fleet run, with conservation enforced."""

    #: ``(request_id, Disposition)`` per submitted request, id-ordered.
    dispositions: Tuple[Tuple[int, Disposition], ...]
    n_submitted: int
    n_ok: int
    n_retried: int
    n_shed: int
    n_expired: int
    n_lost: int
    #: Total failure-driven resubmissions across all requests (a
    #: request retried twice counts 2).
    n_retries: int
    #: Decode tokens generated and then destroyed by crashes.
    lost_generated_tokens: int
    #: Every fault that landed, in timeline order.
    faults: Tuple[AppliedFault, ...]
    #: The fleet's other chaos decisions, in the order it took them:
    #: ``(t_s, "RETRY", request_id, attempt, backoff_s)``,
    #: ``(t_s, "EXPIRED" or "LOST", request_id)``, ``(t_s, "SHED",
    #: request_id, reason, evicting shard or None)`` and ``(t_s,
    #: "SHARDS_UP", live shards)`` when a crash or recovery changed it.
    ledger: Tuple[tuple, ...]
    #: Seconds each shard spent down (crash outage + re-warm), clipped
    #: to the run's makespan.
    shard_downtime_s: Tuple[float, ...]
    #: Fraction of shard-seconds the fleet was serving: ``1 -
    #: downtime / (n_shards * makespan)``.
    availability: float
    #: Requests offered per second of makespan (submissions, including
    #: the ones later shed or lost).
    offered_rps: float
    #: Requests *completed* per second of makespan — the goodput the
    #: availability cost bought.
    goodput_rps: float

    @property
    def n_failed(self) -> int:
        """Requests that never completed (shed + expired + lost)."""
        return self.n_shed + self.n_expired + self.n_lost

    @classmethod
    def build(
        cls,
        dispositions: Dict[int, Disposition],
        n_retries: int,
        lost_generated_tokens: int,
        faults: Sequence[AppliedFault],
        shard_downtime_s: Sequence[float],
        makespan_s: float,
        ledger: Sequence[tuple] = (),
    ) -> "ResilienceReport":
        """Aggregate per-request fates, enforcing exactly-once accounting.

        Raises :class:`SimulationError` when the counts do not conserve
        — a request with no disposition (dropped on the floor) or a
        completion recorded for a request also marked shed/lost would
        both surface here, which is the whole point.
        """
        counts = {d: 0 for d in Disposition}
        for disposition in dispositions.values():
            counts[disposition] += 1
        n_submitted = len(dispositions)
        conserved = sum(counts.values())
        if conserved != n_submitted:
            raise SimulationError(
                f"disposition conservation violated: {n_submitted} "
                f"submitted but {conserved} dispositions recorded"
            )
        n_completed = counts[Disposition.OK] + counts[Disposition.RETRIED]
        if makespan_s > 0:
            clipped = [min(d, makespan_s) for d in shard_downtime_s]
            shard_seconds = len(shard_downtime_s) * makespan_s
            availability = max(0.0, 1.0 - sum(clipped) / shard_seconds)
            offered_rps = n_submitted / makespan_s
            goodput_rps = n_completed / makespan_s
        else:
            clipped = [0.0 for _ in shard_downtime_s]
            availability = 1.0
            offered_rps = 0.0
            goodput_rps = 0.0
        return cls(
            dispositions=tuple(sorted(dispositions.items())),
            n_submitted=n_submitted,
            n_ok=counts[Disposition.OK],
            n_retried=counts[Disposition.RETRIED],
            n_shed=counts[Disposition.SHED],
            n_expired=counts[Disposition.EXPIRED],
            n_lost=counts[Disposition.LOST],
            n_retries=n_retries,
            lost_generated_tokens=lost_generated_tokens,
            faults=tuple(faults),
            ledger=tuple(ledger),
            shard_downtime_s=tuple(clipped),
            availability=availability,
            offered_rps=offered_rps,
            goodput_rps=goodput_rps,
        )

    def describe(self) -> str:
        """Human-readable chaos summary for CLI / bench output."""
        lines = [
            f"resilience: {self.n_submitted} submitted -> "
            f"{self.n_ok} ok, {self.n_retried} retried-ok, "
            f"{self.n_shed} shed, {self.n_expired} expired, "
            f"{self.n_lost} lost",
            f"availability {self.availability:.4f}, "
            f"offered {self.offered_rps:.2f} req/s, "
            f"goodput {self.goodput_rps:.2f} req/s",
        ]
        if self.n_retries:
            lines.append(
                f"retries: {self.n_retries} resubmissions, "
                f"{self.lost_generated_tokens} generated tokens lost"
            )
        for fault in self.faults:
            lines.append(
                f"fault: {fault.kind.value} shard {fault.shard_id} "
                f"@ {fault.at_s:.3f}s until {fault.until_s:.3f}s "
                f"({fault.n_requests_hit} requests hit)"
            )
        return "\n".join(lines)
