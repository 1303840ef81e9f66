"""Request streams: who asks for tokens, when, and how many.

A serving scenario is a population of :class:`Request` objects — each a
(prompt length, output length) pair arriving at a point in simulated
time — produced by a *request source*. Open-loop sources (Poisson,
bursty) precompute every arrival from a seeded RNG; the closed-loop
source models a fixed user population that only issues its next request
after the previous one completes plus a think time, so its arrivals are
generated during simulation via :meth:`RequestSource.on_complete`.

All randomness flows through one ``random.Random(seed)`` instance per
source, so a scenario is reproduced exactly by its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import floor, inf, log
from typing import List, Optional, Tuple

from ..errors import ConfigError, check_count, check_real

__all__ = [
    "Request",
    "LengthDistribution",
    "RequestSource",
    "RequestStream",
    "poisson_stream",
    "bursty_stream",
    "ClosedLoopSource",
]


@dataclass(frozen=True)
class Request:
    """One user request: arrive, prefill the prompt, emit output tokens."""

    request_id: int
    arrival_s: float
    prompt_tokens: int
    output_tokens: int
    #: Optional end-to-end SLO: once ``deadline_s`` seconds have passed
    #: since the request's *first* submission, the resilience layer
    #: expires it instead of retrying after a shard failure, and
    #: deadline-aware shedding may reject it at admission. ``None``
    #: (the default) means the request never expires.
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        # Requests are built per arrival and per retry: exact types in
        # range skip the helpers, which would accept them unchanged.
        if (
            type(self.request_id) is int and self.request_id >= 0
            and type(self.arrival_s) is float and 0.0 <= self.arrival_s < inf
            and type(self.prompt_tokens) is int and self.prompt_tokens >= 1
            and type(self.output_tokens) is int and self.output_tokens >= 1
            and self.deadline_s is None
        ):
            return
        for name, lo in (("request_id", 0), ("prompt_tokens", 1), ("output_tokens", 1)):
            object.__setattr__(self, name, check_count(name, getattr(self, name), lo))
        check_real("arrival_s", self.arrival_s, 0, inf, "[)")
        if self.deadline_s is not None:
            check_real("deadline_s", self.deadline_s, 0, inf, "(]")

    @property
    def total_tokens(self) -> int:
        """Final KV footprint in tokens (prompt + every generated token)."""
        return self.prompt_tokens + self.output_tokens


@dataclass(frozen=True)
class LengthDistribution:
    """Seeded sampler for prompt / output token counts.

    Kinds:
        * ``"fixed"`` — always ``lo``.
        * ``"uniform"`` — integer uniform on [lo, hi].
        * ``"geometric"`` — geometric with mean ``lo``, truncated at
          ``hi`` (the classic output-length model: most generations are
          short, a few run long).
    """

    kind: str
    lo: int
    hi: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "uniform", "geometric"):
            raise ConfigError(f"unknown length distribution kind {self.kind!r}")
        # Token-count bounds follow the count rule; a geometric lo is a
        # mean, so it need only be finite.
        if self.kind != "geometric":
            object.__setattr__(self, "lo", check_count("lo", self.lo))
        else:
            check_real("lo", self.lo, 1, inf, "[)")
        if self.kind != "fixed":
            if self.hi is None:
                raise ConfigError(f"{self.kind!r} distribution needs an upper bound")
            object.__setattr__(self, "hi", check_count("hi", self.hi))
            if self.hi < self.lo:
                raise ConfigError(f"hi={self.hi} below lo={self.lo}")

    def sample(self, rng: random.Random) -> int:
        """Draw one length."""
        if self.kind == "fixed":
            return self.lo
        assert self.hi is not None
        if self.kind == "uniform":
            return rng.randint(self.lo, self.hi)
        # geometric, mean lo, support [1, hi]
        p = 1.0 / self.lo
        u = rng.random()
        value = 1 + floor(log(1.0 - u) / log(1.0 - p)) if p < 1.0 else 1
        return min(self.hi, max(1, value))


class RequestSource:
    """Protocol for scenario generators feeding the scheduler.

    ``initial()`` yields every request known before the simulation
    starts; ``on_complete()`` lets closed-loop sources inject follow-up
    requests as earlier ones finish. Open-loop sources return ``None``.
    """

    name: str = "source"

    def initial(self) -> Tuple[Request, ...]:
        raise NotImplementedError

    def on_complete(self, request: Request, finish_s: float) -> Optional[Request]:
        return None


@dataclass(frozen=True)
class RequestStream(RequestSource):
    """An open-loop, fully precomputed request trace."""

    name: str = "trace"
    requests: Tuple[Request, ...] = ()

    def __post_init__(self) -> None:
        ids = [r.request_id for r in self.requests]
        if len(set(ids)) != len(ids):
            raise ConfigError("request ids in a stream must be unique")
        ordered = sorted(self.requests, key=lambda r: (r.arrival_s, r.request_id))
        if list(self.requests) != ordered:
            raise ConfigError("stream requests must be sorted by (arrival_s, id)")

    def initial(self) -> Tuple[Request, ...]:
        return self.requests

    @property
    def n_requests(self) -> int:
        """Number of requests in the trace."""
        return len(self.requests)

    @property
    def total_output_tokens(self) -> int:
        """Tokens the whole trace asks to generate."""
        return sum(r.output_tokens for r in self.requests)


def poisson_stream(
    n_requests: int,
    rate_rps: float,
    prompt_dist: LengthDistribution,
    output_dist: LengthDistribution,
    seed: int = 0,
) -> RequestStream:
    """Open-loop Poisson arrivals at ``rate_rps`` requests per second
    (``inf``: every request at t=0)."""
    n_requests = check_count("n_requests", n_requests)
    check_real("rate_rps", rate_rps, 0, inf, "(]")
    rng = random.Random(check_count("seed", seed, None))
    t = 0.0
    requests: List[Request] = []
    for i in range(n_requests):
        t += rng.expovariate(rate_rps)
        requests.append(
            Request(i, t, prompt_dist.sample(rng), output_dist.sample(rng))
        )
    return RequestStream(name="poisson", requests=tuple(requests))


def bursty_stream(
    n_requests: int,
    burst_size: int,
    burst_gap_s: float,
    prompt_dist: LengthDistribution,
    output_dist: LengthDistribution,
    seed: int = 0,
) -> RequestStream:
    """Bursts of ``burst_size`` simultaneous arrivals every ``burst_gap_s``.

    Models synchronized fleets (cron-driven agents, classroom demos):
    the hardest admission-control case, since a whole burst contends for
    KV memory at one instant.
    """
    n_requests = check_count("n_requests", n_requests)
    burst_size = check_count("burst_size", burst_size)
    check_real("burst_gap_s", burst_gap_s, 0, inf, "()")
    rng = random.Random(check_count("seed", seed, None))
    requests: List[Request] = []
    for i in range(n_requests):
        burst = i // burst_size
        requests.append(
            Request(
                i,
                burst * burst_gap_s,
                prompt_dist.sample(rng),
                output_dist.sample(rng),
            )
        )
    return RequestStream(name="bursty", requests=tuple(requests))


class ClosedLoopSource(RequestSource):
    """A fixed user population with think time between requests.

    Each of ``n_users`` keeps exactly one request in flight; when it
    completes, the user "thinks" for ``think_time_s`` and submits the
    next, until ``total_requests`` have been issued overall. Offered
    load therefore adapts to service capacity — the canonical
    interactive-session model.
    """

    name = "closed-loop"

    def __init__(
        self,
        n_users: int,
        total_requests: int,
        think_time_s: float,
        prompt_dist: LengthDistribution,
        output_dist: LengthDistribution,
        seed: int = 0,
    ) -> None:
        n_users = check_count("n_users", n_users)
        total_requests = check_count("total_requests", total_requests)
        if total_requests < n_users:
            raise ConfigError(
                f"total_requests ({total_requests}) below n_users ({n_users})"
            )
        self.n_users = n_users
        self.total_requests = total_requests
        self.think_time_s = check_real("think_time_s", think_time_s, 0, inf, "[)")
        self.prompt_dist = prompt_dist
        self.output_dist = output_dist
        self._rng = random.Random(check_count("seed", seed, None))
        self._issued = 0
        self._started = False

    def _next(self, arrival_s: float) -> Request:
        req = Request(
            self._issued,
            arrival_s,
            self.prompt_dist.sample(self._rng),
            self.output_dist.sample(self._rng),
        )
        self._issued += 1
        return req

    def initial(self) -> Tuple[Request, ...]:
        # Closed-loop state (RNG position, issue counter) is consumed by a
        # run; reuse would silently produce a truncated, unseeded scenario.
        if self._started:
            raise ConfigError(
                "ClosedLoopSource is single-use: construct a fresh source "
                "(same seed) to reproduce the scenario"
            )
        self._started = True
        # Users start staggered by a small jitter so burst-0 ordering is
        # still a meaningful FCFS case.
        return tuple(
            self._next(u * 1e-3 * self._rng.random()) for u in range(self.n_users)
        )

    def on_complete(self, request: Request, finish_s: float) -> Optional[Request]:
        if self._issued >= self.total_requests:
            return None
        return self._next(finish_s + self.think_time_s)
