"""FleetSimulator: one request stream over N engine-backed shards.

A fleet is N :class:`~repro.serving.ContinuousBatchingScheduler` shards,
each wrapping its own :class:`~repro.core.MeadowEngine` — possibly
heterogeneous in DRAM bandwidth, KV budget, packing plan or batching
knobs — fed from *one* global request stream through a pluggable
:class:`~repro.fleet.routing.RoutingPolicy`.

One two-level discrete-event loop drives every run. The fleet level
merges the fault heap (empty for a fault-free run) with global arrivals
in deterministic ``(arrival_s, request_id)`` order; before each routing
decision every live shard is advanced to the arrival instant (shards
never see the future), and the policy reads those shards' live state
directly — no copy per arrival — to pick among the ones that could
ever hold the request. Shard level is the unmodified continuous-batching
scheduler, driven through its incremental
``submit``/``advance_until`` API — so per-shard semantics are exactly
those of single-engine serving, and a one-shard fleet reproduces `repro
serve` exactly: identical request records and merged metrics, field for
field (only ARRIVAL observations interleave at finer granularity, since
the fleet hands requests over at routing instants).

**Drain is driven by a global next-event calendar.** Between arrivals
each drain step reads every shard's
:meth:`~repro.serving.ContinuousBatchingScheduler.next_event_s` once —
the instant its next iteration would start, ``inf`` when idle — picks
the global minimum and advances that shard in one coalesced pass up to
a horizon taken from the runner-up's key, interrupted the moment a
completion injects a global follow-up. The horizon folds in the
per-iteration walk's tie-break (lowest shard id first), so every drain
step is one ``advance_until`` call, ties included. A drain step thus
costs O(shards) plus its coalesced run, the order every arrival's sync
already pays, while executing the *identical* iteration sequence as the
per-iteration walk (pick the minimal shard, run exactly one iteration,
repeat) that ``tests/oracles/fleet_walk.py`` keeps as the equivalence
oracle — records, events, decisions and merged metrics, bit for bit.
Open-loop sources never inject follow-ups, so there each shard runs dry
at once.

Closed-loop sources compose: a completion anywhere in the fleet hands
its follow-up back to the *global* router (completion hooks are
intercepted per shard), so think-time users are not pinned to the shard
that served their previous turn. Follow-ups that no shard could ever
admit are rejected and counted, mirroring single-engine behaviour.

Flag-gated layers ride on the loop. **Work stealing** (``steal=True``):
a shard going idle pulls the oldest still-waiting request it can hold
off the deepest-backlog shard (which must stay busy afterwards),
recorded as a migration decision. **Calibration feedback**: completions
of predicted placements report their realized TTFT to
``policy.observe``, which the ``calibrated-latency`` policy folds into a
per-shard bias. **Chaos** (``faults`` / ``retry`` / ``shedding``):
crashes harvest a shard's work for retry and keep it down through an
EdgeFlow-style re-warm, brownouts stretch its steps, and every request
ends in exactly one disposition.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.meadow import MeadowEngine
from ..errors import ConfigError, check_count
from ..obs.tracer import FleetObserver, ObsBundle
from ..serving.metrics import FleetMetrics
from ..serving.request import Request, RequestSource
from ..serving.scheduler import ContinuousBatchingScheduler, ServingResult
from ..serving.scheduler import check_kv_budget
from .faults import FaultKind, FaultSchedule, make_fault_schedule, rewarm_s
from .metrics import summarize_shards
from .resilience import (
    AppliedFault,
    Disposition,
    ResilienceReport,
    RetryPolicy,
    SheddingPolicy,
    make_shedding,
)
from .routing import RoutingPolicy, make_policy

__all__ = [
    "RoutingDecision",
    "TTFTCalibration",
    "FleetResult",
    "FleetReport",
    "FleetSimulator",
]

@dataclass(frozen=True, slots=True)
class RoutingDecision:
    """One request's placement: who asked, when, and which shard got it.

    A migrated (stolen) request carries one decision per placement: the
    original routing decision plus one with :attr:`migrated_from` set
    per steal. The *last* decision for a request id is its final
    placement — the one its record lives on.
    """

    request_id: int
    arrival_s: float
    shard_id: int
    #: The routing policy's TTFT model for the chosen shard at decision
    #: time; ``None`` for policies that do not predict latency. Compared
    #: against the realized TTFT by :meth:`FleetReport.ttft_calibration`.
    predicted_ttft_s: Optional[float] = None
    #: The shard a work-stealing migration pulled this request from;
    #: ``None`` for ordinary routing decisions.
    migrated_from: Optional[int] = None


@dataclass(frozen=True)
class TTFTCalibration:
    """Predicted-vs-realized TTFT error over one fleet run's decisions.

    Errors are signed ``predicted - realized`` seconds, so a positive
    mean means the router over-estimates (conservative placement) and a
    negative one that it under-estimates — typically decode interleaving
    after admission, which the prediction model deliberately ignores.
    """

    n_predictions: int
    mean_error_s: float
    mean_abs_error_s: float
    max_abs_error_s: float


@dataclass(frozen=True)
class FleetResult:
    """Everything one fleet simulation produced."""

    model_name: str
    policy_name: str
    source_name: str
    shard_results: Tuple[ServingResult, ...]
    decisions: Tuple[RoutingDecision, ...]
    #: Follow-ups no shard could ever admit (rejected at submission).
    n_rejected_followups: int
    #: Every request the fleet accepted: the source's initial stream
    #: (the first :attr:`n_initial`), then the closed-loop follow-ups.
    submitted: Tuple[Request, ...]
    n_initial: int

    @property
    def n_shards(self) -> int:
        """Number of shards in the fleet."""
        return len(self.shard_results)

    @property
    def requests_per_shard(self) -> Tuple[int, ...]:
        """How many requests each shard finally served.

        Counts *final* placements: a migrated request counts only for
        the shard that actually ran it (its last decision), so the
        tuple always sums to the number of distinct requests.
        """
        placement: Dict[int, int] = {}
        for decision in self.decisions:
            placement[decision.request_id] = decision.shard_id
        counts = [0] * self.n_shards
        for shard_id in placement.values():
            counts[shard_id] += 1
        return tuple(counts)

    @property
    def n_migrations(self) -> int:
        """Work-stealing migrations performed during the run."""
        return sum(
            1 for decision in self.decisions
            if decision.migrated_from is not None
        )


@dataclass(frozen=True)
class FleetReport:
    """A fleet result paired with merged and per-shard summaries."""

    result: FleetResult
    metrics: FleetMetrics
    shard_metrics: Tuple[FleetMetrics, ...]
    #: Chaos accounting (dispositions, availability, applied faults).
    #: ``None`` when the run used no resilience machinery at all —
    #: which is also what a run with an explicitly empty
    #: :class:`~repro.fleet.faults.FaultSchedule` reports, so zero-fault
    #: configurations compare equal whichever way they were spelled.
    resilience: Optional[ResilienceReport] = None
    #: What the run's observer built of this report (``None`` without
    #: one); excluded from equality, as it derives from the other fields.
    obs: Optional[ObsBundle] = field(default=None, compare=False, repr=False)

    def timeline(self, width: int = 80) -> str:
        """ASCII fleet timeline: one row per shard, faults overlaid.

        Renders the trace :meth:`FleetObserver.build
        <repro.obs.FleetObserver.build>` makes of this report, the same
        whether or not the run carried an observer.
        """
        from ..obs.gantt import render_fleet_timeline

        obs = self.obs if self.obs is not None else FleetObserver().build(self)
        return render_fleet_timeline(obs.trace, width=width)

    def ttft_calibration(self) -> Optional[TTFTCalibration]:
        """Aggregate predicted-vs-realized TTFT error, or ``None``.

        ``None`` when no decision carried a prediction (non-predictive
        policy) or no predicted request completed. Realized TTFT is read
        from the request records, so rejected follow-ups never enter;
        only each request's *final* decision is paired (a migrated
        request's original prediction describes a placement that never
        ran).
        """
        realized: Dict[int, float] = {}
        for shard in self.result.shard_results:
            for rec in shard.records:
                realized[rec.request.request_id] = rec.ttft_s
        final: Dict[int, RoutingDecision] = {}
        for decision in self.result.decisions:
            final[decision.request_id] = decision
        errors = [
            decision.predicted_ttft_s - realized[request_id]
            for request_id, decision in final.items()
            if decision.predicted_ttft_s is not None
            and request_id in realized
        ]
        if not errors:
            return None
        return TTFTCalibration(
            n_predictions=len(errors),
            mean_error_s=sum(errors) / len(errors),
            mean_abs_error_s=sum(abs(e) for e in errors) / len(errors),
            max_abs_error_s=max(abs(e) for e in errors),
        )

    def describe(self) -> str:
        """Human-readable report: fleet summary plus per-shard load."""
        title = (
            f"fleet of {self.result.n_shards} x {self.result.model_name} "
            f"— policy={self.result.policy_name}, "
            f"{self.result.source_name} scenario"
        )
        lines = [self.metrics.format_report(title)]
        counts = self.result.requests_per_shard
        for shard_id, (shard, m) in enumerate(
            zip(self.result.shard_results, self.shard_metrics)
        ):
            lines.append(
                f"shard {shard_id} [{shard.plan_name}]: "
                f"{counts[shard_id]} served, "
                f"{m.throughput_tok_s:.2f} tok/s, "
                f"p99 TTFT {m.ttft.p99_s * 1e3:.3f} ms, "
                f"peak KV {m.peak_kv_fraction:.1%}"
            )
        if self.result.n_migrations:
            lines.append(
                f"work stealing: {self.result.n_migrations} migrations"
            )
        calibration = self.ttft_calibration()
        if calibration is not None:
            lines.append(
                f"predicted TTFT error: "
                f"mean {calibration.mean_error_s * 1e3:+.3f} ms, "
                f"mean |err| {calibration.mean_abs_error_s * 1e3:.3f} ms, "
                f"max |err| {calibration.max_abs_error_s * 1e3:.3f} ms "
                f"over {calibration.n_predictions} decisions"
            )
        if self.result.n_rejected_followups:
            lines.append(
                f"rejected follow-ups: {self.result.n_rejected_followups}"
            )
        if self.resilience is not None:
            lines.append(self.resilience.describe())
        return "\n".join(lines)


def _per_shard(value, n: int, name: str, check) -> List:
    """Broadcast a scalar knob to n shards, or validate a sequence;
    each value is ``check(name, value)``."""
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise ConfigError(
                f"{name} has {len(value)} entries for a {n}-shard fleet"
            )
        return [check(name, v) for v in value]
    return [check(name, value)] * n


class _DrainCalendar:
    """Next-event calendar over the fleet's shards.

    Keeps no copy of shard state: each :meth:`pop` reads every shard's
    ``next_event_s()`` (``inf`` exactly when the shard is idle), so
    nothing the fleet loop does to a shard needs reporting. An
    ``open_loop`` fleet's shards are independent once it drains (no
    completion can inject an arrival), so its horizons are +inf.
    """

    __slots__ = ("_shards", "_open_loop")

    def __init__(
        self, shards: Sequence[ContinuousBatchingScheduler], open_loop: bool
    ) -> None:
        self._shards = shards
        self._open_loop = open_loop

    def pop(self) -> Optional[Tuple[int, float]]:
        """Next acting shard as ``(shard_id, horizon)``, or None.

        The shard is the one with the lowest ``(key, shard_id)``, as the
        per-iteration walk's ``min()`` picks it. It may keep stepping
        while its clock is before ``horizon``, which folds in the walk's
        lowest-id-first tie-break: the runner-up's key when the
        runner-up has the lower id (it wins a tie), else the next float
        above that key (the winner does). With no busy runner-up, or
        for an open-loop fleet, the horizon is +inf. ``None`` means
        every shard is idle.
        """
        key = runner_key = math.inf
        i = j = -1
        # Strict comparisons in ascending id: equal keys keep the lower id.
        for shard_id, shard in enumerate(self._shards):
            k = shard.next_event_s()
            if k < key:
                runner_key, j = key, i
                key, i = k, shard_id
            elif k < runner_key:
                runner_key, j = k, shard_id
        if key == math.inf:
            return None
        if self._open_loop or runner_key == math.inf:
            return i, math.inf
        if j < i:
            return i, runner_key
        return i, math.nextafter(runner_key, math.inf)


class FleetSimulator:
    """Run request scenarios over a fleet of engines with one router.

    Args:
        engines: one deployed :class:`MeadowEngine` per shard. All must
            serve the same model (one stream, one tokenizer); hardware
            configs, plans and planners may differ freely. Engines with
            identical configs may be shared between shards — schedulers
            hold no engine state beyond the (append-only) surface.
        policy: a :class:`RoutingPolicy` instance or registered name.
        kv_budget_bytes / max_batch / ctx_bucket: scalar applied to all
            shards, or one value per shard for heterogeneous fleets.
        token_events: accepted only as ``False``, which changes
            nothing; ``True`` raises :class:`~repro.errors.ConfigError`.
            Every shard's event log holds state changes only, and token
            instants live in the records. The parameter exists only for
            ``perfbench/workloads.py``, which still passes
            ``token_events=False``, and goes when that file drops it.
        steal: let a shard going idle pull the oldest still-waiting
            request it can hold off the deepest-backlog shard (which
            must stay busy afterwards). Each migration is recorded as a
            :class:`RoutingDecision` with ``migrated_from`` set.
        faults: a :class:`~repro.fleet.faults.FaultSchedule`, a named
            scenario (``"crash"`` / ``"cascade"`` / ``"brownout"`` /
            ``"chaos"`` — instantiated at run time against the fleet
            size and the stream's arrival span), or ``None``. No faults
            is an empty fault heap in the one event loop; with no
            faults, no retry policy and no shedding the report carries
            no resilience block.
        retry: :class:`~repro.fleet.resilience.RetryPolicy` governing
            failure-driven resubmission. Defaults to ``RetryPolicy()``
            whenever faults are scheduled, so chaos runs retry unless
            explicitly told not to (``RetryPolicy(max_retries=0)``).
        shedding: a :class:`~repro.fleet.resilience.SheddingPolicy`
            instance or registered name (``"none"`` / ``"deadline"`` /
            ``"drop-oldest"``).
        fault_seed: seed for named fault scenarios (ignored when a
            concrete schedule is passed).
        obs: a :class:`~repro.obs.FleetObserver`; the bundle its
            :meth:`~repro.obs.FleetObserver.build` makes of the finished
            report lands on :attr:`FleetReport.obs`. The run itself is
            the same with or without one.
    """

    def __init__(
        self,
        engines: Sequence[MeadowEngine],
        policy: Union[RoutingPolicy, str] = "round-robin",
        kv_budget_bytes=None,
        max_batch=16,
        ctx_bucket=1,
        token_events: bool = False,
        steal: bool = False,
        faults: Union[FaultSchedule, str, None] = None,
        retry: Optional[RetryPolicy] = None,
        shedding: Union[SheddingPolicy, str, None] = None,
        fault_seed: int = 0,
        obs: Optional[FleetObserver] = None,
    ) -> None:
        if token_events:
            raise ConfigError(
                "token_events=True is not supported: shard event logs hold "
                "state changes only; read token instants from the records"
            )
        if not engines:
            raise ConfigError("a fleet needs at least one engine")
        model = engines[0].model
        for i, engine in enumerate(engines):
            if engine.model != model:
                raise ConfigError(
                    f"fleet engines must serve one model: shard 0 runs "
                    f"{model.name}, shard {i} runs {engine.model.name}"
                )
        self.engines = tuple(engines)
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        n = len(self.engines)
        self.kv_budget_bytes = _per_shard(
            kv_budget_bytes, n, "kv_budget_bytes", check_kv_budget
        )
        self.max_batch = _per_shard(max_batch, n, "max_batch", check_count)
        self.ctx_bucket = _per_shard(ctx_bucket, n, "ctx_bucket", check_count)
        self.steal = steal
        self.faults = faults
        self.retry = retry
        self.shedding = (
            make_shedding(shedding) if isinstance(shedding, str) else shedding
        )
        self.fault_seed = check_count("fault_seed", fault_seed, None)
        self.obs = obs

    def _resolve_faults(
        self, initial: Sequence[Request]
    ) -> FaultSchedule:
        """Turn the ``faults`` knob into a concrete schedule for one run."""
        if self.faults is None:
            return FaultSchedule.none()
        if isinstance(self.faults, str):
            span = max(req.arrival_s for req in initial)
            return make_fault_schedule(
                self.faults, len(self.engines), span, self.fault_seed
            )
        return self.faults.for_fleet(len(self.engines))

    # ---------------------------------------------------------------- run
    def run(self, source: RequestSource) -> FleetReport:
        """Simulate one scenario across the fleet to completion.

        Each turn handles the next fault, else the next arrival, else
        one drain step off the calendar. A fault and an arrival at the
        same instant resolve fault-first, so a request never routes to
        a shard that dies at its own arrival instant, and a parked
        request waking at a recovery instant finds the shard up. Fault
        times come from the seeded schedule, retry jitter from
        ``(seed, request_id, attempt)``-keyed RNGs, and all tie-breaks
        are total orders: two same-seed runs produce ``==`` reports.
        """
        shards: List[ContinuousBatchingScheduler] = []
        try:
            return self._run(source, shards)
        finally:
            shards.clear()  # the shards' hooks hold it: leave no cycle

    def _run(self, source: RequestSource, shards: list) -> FleetReport:
        """:meth:`run`, filling ``shards`` with the run's schedulers."""
        initial = tuple(source.initial())
        if not initial:
            raise ConfigError(f"source {source.name!r} produced no requests")
        schedule = self._resolve_faults(initial)
        shedding = self.shedding
        # Chaos accounting is reported only when something asked for
        # it, so `faults=None` and `faults=FaultSchedule.none()` give
        # equal reports without a resilience block.
        resilient = (
            not schedule.is_empty
            or self.retry is not None
            or (shedding is not None and shedding.name != "none")
        )
        retry_policy = self.retry if self.retry is not None else RetryPolicy()
        n_shards = len(self.engines)
        policy = self.policy
        policy.reset(n_shards)

        # (arrival_s, request_id, Request): the same deterministic FCFS
        # total order the per-shard schedulers use.
        arrivals: List[Tuple[float, int, Request]] = []
        submitted: List[Request] = list(initial)  # see FleetResult
        n_rejected = 0
        # Predictions awaiting realization (request id -> predicted
        # TTFT on its current shard). Entries are dropped when a steal
        # migrates the request or a crash evicts it, so completions
        # only report placements that actually ran.
        pending_predictions: Dict[int, float] = {}

        # -------------------------------------------- resilience state
        dispositions: Dict[int, Disposition] = {}
        attempts: Dict[int, int] = {}  # failure-driven retries used
        origin: Dict[int, float] = {}  # first arrival of each failed request
        n_retries = 0
        lost_tokens = 0
        applied: List[AppliedFault] = []
        ledger: List[tuple] = []  # see ResilienceReport.ledger
        up = [True] * n_shards
        down_until_s = [0.0] * n_shards

        # The fault event heap: (t, seq, action, shard_id, payload).
        # seq is an insertion counter so equal-time events apply in
        # schedule order (recoveries scheduled before a later crash at
        # the same instant fire first).
        fault_heap: List[Tuple[float, int, str, int, object]] = []
        fault_seq = itertools.count()

        def push_fault(t: float, action: str, shard_id: int, payload) -> None:
            heapq.heappush(
                fault_heap, (t, next(fault_seq), action, shard_id, payload)
            )

        for fault in schedule.faults:
            s = fault.shard_id
            if fault.kind is FaultKind.CRASH:
                push_fault(fault.at_s, "crash", s, fault.duration_s)
            else:
                end_s = fault.at_s + fault.duration_s
                push_fault(fault.at_s, "brownout", s, (fault.bandwidth_factor, end_s))
                push_fault(end_s, "brownout_end", s, None)

        def handle_failure(req: Request, t: float) -> None:
            """Decide one harvested request's fate: retry, expire or lose."""
            nonlocal n_retries
            rid = req.request_id
            # A request first fails on the placement of its first
            # arrival; retries are resubmitted copies.
            origin.setdefault(rid, req.arrival_s)
            eff = retry_policy.effective_deadline_s(req)
            deadline = None if eff is None else origin[rid] + eff
            used = attempts.get(rid, 0)
            if used < retry_policy.max_retries:
                backoff = retry_policy.backoff_s(rid, used + 1)
                if deadline is None or t + backoff < deadline:
                    attempts[rid] = used + 1
                    n_retries += 1
                    resub = replace(req, arrival_s=t + backoff)
                    heapq.heappush(arrivals, (resub.arrival_s, rid, resub))
                    ledger.append((t, "RETRY", rid, used + 1, backoff))
                    return
                # The retry could not even re-enter before the deadline.
                fate = Disposition.EXPIRED
            elif deadline is not None and t >= deadline:
                # Budget gone, and the deadline passed too: blame it.
                fate = Disposition.EXPIRED
            else:
                fate = Disposition.LOST
            dispositions[rid] = fate
            ledger.append((t, fate.name, rid))

        def shed(rid: int, t: float, reason: str, shard_id=None) -> None:
            dispositions[rid] = Disposition.SHED
            ledger.append((t, "SHED", rid, reason, shard_id))

        def make_harvest(shard_id: int):
            # Completion hook: record the disposition (exactly once, at
            # the only instant a request can complete), feed realized
            # TTFT back to the policy, then pull any follow-up back to
            # the global router instead of letting the shard keep it.
            def harvest(request: Request, finish_s: float) -> Optional[Request]:
                nonlocal n_rejected
                rid = request.request_id
                if resilient:
                    dispositions[rid] = (
                        Disposition.RETRIED if attempts.get(rid)
                        else Disposition.OK
                    )
                predicted = pending_predictions.pop(rid, None)
                if predicted is not None:
                    record = shards[shard_id].record_for(rid)
                    policy.observe(shard_id, predicted, record.ttft_s)
                follow_up = source.on_complete(request, finish_s)
                if follow_up is None:
                    return None
                if any(s.can_ever_admit(follow_up) for s in shards):
                    heapq.heappush(
                        arrivals,
                        (follow_up.arrival_s, follow_up.request_id, follow_up),
                    )
                    submitted.append(follow_up)
                else:
                    n_rejected += 1
                return None

            return harvest

        shards.extend(
            ContinuousBatchingScheduler(
                engine,
                source=None,
                kv_budget_bytes=self.kv_budget_bytes[i],
                max_batch=self.max_batch[i],
                ctx_bucket=self.ctx_bucket[i],
                on_complete=make_harvest(i),
                shard_id=i,
            )
            for i, engine in enumerate(self.engines)
        )
        # Open-loop sources never inject follow-ups, so once the arrival
        # and fault heaps drain the calendar runs each shard dry in one
        # advance (steal checks still need every boundary). A source is
        # open-loop only when on_complete is the base-class no-op and no
        # instance-level hook shadows it.
        open_loop = (
            type(source).on_complete is RequestSource.on_complete
            and "on_complete" not in getattr(source, "__dict__", {})
            and not self.steal
        )

        seen_ids = set()
        for req in initial:
            if req.request_id in seen_ids:
                raise ConfigError(
                    f"duplicate request id {req.request_id} in fleet stream"
                )
            seen_ids.add(req.request_id)
            if not any(s.can_ever_admit(req) for s in shards):
                # Mirror the single-engine fail-fast: an initial request
                # that can never run anywhere is a configuration error.
                shards[0]._check(req)  # raises with the precise reason
            heapq.heappush(arrivals, (req.arrival_s, req.request_id, req))
        del seen_ids  # only the start-up check reads it

        def sync(t: float) -> bool:
            """Advance every live shard to ``t``; False when a completion
            injected an earlier arrival, which must route first."""
            preempted = lambda: bool(arrivals) and arrivals[0][0] < t
            for i, shard in enumerate(shards):
                if up[i]:
                    shard.advance_until(t, interrupt=preempted)
            return not preempted()

        decisions: List[RoutingDecision] = []
        calendar = _DrainCalendar(shards, open_loop)
        while True:
            if self.steal:
                self._steal_pass(shards, decisions, pending_predictions, up)
            t_fault = fault_heap[0][0] if fault_heap else math.inf
            t_arr = arrivals[0][0] if arrivals else math.inf
            if t_fault <= t_arr and t_fault < math.inf:
                if t_arr == math.inf and all(shard.idle for shard in shards):
                    # Nothing in flight and nothing to come: remaining
                    # faults would strike an idle fleet past makespan.
                    break
                # Advance every live shard to the fault instant first —
                # bailing out if a completion injects an earlier global
                # follow-up, which must route before time passes it.
                if not sync(t_fault):
                    continue
                t, _, action, s, payload = heapq.heappop(fault_heap)
                if action == "crash":
                    if not up[s]:
                        continue  # absorbed: the shard is already down
                    waiting, inflight = shards[s].crash_harvest()
                    up[s] = False
                    # Cold-start cost from the engine's packed weight
                    # image (crashes on the same shard re-warm alike).
                    outage_end_s = t + payload
                    recover_at = outage_end_s + rewarm_s(self.engines[s])
                    down_until_s[s] = recover_at
                    push_fault(recover_at, "recover", s, None)
                    lost = sum(gen for _, gen in inflight)
                    lost_tokens += lost
                    victims = waiting + [req for req, _ in inflight]
                    applied.append(
                        AppliedFault(
                            FaultKind.CRASH, s, t, recover_at, outage_end_s,
                            1.0, len(victims), lost,
                        )
                    )
                    ledger.append((t, "SHARDS_UP", sum(up)))
                    for victim in victims:
                        pending_predictions.pop(victim.request_id, None)
                        handle_failure(victim, t)
                elif action == "recover":
                    up[s] = True
                    ledger.append((t, "SHARDS_UP", sum(up)))
                elif action == "brownout":
                    factor, end_s = payload
                    # Steps already in flight finish at their original
                    # bandwidth; everything starting after t runs slow.
                    shards[s].latency_scale = 1.0 / factor
                    applied.append(
                        AppliedFault(
                            FaultKind.BROWNOUT, s, t, end_s, end_s, factor
                        )
                    )
                else:  # brownout_end — most recent event wins on overlap
                    shards[s].latency_scale = 1.0
                continue
            if arrivals:
                t, request_id, req = heapq.heappop(arrivals)
                # No live shard may lag the routing instant: advance each
                # to t (steps in flight may overshoot — shards are busy
                # until their clock, which the policy reads). The
                # advance stops the moment a completion injects a
                # follow-up due *before* t: that follow-up must be
                # routed — and submitted to its shard — before any
                # shard simulates past its arrival, or prefills that
                # should preempt in-flight decodes run too late.
                if not sync(t):
                    # Route the earlier follow-up first; the popped
                    # arrival goes back and re-advances from here.
                    heapq.heappush(arrivals, (t, request_id, req))
                    continue
                feasible_ids = [
                    i for i, shard in enumerate(shards)
                    if shard.can_ever_admit(req)
                ]
                # Circuit breaker: down shards take no traffic. When
                # *every* feasible shard is down, park the request until
                # the first of them recovers (its arrival_s is kept, so
                # the wait counts against its TTFT honestly).
                live = [i for i in feasible_ids if up[i]]
                if not live:
                    wake = min(down_until_s[i] for i in feasible_ids)
                    heapq.heappush(arrivals, (max(wake, t), request_id, req))
                    continue
                # Policies and shedding read the live shards; the
                # prediction comes back with the choice, taken before
                # any eviction or the submit below changes the shard.
                feasible = [shards[i] for i in live]
                if shedding is not None:
                    eff = retry_policy.effective_deadline_s(req)
                    if eff is not None and attempts.get(request_id):
                        # A retry's deadline budget counts from its FIRST
                        # arrival, not the resubmission instant.
                        eff = origin[request_id] + eff - req.arrival_s
                    if shedding.reject(req, t, feasible, eff):
                        shed(request_id, t, "rejected")
                        continue
                choice, predicted = policy.route(req, t, feasible)
                if choice not in live:
                    raise ConfigError(
                        f"policy {policy.name!r} routed request "
                        f"{request_id} to infeasible shard {choice}"
                    )
                chosen = shards[choice]
                if shedding is not None and shedding.evict(chosen):
                    victims = chosen.steal_candidates()
                    if victims:
                        victim = victims[0].request_id
                        chosen.withdraw(victim)
                        pending_predictions.pop(victim, None)
                        shed(victim, t, "evicted", choice)
                chosen.submit(req)
                if predicted is not None:
                    pending_predictions[request_id] = predicted
                decisions.append(
                    RoutingDecision(request_id, t, choice, predicted)
                )
            else:
                # Event-calendar drain: advance the globally next-acting
                # shard in one coalesced pass up to its horizon, bailing
                # out the moment a completion injects a global follow-up
                # — so closed-loop arrivals re-enter routing at exactly
                # the instant the per-iteration walk would surface them.
                nxt = calendar.pop()
                if nxt is None:
                    break
                idx, horizon = nxt
                shards[idx].advance_until(
                    horizon, interrupt=lambda: bool(arrivals)
                )

        shard_results = tuple(shard.result() for shard in shards)
        resilience = None
        if resilient:
            # Availability accounting in absolute time: the run spans
            # the first arrival to the last shard clock; each crash's
            # down window is clipped to that span.
            start_s = min(req.arrival_s for req in initial)
            end_s = max(shard.clock_s for shard in shards)
            downtime = [0.0] * n_shards
            for fault in applied:
                if fault.kind is FaultKind.CRASH:
                    lo = min(max(fault.at_s, start_s), end_s)
                    hi = min(max(fault.until_s, start_s), end_s)
                    downtime[fault.shard_id] += hi - lo
            resilience = ResilienceReport.build(
                dispositions=dispositions,
                n_retries=n_retries,
                lost_generated_tokens=lost_tokens,
                faults=applied,
                shard_downtime_s=downtime,
                makespan_s=max(0.0, end_s - start_s),
                ledger=ledger,
            )
        result = FleetResult(
            model_name=self.engines[0].model.name,
            policy_name=policy.name,
            source_name=source.name,
            shard_results=shard_results,
            decisions=tuple(decisions),
            n_rejected_followups=n_rejected,
            submitted=tuple(submitted),
            n_initial=len(initial),
        )
        metrics, shard_metrics = summarize_shards(shard_results)
        report = FleetReport(
            result=result,
            metrics=metrics,
            shard_metrics=shard_metrics,
            resilience=resilience,
        )
        if self.obs is not None:
            report = replace(report, obs=self.obs.build(report))
        return report

    @staticmethod
    def _steal_pass(
        shards: List[ContinuousBatchingScheduler],
        decisions: List[RoutingDecision],
        pending_predictions: Dict[int, float],
        up: Sequence[bool],
    ) -> None:
        """Idle thieves pull waiting work off backlogged donors.

        Deterministic: thieves are visited in ascending shard id;
        each scans donors by (deepest stealable backlog, lowest id)
        and takes the *oldest* still-waiting request it could ever
        admit — the one with the worst accumulated wait, whose
        departure also shortens the queue for everything behind it
        — provided the donor stays non-idle after losing it and
        the move is profitable: the idle thief's first-token
        instant (its clock plus its surface's prefill) must beat a
        *lower bound* on the donor's (busy-until plus the donor's
        prefill, ignoring the donor's queue), so work never
        migrates onto a shard slow enough to make the wait look
        good. One steal per thief per pass (the thief is busy
        afterwards).

        ``up`` masks crashed shards: a down shard is "idle" because
        its queue was harvested, not because it has capacity — it
        must neither steal nor donate (it holds nothing to donate
        anyway).
        """

        def first_token_s(shard, candidate) -> float:
            # Busy-until plus the shard's own prefill, queue ignored.
            prefill = shard.engine.surface.prefill(candidate.prompt_tokens)
            return max(shard.clock_s, candidate.arrival_s) + prefill.latency_s

        for thief_id, thief in enumerate(shards):
            if not up[thief_id] or not thief.idle:
                continue
            donors = sorted(
                (d_id for d_id, d in enumerate(shards) if d.n_waiting),
                key=lambda d_id: (-shards[d_id].n_waiting, d_id),
            )
            for donor_id in donors:
                donor = shards[donor_id]
                if donor.n_in_system < 2:
                    continue  # donor would go idle: nothing gained
                victim = next(
                    (
                        candidate
                        for candidate in donor.steal_candidates()
                        if thief.can_ever_admit(candidate)
                        and first_token_s(thief, candidate)
                        < first_token_s(donor, candidate)
                    ),
                    None,
                )
                if victim is None:
                    continue
                donor.withdraw(victim.request_id)
                # The original prediction describes a placement
                # that will never run; drop it from calibration.
                pending_predictions.pop(victim.request_id, None)
                thief.submit(victim)
                migrate_s = max(thief.clock_s, victim.arrival_s)
                decisions.append(
                    RoutingDecision(
                        victim.request_id,
                        migrate_s,
                        thief_id,
                        migrated_from=donor_id,
                    )
                )
                break
