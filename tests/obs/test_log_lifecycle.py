"""Lifecycles built from the logs agree with the live state machine.

:mod:`repro.obs` builds every request's QUEUE / PREFILL / DECODE spans
after the run from the shards' event logs, derives ROUTE and MIGRATE
instants and the routing counters from the routing decisions, and
writes the Perfetto document through per-kind templates.
``tests/oracles/obs_reference.py`` keeps the per-event state machine
and the dict-per-event writer this replaced. The property runs observed
fleets over routing policies, arrival shapes, work stealing, faults
and shedding, and compares the lifecycle spans, the counters and the
written bytes with that reference, corrected (``fixed=True``) for the
two faults the original had. Against the uncorrected reference, the
written documents differ only in those two places: the request spans
of requests a crash evicted mid-decode, and the route flow arrows.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.obs_reference import document_text, reference_counters, reference_trace
from repro.fleet import DropOldestShedding, FleetSimulator, RetryPolicy
from repro.obs import CAT_REQUEST, FleetObserver
from repro.serving import ClosedLoopSource, EventKind, LengthDistribution

_COUNTED = (
    "requests_admitted", "requests_completed", "requests_withdrawn",
    "requests_routed", "migrations",
)


def _observed_run(engines, make_stream, policy, arrival, steal, faults,
                  shedding, seed, n):
    retry = None
    if faults is not None or shedding == "deadline":
        retry = RetryPolicy(
            max_retries=2, seed=1,
            deadline_s=0.05 if shedding == "deadline" else None,
        )
    if shedding == "drop-oldest":
        shedding = DropOldestShedding(max_waiting=2)
    fleet = FleetSimulator(
        engines, policy=policy, max_batch=8, ctx_bucket=16, steal=steal,
        faults=faults, retry=retry, shedding=shedding, fault_seed=1,
        obs=FleetObserver(tick_s=0.01),
    )
    if arrival == "closed":
        source = ClosedLoopSource(
            n_users=4, total_requests=n, think_time_s=0.002,
            prompt_dist=LengthDistribution("uniform", 8, 64),
            output_dist=LengthDistribution("geometric", 8, 32), seed=seed,
        )
    else:
        source = make_stream(arrival, n, seed)
    return fleet.run(source)


def _lifecycle(trace):
    return [s for s in trace.spans if s.cat == CAT_REQUEST]


def _crash_victims(report):
    """(request id, pid) of every request evicted after its prefill."""
    victims = set()
    for shard_id, shard in enumerate(report.result.shard_results):
        started = set()
        for ev in shard.events:
            if ev.kind is EventKind.PREFILL_START:
                started.add(ev.request_id)
            elif ev.kind is EventKind.ARRIVAL:
                started.discard(ev.request_id)
            elif ev.kind is EventKind.WITHDRAW and ev.request_id in started:
                victims.add((ev.request_id, shard_id + 2))
    return victims


def _outside_the_fixes(text, victims):
    """The document's events minus flows and the victims' request spans."""
    return [
        ev for ev in json.loads(text)["traceEvents"]
        if ev["ph"] not in ("s", "f")
        and not (
            ev["ph"] == "X" and ev["cat"] == CAT_REQUEST
            and (ev["args"]["request_id"], ev["pid"]) in victims
        )
    ]


def _counters(registry):
    return {
        (c["name"], tuple(sorted(c["labels"].items()))): c["value"]
        for c in registry.to_dict()["counters"]
        if c["name"] in _COUNTED and c["value"]
    }


@settings(max_examples=20, deadline=None)
@given(
    policy=st.sampled_from(["jsq", "round-robin", "least-kv", "predicted-latency"]),
    arrival=st.sampled_from(["bursty", "poisson", "closed"]),
    steal=st.booleans(),
    faults=st.sampled_from([None, "crash", "chaos"]),
    shedding=st.sampled_from([None, "deadline", "drop-oldest"]),
    seed=st.integers(0, 3),
    n=st.integers(6, 20),
)
def test_log_built_trace_matches_reference(
    tmp_path_factory, fast_engine, slow_engine, make_stream,
    policy, arrival, steal, faults, shedding, seed, n,
):
    report = _observed_run(
        [fast_engine, slow_engine], make_stream, policy, arrival, steal,
        faults, shedding, seed, n,
    )
    reference = reference_trace(report, fixed=True)
    assert _lifecycle(report.obs.trace) == _lifecycle(reference)
    assert _counters(report.obs.metrics) == {
        key: value for key, value in reference_counters(report).items() if value
    }
    path = tmp_path_factory.mktemp("trace") / "trace.json"
    report.obs.write_trace(str(path))
    text = path.read_text()
    assert text == document_text(reference, fixed=True)
    original = document_text(reference_trace(report), fixed=False)
    victims = _crash_victims(report)
    assert _outside_the_fixes(text, victims) == _outside_the_fixes(original, victims)
