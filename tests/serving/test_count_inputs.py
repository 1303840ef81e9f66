"""Token counts and scheduler knobs are checked where they are built.

One table of public-API probes. ``max_batch`` and ``ctx_bucket`` on
the scheduler, a request's token counts and a length distribution's
bounds follow the count rule (an integral number at or above its bound;
bools, NaN, infinities and fractions refused, integral floats accepted
as ints); the KV budget must be positive and finite. Each bad value
raises :class:`~repro.errors.ConfigError` with the message prefix the
comparison it replaced used, at construction; each valid one runs a
4-request scenario that serves every request in full.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import ConfigError
from repro.serving import (
    LengthDistribution,
    Request,
    RequestStream,
    ServingSimulator,
    poisson_stream,
)

NAN, INF = math.nan, math.inf
FIXED8 = LengthDistribution("fixed", 8)
GEO = LengthDistribution("geometric", 4, 16)


def _stream(prompt=FIXED8, output=GEO):
    return poisson_stream(4, 50.0, prompt, output, seed=0)


def _serve(engine, source=None, **knobs):
    return ServingSimulator(engine, **knobs).run(source or _stream())


def _four(prompt, output):
    return RequestStream(
        "four", tuple(Request(i, 0.01 * i, prompt, output) for i in range(4))
    )


#: (id, probe, expected): the probe gets the serving engine; ``expected``
#: is the start of the ConfigError it must raise, or None for a valid
#: input that must serve its requests.
CASES = [
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
    ("ctx-bucket-true", lambda e: _serve(e, ctx_bucket=True), "ctx_bucket must be >= 1"),
    ("ctx-bucket-nan", lambda e: _serve(e, ctx_bucket=NAN), "ctx_bucket must be >= 1"),
    ("ctx-bucket-16.0", lambda e: _serve(e, ctx_bucket=16.0), None),
    ("prompt-2.5", lambda e: _serve(e, _four(2.5, 4)), "prompt_tokens must be >= 1"),
    ("output-2.5", lambda e: _serve(e, _four(8, 2.5)), "output_tokens must be >= 1"),
    ("prompt-true", lambda e: _serve(e, _four(True, 4)), "prompt_tokens must be >= 1"),
    ("output-true", lambda e: _serve(e, _four(8, True)), "output_tokens must be >= 1"),
    ("output-nan", lambda e: _serve(e, _four(8, NAN)), "output_tokens must be >= 1"),
    ("output-inf", lambda e: _serve(e, _four(8, INF)), "output_tokens must be >= 1"),
    ("counts-8.0-4.0", lambda e: _serve(e, _four(8.0, 4.0)), None),
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
        e, _stream(output=LengthDistribution("geometric", 2.5, 16))), None),
    ("uniform-8.0-16.0", lambda e: _serve(
        e, _stream(prompt=LengthDistribution("uniform", 8.0, 16.0))), None),
]


@pytest.mark.parametrize(
    "probe, expected", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_count_inputs(serving_engine, probe, expected):
    if expected is not None:
        with pytest.raises(ConfigError, match=f"^{expected}"):
            probe(serving_engine)
        return
    records = probe(serving_engine).result.records
    assert sorted(r.request.request_id for r in records) == [0, 1, 2, 3]
    for rec in records:
        req = rec.request
        assert type(req.prompt_tokens) is int and type(req.output_tokens) is int
        assert rec.generated_tokens == req.output_tokens
