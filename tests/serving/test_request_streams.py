"""Tests for request models, length distributions and arrival processes."""

import random

import pytest

from repro.errors import ConfigError
from repro.serving import (
    ClosedLoopSource,
    LengthDistribution,
    Request,
    RequestStream,
    bursty_stream,
    poisson_stream,
)

PROMPTS = LengthDistribution("uniform", 8, 64)
OUTPUTS = LengthDistribution("geometric", 8, 32)


class TestRequest:
    def test_total_tokens(self):
        assert Request(0, 0.0, 100, 28).total_tokens == 128

    def test_rejects_bad_fields(self):
        with pytest.raises(ConfigError):
            Request(0, -1.0, 8, 8)
        with pytest.raises(ConfigError):
            Request(0, 0.0, 0, 8)
        with pytest.raises(ConfigError):
            Request(0, 0.0, 8, 0)
        with pytest.raises(ConfigError):
            Request(0, 0.0, 8, 8, deadline_s=float("nan"))

    @pytest.mark.parametrize("arrival_s", [float("nan"), float("inf")])
    def test_rejects_non_finite_arrival(self, arrival_s):
        # No clock ever reaches a NaN or infinite arrival, so a
        # scheduler holding one would never ingest it.
        with pytest.raises(ConfigError, match="arrival_s must be non-negative"):
            Request(0, arrival_s, 8, 8)


class TestLengthDistribution:
    def test_fixed_is_constant(self):
        rng = random.Random(0)
        dist = LengthDistribution("fixed", 17)
        assert {dist.sample(rng) for _ in range(10)} == {17}

    def test_uniform_respects_bounds(self):
        rng = random.Random(1)
        dist = LengthDistribution("uniform", 4, 9)
        samples = [dist.sample(rng) for _ in range(200)]
        assert min(samples) >= 4 and max(samples) <= 9

    def test_geometric_truncated_and_positive(self):
        rng = random.Random(2)
        dist = LengthDistribution("geometric", 8, 32)
        samples = [dist.sample(rng) for _ in range(500)]
        assert min(samples) >= 1 and max(samples) <= 32
        assert 4 < sum(samples) / len(samples) < 12  # mean near 8

    def test_rejects_bad_specs(self):
        with pytest.raises(ConfigError):
            LengthDistribution("normal", 8, 16)
        with pytest.raises(ConfigError):
            LengthDistribution("uniform", 8, None)
        with pytest.raises(ConfigError):
            LengthDistribution("uniform", 8, 4)


class TestPoissonStream:
    def test_arrivals_sorted_and_sized(self):
        stream = poisson_stream(32, 5.0, PROMPTS, OUTPUTS, seed=3)
        assert stream.n_requests == 32
        arrivals = [r.arrival_s for r in stream.requests]
        assert arrivals == sorted(arrivals)

    def test_seed_determinism(self):
        a = poisson_stream(16, 5.0, PROMPTS, OUTPUTS, seed=7)
        b = poisson_stream(16, 5.0, PROMPTS, OUTPUTS, seed=7)
        c = poisson_stream(16, 5.0, PROMPTS, OUTPUTS, seed=8)
        assert a.requests == b.requests
        assert a.requests != c.requests

    def test_rate_controls_density(self):
        slow = poisson_stream(64, 1.0, PROMPTS, OUTPUTS, seed=0)
        fast = poisson_stream(64, 100.0, PROMPTS, OUTPUTS, seed=0)
        assert fast.requests[-1].arrival_s < slow.requests[-1].arrival_s


class TestBurstyStream:
    def test_bursts_share_an_instant(self):
        stream = bursty_stream(12, 4, 3.0, PROMPTS, OUTPUTS, seed=0)
        arrivals = [r.arrival_s for r in stream.requests]
        assert arrivals[:4] == [0.0] * 4
        assert arrivals[4:8] == [3.0] * 4
        assert arrivals[8:] == [6.0] * 4

    def test_total_output_tokens_positive(self):
        stream = bursty_stream(8, 2, 1.0, PROMPTS, OUTPUTS, seed=1)
        assert stream.total_output_tokens >= 8


class TestClosedLoopSource:
    def test_initial_population_is_n_users(self):
        source = ClosedLoopSource(3, 9, 0.25, PROMPTS, OUTPUTS, seed=0)
        assert len(source.initial()) == 3

    def test_follow_ups_respect_think_time_and_cap(self):
        source = ClosedLoopSource(2, 3, 0.5, PROMPTS, OUTPUTS, seed=0)
        first, second = source.initial()
        third = source.on_complete(first, finish_s=4.0)
        assert third is not None
        assert third.arrival_s == pytest.approx(4.5)
        assert source.on_complete(second, finish_s=5.0) is None  # cap reached

    def test_rejects_bad_population(self):
        with pytest.raises(ConfigError):
            ClosedLoopSource(0, 4, 0.5, PROMPTS, OUTPUTS)
        with pytest.raises(ConfigError):
            ClosedLoopSource(4, 2, 0.5, PROMPTS, OUTPUTS)

    def test_single_use_guard(self):
        # Reuse would silently replay a truncated, unseeded scenario.
        source = ClosedLoopSource(2, 4, 0.5, PROMPTS, OUTPUTS, seed=0)
        source.initial()
        with pytest.raises(ConfigError):
            source.initial()


class TestRequestStream:
    def test_rejects_unsorted_or_duplicate(self):
        r0 = Request(0, 1.0, 8, 4)
        r1 = Request(1, 0.5, 8, 4)
        with pytest.raises(ConfigError):
            RequestStream(name="bad", requests=(r0, r1))
        with pytest.raises(ConfigError):
            RequestStream(name="dup", requests=(r0, r0))
