"""``can_ever_admit`` is one comparison that agrees with ``submit``'s checks.

Each scheduler finds once, by bisection over the monotone KV footprint,
the largest ``total_tokens`` it can ever admit
(:attr:`~repro.serving.ContinuousBatchingScheduler.max_total_tokens`):
the model's context limit, or less where the KV budget binds. These
tests pin that the comparison and the full check (``_check``, which
``submit`` runs and whose errors it raises) accept exactly the same
requests on either side of the bound.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CapacityError, ConfigError
from repro.serving import ContinuousBatchingScheduler, Request


def _kv(engine, tokens: int) -> int:
    model = engine.model
    return model.n_layers * model.kv_cache_bytes_per_layer(
        tokens, engine.config.act_bits
    )


def _request(total_tokens: int, request_id: int = 0) -> Request:
    return Request(
        request_id=request_id, arrival_s=0.0,
        prompt_tokens=total_tokens - 1, output_tokens=1,
    )


def _check_accepts(scheduler, request) -> bool:
    try:
        scheduler._check(request)
    except (CapacityError, ConfigError):
        return False
    return True


def _assert_agrees_around_bound(scheduler) -> None:
    bound = scheduler.max_total_tokens
    # Requests carry at least one prompt and one output token.
    totals = [t for t in (bound - 1, bound, bound + 1) if t >= 2]
    assert totals
    for total in totals:
        request = _request(total)
        admissible = scheduler.can_ever_admit(request)
        assert admissible == _check_accepts(scheduler, request), total
        assert admissible == (total <= bound)


class TestFeasibilityBound:
    def test_kv_bound_shard(self, serving_engine):
        max_len = serving_engine.model.max_seq_len
        # Room for 100 tokens of KV, not 101: the budget binds first.
        budget = _kv(serving_engine, 101) - 1
        assert _kv(serving_engine, 100) <= budget
        scheduler = ContinuousBatchingScheduler(
            serving_engine, kv_budget_bytes=budget
        )
        assert scheduler.max_total_tokens == 100 < max_len
        _assert_agrees_around_bound(scheduler)
        with pytest.raises(CapacityError):
            scheduler.submit(_request(101))

    def test_max_seq_len_bound_shard(self, serving_engine):
        max_len = serving_engine.model.max_seq_len
        scheduler = ContinuousBatchingScheduler(
            serving_engine, kv_budget_bytes=10 * _kv(serving_engine, max_len)
        )
        assert scheduler.max_total_tokens == max_len
        _assert_agrees_around_bound(scheduler)
        with pytest.raises(ConfigError):
            scheduler.submit(_request(max_len + 1))

    def test_budget_below_one_token_admits_nothing(self, serving_engine):
        budget = _kv(serving_engine, 1) - 1
        assert budget > 0
        scheduler = ContinuousBatchingScheduler(
            serving_engine, kv_budget_bytes=budget
        )
        assert scheduler.max_total_tokens == 0
        for total in (2, 3, serving_engine.model.max_seq_len):
            request = _request(total)
            assert not scheduler.can_ever_admit(request)
            assert not _check_accepts(scheduler, request)
        with pytest.raises(CapacityError):
            scheduler.submit(_request(2))

    @given(st.integers(min_value=1, max_value=2**20))
    @settings(max_examples=60, deadline=None)
    def test_any_budget_agrees_with_the_full_check(self, serving_engine, budget):
        scheduler = ContinuousBatchingScheduler(
            serving_engine, kv_budget_bytes=budget
        )
        bound = scheduler.max_total_tokens
        assert 0 <= bound <= serving_engine.model.max_seq_len
        for total in (bound - 1, bound, bound + 1):
            if total >= 2:
                request = _request(total)
                assert scheduler.can_ever_admit(request) == _check_accepts(
                    scheduler, request
                ), total
