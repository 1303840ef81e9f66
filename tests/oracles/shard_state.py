"""Brute-force recounts of a scheduler's routing-facing state.

A :class:`~repro.serving.ContinuousBatchingScheduler` keeps its routing
aggregates (prompt histogram, KV reservations, the queued-prefill sum)
incrementally and serves them as properties, which :meth:`snapshot`
copies. These helpers rebuild the same values from the queues and
decode slots, so a test can compare the two at any instant without
comparing a property with a copy of itself.
"""

from __future__ import annotations

from collections import Counter


def recount_shard_state(scheduler) -> dict:
    """The queue-derived snapshot fields, recounted from the queues."""
    s = scheduler
    prompts = Counter(req.prompt_tokens for _, _, req in s._future)
    prompts.update(req.prompt_tokens for req in s._pending)
    prompts.update(a.request.prompt_tokens for a in s._prefill_queue)
    model = s.engine.model
    act_bits = s.engine.config.act_bits

    def kv(tokens):
        return model.n_layers * model.kv_cache_bytes_per_layer(tokens, act_bits)

    return dict(
        n_waiting=len(s._future) + len(s._pending) + len(s._prefill_queue),
        n_decoding=len(s._d_req),
        waiting_prompt_hist=tuple(sorted(prompts.items())),
        remaining_decode_tokens=sum(s._d_left),
        decode_context=max(s._d_ctx, default=0),
        kv_reserved_bytes=s._kv_reserved,
        waiting_kv_bytes=sum(kv(req.total_tokens) for _, _, req in s._future)
        + sum(kv(req.total_tokens) for req in s._pending),
    )


def queued_prefill_reference(surface, hist) -> float:
    """``count * prefill(tokens).latency_s`` over ``hist``, added one by
    one from 0.0 in histogram order (the order the router's sum uses)."""
    total = 0.0
    for tokens, count in hist:
        total += count * surface.prefill(tokens).latency_s
    return total
