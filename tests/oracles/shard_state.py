"""Brute-force recounts of a scheduler's routing-facing state.

A :class:`~repro.serving.ContinuousBatchingScheduler` keeps its routing
aggregates (prompt histogram, KV reservations, the queued-prefill sum)
incrementally and serves them as properties, which :meth:`snapshot`
copies. These helpers rebuild the same values from the queues and
decode slots, so a test can compare the two at any instant without
comparing a property with a copy of itself. The decode-side figures
are recounted from each slot's request and the tokens it has decoded
(the token-clock iterations since its start), not from the end and
base columns the properties reduce.
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

    at = s._tok_off + len(s._tok_s)
    decoded = [(req, at - start) for req, _, _, _, start in s._d_slot]
    return dict(
        n_waiting=len(s._future) + len(s._pending) + len(s._prefill_queue),
        n_decoding=len(s._d_slot),
        waiting_prompt_hist=tuple(sorted(prompts.items())),
        remaining_decode_tokens=sum(
            req.output_tokens - 1 - k for req, k in decoded
        ),
        decode_context=max(
            (req.prompt_tokens + k for req, k in decoded), default=0
        ),
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
