"""Inference-level latency metrics: TTFT, TBT, end-to-end generation.

Definitions follow Sec. 6.1 of the paper:

* **TTFT** (time to first token) — latency of the prefill pass.
* **TBT** (time between tokens) — latency of generating the Nth token
  after N-1 generated tokens, i.e. one decode pass over a context of
  ``prefill + N`` tokens.
* **End-to-end** — TTFT plus the sum of TBTs over the generated tokens
  (used for the ">40% vs prior works" claim of Sec. 6.4).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, chain, repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ..core.plan import ExecutionPlan
from ..errors import ConfigError
from ..hardware import HardwareConfig
from ..models import TransformerConfig, decode_workload, prefill_workload
from ..packing import PackingPlanner
from .breakdown import StageReport
from .layer_sim import WorkloadSimulator

__all__ = [
    "ttft",
    "tbt",
    "GenerationLatency",
    "end_to_end",
    "percentile",
    "LatencySummary",
    "ValueCounts",
    "tokens_per_second",
]


def ttft(
    model: TransformerConfig,
    config: HardwareConfig,
    plan: ExecutionPlan,
    prompt_tokens: int,
    planner: Optional[PackingPlanner] = None,
) -> StageReport:
    """Time-to-first-token report for a prompt of ``prompt_tokens``."""
    sim = WorkloadSimulator(model, config, plan, planner)
    return sim.simulate(prefill_workload(model, prompt_tokens))


def tbt(
    model: TransformerConfig,
    config: HardwareConfig,
    plan: ExecutionPlan,
    token_index: int,
    prefill_tokens: int = 512,
    planner: Optional[PackingPlanner] = None,
) -> StageReport:
    """Time-between-tokens report for the ``token_index``-th generated
    token after a ``prefill_tokens`` prefill."""
    if token_index < 1:
        raise ConfigError(f"token_index must be >= 1, got {token_index}")
    sim = WorkloadSimulator(model, config, plan, planner)
    return sim.simulate(decode_workload(model, prefill_tokens + token_index))


@dataclass(frozen=True)
class GenerationLatency:
    """End-to-end latency of a full prompt + generation run."""

    prefill_s: float
    decode_s: float
    prompt_tokens: int
    generated_tokens: int

    @property
    def total_s(self) -> float:
        """TTFT plus all decode steps."""
        return self.prefill_s + self.decode_s

    @property
    def tokens_per_second(self) -> float:
        """Steady-state decode throughput."""
        if self.decode_s == 0:
            return float("inf")
        return self.generated_tokens / self.decode_s


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (linear interpolation).

    Uses the inclusive ("linear") method: ``q=0`` is the minimum,
    ``q=100`` the maximum, and interior points lie on the line between
    the two nearest order statistics — so a single sample is every
    percentile of itself, and ties collapse as expected.

    Raises:
        ConfigError: ``values`` is empty or ``q`` is outside [0, 100].
    """
    if not 0.0 <= q <= 100.0:
        raise ConfigError(f"percentile q must be in [0, 100], got {q}")
    xs = sorted(values)
    if not xs:
        raise ConfigError("percentile of an empty sequence is undefined")
    return _percentile_sorted(xs, q)


def _percentile_sorted(xs: Sequence[float], q: float) -> float:
    """Interpolate over an already-sorted, non-empty sample."""
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return xs[lo]
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass(frozen=True)
class ValueCounts:
    """A sorted population held as its distinct values and their counts.

    ``values`` (``array('d')``) ascend strictly and ``counts[i]``
    (``array('q')``) is how often ``values[i]`` occurs, so a table costs
    24 bytes per *distinct* value and no Python object per value. A
    run's TBT gaps repeat heavily (every member of a decode batch sees
    the same step latency). The table is exact: as a sequence (``len``,
    indexing, iteration) it reads as the sorted population itself, which
    :meth:`LatencySummary.of_sorted` summarizes with the same percentile
    and mean code as a sorted list.
    """

    values: array
    counts: array
    #: Cumulative counts: ``_ends[i]`` elements are <= ``values[i]``.
    _ends: array = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ends", array("q", accumulate(self.counts)))

    @classmethod
    def of(cls, values: Iterable[float]) -> "ValueCounts":
        """Tabulate one sample."""
        return cls.of_arrays((values,))

    @classmethod
    def of_arrays(cls, arrays: Iterable[Iterable[float]]) -> "ValueCounts":
        """Tabulate the concatenation of ``arrays`` (e.g. per-record gaps).

        The values are copied into one float64 buffer (a memcpy per
        ``array('d')``) and sorted in place there. Equal values merge
        into one run, so the values should be neither zero
        (``-0.0 == 0.0``) nor NaN.
        """
        buf = array("d")
        for values in arrays:
            buf.extend(values)
        xs = np.frombuffer(buf, dtype=np.float64)
        xs.sort()
        return cls._of_runs(xs)

    @classmethod
    def merge(cls, tables: Sequence["ValueCounts"]) -> "ValueCounts":
        """The table of the union of one or more tables' populations."""
        if len(tables) == 1:
            return tables[0]
        values = np.concatenate([np.asarray(t.values, np.float64) for t in tables])
        counts = np.concatenate([np.asarray(t.counts, np.int64) for t in tables])
        order = np.argsort(values, kind="stable")
        return cls._of_runs(values[order], counts[order])

    @classmethod
    def _of_runs(
        cls, xs: np.ndarray, weights: Optional[np.ndarray] = None
    ) -> "ValueCounts":
        """Collapse sorted ``xs``, each weighted 1 or by ``weights``."""
        if not xs.size:
            return cls(array("d"), array("q"))
        starts = np.flatnonzero(np.concatenate(([True], xs[1:] != xs[:-1])))
        if weights is None:
            counts = np.diff(starts, append=xs.size)
        else:
            counts = np.add.reduceat(weights, starts)
        return cls(
            array("d", xs[starts].tobytes()),
            array("q", counts.astype(np.int64).tobytes()),
        )

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def __getitem__(self, i: int) -> float:
        """The ``i``-th smallest element of the population."""
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError(f"index {i} out of range for {n} values")
        return self.values[bisect_right(self._ends, i)]

    def __iter__(self) -> Iterator[float]:
        """The sorted population, each value repeated ``count`` times."""
        return chain.from_iterable(map(repeat, self.values, self.counts))


@dataclass(frozen=True)
class LatencySummary:
    """Order statistics of one latency population (seconds).

    Fleet reports quote p50/p95/p99 for TTFT, TBT and end-to-end
    latency; an empty population (e.g. a stream in which no request ever
    decoded) summarizes to zeros rather than dividing by zero.
    """

    n: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float

    @classmethod
    def of(cls, values: Iterable[float]) -> "LatencySummary":
        """Summarize a latency sample; empty input yields the zero summary."""
        return cls.of_sorted(sorted(values))  # one sort for all three

    @classmethod
    def of_sorted(cls, xs: Sequence[float]) -> "LatencySummary":
        """Summarize an ascending population: a sorted list or a
        :class:`ValueCounts`.

        The mean is ``sum`` over the ascending values, so a table and
        the sorted list it expands to give the same float (Python 3.12's
        compensated ``sum`` sees the same sequence too).
        """
        n = len(xs)
        if not n:
            return cls(n=0, mean_s=0.0, p50_s=0.0, p95_s=0.0, p99_s=0.0)
        return cls(
            n=n,
            mean_s=sum(xs) / n,
            p50_s=_percentile_sorted(xs, 50),
            p95_s=_percentile_sorted(xs, 95),
            p99_s=_percentile_sorted(xs, 99),
        )


def tokens_per_second(n_tokens: int, duration_s: float) -> float:
    """Aggregate throughput, safe on zero-duration streams.

    An empty stream (no tokens, no elapsed time) has zero throughput;
    a non-empty stream of zero duration is degenerate and reports
    ``inf`` rather than raising.
    """
    if n_tokens < 0:
        raise ConfigError(f"n_tokens must be non-negative, got {n_tokens}")
    if duration_s < 0:
        raise ConfigError(f"duration_s must be non-negative, got {duration_s}")
    if duration_s == 0:
        return 0.0 if n_tokens == 0 else float("inf")
    return n_tokens / duration_s


def end_to_end(
    model: TransformerConfig,
    config: HardwareConfig,
    plan: ExecutionPlan,
    prompt_tokens: int,
    generated_tokens: int,
    sample_every: int = 32,
    planner: Optional[PackingPlanner] = None,
) -> GenerationLatency:
    """TTFT + integrated TBT over a generation of ``generated_tokens``.

    TBT varies slowly with context length (the KV span grows one token
    per step), so the decode curve is sampled every ``sample_every``
    steps and integrated piecewise — exact for ``sample_every=1``.
    """
    if generated_tokens < 1:
        raise ConfigError(f"generated_tokens must be >= 1, got {generated_tokens}")
    if sample_every < 1:
        raise ConfigError(f"sample_every must be >= 1, got {sample_every}")
    sim = WorkloadSimulator(model, config, plan, planner)
    prefill_cycles, _energy_uj = sim.totals(prefill_workload(model, prompt_tokens))
    prefill_s = config.cycles_to_seconds(prefill_cycles)

    decode_s = 0.0
    step = 1
    while step <= generated_tokens:
        span = min(sample_every, generated_tokens - step + 1)
        cycles, _energy_uj = sim.totals(decode_workload(model, prompt_tokens + step))
        decode_s += config.cycles_to_seconds(cycles) * span
        step += span
    return GenerationLatency(
        prefill_s=prefill_s,
        decode_s=decode_s,
        prompt_tokens=prompt_tokens,
        generated_tokens=generated_tokens,
    )
