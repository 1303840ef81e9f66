"""Labeled metrics registry: counters, gauges, and histograms.

Mirrors the shape of a Prometheus-style registry, but on the *simulated*
clock: gauges are time series sampled on event-calendar ticks, counters
are monotonic totals, histograms hold fixed-boundary bucket counts.
Exports are versioned (``METRICS_SCHEMA`` / ``METRICS_SCHEMA_VERSION``)
so downstream tooling can detect format drift, and deterministic — the
same simulation produces byte-identical JSON and CSV.
"""

from __future__ import annotations

import io
from bisect import bisect_left
from operator import eq
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from .spans import ENCODE, NumberTexts

__all__ = [
    "METRICS_SCHEMA",
    "METRICS_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

#: Schema identifier stamped into every exported metrics document.
METRICS_SCHEMA = "repro.obs.metrics"
#: Bump when the exported JSON/CSV layout changes incompatibly.
METRICS_SCHEMA_VERSION = 1

#: Default histogram boundaries (seconds-ish scale; upper bucket is +inf).
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter(object):
    """A monotonic total (requests routed, retries, shed decisions...)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be non-negative) to the running total."""
        if n < 0:
            raise SimulationError(f"counter {self.name!r} cannot decrease by {n}")
        self.value += n


class Gauge(object):
    """A sampled time series, as columns ``t_s`` and ``values``."""

    __slots__ = ("name", "labels", "t_s", "values")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.t_s: List[float] = []
        self.values: List[float] = []

    def record(self, t_s: float, value: float) -> None:
        """Append one sample; repeated timestamps overwrite in place."""
        if self.t_s and self.t_s[-1] == t_s:
            self.t_s[-1], self.values[-1] = t_s, value
        else:
            self.t_s.append(t_s)
            self.values.append(value)

    def extend(self, t_s: Sequence[float], values: Sequence[float]) -> None:
        """:meth:`record` each ``(t_s[i], values[i])`` pair in order."""
        if len(t_s) != len(values):
            raise SimulationError(f"gauge {self.name!r}: unequal columns")
        joined = self.t_s[-1:] + list(t_s)
        if any(map(eq, joined, joined[1:])):  # a repeated time overwrites
            for t, value in zip(t_s, values):
                self.record(t, value)
        else:
            self.t_s += t_s
            self.values += values

    @property
    def points(self) -> List[Tuple[float, float]]:
        """The samples as ``(t_s, value)`` pairs, built on each read."""
        return list(zip(self.t_s, self.values))

    @property
    def last(self) -> Optional[float]:
        """Most recent sampled value, or ``None`` before any sample."""
        return self.values[-1] if self.values else None


class Histogram(object):
    """Fixed-boundary bucket counts plus running sum/count."""

    __slots__ = ("name", "labels", "bounds", "counts", "total", "n")

    def __init__(
        self,
        name: str,
        labels: LabelKey,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if list(bounds) != sorted(bounds):
            raise SimulationError(f"histogram {name!r} bounds must be sorted")
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last bucket = +inf
        self.total = 0.0
        self.n = 0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` into its bucket.

        ``value * count`` adds what ``count`` single observations would
        whenever the running sum stays exact (integer-valued floats
        below 2**53, such as batch sizes).
        """
        self.counts[bisect_left(self.bounds, value)] += count
        self.total += value * count
        self.n += count

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.n if self.n else 0.0


class MetricsRegistry(object):
    """Get-or-create metric families keyed by (name, sorted labels)."""

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelKey], Histogram] = {}

    # -- accessors ----------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``name`` + labels, created on first use."""
        key = (name, _label_key(labels))
        got = self._counters.get(key)
        if got is None:
            got = self._counters[key] = Counter(name, key[1])
        return got

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``name`` + labels, created on first use."""
        key = (name, _label_key(labels))
        got = self._gauges.get(key)
        if got is None:
            got = self._gauges[key] = Gauge(name, key[1])
        return got

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] = DEFAULT_BUCKETS,
        **labels: object,
    ) -> Histogram:
        """The histogram for ``name`` + labels, created on first use."""
        key = (name, _label_key(labels))
        got = self._histograms.get(key)
        if got is None:
            got = self._histograms[key] = Histogram(name, key[1], bounds)
        return got

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- exports ------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The versioned, JSON-ready document (deterministic ordering)."""
        return self._document(lambda g: {
            "name": g.name, "labels": dict(g.labels),
            "points": [[t, v] for t, v in zip(g.t_s, g.values)],
        })

    def _document(self, gauge) -> Dict[str, object]:  # gauge(g): its entry
        return {
            "schema": METRICS_SCHEMA,
            "schema_version": METRICS_SCHEMA_VERSION,
            "counters": [
                {"name": c.name, "labels": dict(c.labels), "value": c.value}
                for _, c in sorted(self._counters.items())
            ],
            "gauges": [gauge(g) for _, g in sorted(self._gauges.items())],
            "histograms": [
                {
                    "name": h.name,
                    "labels": dict(h.labels),
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.n,
                }
                for _, h in sorted(self._histograms.items())
            ],
        }

    def to_json(self) -> str:
        """``json.dumps(to_dict(), sort_keys=True, separators=(",", ":"))``,
        with no point built: each is written as ``[%s,%s]`` from one
        :class:`~repro.obs.spans.NumberTexts`, the rest by the encoder."""
        num = NumberTexts()
        texts = lambda column: map(  # a float-only column indexes num directly
            num.__getitem__ if set(map(type, column)) <= {float} else num, column)
        doc = self._document(lambda g: '{"labels":%s,"name":%s,"points":[%s]}' % (
            ENCODE(dict(g.labels)), ENCODE(g.name),
            ",".join(map("[%s,%s]".__mod__, zip(texts(g.t_s), texts(g.values)))),
        ))
        # The other keys sort after "counters" and "gauges".
        return '{"counters":%s,"gauges":[%s],%s' % (
            ENCODE(doc.pop("counters")), ",".join(doc.pop("gauges")), ENCODE(doc)[1:]
        )

    def to_csv(self) -> str:
        """Long-format CSV: ``kind,name,labels,t_s,value`` rows.

        Counters and histogram aggregates appear as single timeless rows
        (empty ``t_s``); gauge samples carry their simulated timestamp.
        """
        out = io.StringIO()
        out.write("kind,name,labels,t_s,value\n")

        def fmt_labels(labels: LabelKey) -> str:
            return ";".join(f"{k}={v}" for k, v in labels)

        for _, c in sorted(self._counters.items()):
            out.write(f"counter,{c.name},{fmt_labels(c.labels)},,{c.value}\n")
        for _, g in sorted(self._gauges.items()):
            labels = fmt_labels(g.labels)
            for t, v in zip(g.t_s, g.values):
                out.write(f"gauge,{g.name},{labels},{t},{v}\n")
        for _, h in sorted(self._histograms.items()):
            labels = fmt_labels(h.labels)
            out.write(f"histogram_sum,{h.name},{labels},,{h.total}\n")
            out.write(f"histogram_count,{h.name},{labels},,{h.n}\n")
        return out.getvalue()
