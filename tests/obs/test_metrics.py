"""Unit tests for the labeled metrics registry."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.obs import (
    METRICS_SCHEMA,
    METRICS_SCHEMA_VERSION,
    FleetTrace,
    MetricsRegistry,
    ObsBundle,
)


#: Values that compare or hash alike across types (``True == 1 == 1.0``,
#: ``0.0 == -0.0``), non-finite floats, and floats whose shortest text
#: is easy to get wrong.
HOSTILE = (
    True, 1, 1.0, 0.0, -0.0, float("nan"), float("inf"), -float("inf"),
    5e-324, 1e16, 1e22,
)
#: Sample times: int and float, and some that collide.
TIMES = (0, 1, 2, 0.0, -0.0, 1.0, 2.0, 0.5, 5e-324, 1e16, 1e22)
#: Strings with template, quote, escape and non-ASCII characters.
NAMES = st.text(alphabet='ab%"\\\u00e9\u20ac\u2028\U0001F600', max_size=6)


class TestCounter:
    def test_monotonic_accumulation(self):
        reg = MetricsRegistry()
        c = reg.counter("requests", shard="0")
        c.inc()
        c.inc(3.0)
        assert c.value == 4.0

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("requests")
        with pytest.raises(SimulationError):
            c.inc(-1.0)

    def test_get_or_create_is_keyed_by_labels(self):
        reg = MetricsRegistry()
        a = reg.counter("requests", shard="0")
        b = reg.counter("requests", shard="1")
        assert a is not b
        assert reg.counter("requests", shard="0") is a


class TestGauge:
    def test_time_series_and_last(self):
        g = MetricsRegistry().gauge("queue_depth")
        assert g.last is None
        g.record(0.0, 1.0)
        g.record(0.5, 3.0)
        assert g.points == [(0.0, 1.0), (0.5, 3.0)]
        assert g.last == 3.0

    def test_same_timestamp_overwrites(self):
        g = MetricsRegistry().gauge("queue_depth")
        g.record(1.0, 2.0)
        g.record(1.0, 5.0)
        assert g.points == [(1.0, 5.0)]

    @given(st.lists(st.tuples(st.sampled_from(TIMES), st.sampled_from(HOSTILE))))
    @settings(max_examples=50, deadline=None)
    def test_extend_records_each_pair_in_order(self, points):
        one, bulk = MetricsRegistry().gauge("one"), MetricsRegistry().gauge("bulk")
        for t, v in [(0.0, 7)] + points:
            one.record(t, v)
        bulk.record(0.0, 7)
        bulk.extend([t for t, _ in points], [v for _, v in points])
        # Same items of the same types: 1 and 1.0 (or 0.0 and -0.0)
        # compare equal but are written differently.
        assert [(type(t), repr(t)) for t in bulk.t_s] == [
            (type(t), repr(t)) for t in one.t_s
        ]
        assert [(type(v), repr(v)) for v in bulk.values] == [
            (type(v), repr(v)) for v in one.values
        ]

    def test_extend_rejects_unequal_columns(self):
        with pytest.raises(SimulationError):
            MetricsRegistry().gauge("g").extend([0.0, 1.0], [1.0])


class TestHistogram:
    def test_bucket_placement_and_mean(self):
        h = MetricsRegistry().histogram("batch", bounds=(1.0, 4.0, 16.0))
        for v in (1.0, 2.0, 8.0, 100.0):
            h.observe(v)
        # bisect_left: 1.0 -> bucket 0, 2.0 -> 1, 8.0 -> 2, 100.0 -> +inf
        assert h.counts == [1, 1, 1, 1]
        assert h.n == 4
        assert h.mean == pytest.approx(27.75)

    def test_weighted_observe_equals_repeated_observe(self):
        reg = MetricsRegistry()
        once = reg.histogram("once", bounds=(1.0, 4.0, 16.0))
        each = reg.histogram("each", bounds=(1.0, 4.0, 16.0))
        for value, count in ((3.0, 5), (1.0, 1), (8.0, 12)):
            once.observe(value, count)
            for _ in range(count):
                each.observe(value)
        assert once.counts == each.counts == [1, 5, 12, 0]
        assert once.n == each.n == 18
        assert once.total == each.total == 112.0

    def test_unsorted_bounds_rejected(self):
        with pytest.raises(SimulationError):
            MetricsRegistry().histogram("bad", bounds=(4.0, 1.0))


class TestExports:
    @pytest.fixture()
    def populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("requests", shard="1").inc(2)
        reg.counter("requests", shard="0").inc(1)
        g = reg.gauge("kv", shard="0")
        g.record(0.0, 10.0)
        g.record(1.0, 20.0)
        reg.histogram("batch", bounds=(1.0, 2.0)).observe(1.5)
        return reg

    def test_versioned_document(self, populated):
        doc = populated.to_dict()
        assert doc["schema"] == METRICS_SCHEMA
        assert doc["schema_version"] == METRICS_SCHEMA_VERSION
        # Deterministic label-sorted ordering.
        assert [c["labels"]["shard"] for c in doc["counters"]] == ["0", "1"]

    def test_json_roundtrip_is_deterministic(self, populated):
        text = populated.to_json()
        assert json.loads(text) == json.loads(populated.to_json())
        assert json.loads(text)["schema"] == METRICS_SCHEMA

    def test_write_metrics_json_is_compact_and_sorted(self, populated, tmp_path):
        bundle = ObsBundle(metrics=populated, trace=FleetTrace.build([]))
        path = tmp_path / "metrics.json"
        bundle.write_metrics(str(path))
        text = path.read_text()
        doc = populated.to_dict()
        assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert json.loads(text) == doc

    def test_csv_long_format(self, populated):
        lines = populated.to_csv().splitlines()
        assert lines[0] == "kind,name,labels,t_s,value"
        kinds = {line.split(",")[0] for line in lines[1:]}
        assert kinds == {"counter", "gauge", "histogram_sum", "histogram_count"}
        # Gauge rows carry the simulated timestamp; counters are timeless.
        gauge_rows = [l for l in lines[1:] if l.startswith("gauge,")]
        assert gauge_rows == [
            "gauge,kv,shard=0,0.0,10.0",
            "gauge,kv,shard=0,1.0,20.0",
        ]

    def test_len_counts_all_families(self, populated):
        assert len(populated) == 4

    @given(
        st.permutations(HOSTILE),
        st.lists(
            st.tuples(
                NAMES, NAMES,
                st.lists(
                    st.tuples(
                        st.sampled_from(TIMES) | st.floats(0, 1e3),
                        st.sampled_from(HOSTILE) | st.floats() | st.integers(),
                    ),
                    max_size=12,
                ),
            ),
            max_size=4,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_to_json_is_the_encoders_text_on_hostile_values(
        self, hostile, gauges
    ):
        reg = MetricsRegistry()
        every = reg.gauge("every%", shard="\u00e9\"%")
        for t, v in enumerate(hostile):  # int times, every hostile value
            every.record(t, v)
        for t, v in zip(TIMES, hostile):  # -0.0 overwrites 0.0's sample
            every.record(t, v)
        floats = reg.gauge("floats")  # float times and values only
        for t, v in enumerate(h for h in hostile if type(h) is float):
            floats.record(float(t), v)
        for i, v in enumerate(hostile):
            reg.counter("c", k=str(i)).value = v
            reg.histogram("h%", bounds=(0.0, 1.0), k=str(i)).observe(v)
        for name, label, points in gauges:
            gauge = reg.gauge(name, **{label or "x": label})
            for t, v in points:
                gauge.record(t, v)
        assert reg.to_json() == json.dumps(
            reg.to_dict(), sort_keys=True, separators=(",", ":")
        )
