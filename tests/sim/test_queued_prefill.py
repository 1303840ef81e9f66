"""The queued-prefill sum on every way a surface gets its points.

:meth:`~repro.sim.surface.LatencySurface.queued_prefill_s` probes a
table of batch-1 prefill latencies keyed by prompt length, which both
insert paths fill: simulation and :meth:`merge_points`. Whichever path
filled the surface, and whether or not a length is in the table yet,
the sum must equal the sequential
``count * prefill(tokens).latency_s`` reference exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from oracles.shard_state import queued_prefill_reference
from repro.core import ExecutionPlan
from repro.models import Stage
from repro.sim import LatencySurface, WorkloadSimulator

#: Lengths the filled surfaces hold; histograms draw from a wider range,
#: so some lengths are always missing from the table.
FILLED = range(8, 72, 3)

hists = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=96),
        st.integers(min_value=1, max_value=12),
    ),
    max_size=8,
    unique_by=lambda pair: pair[0],
).map(sorted)


@pytest.fixture(scope="module")
def simulator(small_model, zcu12, shared_planner):
    return WorkloadSimulator(
        small_model, zcu12, ExecutionPlan.meadow(), shared_planner
    )


@pytest.fixture(scope="module")
def reference(simulator):
    """An independent surface the reference sum reads."""
    return LatencySurface(simulator)


def _simulated(simulator):
    surface = LatencySurface(simulator)
    surface.materialize(prefill_tokens=FILLED)
    return surface


def _merged(simulator):
    surface = LatencySurface(simulator)
    surface.merge_points(_simulated(simulator).export_points())
    return surface


FILLS = {"simulate": _simulated, "merge_points": _merged}


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_every_insert_path_fills_the_prefill_table(simulator, fill):
    surface = FILLS[fill](simulator)
    prefill_keys = {
        tokens for stage, tokens, batch in surface.point_keys()
        if stage is Stage.PREFILL and batch == 1
    }
    assert prefill_keys == set(FILLED)
    assert set(surface._prefill_s) == prefill_keys
    # Lengths in the table are summed without simulating anything.
    before = surface.n_simulated
    surface.queued_prefill_s([(t, 2) for t in FILLED])
    assert surface.n_simulated == before


@pytest.mark.parametrize("fill", sorted(FILLS))
def test_sum_equals_the_sequential_reference(simulator, reference, fill):
    surface = FILLS[fill](simulator)

    @given(hist=hists)
    @settings(max_examples=25, deadline=None)
    def check(hist) -> None:
        expected = queued_prefill_reference(reference, hist)
        # First call: lengths outside FILLED are simulated on the way.
        assert surface.queued_prefill_s(hist) == expected
        # Second call: every length is in the table now.
        assert surface.queued_prefill_s(hist) == expected
        assert set(t for t, _ in hist) <= set(surface._prefill_s)

    check()
