"""Per-layer tracing for the benchmark's traced pass.

The benchmark wraps each simulator layer's public entry points from
here — never from inside ``src/`` — records one span per call in
memory (name, start, end, parent span), and turns the spans into the
per-layer metrics ``BENCHMARK.json`` lists under ``per_layer``.

A layer's self time is the summed duration of its spans minus the part
of each span its child spans cover. Wrappers exist only inside
:meth:`LayerTracer.installed`; leaving the ``with`` block restores
every original attribute, so untraced repetitions never run wrapped
code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from array import array
from typing import Dict, Iterator, List, Optional, Tuple

#: (layer, module, class or None, attribute names) for every wrapped
#: entry point. Functions reached through module globals
#: (``model_ttft_s``) are listed with class ``None`` and patched in
#: every ``repro`` module that imported them, where callers look them up.
ENTRY_POINTS: Tuple[Tuple[str, str, Optional[str], Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.layer_sim", "WorkloadSimulator", ("simulate",)),
    (
        "surface", "repro.sim.surface", "LatencySurface",
        ("prefill", "decode", "decode_run", "decode_run_many",
         "queued_prefill_s"),
    ),
    (
        "scheduler.advance", "repro.serving.scheduler",
        "ContinuousBatchingScheduler", ("advance_until", "advance_one"),
    ),
    (
        "scheduler.api", "repro.serving.scheduler",
        "ContinuousBatchingScheduler",
        ("submit", "snapshot", "next_event_s", "withdraw",
         "steal_candidates", "crash_harvest", "result"),
    ),
    ("routing.model", "repro.fleet.routing", None, ("model_ttft_s",)),
    ("fleet", "repro.fleet.simulator", "FleetSimulator", ("run",)),
    ("planner", "repro.fleet.planner", "CapacityPlanner", ("forecast",)),
    ("sweep", "repro.fleet.sweep", "SweepDriver", ("sweep",)),
    ("obs", "repro.obs.tracer", "FleetObserver", ("build",)),
    (
        "obs", "repro.obs.tracer", "ObsBundle",
        ("perfetto", "write_trace", "write_metrics"),
    ),
)

#: Self-time groups reported as ``<group>.self_s``.
SELF_GROUPS = ("sim", "surface", "routing", "fleet", "planner", "sweep", "obs")


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


class LayerTracer:
    """In-memory span recorder around the layers' entry points.

    The wrappers append to one flat event list — ``name id, start`` on
    entry and ``-end`` on exit, clock readings being positive — which
    keeps the per-call cost to three appends; :meth:`spans` rebuilds
    ``(name id, parent, start, end)`` from the nesting afterwards.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: List[str] = []
        self._events: List[float] = []

    def _wrap(self, fn, name: str, layer: str):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        append = self._events.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            append(nid)
            append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                append(-clock())

        return traced

    def spans(self) -> Tuple[array, array, array, array]:
        """``(name_id, parent, t0, t1)`` arrays, parents before children."""
        name_id, parent = array("i"), array("i")
        t0, t1 = array("d"), array("d")
        stack = [-1]
        events = self._events
        i, n = 0, len(events)
        while i < n:
            event = events[i]
            if event < 0:
                t1[stack.pop()] = -event
                i += 1
            else:
                stack_top = stack[-1]
                stack.append(len(t1))
                name_id.append(event)
                parent.append(stack_top)
                t0.append(events[i + 1])
                t1.append(0.0)
                i += 2
        return name_id, parent, t0, t1

    @staticmethod
    def _entry_points() -> List[Tuple[object, str, str, str]]:
        """``(owner, attribute, span name, layer)`` for every wrapper."""
        import importlib

        from repro.fleet import routing

        points: List[Tuple[object, str, str, str]] = []
        for layer, module_name, class_name, attrs in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            for attr in attrs:
                if class_name is None:
                    original = getattr(module, attr)
                    points.extend(
                        (mod, attr, attr, layer)
                        for mod in list(sys.modules.values())
                        if getattr(mod, "__name__", "").startswith("repro")
                        and vars(mod).get(attr) is original
                    )
                else:
                    owner = getattr(module, class_name)
                    points.append((owner, attr, f"{class_name}.{attr}", layer))
        # Every policy class that defines its own ``route``.
        policies = {
            klass
            for cls in routing.ROUTING_POLICIES.values()
            for klass in cls.__mro__
            if "route" in vars(klass)
        }
        for klass in sorted(policies, key=lambda k: k.__name__):
            points.append((klass, "route", f"{klass.__name__}.route", "routing.route"))
        return points

    @contextlib.contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Install every wrapper; restore the originals on exit."""
        patches: List[Tuple[object, str, object]] = []
        # One wrapper per original function, so a function imported
        # into several modules is one span name.
        wrappers: Dict[int, object] = {}
        try:
            for owner, attr, name, layer in self._entry_points():
                original = vars(owner)[attr]
                wrapped = wrappers.get(id(original))
                if wrapped is None:
                    wrapped = wrappers[id(original)] = self._wrap(
                        original, name, layer
                    )
                patches.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # ------------------------------------------------------------ results
    def metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer metrics of everything recorded so far.

        ``wall_s`` is the traced pass's wall time; ``untraced_s`` is the
        part of it no top-level span covers.
        """
        name_id, parent, t0, t1 = self.spans()
        n = len(t1)
        dur = [t1[i] - t0[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        layer_of = [self.layer_of[nid] for nid in name_id]
        self_s: Dict[str, float] = {}
        for i in range(n):
            layer = layer_of[i]
            self_s[layer] = self_s.get(layer, 0.0) + dur[i] - child[i]

        def outer(i: int, prefix: str) -> bool:
            p = parent[i]
            return p < 0 or not layer_of[p].startswith(prefix)

        # A surface call "hits" when no simulation ran beneath it.
        has_sim = [False] * n
        for i in range(n - 1, -1, -1):
            if layer_of[i] == "sim" or has_sim[i]:
                p = parent[i]
                if p >= 0:
                    has_sim[p] = True
        surface_calls = [
            i for i in range(n)
            if layer_of[i] == "surface" and outer(i, "surface")
        ]
        sim_us = sorted(dur[i] * 1e6 for i in range(n) if layer_of[i] == "sim")
        route_us = sorted(
            dur[i] * 1e6 for i in range(n)
            if layer_of[i] == "routing.route" and outer(i, "routing.route")
        )
        top_level = sum(dur[i] for i in range(n) if parent[i] < 0)

        def count(layer: str) -> int:
            return sum(1 for i in range(n) if layer_of[i] == layer)

        out = {
            "sim.points": float(len(sim_us)),
            "sim.point_us_p50": _percentile(sim_us, 50),
            "sim.point_us_p99": _percentile(sim_us, 99),
            "surface.calls": float(len(surface_calls)),
            "surface.hit_frac": (
                sum(1 for i in surface_calls if not has_sim[i])
                / len(surface_calls) if surface_calls else 0.0
            ),
            "scheduler.advance_calls": float(count("scheduler.advance")),
            "scheduler.advance_self_s": self_s.get("scheduler.advance", 0.0),
            "scheduler.api_calls": float(count("scheduler.api")),
            "scheduler.api_self_s": self_s.get("scheduler.api", 0.0),
            "routing.calls": float(len(route_us)),
            "routing.route_us_p99": _percentile(route_us, 99),
            "routing.model_evals": float(count("routing.model")),
            "untraced_s": max(0.0, wall_s - top_level),
        }
        self_s["routing"] = (
            self_s.get("routing.route", 0.0) + self_s.get("routing.model", 0.0)
        )
        for group in SELF_GROUPS:
            out[f"{group}.self_s"] = self_s.get(group, 0.0)
        return out

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then packed arrays.

        Layout after the header: ``int32 name_id[n]``, ``int32
        parent[n]``, ``float64 t0[n]``, ``float64 t1[n]`` in native byte
        order; ``parent`` is -1 for top-level spans.
        """
        arrays = self.spans()
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = {
            "schema": "perfbench.spans/1",
            "n_spans": len(arrays[0]),
            "names": self.names,
            "layers": self.layer_of,
            "arrays": ["name_id:i4", "parent:i4", "t0:f8", "t1:f8"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in arrays:
                arr.tofile(fh)
