"""Fault schedules: seeded, deterministic chaos for fleet simulations.

Real edge fleets are not the perfectly healthy cluster PRs 4–7 model:
boxes crash and cold-start (EdgeFlow shows the re-warm — streaming the
weight image back through DRAM — dominates recovery latency on mobile
LLMs), and low-power deployments brown out (DVFS, thermal throttling)
long before they fail. This module describes those events as data:

* :class:`ShardFault` — one scheduled event: a **crash** (the shard
  loses all queued and in-flight work, then stays down for
  ``duration_s`` *plus* the modeled cold-start re-warm) or a
  **brownout** (effective DRAM bandwidth drops to ``bandwidth_factor``
  of nominal for ``duration_s``, scaling step latencies by its
  inverse).
* :class:`FaultSchedule` — an immutable, time-sorted set of faults the
  :class:`~repro.fleet.FleetSimulator` injects into its next-event
  calendar. :meth:`FaultSchedule.none` is the explicit zero-fault
  schedule — running with it is bit-identical to not passing one.
* :data:`FAULT_SCENARIOS` — named seeded scenario factories
  (``none`` / ``crash`` / ``cascade`` / ``brownout`` / ``chaos``) so
  CLI flags and sweep axes can name a failure pattern that scales with
  the workload's time span and shard count.

Everything is deterministic: scenario factories draw from one
``random.Random(seed)``, and the re-warm cost is a closed-form function
of the engine's (packed) weight-image size and DRAM bandwidth — so one
seed maps to exactly one chaos timeline.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..core.meadow import MeadowEngine
from ..errors import ConfigError

__all__ = [
    "FaultKind",
    "ShardFault",
    "FaultSchedule",
    "weight_image_bytes",
    "rewarm_s",
    "FAULT_SCENARIOS",
    "FAULT_SCENARIO_NAMES",
    "make_fault_schedule",
]


class FaultKind(enum.Enum):
    """What goes wrong with a shard."""

    #: The shard dies: queued + in-flight work is lost, the box is down
    #: for ``duration_s`` plus the cold-start re-warm of its engine.
    CRASH = "crash"
    #: Effective DRAM bandwidth drops to ``bandwidth_factor`` of
    #: nominal for ``duration_s`` (DVFS / thermal throttling).
    BROWNOUT = "brownout"


@dataclass(frozen=True)
class ShardFault:
    """One scheduled fault event on one shard."""

    kind: FaultKind
    shard_id: int
    #: Simulated instant the fault strikes.
    at_s: float
    #: Crash: outage before recovery *begins* (re-warm is added on
    #: top). Brownout: how long the degradation lasts.
    duration_s: float
    #: Brownouts only: the fraction of nominal bandwidth that remains
    #: (0 < factor < 1). Ignored for crashes.
    bandwidth_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.shard_id < 0:
            raise ConfigError(f"shard_id must be >= 0, got {self.shard_id}")
        if not 0 <= self.at_s < math.inf:
            raise ConfigError(f"at_s must be >= 0 and finite, got {self.at_s}")
        if not 0 < self.duration_s < math.inf:
            raise ConfigError(
                f"duration_s must be positive and finite, got {self.duration_s}"
            )
        if self.kind is FaultKind.BROWNOUT and not (
            0.0 < self.bandwidth_factor < 1.0
        ):
            raise ConfigError(
                f"brownout bandwidth_factor must be in (0, 1), got "
                f"{self.bandwidth_factor}"
            )


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable, deterministically ordered set of shard faults.

    Faults are stored sorted by ``(at_s, shard_id, kind)`` — the total
    order the fleet loop injects them in, so schedule construction
    order can never change a timeline.
    """

    name: str = "none"
    faults: Tuple[ShardFault, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(
            sorted(
                self.faults,
                key=lambda f: (f.at_s, f.shard_id, f.kind.value),
            )
        )
        if ordered != self.faults:
            object.__setattr__(self, "faults", ordered)

    @classmethod
    def none(cls) -> "FaultSchedule":
        """The explicit zero-fault schedule (bit-identical to no faults)."""
        return cls(name="none", faults=())

    @property
    def is_empty(self) -> bool:
        """True when no fault is scheduled."""
        return not self.faults

    def for_fleet(self, n_shards: int) -> "FaultSchedule":
        """Validate shard ids against a fleet size (returns self)."""
        for fault in self.faults:
            if fault.shard_id >= n_shards:
                raise ConfigError(
                    f"fault targets shard {fault.shard_id} but the fleet "
                    f"has only {n_shards} shards"
                )
        return self


# ------------------------------------------------------------- cold start
def weight_image_bytes(engine: MeadowEngine) -> int:
    """The resident weight image a recovering shard must re-stream.

    Plans that pack weights hold the *packed* image in DRAM (that is
    the point of MEADOW's data packing — the reclaimed space became KV
    budget at deployment time), so recovery re-streams packed bits.
    Plans without packing pay for the raw image.
    """
    try:
        return engine.packing_summary().packed_bits // 8
    except ConfigError:
        model, config = engine.model, engine.config
        return model.total_weight_params * config.weight_bits // 8


def rewarm_s(engine: MeadowEngine) -> float:
    """EdgeFlow-style cold-start cost: weight image over DRAM bandwidth.

    A crashed box that comes back has an empty DRAM: before it can
    serve a single token it must stream its (packed) weight image back
    in at the configured bandwidth. This is the closed-form lower
    bound EdgeFlow measures as the dominant term of mobile LLM cold
    starts; it is charged on top of every crash's outage window.
    """
    bytes_per_s = engine.config.dram_bandwidth_gbps * 1e9 / 8
    return weight_image_bytes(engine) / bytes_per_s


# -------------------------------------------------------------- scenarios
def _scenario_none(
    n_shards: int, span_s: float, seed: int
) -> FaultSchedule:
    return FaultSchedule.none()


def _scenario_crash(
    n_shards: int, span_s: float, seed: int
) -> FaultSchedule:
    """One crash mid-stream on shard 0, down for a quarter of the span."""
    return FaultSchedule(
        name="crash",
        faults=(
            ShardFault(
                FaultKind.CRASH,
                shard_id=0,
                at_s=0.5 * span_s,
                duration_s=max(0.25 * span_s, 1e-3),
            ),
        ),
    )


def _scenario_cascade(
    n_shards: int, span_s: float, seed: int
) -> FaultSchedule:
    """Every shard (but the last) crashes in turn — rolling failure."""
    victims = max(1, n_shards - 1)
    step = span_s / (victims + 1)
    return FaultSchedule(
        name="cascade",
        faults=tuple(
            ShardFault(
                FaultKind.CRASH,
                shard_id=i,
                at_s=(i + 1) * step,
                duration_s=max(0.5 * step, 1e-3),
            )
            for i in range(victims)
        ),
    )


def _scenario_brownout(
    n_shards: int, span_s: float, seed: int
) -> FaultSchedule:
    """Shard 0 throttles to a quarter of its bandwidth mid-stream."""
    return FaultSchedule(
        name="brownout",
        faults=(
            ShardFault(
                FaultKind.BROWNOUT,
                shard_id=0,
                at_s=0.25 * span_s,
                duration_s=max(0.5 * span_s, 1e-3),
                bandwidth_factor=0.25,
            ),
        ),
    )


def _scenario_chaos(
    n_shards: int, span_s: float, seed: int
) -> FaultSchedule:
    """Seeded mixed chaos: ~one fault per shard, crash or brownout."""
    rng = random.Random(seed)
    faults = []
    for shard_id in range(n_shards):
        kind = FaultKind.CRASH if rng.random() < 0.5 else FaultKind.BROWNOUT
        at_s = rng.uniform(0.1, 0.9) * span_s
        duration_s = max(rng.uniform(0.05, 0.3) * span_s, 1e-3)
        faults.append(
            ShardFault(
                kind,
                shard_id=shard_id,
                at_s=at_s,
                duration_s=duration_s,
                bandwidth_factor=(
                    rng.uniform(0.1, 0.5)
                    if kind is FaultKind.BROWNOUT
                    else 1.0
                ),
            )
        )
    return FaultSchedule(name="chaos", faults=tuple(faults))


#: Named scenario factories: ``(n_shards, span_s, seed) -> schedule``.
#: ``span_s`` is the workload's initial-arrival span, so one scenario
#: name scales across streams of any length.
FAULT_SCENARIOS: Dict[str, Callable[[int, float, int], FaultSchedule]] = {
    "none": _scenario_none,
    "crash": _scenario_crash,
    "cascade": _scenario_cascade,
    "brownout": _scenario_brownout,
    "chaos": _scenario_chaos,
}

#: Deterministic enumeration order for CLI choices and sweep grids.
FAULT_SCENARIO_NAMES: Tuple[str, ...] = tuple(sorted(FAULT_SCENARIOS))


def make_fault_schedule(
    name: str, n_shards: int, span_s: float, seed: int = 0
) -> FaultSchedule:
    """Instantiate a named fault scenario for one fleet and workload."""
    try:
        factory = FAULT_SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown fault scenario {name!r}; available: "
            f"{', '.join(FAULT_SCENARIO_NAMES)}"
        ) from None
    if n_shards < 1:
        raise ConfigError(f"n_shards must be >= 1, got {n_shards}")
    if span_s < 0:
        raise ConfigError(f"span_s must be >= 0, got {span_s}")
    # Degenerate spans (a single-burst stream arrives at t=0) still get
    # a meaningful schedule: pretend the stream spans one second.
    return factory(n_shards, span_s if span_s > 0 else 1.0, seed)
