"""Exception types used across the MEADOW reproduction.

A small, flat hierarchy: everything derives from :class:`ReproError` so
callers embedding the library can catch one type, while tests can assert
on the precise subclass.
"""

from __future__ import annotations

from math import inf, isfinite
from numbers import Real


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """A hardware or model configuration is inconsistent or out of range."""


class CapacityError(ReproError):
    """An on-chip buffer (BRAM / register file) cannot hold a required tile."""


class PackingError(ReproError):
    """Weight packing or unpacking failed (malformed stream, bad mode table...)."""


class ScheduleError(ReproError):
    """A dataflow schedule could not be constructed for the given shapes."""


class SimulationError(ReproError):
    """The performance or functional simulator reached an invalid state."""


class CLIError(ReproError):
    """A command-line invocation is invalid or internally inconsistent.

    Raised by :mod:`repro.cli` for argument combinations argparse cannot
    express (unknown scenario names, malformed grid values, flags that
    only apply to one mode). ``main()`` turns any :class:`ReproError`
    into a one-line ``error: ...`` on stderr and exit code 2, so library
    misconfiguration never surfaces as a traceback to shell users.
    """


class UnknownRequestError(ConfigError):
    """An operation named a request the scheduler does not hold.

    Raised by :meth:`ContinuousBatchingScheduler.withdraw` when the id
    is unknown, already prefilled, or already completed, and by
    :meth:`~ContinuousBatchingScheduler.submit` on a duplicate id.
    Subclasses :class:`ConfigError` so existing broad catches keep
    working while failover code can match the precise condition.
    """


class SchedulerClosedError(ConfigError):
    """A consumed scheduler was asked to run another scenario.

    Scheduler state (clock, event log, RNG-free queues) is consumed by
    one scenario; re-running would silently continue a stale timeline.
    Subclasses :class:`ConfigError` for backward compatibility.
    """


def check_count(name: str, value, lo: int | None = 1) -> int:
    """``value`` as an ``int``, if it is an integral number ``>= lo``.

    The count rule for public inputs: bools, non-numbers and non-finite
    or fractional values are refused, and integral floats (``1.5e9``)
    are accepted. ``lo=None`` sets no bound (seeds). Raises
    :class:`ConfigError` starting ``"<name> must be >= <lo>"``, or
    ``"<name> must be an integer"`` without a bound.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not (
            isinstance(value, Real) and isfinite(value) and value % 1 == 0
        ):
            rule = "an integer" if lo is None else f">= {lo} and integral"
            raise ConfigError(f"{name} must be {rule}, got {value!r}")
        value = int(value)
    if lo is not None and value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {value}")
    return value


def check_real(name: str, value, lo: float, hi: float, ends: str = "[]"):
    """``value`` unchanged, if it is a real number from ``lo`` to ``hi``.

    The real rule for public inputs: bools, non-numbers and NaN are
    refused. ``ends`` holds the interval's brackets; ``(`` or ``)``
    opens an end, so an infinite value passes only at a closed infinite
    end. Raises :class:`ConfigError` starting ``"<name> must be"``.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not (lo < value if ends[0] == "(" else lo <= value)
        or not (value < hi if ends[1] == ")" else value <= hi)
    ):
        if hi != inf:
            rule = f"in {ends[0]}{lo:g}, {hi:g}{ends[1]}"
        elif lo == 0:
            rule = "positive" if ends[0] == "(" else "non-negative"
        else:
            rule = f"{'>' if ends[0] == '(' else '>='} {lo:g}"
        if hi == inf and ends[1] == ")":
            rule += " and finite"
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
    return value
