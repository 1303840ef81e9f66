"""Exception types used across the MEADOW reproduction.

A small, flat hierarchy: everything derives from :class:`ReproError` so
callers embedding the library can catch one type, while tests can assert
on the precise subclass.
"""

from __future__ import annotations

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


def check_count(name: str, value, lo: int = 1) -> int:
    """``value`` as an ``int``, if it is an integral number ``>= lo``.

    The count rule for public inputs: bools, non-numbers and non-finite
    or fractional values are refused, and integral floats (``1.5e9``)
    are accepted. Raises :class:`ConfigError` starting
    ``"<name> must be >= <lo>"``.
    """
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, Real) or value % 1:
            raise ConfigError(f"{name} must be >= {lo} and integral, got {value!r}")
        value = int(value)
    if value < lo:
        raise ConfigError(f"{name} must be >= {lo}, got {value}")
    return value
