"""Fuzz the ``serve`` and ``fleet`` CLIs over extreme knobs.

Whatever the knobs, a run either prints a report and exits 0, or prints
exactly one ``error: ...`` line and exits 2 — never a traceback. Runs
call :func:`repro.cli.main` in process on a handful of requests, so the
whole file stays within a few seconds.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main

BASE = {
    "serve": [
        "serve", "--model", "opt-125m", "--requests", "4", "--seed", "0",
    ],
    "fleet": [
        "fleet", "--model", "opt-125m", "--bandwidths", "12", "1",
        "--requests", "4", "--users", "2", "--seed", "0",
    ],
}

#: Extreme values per knob, with the outcome each has on its own:
#: ``None`` for a report, else the start of the one error line.
KNOBS = {
    "max_batch": (
        (("--max-batch", "1"), None),
        (("--max-batch", "0"), "error: max_batch must be >= 1"),
    ),
    "ctx_bucket": (
        (("--ctx-bucket", "0"), "error: ctx_bucket must be >= 1"),
        (("--ctx-bucket", "100000"), None),
    ),
    "prompt": (
        (("--prompt-tokens", "1", "1"), None),
        (("--prompt-tokens", "2048", "2048"), "error: request 0: "),
    ),
    "output": ((("--output-tokens", "1", "1"), None),),
    "kv_budget": (
        (("--kv-budget-mb", "0.0001"), "error: request 0 needs "),
    ),
    "arrival": (
        (("--arrival", "poisson", "--rate", "0"),
         "error: rate_rps must be positive"),
        (("--arrival", "closed-loop", "--users", "0"),
         "error: n_users must be >= 1"),
        (("--arrival", "closed-loop", "--think-time", "-1"),
         "error: think_time_s must be non-negative"),
    ),
    "interp": (
        (("--interpolate", "--interp-rel-err", "-1"),
         "error: interp_rel_err must be >= 0"),
    ),
}

SINGLE_KNOBS = [
    pytest.param(command, list(argv), expected, id=f"{command}{''.join(argv)}")
    for command in BASE
    for choices in KNOBS.values()
    for argv, expected in choices
]


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_report_or_error(argv):
    """Check the CLI contract; returns ``(report, None)`` or
    ``(None, error line)``."""
    code, out, err = run_cli(argv)
    if code == 0:
        assert out.strip(), argv
        assert not err, (argv, err)
        return out, None
    assert code == 2, (argv, code, err)
    assert not out, argv
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    return None, lines[0]


@pytest.mark.parametrize("command, knob, expected", SINGLE_KNOBS)
def test_each_extreme_knob_alone(command, knob, expected):
    _, error = assert_report_or_error(BASE[command] + knob)
    if expected is None:
        assert error is None
    else:
        assert error is not None and error.startswith(expected), error


@given(
    st.sampled_from(sorted(BASE)),
    st.fixed_dictionaries(
        {
            name: st.none() | st.sampled_from([argv for argv, _ in choices])
            for name, choices in KNOBS.items()
        }
    ),
)
@settings(max_examples=30, deadline=None)
def test_knob_combinations(command, picks):
    argv = list(BASE[command])
    for knob in picks.values():
        if knob is not None:
            argv.extend(knob)
    assert_report_or_error(argv)


@pytest.mark.parametrize("faults", ["crash", "cascade", "chaos"])
@pytest.mark.parametrize("steal", [False, True])
@pytest.mark.parametrize("shed", ["deadline", "drop-oldest"])
def test_chaos_grid_on_a_closed_loop(faults, steal, shed):
    argv = BASE["fleet"] + [
        "--arrival", "closed-loop", "--users", "3", "--requests", "6",
        "--think-time", "0.01", "--faults", faults, "--shed", shed,
        "--deadline-s", "5", "--max-batch", "1",
    ] + (["--steal"] if steal else [])
    report, _ = assert_report_or_error(argv)
    assert report is not None and "availability" in report


@pytest.mark.parametrize(
    "argv",
    [
        BASE["serve"],
        BASE["fleet"],
        ["plan", "--model", "opt-125m", "--engines", "1", "--samples", "8"],
    ],
    ids=["serve", "fleet", "plan"],
)
def test_negative_interpolation_guard_is_rejected(argv):
    # The guard lives on LatencySurface; every CLI that sets it must go
    # through its check.
    _, error = assert_report_or_error(
        argv + ["--interpolate", "--interp-rel-err", "-1"]
    )
    assert error is not None
    assert error.startswith("error: interp_rel_err must be >= 0"), error
