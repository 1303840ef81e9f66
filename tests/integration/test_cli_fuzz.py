"""Fuzz the ``serve`` and ``fleet`` CLIs over extreme knobs.

Whatever the knobs, a run either prints a report and exits 0, or prints
exactly one ``error: ...`` line and exits 2 — never a traceback, and
never a hang on a non-finite value. Runs call :func:`repro.cli.main` in
process on a handful of requests, so the whole file stays within a few
seconds.
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
PLAN = ["plan", "--model", "opt-125m", "--engines", "1", "--samples", "8"]

#: Extreme values per knob, with the outcome each has on its own:
#: ``None`` for a report, else the start of the one error line. A knob
#: spelled differently per command maps each command to its argv.
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
        (("--kv-budget-mb", "nan"), "error: --kv-budget-mb must be finite"),
        (("--kv-budget-mb", "inf"), "error: --kv-budget-mb must be finite"),
    ),
    "arrival": (
        (("--arrival", "poisson", "--rate", "0"),
         "error: rate_rps must be positive"),
        (("--arrival", "poisson", "--rate", "nan"),
         "error: rate_rps must be positive"),
        (("--arrival", "poisson", "--rate", "inf"), None),
        (("--arrival", "bursty", "--burst-gap", "nan"),
         "error: burst_gap_s must be positive"),
        (("--arrival", "bursty", "--burst-gap", "inf"),
         "error: burst_gap_s must be positive"),
        (("--arrival", "closed-loop", "--users", "0"),
         "error: n_users must be >= 1"),
        (("--arrival", "closed-loop", "--think-time", "-1"),
         "error: think_time_s must be non-negative"),
        (("--arrival", "closed-loop", "--think-time", "nan"),
         "error: think_time_s must be non-negative"),
    ),
    "bandwidth": (
        ({"serve": ("--bandwidth", "nan"), "fleet": ("--bandwidths", "nan")},
         "error: dram_bandwidth_gbps must be positive"),
        ({"serve": ("--bandwidth", "inf"), "fleet": ("--bandwidths", "inf")},
         None),
    ),
    "obs_tick": (
        (("--timeline", "--obs-tick", "nan"),
         "error: --obs-tick must be positive"),
    ),
}


def knob_argv(knob, command):
    """The argv of one knob choice for ``command``."""
    return list(knob[command] if isinstance(knob, dict) else knob)


SINGLE_KNOBS = [
    pytest.param(
        command, knob_argv(knob, command), expected,
        id=f"{command}{''.join(knob_argv(knob, command))}",
    )
    for command in BASE
    for choices in KNOBS.values()
    for knob, expected in choices
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
            argv.extend(knob_argv(knob, command))
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
    "argv, expected",
    [
        (PLAN + ["--rate", "nan"], "error: rate_rps must be positive"),
        (PLAN + ["--rate", "inf"], "error: rate_rps must be positive"),
        (["plan", "--model", "opt-125m", "--target-p99-ttft-ms", "nan"],
         "error: target_p99_ttft_s must be positive"),
        (BASE["fleet"] + ["--deadline-s", "nan"],
         "error: deadline_s must be positive"),
    ],
    ids=[
        "plan--ratenan", "plan--rateinf", "plan--target-p99-ttft-msnan",
        "fleet--deadline-snan",
    ],
)
def test_non_finite_value_of_one_command(argv, expected):
    _, error = assert_report_or_error(argv)
    assert error is not None and error.startswith(expected), error


@pytest.mark.parametrize(
    "flag",
    [["--interpolate"], ["--interp-rel-err", "0.1"], ["--no-surface-store"]],
)
@pytest.mark.parametrize(
    "argv", [BASE["serve"], BASE["fleet"], PLAN], ids=["serve", "fleet", "plan"]
)
def test_removed_interpolation_flags_are_usage_errors(argv, flag):
    """The interpolation flags and the store override are gone: argparse
    rejects them as unknown arguments."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    last = err.getvalue().splitlines()[-1]
    assert last.endswith("unrecognized arguments: " + " ".join(flag)), last
