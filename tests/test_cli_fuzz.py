"""A fuzz of cli.main over the documented domain of its four commands.

delta in [0, 1], zeta in [0, 100], power-of-two --steps from 64 to 4096
with --grid from 64 to --steps, --k-max below --grid/2, both formats, the
drive given as --rabi, as --zeta or not at all, and a dipole inside or
outside [1e-100, 1e100].  Every run must end with a documented exit code,
and what it writes must parse.
"""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import quasienergy_miss

from driventls.cli import main

STEP_HALVING = re.compile(r"error: step-halving error estimate \S+ exceeds 1e-07 .*; increase steps_per_period")
ZONE_BOUNDARY = "error: both modes sit on the zone boundary eps = 1/2"

# the zone boundary (delta = 1 with little or no drive) is drawn on purpose
deltas = st.one_of(st.just(1.0), st.floats(0.0, 1.0))
zetas = st.one_of(st.floats(0.0, 1e-6), st.floats(0.0, 100.0))
dipoles_inside = st.floats(1e-100, 1e100)
dipoles_outside = st.one_of(
    st.floats(max_value=1e-100, exclude_max=True), st.floats(min_value=1e100, exclude_min=True)
)


@st.composite
def invocations(draw):
    """(argv, facts): one command line, and what the checks need to know about it."""
    command = draw(st.sampled_from(["weights", "sweep", "spectrum", "validate"]))
    delta = draw(deltas)
    steps = 2 ** draw(st.integers(6, 12))
    grid = 2 ** draw(st.integers(6, steps.bit_length() - 1))
    mu_inside = draw(st.sampled_from([True, True, True, False]))  # three runs in four
    mu = draw(dipoles_inside if mu_inside else dipoles_outside)
    output_format = draw(st.sampled_from(["csv", "json"]))
    argv = [command, "--delta", repr(delta), "--steps", str(steps), "--grid", str(grid)]
    argv += [f"--mu={mu!r}", "--format", output_format]
    drive = draw(zetas)
    spelling = draw(st.sampled_from(["default", "zeta", "rabi"]))
    if spelling == "zeta":
        argv += ["--zeta", repr(drive)]
    elif spelling == "rabi":
        argv += ["--rabi", repr(drive / 2.0)]
    usage_error = not mu_inside
    if command in ("weights", "validate"):
        drives = draw(st.lists(zetas, min_size=1, max_size=3))
        argv += ["--zetas", *map(repr, drives)]
    elif command == "sweep":
        low = draw(zetas)
        drives = [low, min(low + draw(st.floats(0.0, 100.0)), 100.0)]
        usage_error |= not drives[0] < drives[1]
        argv += ["--zeta-min", repr(drives[0]), "--zeta-max", repr(drives[1])]
        argv += ["--zeta-steps", str(draw(st.integers(2, 5))), "--manifolds", str(draw(st.integers(0, 2)))]
    else:
        drives = [math.pi / 5 if spelling == "default" else drive]
        argv += ["--k-max", str(draw(st.integers(1, grid // 2 - 1)))]
        argv += ["--include-forbidden"] if draw(st.booleans()) else []
    json_out = command == "validate" or output_format == "json"
    return argv, {"delta": delta, "zetas": drives, "json": json_out, "usage_error": usage_error}


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _table(text, as_json):
    """The rows of a command's output, each a dict of column name to value."""
    if as_json:
        payload = json.loads(text)
        return payload["rows" if "rows" in payload else "checks"]
    lines = [line for line in text.splitlines() if not line.startswith("# ")]
    names = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == len(names) for row in rows)
    return [dict(zip(names, row)) for row in rows]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(invocations())
def test_cli_runs_end_with_a_documented_outcome(invocation):
    argv, facts = invocation
    code, out, err = _outcome(argv)
    assert code in (0, 1, 2, 3)
    assert (code == 2) == facts["usage_error"], err
    assert code != 1 or argv[0] == "validate"
    if code in (2, 3):
        assert out == ""
    if code == 3:
        (line,) = err.splitlines()
        if line.startswith(ZONE_BOUNDARY):
            # only delta = 1 without drive folds both modes onto eps = 1/2;
            # a drive splits them once their symmetry gap reaches 1e-7
            assert facts["delta"] > 1.0 - 1e-7 and min(facts["zetas"]) < 1e-7, line
        else:
            assert STEP_HALVING.fullmatch(line), line
    if code not in (0, 1):
        return
    rows = _table(out, facts["json"])
    assert rows
    if argv[0] == "sweep" and code == 0:
        centre = [row for row in rows if int(row["n"]) == 0]
        for row in centre[:: max(1, len(centre) // 2)][:3]:
            eps1, eps2 = float(row["eps1_exact"]), float(row["eps2_exact"])
            assert quasienergy_miss(facts["delta"], float(row["zeta"]), eps1, eps2) <= 1e-7, row
