"""Fresh CLI output against the committed goldens in tests/golden/, column by column.

Integer, string, boolean and null cells must match exactly, and so must every
float column not named in TOLERANCES.  The goldens cover the CI contract runs
but weights at --grid 4096 and the nine-zeta --grid 512 set, with weights on a
128-sample grid in place of 1024.  A change within the tolerances regenerates
them and says so; one beyond them changes the contract.  From the root of a
checkout,

    PYTHONPATH=src python tests/test_golden.py --diff

prints, per golden and numeric column, the largest absolute and relative
move of fresh output against the committed file, with forbidden lines and
cells below 1e-12 apart, and

    PYTHONPATH=src python tests/test_golden.py

regenerates them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

from driventls.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# file name -> (argv, exit code)
CASES = {
    "spectrum.csv": (["spectrum", "--include-forbidden"], 0),
    "validate.json": (["validate", "--zetas", "0.6", "3.1"], 0),
    "sweep.csv": (["sweep"], 0),
    "weights.csv": (["weights", "--zetas", "0.6", "3.1", "--grid", "128"], 0),
    "validate_wide.json": (["validate", "--zetas", "0.6", "2.404825557695773", "10", "40", "70", "100"], 0),
    "spectrum.json": (["spectrum", "--include-forbidden", "--k-max", "9", "--format", "json"], 0),
    "sweep_wide.csv": (["sweep", "--delta", "0.011", "--zeta-max", "12", "--zeta-steps", "241"], 0),
    # zero drive, and zeta = 100 on a grid too coarse for its harmonics
    "weights_fold.json": (["weights", "--zetas", "0", "0.6", "100", "--grid", "64", "--format", "json"], 0),
    # 64 steps per period refuse zeta = 70 inside a batch that solves 0.6
    "validate_refused.json": (["validate", "--zetas", "0.6", "70", "--steps", "64", "--grid", "64"], 1),
    # a dipole other than 1, and zero detuning, where every k != 0 line has a
    # closed-form intensity of 0 and validate holds it to the weak-line bound
    "spectrum_dipole.csv": (["spectrum", "--delta", "0", "--mu", "2.5", "--include-forbidden", "--k-max", "5"], 0),
    "validate_weak.json": (["validate", "--delta", "0", "--mu", "2.5", "--zetas", "0.6", "9.932314258317383"], 0),
    # eight drive strengths in the bands of the benchmark's validate requests: two weak, one
    # near each of the first two zeros of J0, two strong and two beyond zeta = 40
    "validate_bands.json": (
        ["validate", "--zetas", "0.8858372419923886", "0.6152945353588553", "2.402764741868351", "5.5200892166828925",
         "30.08424503408855", "25.697903222271492", "75.34176255821092", "89.26496826507251"],
        0,
    ),
    # zero detuning: every exact gap is exactly 0, so a flipped sign of zero would print
    "sweep_zero.csv": (["sweep", "--delta", "0", "--zeta-max", "3", "--zeta-steps", "31"], 0),
    "spectrum_zero.csv": (["spectrum", "--delta", "0", "--zeta", "0", "--include-forbidden"], 0),
    # zeta = 1e300 overflows the step factors: a NaN grid, refused inside a batch that solves 0.6
    "validate_overflow.json": (["validate", "--zetas", "0.6", "1e300"], 1),
}

QUASIENERGY = ("abs", 1e-13)
# column -> (kind, bound): |fresh - golden| <= bound, times |golden| when relative
TOLERANCES = {
    **dict.fromkeys(("eps1_exact", "eps2_exact", "eps1_analytic", "eps2_analytic"), QUASIENERGY),
    "frequency": QUASIENERGY,
    "quasienergy_gap": QUASIENERGY,
    "weight1": ("abs", 1e-13),
    "weight2": ("abs", 1e-13),
    "min_mode_fidelity": ("abs", 1e-13),
    "intensity_numeric": ("rel", 1e-12),
    "intensity_analytic": ("rel", 1e-12),
}


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def _parse(name: str, text: str) -> tuple[dict, list[dict]]:
    """Header values and table rows of one output; CSV cells stay text."""
    if name.endswith(".json"):
        payload = json.loads(text)
        table = next(key for key in ("rows", "checks") if key in payload)
        return {k: v for k, v in payload.items() if k != table}, payload[table]
    header, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        else:
            body.append(line.split(","))
    names = body[0] if body else []
    return header, [dict(zip(names, cells)) for cells in body[1:]]


def _close(column: str, fresh, golden) -> bool:
    if type(fresh) is type(golden) and fresh == golden:
        return True
    kind, bound = TOLERANCES.get(column, (None, None))
    if kind is None or isinstance(fresh, bool) or isinstance(golden, bool):
        return False
    try:
        fresh, golden = float(fresh), float(golden)
    except (TypeError, ValueError):
        return False
    return abs(fresh - golden) <= bound * (abs(golden) if kind == "rel" else 1.0)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_within_tolerance(name):
    argv, expected_code = CASES[name]
    code, text = _run(argv)
    assert code == expected_code
    header, rows = _parse(name, text)
    golden_header, golden_rows = _parse(name, (GOLDEN / name).read_text(encoding="utf-8"))
    assert header == golden_header
    assert len(rows) == len(golden_rows) > 0
    for index, (row, golden) in enumerate(zip(rows, golden_rows)):
        assert list(row) == list(golden)
        bad = [c for c in row if not _close(c, row[c], golden[c])]
        assert not bad, (index, {c: (row[c], golden[c]) for c in bad})


@pytest.mark.parametrize(
    "name",
    ["spectrum.csv", "spectrum.json", "spectrum_dipole.csv", "spectrum_zero.csv", "sweep.csv", "sweep_wide.csv", "sweep_zero.csv"],
)
def test_spectrum_and_sweep_are_the_golden_bytes(name):
    # the exact propagator, spectrum and sweep moved no bit since the goldens
    assert _run(CASES[name][0])[1] == (GOLDEN / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", ["weights.csv", "weights_fold.json"])
def test_exact_weight_rows_are_the_golden_values(name):
    _, rows = _parse(name, _run(CASES[name][0])[1])
    _, golden = _parse(name, (GOLDEN / name).read_text(encoding="utf-8"))
    exact = [row for row in rows if row["source"] == "exact"]
    assert exact == [row for row in golden if row["source"] == "exact"] and exact


def _number(cell) -> float | None:
    """A cell's float value, or None for booleans, nulls and text that is no number."""
    if isinstance(cell, bool) or cell is None:
        return None
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _print_moves() -> None:
    """Per golden the largest absolute and relative move of each numeric column of fresh output.
    The forbidden lines of a spectrum, and cells whose golden magnitude is below 1e-12, are
    reported as columns of their own; a relative move off a zero golden is inf."""
    for name, (argv, expected_code) in CASES.items():
        code, text = _run(argv)
        golden_text = (GOLDEN / name).read_text(encoding="utf-8")
        header, rows = _parse(name, text)
        golden_header, golden_rows = _parse(name, golden_text)
        notes = ["same bytes" if text == golden_text else "bytes differ"]
        if code != expected_code:
            notes.append(f"exit code {code}, expected {expected_code}")
        if header != golden_header:
            notes.append("headers differ: " + ", ".join(k for k in golden_header if header.get(k) != golden_header[k]))
        if len(rows) != len(golden_rows) or any(list(a) != list(b) for a, b in zip(rows, golden_rows)):
            notes.append(f"table layout differs ({len(rows)} rows, golden {len(golden_rows)})")
        print(f"{name}: {'; '.join(notes)}")
        # column -> (largest absolute move, largest relative move)
        moves = {}
        for row, golden in zip(rows, golden_rows):
            forbidden = golden.get("forbidden") in (True, "true")
            for column, cell in row.items():
                fresh, old = _number(cell), _number(golden.get(column))
                if fresh is None or old is None:
                    continue
                move = abs(fresh - old)
                rel = move / abs(old) if old else (math.inf if move else 0.0)
                key = f"{column} [forbidden]" if forbidden else column
                key += " [below 1e-12]" if abs(old) < 1e-12 else ""
                largest = moves.get(key, (0.0, 0.0))
                moves[key] = (max(largest[0], move), max(largest[1], rel))
        for key, (move, rel) in moves.items():
            print(f"  {key:46} abs {move:.2e}  rel {rel:.2e}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        _print_moves()
        sys.exit()
    GOLDEN.mkdir(exist_ok=True)
    for name, (argv, expected_code) in CASES.items():
        code, text = _run(argv)
        if code != expected_code:
            sys.exit(f"{name}: exit code {code}, expected {expected_code}")
        (GOLDEN / name).write_text(text, encoding="utf-8")
