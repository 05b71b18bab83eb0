"""Seeded CLI requests for each workload, and the checks on their outputs.

A request is the argv list of one or more ``driventls`` invocations drawn
together from the workload's generator; the program sees only these argv.
Each check parses one invocation's stdout and returns how many parameter
points it attempted and solved, the problems found, and the largest error
against the Shirley reference (``shirley.py``), which shares no code with
the package.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field

import numpy as np

import shirley

# first two zeros of J0: the exact quasienergy levels cross near these
J0_ZEROS = (2.404825557695773, 5.520078110286311)

# documented range of drive strength at the default step count
ZETA_DOCUMENTED = 40.0

# largest error against the reference that still counts as a correct output;
# outputs today are about five orders of magnitude inside each
QE_TOL = 1e-8  # quasienergy, units of the drive frequency
CROSSING_TOL = 1e-8  # crossing drive strength
WEIGHT_TOL = 1e-6  # bare-state weight
INTENSITY_REL_TOL = 1e-6  # relative line intensity
SUM_TOL = 1e-12  # weight1 + weight2 - 1, and the excursion outside [0, 1]
# validate's closed-form misses divide by first-order intensities that can be
# tiny, so they are compared to the reference relative to 1 + their value
MISS_TOL = 1e-3

# sweep grid at the CLI defaults, which the sweep workload leaves unset
SWEEP_GRID = (0.0, 6.0, 121)


def _num(x: float) -> str:
    return repr(float(x))


def sweep(rng: random.Random) -> list[list[str]]:
    """sweep at CLI defaults with a seeded detuning."""
    return [["sweep", "--delta", _num(rng.uniform(0.01, 0.05))]]


def _near_zero(rng: random.Random, zero: float) -> float:
    # log-uniform distance 1e-9..1e-2: the closer half of draws reaches the
    # degenerate-splitting path (quasienergy gap below 1e-7)
    return zero + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-9.0, -2.0)


def spectroscopy(rng: random.Random) -> list[list[str]]:
    """validate over seeded drive-strength bands, then spectrum at defaults."""
    zetas = [rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)]
    zetas += [_near_zero(rng, z) for z in J0_ZEROS]
    zetas += [rng.uniform(8.0, 40.0), rng.uniform(8.0, 40.0)]
    zetas += [rng.uniform(60.0, 100.0), rng.uniform(60.0, 100.0)]
    return [["validate", "--zetas", *map(_num, zetas)], ["spectrum"]]


def weights_dense(rng: random.Random) -> list[list[str]]:
    """weights on a 4096-sample grid at three seeded zetas, as CSV and JSON."""
    zetas = [_num(rng.uniform(0.2, 6.0)) for _ in range(3)]
    base = ["weights", "--grid", "4096", "--zetas", *zetas]
    return [base, base + ["--format", "json"]]


GENERATORS = {"sweep": sweep, "spectroscopy": spectroscopy, "weights_dense": weights_dense}


@dataclass
class Outcome:
    """What one invocation's check found."""

    attempted: int
    solved: int = 0
    problems: list[str] = field(default_factory=list)
    error: float | None = None  # largest error against the reference


def _option(argv: list[str], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def _zetas(argv: list[str]) -> list[float]:
    start = argv.index("--zetas") + 1
    end = next((i for i in range(start, len(argv)) if argv[i].startswith("--")), len(argv))
    return [float(z) for z in argv[start:end]]


def _parse_csv(text: str) -> tuple[dict[str, str], list[dict[str, str]]]:
    header, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        else:
            body.append(line)
    return header, list(csv.DictReader(body))


def _attempted(argv: list[str]) -> int:
    if argv[0] == "sweep":
        return SWEEP_GRID[2]
    if argv[0] == "spectrum":
        return 1
    return len(_zetas(argv))


def check(argv: list[str], returncode: int | None, text: str) -> Outcome:
    """Check one invocation's stdout; exit codes other than 0 (and 1 for
    validate, whose gates may fail) fail every point of the invocation."""
    out = Outcome(_attempted(argv))
    allowed = (0, 1) if argv[0] == "validate" else (0,)
    if returncode not in allowed:
        out.problems.append(f"{argv[0]} exited with {returncode!r}")
        return out
    try:
        CHECKS[argv[0]](argv, returncode, text, out)
    except (ValueError, KeyError, IndexError, TypeError, csv.Error) as exc:
        out.solved = 0
        out.problems.append(f"{argv[0]} output unreadable: {exc!r}")
    return out


def _check_sweep(argv, returncode, text, out):
    delta = float(_option(argv, "--delta"))
    header, rows = _parse_csv(text)
    base = [r for r in rows if int(r["n"]) == 0]
    zetas = [float(r["zeta"]) for r in base]
    expected = np.linspace(*SWEEP_GRID).tolist()
    if len(zetas) != len(expected) or max(abs(a - b) for a, b in zip(zetas, expected)) > 1e-12:
        out.problems.append("sweep grid differs from the CLI defaults")
        return
    by_zeta = {(r["zeta"], int(r["n"])): r for r in rows}
    gaps, worst = [], 0.0
    for row in base:
        ref = shirley.solve(delta, float(row["zeta"]))
        gaps.append(ref.gap)
        pair = (float(row["eps1_exact"]), float(row["eps2_exact"]))
        err = shirley.quasienergy_error(ref, pair)
        replicas_ok = all(
            abs(float(by_zeta[(row["zeta"], n)][f"eps{m}_exact"]) - (pair[m - 1] + n)) <= 1e-12
            for n in (-1, 1)
            for m in (1, 2)
        )
        worst = max(worst, err)
        if err <= QE_TOL and replicas_ok:
            out.solved += 1
        else:
            out.problems.append(f"sweep zeta={row['zeta']}: quasienergy error {err:.3e}")
    out.error = worst
    reported = [float(z) for z in header["crossings"].strip("[]").split(",") if z.strip()]
    reference = shirley.crossings(delta, zetas, gaps)
    if len(reported) != len(reference) or any(
        abs(a - b) > CROSSING_TOL for a, b in zip(reported, reference)
    ):
        out.problems.append(f"sweep crossings {reported} != reference {reference}")


def _first_order_misses(delta: float, zeta: float, dipole: float) -> tuple[float, float]:
    """What validate reports for the closed forms, from the reference: the
    largest quasienergy distance to -+(delta/2) J0, and the largest relative
    intensity error of the allowed |k| <= 7 lines whose first-order
    intensity exceeds 1e-12 dipole**2."""
    ref = shirley.solve(delta, zeta)
    e = 0.5 * delta * shirley.bessel_j(0, zeta)
    gap = max(
        shirley.zone_distance(ref.quasienergies[0], -e),
        shirley.zone_distance(ref.quasienergies[1], e),
    )
    worst = 0.0
    for k in range(-7, 8):
        closed = dipole**2 * shirley.first_order_intensity(delta, zeta, k)
        if closed <= 1e-12 * dipole**2:
            continue
        for i, j in ((1, 1), (2, 2)) if k % 2 else ((1, 2), (2, 1)):
            worst = max(worst, abs(ref.intensity(i, j, k, dipole) - closed) / closed)
    return gap, worst


def _check_validate(argv, returncode, text, out):
    payload = json.loads(text)
    checks = payload["checks"]
    limits = payload["thresholds"]
    delta = payload["params"]["delta"]
    dipole = payload["params"]["dipole"]
    if [c["zeta"] for c in checks] != _zetas(argv):
        out.problems.append("validate checks do not match the requested zetas")
        return
    if (returncode == 0) != bool(payload["overall_pass"]):
        out.problems.append(f"validate exit code {returncode} disagrees with overall_pass")
    for c in checks:
        zeta = c["zeta"]
        if c["error"] is not None:
            # out of the documented range a recorded refusal is allowed
            if zeta <= ZETA_DOCUMENTED or c["pass"]:
                out.problems.append(f"validate zeta={zeta}: error {c['error']!r}")
            continue
        # the exact solver's own gates must hold; the closed-form gates may
        # fail, but then their reported misses must be the true ones
        gap, rel = _first_order_misses(delta, zeta, dipole)
        found = []
        if not (c["pass_selection_rules"] and c["pass_unitarity"]):
            found.append("an exact-solver gate failed")
        if abs(c["quasienergy_gap"] - gap) > QE_TOL:
            found.append(f"quasienergy_gap {c['quasienergy_gap']:.6e} vs reference {gap:.6e}")
        if abs(c["max_intensity_rel_error"] - rel) > MISS_TOL * (1.0 + rel):
            found.append(f"max_intensity_rel_error {c['max_intensity_rel_error']:.6e} vs reference {rel:.6e}")
        if c["pass_quasienergy"] != (c["quasienergy_gap"] <= limits["quasienergy_gap"]):
            found.append("pass_quasienergy disagrees with its threshold")
        if c["pass_intensities"] and c["max_intensity_rel_error"] > limits["intensity_rel_error"]:
            found.append("pass_intensities disagrees with its threshold")
        if c["pass"] != all(v for key, v in c.items() if key.startswith("pass_")):
            found.append("pass disagrees with the gates")
        out.problems += [f"validate zeta={zeta}: {p}" for p in found]
        if c["pass"] and not found:
            out.solved += 1


def _check_spectrum(argv, returncode, text, out):
    header, rows = _parse_csv(text)
    delta = float(header["params.delta"])
    zeta = float(header["params.zeta"])
    mu = float(header["params.dipole"])
    k_max = int(header["k_max"])
    want = {
        (i, j, k)
        for i in (1, 2)
        for j in (1, 2)
        for k in range(-k_max, k_max + 1)
        if (i == j) == (k % 2 != 0)
    }
    got = {(int(r["i"]), int(r["j"]), int(r["k"])) for r in rows}
    if got != want or len(rows) != len(want):
        out.problems.append("spectrum line set differs from the allowed (i, j, k)")
        return
    ref = shirley.solve(delta, zeta)
    worst = 0.0
    for r in rows:
        expected = ref.intensity(int(r["i"]), int(r["j"]), int(r["k"]), mu)
        worst = max(worst, abs(float(r["intensity_numeric"]) - expected) / expected)
    out.error = worst
    if worst <= INTENSITY_REL_TOL:
        out.solved = 1
    else:
        out.problems.append(f"spectrum intensity relative error {worst:.3e}")


WEIGHT_COLUMNS = ("zeta", "mode", "source", "tau", "weight1", "weight2")


def _weight_table(argv, text) -> np.ndarray:
    """Rows as a float array with the weights columns; source is 1 for exact."""
    if _option(argv, "--format", "csv") == "json":
        rows = json.loads(text)["rows"]
        cells = [[r[c] for c in WEIGHT_COLUMNS] for r in rows]
    else:
        lines = [line for line in text.splitlines() if not line.startswith("#")]
        if lines[0].split(",") != list(WEIGHT_COLUMNS):
            raise ValueError(f"weights columns {lines[0]!r}")
        cells = [line.split(",") for line in lines[1:]]
    table = np.array(cells, dtype=object)
    table[:, 2] = table[:, 2] == "exact"
    return table.astype(float)


def _check_weights(argv, returncode, text, out):
    delta = float(_option(argv, "--delta", "0.02"))
    n_grid = int(_option(argv, "--grid", "512"))
    table = _weight_table(argv, text)
    zetas = _zetas(argv)
    if table.shape != (len(zetas) * 2 * 2 * n_grid, len(WEIGHT_COLUMNS)):
        out.problems.append(f"weights table has shape {table.shape}")
        return
    worst = 0.0
    for zeta in zetas:
        block = table[table[:, 0] == zeta]
        w = block[:, 4:6]
        sane = (
            block.shape[0] == 4 * n_grid
            and np.all(w >= -SUM_TOL)
            and np.all(w <= 1.0 + SUM_TOL)
            and np.all(np.abs(w.sum(axis=1) - 1.0) <= SUM_TOL)
        )
        ref = shirley.solve(delta, zeta)
        err = 0.0
        for label in (1, 2):
            exact = block[(block[:, 1] == label) & (block[:, 2] == 1.0)]
            if exact.shape[0] != n_grid:
                sane = False
                continue
            expected = np.abs(ref.mode(label, exact[:, 3])) ** 2
            err = max(err, float(np.max(np.abs(exact[:, 4:6] - expected))))
        worst = max(worst, err)
        if sane and err <= WEIGHT_TOL:
            out.solved += 1
        else:
            out.problems.append(f"weights zeta={zeta}: invariants {sane}, error {err:.3e}")
    out.error = worst


CHECKS = {
    "sweep": _check_sweep,
    "validate": _check_validate,
    "spectrum": _check_spectrum,
    "weights": _check_weights,
}
