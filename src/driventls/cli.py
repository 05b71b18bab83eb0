"""Command-line interface emitting machine-readable tables.

Four subcommands cover the standard analyses: weights (bare-state
populations of both Floquet modes over one period), sweep (quasienergy
levels versus drive strength with level-crossing metadata), spectrum
(transition line table), and validate (first-order accuracy report with
pass/fail gates).  Output is CSV or JSON with every float at 17
significant digits, so identical inputs give byte-identical files.

Exit codes: 0 success (and validation passed), 1 validation failed,
2 usage error, 3 runtime or numerical error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from itertools import repeat
from typing import Iterator, TextIO

import numpy as np

from .analytic import _coefficient_row, _quasienergies, _states
from .bessel import bessel_j
from .core import DomainError, DrivenTLSError, SystemParams, tau_grid, unitarity_defect
from .floquet import _mode_scan, _raise_first, build_modes, exact_quasienergy_scan, quasienergy_distance
from .propagator import PropagationConfig
from .spectroscopy import _line_stack, spectrum

_THRESHOLDS = {
    "quasienergy_gap": 2e-3,
    "min_mode_fidelity": 0.996,
    "forbidden_leakage_per_mu2": 1e-10,
    "intensity_rel_error": 0.2,
    "unitarity_drift_per_step": 1e-10,
}

_FORMATS = ("csv", "json")

_CHUNK_ROWS = 1024  # table rows per written chunk; 256 to 4096 render alike, more only holds more text
# table rows a command builds and formats at once: one (zeta, source) pair at grid 4096, many at
# small grids, where one pair per block made weights of 40 to 100 zetas 1.4 to 1.6 times slower
# at grid 64 and 1.1 to 1.25 times at grid 512 (2-core Xeon, Python 3.11)
_BLOCK_ROWS = 8192


def cmd_weights(params: SystemParams, propagation: PropagationConfig, n_grid: int, zeta_list: list[float]) -> dict:
    """Bare-state weights of both modes over one period, per drive strength.

    Rows carry both the exact-solver and the closed-form states so the two
    can be plotted against each other directly: per zeta its exact, then its
    analytic modes, each mode 1 then mode 2.  Every zeta is solved first, so
    an error raises before any row exists.  The rows come as an iterator of
    blocks, each as many whole zetas as fit in _BLOCK_ROWS rows or else one
    (zeta, source) pair, built as render draws it: the payload renders once.
    A one-pair block has its zeta and source as scalars, and every full block
    of several pairs has the same mode, tau and source arrays.
    """
    errors, _, exact, _ = _mode_scan(params.delta, zeta_list, propagation, n_grid)
    _raise_first(errors)
    zetas, tau = np.asarray(zeta_list, dtype=float), tau_grid(n_grid)
    pairs = 2 * zetas.size
    per_block = max(1, _BLOCK_ROWS // (4 * n_grid) * 2)
    # every full block gets these same arrays, which render then knows by identity; blocks of
    # several pairs hold whole zetas, so their sources alternate from "exact"
    modes, taus = np.tile(np.repeat([1, 2], n_grid), per_block), np.tile(tau, 2 * per_block)
    sources = np.repeat(np.tile(["exact", "analytic"], per_block // 2), 2 * n_grid)

    def block(first: int) -> dict:
        # pair 2k is the exact and pair 2k + 1 the analytic modes of zeta k
        stop = min(first + per_block, pairs)
        states = np.empty((stop - first, 2, n_grid, 2), dtype=complex)
        states[first % 2 :: 2] = exact[(first + 1) // 2 : (stop + 1) // 2]
        if analytic := zeta_list[first // 2 : stop // 2]:
            states[1 - first % 2 :: 2] = _states(params.delta, analytic, tau, on_grid=True)
        count, weights = stop - first, np.abs(states) ** 2
        mode, times, source = (a if count == per_block else a[: 2 * n_grid * count] for a in (modes, taus, sources))
        if count == 1:
            zeta, source = float(zetas[first // 2]), ("exact", "analytic")[first % 2]
        else:
            zeta = np.repeat(zetas[first // 2 : stop // 2], 4 * n_grid)
        return {
            "zeta": zeta,
            "mode": mode,
            "source": source,
            "tau": times,
            "weight1": weights[..., 0].ravel(),
            "weight2": weights[..., 1].ravel(),
        }

    return {"zetas": [float(z) for z in zeta_list], "rows": map(block, range(0, pairs, per_block))}


def _crossings(
    delta: float, propagation: PropagationConfig, brackets: list[tuple[float, float, float, float]]
) -> list[float]:
    """Zeros of the parity gap eps2 - eps1, one per bracket (a, b, fa, fb) it changes sign
    over; a bracket (z, z, 0.0, 0.0) at an exact zero comes back as z with no solve.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 168 (1971)): b is the latest solve,
    and the retained end a has its gap halved each time it survives.  Solves stay 2.5e-13
    inside the bracket, so a converged end collapses it below 1e-12 with one more solve.
    The brackets advance in lock-step, each round's solves in one batched scan.
    """
    # per bracket: [a, b, fa, fb, (smallest |gap| so far, its zeta)]
    states = [[a, b, fa, fb, min((abs(fa), a), (abs(fb), b))] for a, b, fa, fb in brackets]
    active = states
    # a search ends once its bracket is below 1e-12, or at an exact zero of the gap
    while active := [s for s in active if s[4][0] > 0.0 and abs(s[1] - s[0]) >= 1e-12]:
        zetas = []
        for a, b, fa, fb, _ in active:
            e = 2.5e-13 / abs(b - a)
            zetas.append(b + (a - b) * min(max(fb / (fb - fa), e), 1.0 - e))
        eps = exact_quasienergy_scan(delta, zetas, propagation)
        for state, c, fc in zip(active, zetas, (eps[:, 1] - eps[:, 0]).tolist()):
            a, b, fa, fb, best = state
            if (fc > 0.0) == (fb > 0.0):
                fa *= 0.5
            else:
                a, fa = b, fb
            state[:] = a, c, fa, fc, min(best, (abs(fc), c))
    return [state[4][1] for state in states]


def cmd_sweep(
    params: SystemParams, propagation: PropagationConfig, zeta_min: float, zeta_max: float, zeta_steps: int, manifolds: int
) -> dict:
    """Quasienergy levels versus drive strength, with replica manifolds.

    Emits analytic and exact quasienergies side by side for each manifold
    offset n, and appends the drive strengths where the exact gap changes
    sign (the level crossings), each located to 1e-12.
    """
    zetas = np.linspace(zeta_min, zeta_max, int(zeta_steps))
    exact = exact_quasienergy_scan(params.delta, zetas, propagation)
    gaps = (exact[:, 1] - exact[:, 0]).tolist()
    ns = np.arange(-int(manifolds), int(manifolds) + 1)
    rows = {"zeta": np.repeat(zetas, ns.size), "n": np.tile(ns, zetas.size)}
    analytic = _quasienergies(params.delta, [bessel_j(0, zeta) for zeta in zetas])
    for source, pairs in (("analytic", analytic), ("exact", exact)):
        for label, eps in zip(("eps1", "eps2"), pairs.T):
            rows[f"{label}_{source}"] = np.add.outer(eps, ns).ravel()
    # an exact zero of the gap is a bracket already collapsed onto its grid zeta
    brackets = []
    for idx, gap in enumerate(gaps):
        zeta = float(zetas[idx])
        if gap == 0.0:
            brackets.append((zeta, zeta, 0.0, 0.0))
        elif idx + 1 < len(gaps) and (after := gaps[idx + 1]) != 0.0 and (gap > 0.0) != (after > 0.0):
            # signs, not the product, which underflows to -0.0 for gaps below about 1e-160
            brackets.append((zeta, float(zetas[idx + 1]), gap, after))
    return {
        "zeta_min": float(zeta_min),
        "zeta_max": float(zeta_max),
        "zeta_steps": int(zeta_steps),
        "manifolds": int(manifolds),
        "crossings": _crossings(params.delta, propagation, brackets),
        "rows": rows,
    }


def cmd_spectrum(
    params: SystemParams, propagation: PropagationConfig, n_grid: int, k_max: int, include_forbidden: bool
) -> dict:
    """Transition line table for the configured drive strength."""
    modes = build_modes(params, propagation, n_grid).modes
    rows = spectrum(params, modes, k_max, include_forbidden)
    return {"k_max": int(k_max), "include_forbidden": bool(include_forbidden), "rows": rows}


def cmd_validate(params: SystemParams, propagation: PropagationConfig, n_grid: int, zeta_list: list[float]) -> dict:
    """First-order accuracy report with fixed pass/fail gates.

    The gates are calibrated for delta = 0.02; running far outside the
    strong-drive regime (large delta, or zeta of order delta) is expected
    to flag the closed-form checks while the exact-solver gates still pass.
    A failure in one drive strength is recorded and does not abort the rest.
    """
    delta, mu2 = params.delta, params.dipole**2
    errors, exact_eps, exact, monodromies = _mode_scan(delta, zeta_list, propagation, n_grid)
    # the checks of every solved zeta come from one pass over their stacks, and each reads one
    # Bessel row: its series, its J_0 and its closed-form intensities up to k = 9
    zetas = [zeta for zeta, error in zip(zeta_list, errors) if error is None]
    rows = [_coefficient_row(zeta) for zeta in zetas]

    (_, _, k, forbidden), numeric, closed = _line_stack(delta, mu2, rows, exact, 9)
    leakage = np.max(numeric[:, forbidden] / mu2, axis=1, initial=0.0)
    # allowed lines up to |k| = 7; the weak ones, whose closed form is at most
    # 1e-12 mu2, are held to that absolute bound instead of a relative error
    checked = ~forbidden & (np.abs(k) <= 7)
    strong = checked & (closed > 1e-12 * mu2)
    miss = np.abs(numeric - closed)
    rel_error = np.max(miss / np.where(strong, closed, 1.0), axis=1, where=strong, initial=0.0)
    intensities_ok = ~np.any(checked & ~strong & (miss > 1e-12 * mu2), axis=1)

    drift = unitarity_defect(monodromies) / propagation.steps_per_period

    # both solvers label the symmetric mode 1, so the modes pair by label
    gap = quasienergy_distance(exact_eps, _quasienergies(delta, [row[0] for row in rows])).max(axis=1)
    analytic = _states(delta, zetas, tau_grid(n_grid), on_grid=True, rows=rows)
    overlaps = np.mean(np.sum(np.conj(exact) * analytic, axis=-1), axis=-1)
    # hypot is abs of one complex scalar; numpy's array abs can round the last bit otherwise
    fidelity = (np.hypot(overlaps.real, overlaps.imag) ** 2).min(axis=1)

    metrics = {
        "quasienergy_gap": gap,
        "min_mode_fidelity": fidelity,
        "max_forbidden_leakage": leakage,
        "max_intensity_rel_error": rel_error,
        "unitarity_drift": drift,
    }
    gates = {
        "pass_quasienergy": gap <= _THRESHOLDS["quasienergy_gap"],
        "pass_fidelity": fidelity >= _THRESHOLDS["min_mode_fidelity"],
        "pass_selection_rules": leakage <= _THRESHOLDS["forbidden_leakage_per_mu2"],
        "pass_intensities": intensities_ok & (rel_error <= _THRESHOLDS["intensity_rel_error"]),
        "pass_unitarity": drift <= _THRESHOLDS["unitarity_drift_per_step"],
    }
    gates["pass"] = np.all(list(gates.values()), axis=0)

    def column(values: np.ndarray, refused) -> list:
        # per zeta in order: the next solved value, or `refused` for a zeta with an error
        solved = iter(values.tolist())
        return [next(solved) if error is None else refused for error in errors]

    checks = {"zeta": [float(zeta) for zeta in zeta_list]}
    checks.update({key: column(values, None) for key, values in metrics.items()})
    checks.update({key: column(values, False) for key, values in gates.items()})
    checks["error"] = [None if error is None else str(error) for error in errors]
    return {"thresholds": dict(_THRESHOLDS), "checks": checks, "overall_pass": all(checks["pass"])}


def _texts(columns: list, as_json: bool, known: dict | None = None) -> list[list[str]]:
    """Cell text of each column: a 1-D array, or a list that may hold None.

    known maps the index of a column to its texts already made, and only the
    other columns are formatted.  The columns of one dtype kind are formatted
    together, each distinct value once; floats with 17 significant digits.
    Floats are told apart by their bits, because np.unique takes -0.0 == 0.0
    and the two print differently.
    """
    known = known or {}
    texts = [known.get(i) for i in range(len(columns))]
    arrays = {
        i: np.array([v for v in c if v is not None]) if isinstance(c, list) else c
        for i, c in enumerate(columns)
        if i not in known
    }
    # floats last, so that their texts, the most, are not held while the other kinds are sorted
    for kind in sorted(dict.fromkeys(a.dtype.kind for a in arrays.values()), key="f".__eq__):
        group = [i for i, a in arrays.items() if a.dtype.kind == kind]
        values = np.concatenate([arrays[i] for i in group])
        keys, inverse = np.unique(values.view(np.uint64) if kind == "f" else values, return_inverse=True)
        distinct = (keys.view(float) if kind == "f" else keys).tolist()
        if kind == "f":
            distinct = list(map(float.__format__, distinct, repeat(".17g")))
        elif kind != "U" or as_json:  # bools, integers, and strings in JSON
            distinct = list(map(json.dumps, distinct))
        cells = np.array(distinct, dtype=object)[inverse].tolist()
        bounds = np.cumsum([0] + [arrays[i].size for i in group]).tolist()
        for i, start, stop in zip(group, bounds, bounds[1:]):
            texts[i] = cells[start:stop]
    null = "null" if as_json else ""
    for i in arrays:
        if isinstance(columns[i], list):
            present = iter(texts[i])
            texts[i] = [null if v is None else next(present) for v in columns[i]]
    return texts


def _chunk(texts: list[list[str]], seps: list[str], tail: str, start: int, count: int) -> str:
    """Text of count rows of a block from `start`, each cell after its column's separator and
    each row ending in tail.  Its pieces go when it returns, so the table's writer holds no
    cells of an earlier block."""
    width = 2 * len(texts) + bool(tail)
    pieces = [tail] * (width * count)
    for j, (sep, cells) in enumerate(zip(seps, texts)):
        pieces[2 * j :: width] = [sep] * count
        pieces[2 * j + 1 :: width] = cells[start : start + count]
    return "".join(pieces)


def _write_table(table, as_json: bool, out: TextIO) -> None:
    """Write a table to out: its opening just before the first row, then _CHUNK_ROWS rows
    per write, then its closing, or an empty JSON table when there are no rows.

    The table is one dict of columns, or an iterator of such dicts with the
    same names: its blocks of consecutive rows, each formatted and written
    before the next is drawn.  A column is a 1-D array or a list that may hold
    None, all of one length in a block, or a scalar, which is that value in
    every row of its block; a block has at least one array or list.  A scalar
    is formatted once and written as part of the separator before the next
    column.  A column that is the same object as the column of the block
    before keeps that block's texts.
    """
    written = 0
    columns, texts = [], []
    for block in [table] if isinstance(table, dict) else table:
        known = {i: t for i, (c, p, t) in enumerate(zip(block.values(), columns, texts)) if c is p}
        columns, texts = list(block.values()), None  # the other texts go before these are made
        one = [not isinstance(c, (list, np.ndarray)) for c in columns]
        texts = _texts([[c] if single else c for c, single in zip(columns, one)], as_json, known)
        if as_json:
            names = [json.dumps(name) for name in block]
            seps = [f"\n    }},\n    {{\n      {names[0]}: "] + [f",\n      {name}: " for name in names[1:]]
            opening = f"[\n    {{\n      {names[0]}: "
        else:
            seps, opening = ["\n"] + [","] * (len(columns) - 1), ",".join(block) + "\n"
        # each scalar's text joins the separator before it and the one after it
        cells, leads, tail = [], [], ""
        for sep, t, single in zip(seps, texts, one):
            if single:
                tail += sep + t[0]
            else:
                cells.append(t)
                leads.append(tail + sep)
                tail = ""
        rows = len(next(c for c, single in zip(columns, one) if not single))
        for start in range(0, rows, _CHUNK_ROWS):
            text = _chunk(cells, leads, tail, start, min(_CHUNK_ROWS, rows - start))
            # the table's first row follows its opening, not a row
            out.write(text if written or start else opening + text[len(seps[0]) :])
        written += rows
    if as_json:
        out.write("\n    }\n  ]" if written else "[]")
    elif written:
        out.write("\n")


def render(payload: dict, output_format: str, out: TextIO) -> None:
    """Serialize a command payload to the text stream out as CSV or JSON.

    A payload maps names to scalars, flat dicts, flat lists and tables: a
    dict with a list or array column, or an iterator of blocks, as
    _write_table takes them.  CSV puts the tables after `#` header lines;
    JSON writes each as row objects.  Every piece is written as soon as it
    is made, so the document is never whole.
    """
    if output_format not in _FORMATS:
        raise DomainError(f"output format must be one of {_FORMATS}")
    as_json, tables = output_format == "json", []
    for i, (key, value) in enumerate(payload.items()):
        if as_json:
            out.write((",\n" if i else "{\n") + f"  {json.dumps(key)}: ")
        columns = value.values() if isinstance(value, dict) else ()
        if isinstance(value, Iterator) or any(isinstance(column, (list, np.ndarray)) for column in columns):
            if as_json:
                _write_table(value, True, out)
            else:
                tables.append(value)
        elif isinstance(value, dict):
            cells = [cell for (cell,) in _texts([[v] for v in value.values()], as_json)]
            if as_json:
                fields = ",\n".join(f"    {json.dumps(sub)}: {cell}" for sub, cell in zip(value, cells))
                out.write("{\n" + fields + "\n  }" if fields else "{}")
            else:
                out.write("".join(f"# {key}.{sub} = {cell}\n" for sub, cell in zip(value, cells)))
        else:
            cells = _texts([value if isinstance(value, list) else [value]], as_json)[0]
            text = f"[{', '.join(cells)}]" if isinstance(value, list) else cells[0]
            out.write(text if as_json else f"# {key} = {text}\n")
    if as_json:
        out.write("\n}\n" if payload else "{}\n")
    for table in tables:
        _write_table(table, False, out)


def _at_least(kind, low):
    """argparse type: a finite kind(text) >= low, so bad values exit 2."""

    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}, got {text!r}")
        return value

    parse.__name__ = kind.__name__
    return parse


def _grid_size(text: str) -> int:
    value = int(text)
    if value < 64 or value & (value - 1):
        raise argparse.ArgumentTypeError(f"must be a power of two >= 64, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main call and kept: parse_args reads no state of earlier calls
    parser = argparse.ArgumentParser(
        prog="driventls",
        description=(
            "Floquet states, quasienergies and transition spectra of a "
            "periodically driven two-level system"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--delta", type=float, default=0.02, help="detuning over drive frequency (default 0.02)")
    drive = common.add_mutually_exclusive_group()
    drive.add_argument("--rabi", type=_at_least(float, 0.0), default=math.pi / 10.0, help="Rabi amplitude over drive frequency")
    drive.add_argument("--zeta", type=_at_least(float, 0.0), default=None, help="drive strength 2*rabi (default pi/5)")
    common.add_argument("--mu", type=float, default=1.0, help="dipole moment (default 1)")
    common.add_argument("--steps", type=int, default=4096, help="integrator steps per period (default 4096)")
    common.add_argument("--grid", type=_grid_size, default=512, help="mode samples per period (default 512)")
    common.add_argument("--format", choices=_FORMATS, default="csv", help="output format (default csv; validate always emits json)")
    common.add_argument("--out", default=None, help="output file (default stdout)")

    sub = parser.add_subparsers(dest="command", required=True)
    weights = sub.add_parser("weights", parents=[common], help="bare-state weights of both modes over one period")
    weights.add_argument("--zetas", type=_at_least(float, 0.0), nargs="+", required=True, help="drive strengths to tabulate")
    sweep = sub.add_parser("sweep", parents=[common], help="quasienergies versus drive strength")
    sweep.add_argument("--zeta-min", type=_at_least(float, 0.0), default=0.0)
    sweep.add_argument("--zeta-max", type=_at_least(float, 0.0), default=6.0)
    sweep.add_argument("--zeta-steps", type=_at_least(int, 2), default=121)
    sweep.add_argument("--manifolds", type=_at_least(int, 0), default=1, help="replica manifolds on each side (default 1)")
    spectrum_cmd = sub.add_parser("spectrum", parents=[common], help="transition line table")
    spectrum_cmd.add_argument("--k-max", type=_at_least(int, 1), default=3)
    spectrum_cmd.add_argument("--include-forbidden", action="store_true")
    validate = sub.add_parser("validate", parents=[common], help="first-order accuracy report (json)")
    validate.add_argument("--zetas", type=_at_least(float, 0.0), nargs="+", required=True, help="drive strengths to check")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rabi = args.rabi if args.zeta is None else args.zeta / 2.0
        params = SystemParams(delta=args.delta, rabi=rabi, dipole=args.mu)
        propagation = PropagationConfig(steps_per_period=args.steps)
        if args.command == "sweep" and not args.zeta_min < args.zeta_max:
            raise DomainError("--zeta-min must be below --zeta-max")
        if args.command != "sweep" and args.grid > args.steps:
            raise DomainError("--grid must not exceed --steps")
        if args.command == "spectrum" and 2 * args.k_max >= args.grid:
            raise DomainError("--k-max must be below --grid/2")
    except DrivenTLSError as exc:
        parser.error(str(exc))

    # every document opens with the command and its parameters, then the command's own fields
    echo = {"delta": params.delta, "rabi": params.rabi, "zeta": params.zeta, "dipole": params.dipole}
    echo |= {"steps_per_period": propagation.steps_per_period, "n_grid": args.grid}
    payload = {"command": args.command, "params": echo}
    try:
        if args.command == "weights":
            payload |= cmd_weights(params, propagation, args.grid, args.zetas)
        elif args.command == "sweep":
            payload |= cmd_sweep(params, propagation, args.zeta_min, args.zeta_max, args.zeta_steps, args.manifolds)
        elif args.command == "spectrum":
            payload |= cmd_spectrum(params, propagation, args.grid, args.k_max, args.include_forbidden)
        else:
            payload |= cmd_validate(params, propagation, args.grid, args.zetas)
    except DrivenTLSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    output_format = "json" if args.command == "validate" else args.format
    try:
        if args.out is None:
            render(payload, output_format, sys.stdout)
            sys.stdout.flush()  # a buffered stream reports a failed write here
        else:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                render(payload, output_format, handle)
    except OSError as exc:
        print(f"error: cannot write {'stdout' if args.out is None else args.out}: {exc}", file=sys.stderr)
        if args.out is None and sys.stdout is sys.__stdout__:
            # the stream keeps what it failed to write and would fail again flushing it at exit
            with contextlib.suppress(OSError):
                sys.stdout.close()
        return 3

    if args.command == "validate" and not payload["overall_pass"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
