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
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .analytic import _quasienergies, _states
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


@dataclass(frozen=True)
class RunConfig:
    """Bundle of everything a subcommand needs besides its own arguments."""

    params: SystemParams
    propagation: PropagationConfig
    n_grid: int = 512


def _param_echo(config: RunConfig) -> dict:
    p, prop = config.params, config.propagation
    return {
        "delta": p.delta,
        "rabi": p.rabi,
        "zeta": p.zeta,
        "dipole": p.dipole,
        "steps_per_period": prop.steps_per_period,
        "n_grid": config.n_grid,
    }


def cmd_weights(config: RunConfig, zeta_list: list[float]) -> dict:
    """Bare-state weights of both modes over one period, per drive strength.

    Rows carry both the exact-solver and the closed-form states so the two
    can be plotted against each other directly.
    """
    errors, _, exact, _ = _mode_scan(config.params.delta, zeta_list, config.propagation, config.n_grid)
    _raise_first(errors)
    n, m = config.n_grid, len(zeta_list)
    analytic = _states(config.params.delta, zeta_list, tau_grid(n), on_grid=True)
    # per zeta its exact, then its analytic modes, each mode 1 then mode 2
    weights = np.concatenate([np.abs(exact) ** 2, np.abs(analytic) ** 2], axis=1)
    rows = {
        "zeta": np.repeat(np.asarray(zeta_list, dtype=float), 4 * n),
        "mode": np.tile(np.repeat([1, 2], n), 2 * m),
        "source": np.tile(np.repeat(["exact", "analytic"], 2 * n), m),
        "tau": np.tile(tau_grid(n), 4 * m),
        "weight1": weights[..., 0].ravel(),
        "weight2": weights[..., 1].ravel(),
    }
    payload = {"command": "weights", "params": _param_echo(config)}
    payload["zetas"] = [float(z) for z in zeta_list]
    payload["rows"] = rows
    return payload


def _crossings(config: RunConfig, brackets: list[tuple[float, float, float, float]]) -> list[float]:
    """Zeros of the parity gap eps2 - eps1, one per bracket (a, b, fa, fb) it changes sign over.

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
        eps = exact_quasienergy_scan(config.params.delta, zetas, config.propagation)
        for state, c, fc in zip(active, zetas, (eps[:, 1] - eps[:, 0]).tolist()):
            a, b, fa, fb, best = state
            if (fc > 0.0) == (fb > 0.0):
                fa *= 0.5
            else:
                a, fa = b, fb
            state[:] = a, c, fa, fc, min(best, (abs(fc), c))
    return [state[4][1] for state in states]


def cmd_sweep(
    config: RunConfig,
    zeta_min: float,
    zeta_max: float,
    zeta_steps: int,
    manifolds: int,
) -> dict:
    """Quasienergy levels versus drive strength, with replica manifolds.

    Emits analytic and exact quasienergies side by side for each manifold
    offset n, and appends the drive strengths where the exact gap changes
    sign (the level crossings), each located to 1e-12.
    """
    zetas = np.linspace(zeta_min, zeta_max, int(zeta_steps))
    exact = exact_quasienergy_scan(config.params.delta, zetas, config.propagation)
    gaps = (exact[:, 1] - exact[:, 0]).tolist()
    ns = np.arange(-int(manifolds), int(manifolds) + 1)
    rows = {"zeta": np.repeat(zetas, ns.size), "n": np.tile(ns, zetas.size)}
    for source, pairs in (("analytic", _quasienergies(config.params.delta, zetas)), ("exact", exact)):
        for label, eps in zip(("eps1", "eps2"), pairs.T):
            rows[f"{label}_{source}"] = np.add.outer(eps, ns).ravel()
    crossings, brackets = [], []
    for idx, gap in enumerate(gaps):
        if gap == 0.0:
            crossings.append(float(zetas[idx]))
        elif idx + 1 < len(gaps) and gap * gaps[idx + 1] < 0.0:
            crossings.append(None)
            brackets.append((float(zetas[idx]), float(zetas[idx + 1]), gap, gaps[idx + 1]))
    # the brackets' zeros fill their places in order
    located = iter(_crossings(config, brackets))
    crossings = [next(located) if zeta is None else zeta for zeta in crossings]
    payload = {"command": "sweep", "params": _param_echo(config)}
    payload["zeta_min"] = float(zeta_min)
    payload["zeta_max"] = float(zeta_max)
    payload["zeta_steps"] = int(zeta_steps)
    payload["manifolds"] = int(manifolds)
    payload["crossings"] = crossings
    payload["rows"] = rows
    return payload


def cmd_spectrum(config: RunConfig, k_max: int, include_forbidden: bool) -> dict:
    """Transition line table for the configured drive strength."""
    modes = build_modes(config.params, config.propagation, config.n_grid).modes
    payload = {"command": "spectrum", "params": _param_echo(config)}
    payload["k_max"] = int(k_max)
    payload["include_forbidden"] = bool(include_forbidden)
    payload["rows"] = spectrum(config.params, modes, k_max, include_forbidden)
    return payload


def cmd_validate(config: RunConfig, zeta_list: list[float]) -> dict:
    """First-order accuracy report with fixed pass/fail gates.

    The gates are calibrated for delta = 0.02; running far outside the
    strong-drive regime (large delta, or zeta of order delta) is expected
    to flag the closed-form checks while the exact-solver gates still pass.
    A failure in one drive strength is recorded and does not abort the rest.
    """
    delta, mu2 = config.params.delta, config.params.dipole**2
    errors, exact_eps, exact, monodromies = _mode_scan(delta, zeta_list, config.propagation, config.n_grid)
    # the checks of every solved zeta come from one pass over their stacks
    zetas = [zeta for zeta, error in zip(zeta_list, errors) if error is None]

    (_, _, k, forbidden), numeric, closed = _line_stack(delta, mu2, zetas, exact, 9)
    leakage = np.max(numeric[:, forbidden] / mu2, axis=1, initial=0.0)
    # allowed lines up to |k| = 7; the weak ones, whose closed form is at most
    # 1e-12 mu2, are held to that absolute bound instead of a relative error
    checked = ~forbidden & (np.abs(k) <= 7)
    strong = checked & (closed > 1e-12 * mu2)
    miss = np.abs(numeric - closed)
    rel_error = np.max(miss / np.where(strong, closed, 1.0), axis=1, where=strong, initial=0.0)
    intensities_ok = ~np.any(checked & ~strong & (miss > 1e-12 * mu2), axis=1)

    drift = unitarity_defect(monodromies) / config.propagation.steps_per_period

    # both solvers label the symmetric mode 1, so the modes pair by label
    gap = quasienergy_distance(exact_eps, _quasienergies(delta, zetas)).max(axis=1)
    analytic = _states(delta, zetas, tau_grid(config.n_grid), on_grid=True)
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
    payload = {"command": "validate", "params": _param_echo(config)}
    payload["thresholds"] = dict(_THRESHOLDS)
    payload["checks"] = checks
    payload["overall_pass"] = all(checks["pass"])
    return payload


def _texts(columns: list, as_json: bool) -> list[list[str]]:
    """Cell text of each column: a 1-D array, or a list that may hold None.

    The columns of one dtype kind are formatted together, each distinct value
    once; floats with 17 significant digits.  Floats are told apart by their
    bits, because np.unique takes -0.0 == 0.0 and the two print differently.
    """
    arrays = [
        np.array([v for v in c if v is not None]) if isinstance(c, list) else c for c in columns
    ]
    texts = [None] * len(arrays)
    for kind in dict.fromkeys(a.dtype.kind for a in arrays):
        group = [i for i, a in enumerate(arrays) if a.dtype.kind == kind]
        values = np.concatenate([arrays[i] for i in group])
        keys = values.view(np.uint64) if kind == "f" else values
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        distinct = values[first].tolist()
        if kind == "f":
            distinct = [format(v, ".17g") for v in distinct]
        elif kind != "U" or as_json:  # bools, integers, and strings in JSON
            distinct = list(map(json.dumps, distinct))
        cells = np.array(distinct, dtype=object)[inverse]
        bounds = np.cumsum([arrays[i].size for i in group])[:-1]
        for i, part in zip(group, np.split(cells, bounds)):
            texts[i] = part.tolist()
    null = "null" if as_json else ""
    for i, column in enumerate(columns):
        if isinstance(column, list):
            present = iter(texts[i])
            texts[i] = [null if v is None else next(present) for v in column]
    return texts


def _is_table(value) -> bool:
    columns = value.values() if isinstance(value, dict) else ()
    return any(isinstance(column, (list, np.ndarray)) for column in columns)


def _rows(texts: list[list[str]], seps: list[str], first: str, last: str) -> Iterator[str]:
    """Text of a table's rows, _CHUNK_ROWS per chunk and none without rows: each cell
    follows its column's separator, but the very first follows `first`; `last` ends it."""
    width, n = len(texts), len(texts[0])
    for start in range(0, n, _CHUNK_ROWS):
        count = min(_CHUNK_ROWS, n - start)
        pieces = [None] * (2 * width * count)
        for j, (sep, cells) in enumerate(zip(seps, texts)):
            pieces[2 * j :: 2 * width] = [sep] * count
            pieces[2 * j + 1 :: 2 * width] = cells[start : start + count]
        if start == 0:
            pieces[0] = first
        if start + count == n:
            pieces.append(last)
        yield "".join(pieces)


def _to_json(payload: dict) -> Iterator[str]:
    text = ""  # not yet handed out: it leads the next table chunk, or ends the document
    for i, (key, value) in enumerate(payload.items()):
        text += (",\n" if i else "{\n") + f"  {json.dumps(key)}: "
        if _is_table(value):
            texts = _texts(list(value.values()), True)
            names = [json.dumps(name) for name in value]
            seps = [f"\n    }},\n    {{\n      {names[0]}: "] + [f",\n      {name}: " for name in names[1:]]
            yield from _rows(texts, seps, f"{text}[\n    {{\n      {names[0]}: ", "\n    }\n  ]")
            text = "" if texts[0] else text + "[]"
        elif isinstance(value, dict):
            cells = _texts([[v] for v in value.values()], True)
            fields = [f"    {json.dumps(sub)}: {cell}" for sub, (cell,) in zip(value, cells)]
            text += "{\n" + ",\n".join(fields) + "\n  }" if fields else "{}"
        elif isinstance(value, list):
            text += "[" + ", ".join(_texts([value], True)[0]) + "]"
        else:
            text += _texts([[value]], True)[0][0]
    yield text + "\n}\n"


def _to_csv(payload: dict) -> Iterator[str]:
    lines, tables = [], []
    for key, value in payload.items():
        if _is_table(value):
            tables.append(value)
        elif isinstance(value, dict):
            cells = _texts([[v] for v in value.values()], False)
            lines += [f"# {key}.{sub} = {cell}" for sub, (cell,) in zip(value, cells)]
        elif isinstance(value, list):
            lines.append(f"# {key} = [{', '.join(_texts([value], False)[0])}]")
        else:
            lines.append(f"# {key} = {_texts([[value]], False)[0][0]}")
    text = "".join(line + "\n" for line in lines)  # handed out with the first table row
    for table in tables:
        texts = _texts(list(table.values()), False)
        yield from _rows(texts, ["\n"] + [","] * (len(texts) - 1), text + ",".join(table) + "\n", "\n")
        text = "" if texts[0] else text
    yield text


def render(payload: dict, output_format: str, out: TextIO | None = None) -> str | None:
    """Serialize a command payload to CSV or JSON text.

    A payload maps names to scalars, flat dicts, flat lists and tables: dicts
    of equal-length columns, each a 1-D array or a list that may hold None.
    CSV puts the table after `#` header lines; JSON writes it as row objects.
    Given a text stream `out`, each chunk of _CHUNK_ROWS rows is written to it
    as soon as it is built, so the document is never whole; else it is returned.
    """
    if output_format not in _FORMATS:
        raise DomainError(f"output format must be one of {_FORMATS}")
    chunks = _to_json(payload) if output_format == "json" else _to_csv(payload)
    if out is None:
        return "".join(chunks)
    for chunk in chunks:
        out.write(chunk)


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
    drive.add_argument("--rabi", type=float, default=math.pi / 10.0, help="Rabi amplitude over drive frequency")
    drive.add_argument("--zeta", type=float, default=None, help="drive strength 2*rabi (default pi/5)")
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
        config = RunConfig(
            params=SystemParams(delta=args.delta, rabi=rabi, dipole=args.mu),
            propagation=PropagationConfig(steps_per_period=args.steps),
            n_grid=args.grid,
        )
        if args.command == "sweep" and not args.zeta_min < args.zeta_max:
            raise DomainError("--zeta-min must be below --zeta-max")
        if args.command != "sweep" and args.grid > args.steps:
            raise DomainError("--grid must not exceed --steps")
        if args.command == "spectrum" and 2 * args.k_max >= args.grid:
            raise DomainError("--k-max must be below --grid/2")
    except DrivenTLSError as exc:
        parser.error(str(exc))

    try:
        if args.command == "weights":
            payload = cmd_weights(config, args.zetas)
        elif args.command == "sweep":
            payload = cmd_sweep(config, args.zeta_min, args.zeta_max, args.zeta_steps, args.manifolds)
        elif args.command == "spectrum":
            payload = cmd_spectrum(config, args.k_max, args.include_forbidden)
        else:
            payload = cmd_validate(config, args.zetas)
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
