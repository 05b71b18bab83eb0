import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import shirley

import driventls.bessel
import driventls.cli
import driventls.floquet
import driventls.propagator
from driventls import DomainError
from driventls.cli import main, render


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _render(payload, fmt):
    out = io.StringIO()
    render(payload, fmt, out)
    return out.getvalue()


def test_weights_csv_stdout(capsys):
    code, out, err = _run(capsys, ["weights", "--zetas", "0", "--grid", "64"])
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    meta = [line for line in lines if line.startswith("# ")]
    assert "# command = weights" in meta
    assert any(line.startswith("# params.delta = ") for line in meta)
    header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_idx] == "zeta,mode,source,tau,weight1,weight2"
    rows = [line.split(",") for line in lines[header_idx + 1 :] if line]
    # 1 zeta x 2 sources x 2 modes x 64 samples
    assert len(rows) == 256
    for row in rows:
        if row[1] == "1":
            assert float(row[4]) == pytest.approx(1.0, abs=1e-12)
            assert float(row[5]) == pytest.approx(0.0, abs=1e-12)


def test_default_drive_strength(capsys):
    code, out, _ = _run(capsys, ["spectrum", "--format", "json", "--grid", "64", "--k-max", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["zeta"] == pytest.approx(math.pi / 5, abs=1e-15)
    assert payload["params"]["delta"] == 0.02


def test_spectrum_json_roundtrip(capsys):
    code, out, _ = _run(
        capsys,
        ["spectrum", "--zeta", "3.14", "--format", "json", "--grid", "64", "--k-max", "2"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "spectrum"
    assert payload["k_max"] == 2
    assert len(payload["rows"]) == 10
    row = payload["rows"][0]
    assert set(row) == {
        "i",
        "j",
        "k",
        "frequency",
        "intensity_numeric",
        "intensity_analytic",
        "class",
        "forbidden",
        "direction",
    }
    assert all(not r["forbidden"] for r in payload["rows"])


def test_sweep_endpoints_and_crossing(capsys):
    code, out, _ = _run(
        capsys,
        [
            "sweep",
            "--delta",
            "0.1",
            "--zeta-min",
            "0",
            "--zeta-max",
            "1",
            "--zeta-steps",
            "3",
            "--manifolds",
            "1",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    rows = payload["rows"]
    assert len(rows) == 9
    first_center = next(r for r in rows if r["zeta"] == 0.0 and r["n"] == 0)
    assert first_center["eps1_analytic"] == pytest.approx(-0.05, abs=1e-15)
    assert first_center["eps1_exact"] == pytest.approx(-0.05, abs=1e-9)
    assert first_center["eps2_exact"] == pytest.approx(0.05, abs=1e-9)
    assert payload["crossings"] == []
    replica = next(r for r in rows if r["zeta"] == 0.0 and r["n"] == 1)
    assert replica["eps1_analytic"] == pytest.approx(0.95, abs=1e-12)


def test_sweep_finds_crossing(capsys):
    code, out, _ = _run(
        capsys,
        [
            "sweep",
            "--zeta-min",
            "2.3",
            "--zeta-max",
            "2.5",
            "--zeta-steps",
            "5",
            "--manifolds",
            "0",
            "--format",
            "json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["crossings"]) == 1
    assert payload["crossings"][0] == pytest.approx(2.404825557695773, abs=0.01)


@pytest.fixture
def scans(monkeypatch):
    """The drive strengths of each exact_quasienergy_scan call the CLI makes, one list per call."""
    calls, scan = [], driventls.cli.exact_quasienergy_scan

    def counting_scan(delta, zetas, config=None):
        calls.append(list(zetas))
        return scan(delta, zetas, config)

    monkeypatch.setattr(driventls.cli, "exact_quasienergy_scan", counting_scan)
    return calls


def test_sweep_lists_exact_zeros_at_every_grid_point(capsys, scans):
    # without detuning the parity gap is exactly 0 at every drive strength, so
    # every grid point, the first and the last included, is a crossing, and
    # none needs a solve beyond the grid's one scan
    argv = ["sweep", "--delta", "0", "--zeta-steps", "5", "--manifolds", "0", "--format", "json"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["crossings"] == [0.0, 1.5, 3.0, 4.5, 6.0]
    assert len(scans) == 1


def test_collapsed_bracket_keeps_its_place_and_costs_no_solve(scans):
    # the sign changes of the default delta = 0.02 grid near 2.40 and 5.52, with an
    # exact zero's bracket, collapsed onto its grid zeta, between them
    delta, propagation = 0.02, driventls.PropagationConfig()
    grid = np.linspace(0.0, 6.0, 121)
    eps = driventls.cli.exact_quasienergy_scan(delta, grid, propagation)
    gaps = (eps[:, 1] - eps[:, 0]).tolist()
    brackets = [
        (float(grid[i]), float(grid[i + 1]), gaps[i], gaps[i + 1]) for i in range(120) if gaps[i] * gaps[i + 1] < 0.0
    ]
    assert [round(a, 2) for a, *_ in brackets] == [2.4, 5.5]
    scans.clear()
    crossings = driventls.cli._crossings(delta, propagation, brackets)
    alone = list(scans)
    scans.clear()
    zero = float(np.nextafter(3.0, 4.0))
    located = driventls.cli._crossings(delta, propagation, [brackets[0], (zero, zero, 0.0, 0.0), brackets[1]])
    assert located == [crossings[0], zero, crossings[1]]
    assert located[0] < located[1] < located[2]
    # the collapsed bracket adds no solve: every round scans the same drive strengths
    assert scans == alone


@pytest.mark.parametrize("delta", ["0.03", "0.3"])
def test_sweep_crossings_match_shirley(capsys, delta):
    code, out, _ = _run(capsys, ["sweep", "--delta", delta, "--format", "json"])
    assert code == 0
    crossings = json.loads(out)["crossings"]
    assert len(crossings) == 2
    for zeta in crossings:
        bracket = [zeta - 1e-6, zeta + 1e-6]
        gaps = [shirley.solve(float(delta), z).gap for z in bracket]
        assert shirley.crossings(float(delta), bracket, gaps, 1e-14) == [pytest.approx(zeta, rel=0.0, abs=1e-12)]


def test_sweep_finds_crossings_of_gaps_whose_product_underflows(capsys):
    # at delta 1e-170 the gaps either side of a crossing are about 1e-172, so their
    # product underflows to -0.0; the crossings sit at the J_0 zeros to first order
    code, out, _ = _run(capsys, ["sweep", "--delta", "1e-170", "--format", "json"])
    assert code == 0
    crossings = json.loads(out)["crossings"]
    assert len(crossings) == 2
    for k, zeta in enumerate(crossings, start=1):
        assert abs(zeta - driventls.bessel.j0_zero(k)) <= 1e-12


def test_sweep_crossings_take_few_solves(monkeypatch, capsys, scans):
    # the 121 grid points come from one batched scan; every further Floquet
    # solve is spent locating the two crossings, which advance in lock-step
    # with one scan per round
    solves, split = [], driventls.floquet._split

    def counting_split(halves):
        solves.extend(halves)
        return split(halves)

    monkeypatch.setattr(driventls.floquet, "_split", counting_split)
    code, out, _ = _run(capsys, ["sweep", "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["crossings"]) == 2
    assert len(solves) - 121 <= 24
    assert len(scans[0]) == 121 and len(scans) <= 6


def test_lock_step_crossings_match_one_bracket_sweeps(capsys):
    # four brackets solved together give, float for float, the crossings of
    # four sweeps that each hold one of them
    code, out, _ = _run(capsys, ["sweep", "--zeta-max", "12", "--zeta-steps", "241", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    crossings = payload["crossings"]
    assert len(crossings) == 4
    zetas = sorted({row["zeta"] for row in payload["rows"]})
    assert len(zetas) == 241
    for crossing in crossings:
        k = max(i for i, zeta in enumerate(zetas) if zeta <= crossing)
        narrow = ["sweep", "--zeta-min", repr(zetas[k]), "--zeta-max", repr(zetas[k + 1])]
        code, out, _ = _run(capsys, narrow + ["--zeta-steps", "2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["crossings"] == [crossing]


def test_byte_identical_output(tmp_path, capsys):
    for argv in (
        ["sweep", "--zeta-min", "0", "--zeta-max", "2", "--zeta-steps", "5", "--manifolds", "0"],
        ["weights", "--zetas", "0.6", "3.1", "--grid", "64", "--format", "json"],
        ["validate", "--zetas", "0.6", "3.1"],
    ):
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().endswith(b"\n")


def _parse_csv(text):
    header, lines = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            header[key] = value
        else:
            lines.append(line.split(","))
    return header, lines[0], lines[1:]


def _same_cell(text, value):
    """Whether a CSV cell holds the JSON value: floats exactly after parsing."""
    if value is None:
        return text == ""
    if isinstance(value, bool):
        return text == ("true" if value else "false")
    if isinstance(value, int):
        return text == str(value)
    if isinstance(value, float):
        return float(text) == value
    return text == value


@pytest.mark.parametrize(
    "argv",
    [
        ["weights", "--zetas", "0.6", "2.404825557695773", "--grid", "64"],
        ["sweep", "--zeta-steps", "9"],
    ],
)
def test_csv_and_json_agree(capsys, argv):
    _, csv_text, _ = _run(capsys, argv + ["--format", "csv"])
    _, json_text, _ = _run(capsys, argv + ["--format", "json"])
    header, names, rows = _parse_csv(csv_text)
    payload = json.loads(json_text)
    flat = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update({f"{key}.{sub}": v for sub, v in value.items()})
        elif key != "rows":
            flat[key] = value
    assert list(header) == list(flat)
    for key, value in flat.items():
        if isinstance(value, list):
            cells = header[key][1:-1].split(", ") if value else []
            assert header[key].startswith("[") and len(cells) == len(value)
            assert all(_same_cell(c, v) for c, v in zip(cells, value)), key
        else:
            assert _same_cell(header[key], value), key
    assert len(rows) == len(payload["rows"]) > 0
    for row, obj in zip(rows, payload["rows"]):
        assert list(obj) == names
        assert all(_same_cell(c, v) for c, v in zip(row, obj.values())), (row, obj)


def test_validate_passes_in_regime(capsys):
    code, out, _ = _run(capsys, ["validate", "--zetas", "3.141592653589793", "--grid", "128"])
    assert code == 0
    payload = json.loads(out)
    assert payload["overall_pass"] is True
    check = payload["checks"][0]
    assert check["pass"] is True
    assert check["error"] is None
    assert check["quasienergy_gap"] <= 2e-3
    assert check["min_mode_fidelity"] >= 0.996
    assert check["max_forbidden_leakage"] <= 1e-10
    assert check["unitarity_drift"] <= 1e-10


def test_validate_propagates_once_per_command(monkeypatch, capsys):
    # every propagation runs through propagator._checked, which makes one fine
    # and one half-step _evolve run over its whole stack of drive strengths; the
    # modes, spectrum and unitarity gate of all eight zetas share one such pass,
    # and no zeta takes the one-drive propagate_grid route
    counts = {"grid": 0, "checked": 0, "evolve": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for module, name, key in (
        (driventls.floquet, "propagate_grid", "grid"),
        (driventls.propagator, "propagate_grid", "grid"),
        (driventls.propagator, "_checked", "checked"),
        (driventls.propagator, "_evolve", "evolve"),
    ):
        monkeypatch.setattr(module, name, counting(key, getattr(module, name)))
    zetas = ["0.6", "1.5", "2.404825557695773", "5.5", "12", "33", "70", "95"]
    code, out, _ = _run(capsys, ["validate", "--zetas", *zetas])
    assert code == 0
    assert len(json.loads(out)["checks"]) == 8
    assert counts == {"grid": 0, "checked": 1, "evolve": 2}


def test_sweep_propagates_once_per_scan(monkeypatch, capsys, scans):
    # the quarter periods of a scan run through the same _checked pass as the
    # grids: one per scan call, the grid scan and the five Illinois rounds of
    # the default sweep, each with one fine and one half-step _evolve run
    counts = {"checked": 0, "evolve": 0}

    def counting(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    for name, key in (("_checked", "checked"), ("_evolve", "evolve")):
        monkeypatch.setattr(driventls.propagator, name, counting(key, getattr(driventls.propagator, name)))
    code, _, _ = _run(capsys, ["sweep"])
    assert code == 0
    assert len(scans) == 6
    assert counts == {"checked": 6, "evolve": 12}


def _checks(capsys, argv):
    code, out, _ = _run(capsys, argv)
    checks = json.loads(out)["checks"]
    return code, [{key: (value, type(value)) for key, value in check.items()} for check in checks]


def test_batched_validate_checks_are_the_one_zeta_checks(capsys):
    # 64 steps per period refuse 70 and 9.93 inside the batch; every check,
    # refused or not, equals key for key and bit for bit the check of a run
    # that holds only its zeta
    base = ["--steps", "64", "--grid", "64"]
    zetas = ["0.6", "70", "3.1", "9.93", "2.404825557695773"]
    code, batched = _checks(capsys, ["validate", "--zetas", *zetas, *base])
    assert code == 1
    assert [check["error"][0] is None for check in batched] == [True, False, True, False, True]
    for zeta, check in zip(zetas, batched):
        _, (alone,) = _checks(capsys, ["validate", "--zetas", zeta, *base])
        assert check == alone


def test_weights_raise_the_first_failing_zeta(capsys):
    # the second of three zetas is beyond 64 steps per period; the run stops
    # with its error, as a one-zeta-at-a-time run did
    argv = ["weights", "--zetas", "0.6", "40", "3", "--steps", "64", "--grid", "64"]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (3, "")
    assert err == (
        "error: step-halving error estimate 1.500e-05 exceeds 1e-07 at zeta = 40 with 64 steps "
        "over a span of 6.28319; increase steps_per_period\n"
    )


def test_one_process_runs_like_fresh_ones(capsys):
    # the parser is built once per process; runs that set options, a usage
    # error and runs that leave the options at their defaults give what fresh
    # processes give, and no option value carries over from one run to the next
    runs = [
        ["sweep", "--delta", "0.05", "--zeta-max", "3", "--zeta-steps", "5", "--steps", "256", "--format", "json", "--mu", "2"],
        ["weights", "--zetas", "-1"],
        ["weights", "--zetas", "0.6", "--grid", "64"],
        ["validate", "--zetas", "3.1", "--grid", "64"],
        ["spectrum", "--zeta", "3.1", "--grid", "64", "--format", "json"],
        ["spectrum", "--grid", "64", "--format", "json"],
        ["spectrum", "--rabi", "0.3", "--grid", "64"],
        ["spectrum", "--zeta", "0.6", "--grid", "64"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    in_process = [outcome(argv) for argv in runs]
    fresh = []
    for argv in runs:
        driventls.cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert in_process == fresh
    assert [code for code, _, _ in in_process] == [0, 2, 0, 0, 0, 0, 0, 0]
    weights, validate = in_process[2][1], json.loads(in_process[3][1])
    assert "# params.delta = 0.02\n" in weights and "# params.dipole = 1\n" in weights
    assert "# params.steps_per_period = 4096\n" in weights and weights.startswith("# command")
    assert validate["params"]["delta"] == 0.02 and validate["params"]["dipole"] == 1
    # the drive strength of a --zeta run does not carry over into a run without one
    assert json.loads(in_process[4][1])["params"]["zeta"] == 3.1
    assert json.loads(in_process[5][1])["params"]["rabi"] == math.pi / 10
    # --rabi R and --zeta 2R are one drive strength, byte for byte
    assert in_process[6] == in_process[7]


def test_closed_form_bessel_row_budget(monkeypatch, capsys):
    # validate reads per zeta one coefficient row, for the analytic modes, their
    # quasienergies and the closed-form intensities up to k = 9; weights reads
    # only the coefficient row, and sweep one J0 per grid point for its analytic column
    rows = []
    original = driventls.bessel._miller_row

    def counting(order_max, x):
        rows.append(x)
        return original(order_max, x)

    monkeypatch.setattr(driventls.bessel, "_miller_row", counting)
    code, _, _ = _run(capsys, ["validate", "--zetas", "0.6", "3.1", "--grid", "64"])
    assert code == 0
    assert len(rows) <= 1 * 2
    rows.clear()
    code, _, _ = _run(capsys, ["weights", "--zetas", "0.6", "3.1", "40", "--grid", "64"])
    assert code == 0
    assert len(rows) <= 1 * 3
    rows.clear()
    code, _, _ = _run(capsys, ["sweep", "--zeta-steps", "21", "--steps", "256"])
    assert code == 0
    assert len(rows) <= 21


def test_import_loads_no_fft_or_random():
    # a fresh interpreter compiles and loads only what the CLI needs to start;
    # numpy.fft loads on the first grid series, and nothing needs numpy.random
    src = str(Path(driventls.cli.__file__).resolve().parents[1])
    code = "import sys, driventls.cli; print(sorted({'numpy.fft', 'numpy.random'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_validate_always_json(capsys):
    code, out, _ = _run(
        capsys, ["validate", "--zetas", "3.141592653589793", "--grid", "128", "--format", "csv"]
    )
    assert code == 0
    assert out.lstrip().startswith("{")
    json.loads(out)


def test_validate_records_refusal(capsys):
    # 64 steps per period cannot resolve zeta = 70: that check is recorded
    # with null metrics, and the other zeta is still checked
    argv = ["validate", "--zetas", "0.6", "70", "--steps", "64", "--grid", "64"]
    code, out, _ = _run(capsys, argv)
    assert code == 1
    payload = json.loads(out)
    assert payload["overall_pass"] is False
    passed, refused = payload["checks"]
    assert passed["pass"] is True and passed["error"] is None
    assert refused["zeta"] == 70
    metrics = ("quasienergy_gap", "min_mode_fidelity", "max_forbidden_leakage")
    for key in metrics + ("max_intensity_rel_error", "unitarity_drift"):
        assert refused[key] is None
    assert all(v is False for key, v in refused.items() if key.startswith("pass"))
    assert "step-halving error estimate" in refused["error"]


def test_validate_flags_out_of_regime(capsys):
    # strong detuning breaks the first-order formulas but not the solver
    code, out, _ = _run(
        capsys, ["validate", "--delta", "0.5", "--zetas", "0.5", "--grid", "128"]
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["overall_pass"] is False
    check = payload["checks"][0]
    assert check["pass_unitarity"] is True
    assert check["pass_selection_rules"] is True
    assert check["pass_quasienergy"] is False


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["weights"],
        ["weights", "--zetas", "-1"],
        ["weights", "--zetas", "1", "--steps", "100"],
        ["weights", "--zetas", "1", "--grid", "100"],
        ["sweep", "--zeta-min", "-1"],
        ["sweep", "--zeta-steps", "1"],
        ["spectrum", "--k-max", "0"],
        ["spectrum", "--k-max", "32", "--grid", "64"],
        ["spectrum", "--zeta", "-1"],
        ["spectrum", "--zeta", "nan"],
        ["spectrum", "--rabi", "-1"],
        ["nonsense"],
        [],
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        # a bad drive strength is blamed on the flag that carried it
        for flag in {"--rabi", "--zeta"} & set(argv):
            assert f"error: argument {flag}: must be a finite number >= 0.0, got {argv[-1]!r}" in err


@pytest.mark.parametrize(
    "mu", [repr(float(np.nextafter(1e-100, 0.0))), repr(float(np.nextafter(1e100, math.inf))), "1e-200", "1e155"]
)
def test_dipole_outside_domain_exits_2(capsys, mu):
    # mu**2 would be subnormal or overflow: one usage line and one error line
    for command in (["spectrum"], ["validate", "--zetas", "0.6"]):
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--mu", mu])
        captured = capsys.readouterr()
        assert excinfo.value.code == 2 and captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: driventls ")
        assert error == f"driventls: error: dipole must be in [1e-100, 1e100], got {float(mu)!r}"


@pytest.mark.parametrize("mu", ["1e-100", "1e100"])
@pytest.mark.parametrize(
    "argv",
    [["--zetas", "0.6", "3.1"], ["--delta", "0", "--zetas", "0.6", "9.932314258317383"]],
)
def test_validate_at_dipole_bounds_matches_unit_dipole(capsys, mu, argv):
    # the metrics are ratios to mu**2 or do not involve it, so both bounds of
    # the dipole domain give the mu = 1 report to 1e-12, weak-line gate
    # included; at zero detuning the intensity error is rounding (~1e-14) of
    # the k = 0 lines and is held to 1e-12 absolute
    base = ["validate", *argv, "--grid", "128"]
    code, out, err = _run(capsys, [*base, "--mu", mu])
    assert code == 0 and err == ""
    unit = json.loads(_run(capsys, base)[1])["checks"]
    for check, reference in zip(json.loads(out)["checks"], unit, strict=True):
        for key, value in reference.items():
            if isinstance(value, float):
                floor = 1e-12 if key == "max_intensity_rel_error" else 0.0
                assert check[key] == pytest.approx(value, rel=1e-12, abs=floor), key
            else:
                assert check[key] == value, key


def test_runtime_error_exits_3(capsys):
    code, out, err = _run(
        capsys, ["weights", "--zetas", "40", "--steps", "64", "--grid", "64"]
    )
    assert code == 3
    assert out == ""
    assert "error:" in err


def test_sweep_accuracy_error_names_its_point(capsys):
    # the refusal reads as propagate(p, 0, pi) words it: the quarter period's 16 steps
    # reflected onto the half period
    code, out, err = _run(capsys, ["sweep", "--steps", "64", "--zeta-max", "40"])
    assert (code, out) == (3, "")
    assert err == (
        "error: step-halving error estimate 1.021e-07 exceeds 1e-07 at zeta = 6.6666666666666661 "
        "with 32 steps over a span of 3.14159; increase steps_per_period\n"
    )


def test_zone_boundary_exits_3(capsys):
    # the sweep starts at zeta = 0, where delta = 1 folds both modes onto
    # eps = 1/2 and parity cannot tell them apart
    code, out, err = _run(capsys, ["sweep", "--delta", "1"])
    assert code == 3
    assert out == ""
    assert "zone boundary" in err


def test_unwritable_output_exits_3(capsys):
    code, _, err = _run(
        capsys,
        [
            "weights",
            "--zetas",
            "0",
            "--grid",
            "64",
            "--out",
            "/nonexistent_dir_zz/out.csv",
        ],
    )
    assert code == 3
    assert "cannot write" in err


@pytest.mark.parametrize(
    "name, argv", [("exact_quasienergy_scan", ["sweep"]), ("_texts", ["spectrum", "--grid", "64"])]
)
def test_out_of_memory_exits_3_on_one_line(monkeypatch, capsys, name, argv):
    # a failed allocation in the command phase or the render phase is a refused request, not a traceback
    def no_memory(*args):
        raise MemoryError("Unable to allocate 32.0 GiB for an array")

    monkeypatch.setattr(driventls.cli, name, no_memory)
    code, _, err = _run(capsys, argv)
    assert (code, err) == (3, "error: out of memory: Unable to allocate 32.0 GiB for an array\n")


def test_shirley_reference_loads_no_driventls_code():
    # a fresh interpreter imports the reference the way the tests do
    probe = "import sys; sys.path[:0] = sys.argv[1:]; from oracles import shirley; print(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe, str(Path(__file__).parent)], capture_output=True, text=True)
    assert proc.returncode == 0 and "shirley" in proc.stdout.split(), proc.stderr
    assert [name for name in proc.stdout.split() if name.startswith("driventls")] == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_drive_is_refused_without_warnings(capsys):
    # zeta = 1e300 overflows the step factors; stderr carries the refusal alone, with no
    # numpy warning naming a source path or line
    golden = Path(__file__).resolve().parent / "golden" / "validate_overflow.json"
    assert _run(capsys, ["validate", "--zetas", "0.6", "1e300"]) == (1, golden.read_text(encoding="utf-8"), "")
    code, out, err = _run(capsys, ["sweep", "--zeta-max", "1e300"])
    assert code == 3 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: step-halving error estimate nan exceeds 1e-07 at zeta = ")


def test_float_formatting_roundtrip():
    values = [math.pi, 0.1, 1.0 / 3.0, 1e-300, 0.015212108882204693, 123456.7890123]
    text = _render({"values": values}, "csv")
    assert text.startswith("# values = [") and text.endswith("]\n")
    assert [float(cell) for cell in text[12:-2].split(", ")] == values
    assert _render({"one": 1.0}, "csv") == "# one = 1\n"


_CONTRACT_PAYLOAD = {
    "command": "demo",
    "params": {"delta": 0.02, "steps": np.int64(64), "on": True},
    "zetas": [0.6, -0.0, 1.0],
    "crossings": [],
    "rows": {
        "x": np.array([0.0, -0.0, 1.0, 0.1]),
        "y": np.array([1e-300, 5e-324, 0.0, -0.0]),
        "n": np.array([1, -2, 3, 1]),
        "ok": np.array([True, False, True, True]),
        "maybe": [None, 0.5, None, -0.0],
        "label": np.array(['say "hi"', "back\\slash", 'say "hi"', "plain"]),
    },
    "overall_pass": False,
}

_CONTRACT_CSV = r'''# command = demo
# params.delta = 0.02
# params.steps = 64
# params.on = true
# zetas = [0.59999999999999998, -0, 1]
# crossings = []
# overall_pass = false
x,y,n,ok,maybe,label
0,1e-300,1,true,,say "hi"
-0,4.9406564584124654e-324,-2,false,0.5,back\slash
1,0,3,true,,say "hi"
0.10000000000000001,-0,1,true,-0,plain
'''

_CONTRACT_JSON = r'''{
  "command": "demo",
  "params": {
    "delta": 0.02,
    "steps": 64,
    "on": true
  },
  "zetas": [0.59999999999999998, -0, 1],
  "crossings": [],
  "rows": [
    {
      "x": 0,
      "y": 1e-300,
      "n": 1,
      "ok": true,
      "maybe": null,
      "label": "say \"hi\""
    },
    {
      "x": -0,
      "y": 4.9406564584124654e-324,
      "n": -2,
      "ok": false,
      "maybe": 0.5,
      "label": "back\\slash"
    },
    {
      "x": 1,
      "y": 0,
      "n": 3,
      "ok": true,
      "maybe": null,
      "label": "say \"hi\""
    },
    {
      "x": 0.10000000000000001,
      "y": -0,
      "n": 1,
      "ok": true,
      "maybe": -0,
      "label": "plain"
    }
  ],
  "overall_pass": false
}
'''


def test_render_contract():
    # "-0" must survive deduplication, which takes 0.0 == -0.0 as equal
    assert _render(_CONTRACT_PAYLOAD, "csv") == _CONTRACT_CSV
    text = _render(_CONTRACT_PAYLOAD, "json")
    assert text == _CONTRACT_JSON
    # json.loads reads "-0" as the integer 0, so the sign is pinned by the text
    payload = json.loads(text)
    assert list(payload) == list(_CONTRACT_PAYLOAD)
    assert payload["params"] == {"delta": 0.02, "steps": 64, "on": True}
    assert payload["zetas"] == [0.6, -0.0, 1.0] and payload["crossings"] == []
    assert payload["overall_pass"] is False
    table = _CONTRACT_PAYLOAD["rows"]
    assert [list(row) for row in payload["rows"]] == [list(table)] * 4
    for name, column in table.items():
        expected = column.tolist() if isinstance(column, np.ndarray) else column
        assert [row[name] for row in payload["rows"]] == expected, name


def test_render_rejects_unknown_format():
    with pytest.raises(DomainError):
        render({"rows": []}, "yaml", io.StringIO())


class _Sink:
    """stdout stand-in that keeps each text written to it, or discards them."""

    def __init__(self, keep=True, fail_at=None):
        self.chunks, self.writes, self.keep, self.fail_at = [], 0, keep, fail_at

    def write(self, text):
        self.writes += 1
        if self.writes == self.fail_at:
            raise OSError(28, "No space left on device")
        if self.keep:
            self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


def _contract_rows(n):
    """_CONTRACT_PAYLOAD with its four rows cycled to n rows, plus a column whose name needs escaping."""
    table = {**_CONTRACT_PAYLOAD["rows"], '50% "odd"': np.array([0.25, -1.5, 2.0, 1e10])}
    index = np.arange(n) % 4
    rows = {k: [c[i] for i in index] if isinstance(c, list) else c[index] for k, c in table.items()}
    return {**_CONTRACT_PAYLOAD, "rows": rows}


def _cycled_text(fmt, n):
    """The four-row text with its rows cycled to n rows: what rendering n rows must give."""
    text = _render(_contract_rows(4), fmt)
    if fmt == "csv":
        lines = text.splitlines(keepends=True)
        return "".join(lines[:-4] + [lines[-4 + i % 4] for i in range(n)] if n else lines[:-5])
    start = text.index('  "rows": [\n') + len('  "rows": [\n')
    end = text.index("\n  ]", start)
    blocks = [block + "\n    }" for block in text[start : end - len("\n    }")].split("\n    },\n")]
    if not n:
        return text[: start - 2] + "[]" + text[end + len("\n  ]") :]
    return text[:start] + ",\n".join(blocks[i % 4] for i in range(n)) + text[end:]


_CHUNK = driventls.cli._CHUNK_ROWS


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n", [0, 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK])
def test_row_chunks_are_invisible(fmt, n):
    payload = _contract_rows(n)
    sink = _Sink()
    render(payload, fmt, sink)
    text = "".join(sink.chunks)
    # compared as line lists, whose failure report is short where two long strings' is slow
    assert text.split("\n") == _cycled_text(fmt, n).split("\n")
    # one write per chunk of rows and at most 3 per payload key, never one per row or cell
    assert "" not in sink.chunks
    assert math.ceil(n / _CHUNK) <= len(sink.chunks) <= 3 * len(payload) + math.ceil(n / _CHUNK)
    if fmt == "json":
        rows = json.loads(text)["rows"]
        assert len(rows) == n and all(row['50% "odd"'] == [0.25, -1.5, 2.0, 1e10][i % 4] for i, row in enumerate(rows))
    else:
        assert (n > 0) == ('x,y,n,ok,maybe,label,50% "odd"\n' in text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_file_equals_stdout_for_a_multi_chunk_table(tmp_path, capsys, fmt):
    argv = ["weights", "--zetas", "0.6", "--grid", "4096", "--format", fmt]
    code, out, _ = _run(capsys, argv)
    assert code == 0 and out.count("\n") > 3 * _CHUNK
    path = tmp_path / f"weights.{fmt}"
    assert main(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == out.encode()


def test_stdout_failing_mid_table_exits_3_naming_stdout(capsys):
    argv = ["weights", "--zetas", "0.6", "--grid", "1024"]
    dry = _Sink()
    with contextlib.redirect_stdout(dry):
        assert main(argv) == 0
    # the header is several writes and the 4096 rows are 4 chunks; the write after the
    # first row chunk is the second one, so failing it fails mid-table
    first = next(i for i, text in enumerate(dry.chunks) if text.count("\n") >= _CHUNK - 1)
    assert dry.chunks[first + 1].count("\n") == _CHUNK
    sink = _Sink(fail_at=first + 2)
    with contextlib.redirect_stdout(sink):
        code = main(argv)
    assert code == 3 and sink.writes == first + 2 and sink.chunks == dry.chunks[: first + 1]
    assert capsys.readouterr().err == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exits_3_in_a_fresh_process():
    # a buffered stdout that failed to flush must not fail again at interpreter exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(driventls.cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "driventls.cli", "spectrum", "--grid", "64", "--k-max", "1"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


def _weights_payload(zetas, grid=4096):
    params = driventls.SystemParams(delta=0.02, rabi=0.3, dipole=1.0)
    propagation = driventls.PropagationConfig(steps_per_period=4096)
    return driventls.cli.cmd_weights(params, propagation, grid, zetas)


def _render_peak(payload, fmt):
    """tracemalloc peak of rendering a payload to a sink that keeps nothing."""
    tracemalloc.start()
    try:
        render(payload, fmt, _Sink(keep=False))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_table_never_holds_the_document():
    # grid 4096 comes in blocks of one (zeta, source) pair: 8192 rows, 8 chunks.  The
    # bound is the peak of building the first block and formatting it alone, plus 3 chunks
    for fmt in ("csv", "json"):
        sink = _Sink()
        render(_weights_payload([0.6, 3.1]), fmt, sink)
        chunk = max(map(len, sink.chunks))
        rows = _weights_payload([0.6, 3.1])["rows"]
        tracemalloc.start()
        # the block's zeta and source are scalars, which _write_table formats as one-cell lists
        columns = [c if isinstance(c, (list, np.ndarray)) else [c] for c in next(rows).values()]
        try:
            driventls.cli._texts(columns, fmt == "json")
            block_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peak = _render_peak(_weights_payload([0.6, 3.1]), fmt)
        # the 32768 rows are 4 blocks and 32 chunks, so one whole copy of the document would add ~30
        assert peak < block_peak + 3 * chunk, fmt


def test_render_peak_does_not_grow_with_the_zetas():
    # the rows of 8 zetas are 4 times those of 2, and render holds one block of them at a time
    zetas = [0.6, 3.1, 2.2, 0.9, 5.5, 1.7, 4.4, 0.3]
    for fmt in ("csv", "json"):
        assert _render_peak(_weights_payload(zetas), fmt) <= 1.25 * _render_peak(_weights_payload(zetas[:2]), fmt), fmt


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "sizes",
    [[], [0], [0, 0], [1], [0, 1, 0, 2], [1] * 8, [4, 4, 4], [_CHUNK, _CHUNK], [_CHUNK + 1, 3, 2 * _CHUNK - 1]],
)
def test_table_in_blocks_renders_as_the_whole_table(fmt, sizes):
    # [1] * 8 has 0.0 and -0.0 in the same column of consecutive blocks; [4, 4, 4] has equal blocks
    payload = _contract_rows(sum(sizes))
    bounds = np.cumsum([0, *sizes]).tolist()
    blocks = [{k: c[a:b] for k, c in payload["rows"].items()} for a, b in zip(bounds, bounds[1:])]
    assert _render({**payload, "rows": iter(blocks)}, fmt) == _render(payload, fmt)


def test_empty_payload_renders_valid_json():
    assert json.loads(_render({}, "json")) == {}
    assert _render({}, "csv") == ""


def _cell_reference(value, as_json):
    """One cell's text, formatted alone: floats with 17 significant digits, the rest as JSON
    values, and strings raw in CSV."""
    if isinstance(value, float):
        return format(value, ".17g")
    return value if isinstance(value, str) and not as_json else json.dumps(value)


def _table_reference(blocks, fmt):
    """The document render must write for {"rows": iter(blocks)}, built one cell at a time."""
    names = list(blocks[0])
    rows = [[_cell_reference(c[r].item(), fmt == "json") for c in b.values()] for b in blocks for r in range(len(b[names[0]]))]
    if fmt == "csv":
        return "".join(",".join(line) + "\n" for line in [names, *rows])
    objects = [",\n".join(f"      {json.dumps(n)}: {cell}" for n, cell in zip(names, row)) for row in rows]
    return '{\n  "rows": [\n' + ",\n".join("    {\n" + o + "\n    }" for o in objects) + "\n  ]\n}\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_one_valued_columns_render_as_each_cell_alone(fmt):
    # per block, columns of one value stand first, in the middle and last; "signed" mixes
    # 0.0 and -0.0, which are two values.  The third block is one-valued in every column,
    # the fourth is one row, and the first and second share their one-valued columns
    n = _CHUNK + 5
    spread = np.linspace(-1.0, 1.0, n)

    def block(rows, x, k, ok, label, last):
        signed = np.where(np.arange(rows) % 3 == 0, -0.0, 0.0)
        return {
            "x": np.full(rows, x),
            "k": np.full(rows, k),
            "t": spread[:rows],
            "ok": np.full(rows, ok),
            "signed": signed,
            "label": np.full(rows, label),
            "w": np.exp(spread[:rows]),
            "last": np.full(rows, last),
        }

    blocks = [
        block(n, 0.1, 1, True, "exact", -0.0),
        block(n, 0.1, 2, False, "exact", 1e-300),
        {name: np.full(3, column[0]) for name, column in block(3, 3.1, -4, True, 'say "hi"', 0.0).items()},
        block(1, 5e-324, 7, False, "back\\slash", 2.5),
    ]
    expected = _table_reference(blocks, fmt)
    assert _render({"rows": iter(blocks)}, fmt).split("\n") == expected.split("\n")
    # the same blocks with x, k, ok, label and last as scalars, the way weights hands a
    # one-pair block's zeta and source: first, in the middle and last, in the one-row block
    # too, and among them -0.0 and 5e-324; the first two blocks share one "t" array
    scalar = {"x", "k", "ok", "label", "last"}
    scalars = [{name: c[0].item() if name in scalar else c for name, c in b.items()} for b in blocks]
    scalars[1]["t"] = scalars[0]["t"]
    assert _render({"rows": iter(scalars)}, fmt).split("\n") == expected.split("\n")
    # the same rows in one block, where no column is one-valued
    whole = {name: np.concatenate([b[name] for b in blocks]) for name in blocks[0]}
    assert _render({"rows": whole}, fmt) == expected


_NINE_ZETAS = ["0.6", "3.1", "0", "2.404825557695773", "5.5", "1.7", "0.3", "4.4", "10"]


def _same_bytes_in_one_block(monkeypatch, capsys, argv, pairs, grid):
    code, blocks, _ = _run(capsys, argv)
    monkeypatch.setattr(driventls.cli, "_BLOCK_ROWS", pairs * 2 * grid)
    assert code == 0 and _run(capsys, argv) == (0, blocks, "")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_weights_in_one_block_print_the_bytes_of_one_pair_blocks(monkeypatch, capsys, fmt):
    # at grid 4096 each block is one (zeta, source) pair, with its zeta and source as scalars
    argv = ["weights", "--zetas", "0.6", "3.1", "--grid", "4096", "--format", fmt]
    _same_bytes_in_one_block(monkeypatch, capsys, argv, 4, 4096)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_weights_in_one_block_print_the_bytes_of_multi_pair_blocks(monkeypatch, capsys, fmt):
    # at grid 512 the 18 pairs come in blocks of 8, 8 and 2, the full two sharing their arrays
    argv = ["weights", "--zetas", *_NINE_ZETAS, "--grid", "512", "--format", fmt]
    _same_bytes_in_one_block(monkeypatch, capsys, argv, 18, 512)


def test_weights_blocks_hand_what_repeats():
    # a one-pair block has its zeta and source as scalars; the full blocks of several pairs
    # share their mode, tau and source arrays, and a partial last block has their starts
    pairs = [(b["zeta"], b["source"]) for b in _weights_payload([0.6, 3.1])["rows"]]
    assert pairs == [(0.6, "exact"), (0.6, "analytic"), (3.1, "exact"), (3.1, "analytic")]
    assert all(type(zeta) is float for zeta, _ in pairs)
    first, second, last = _weights_payload([float(z) for z in _NINE_ZETAS], 512)["rows"]
    assert [first["zeta"].size, second["zeta"].size, last["zeta"].size] == [8 * 2 * 512, 8 * 2 * 512, 2 * 2 * 512]
    for name in ("mode", "tau", "source"):
        assert first[name] is second[name] and np.array_equal(last[name], first[name][: 2 * 2 * 512]), name
