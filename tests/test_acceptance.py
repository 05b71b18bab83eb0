"""End-to-end acceptance gate.

Each test checks one advertised guarantee of the package at its stated
tolerance and prints a single [PASS]/[FAIL] line with the measured margin.
The suite is self-contained and runs in well under two minutes.
"""

import math

import numpy as np
import pytest

from oracles import averaged_overlap_sq, j0_zero_oracle

from driventls import (
    PropagationConfig,
    SystemParams,
    analytic_modes,
    bessel_j,
    bessel_row,
    build_modes,
    exact_quasienergies,
    fold_quasienergy,
    j0_zero,
    line_intensity_analytic,
    propagate,
    series_cutoff,
    spectrum,
    tau_grid,
    unitarity_defect,
)
from driventls.cli import RunConfig, cmd_sweep

TWO_PI = 2.0 * math.pi
DELTA = 0.02


_TERMINAL = None


@pytest.fixture(scope="module", autouse=True)
def _live_terminal(request):
    # fd-level capture swallows sys.__stdout__ too; the terminal reporter
    # is the only channel that reaches the real console for passing tests
    global _TERMINAL
    _TERMINAL = request.config.pluginmanager.getplugin("terminalreporter")
    yield
    _TERMINAL = None


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {number}: {detail}"
    if _TERMINAL is not None:
        _TERMINAL.write_line(line)
    else:
        print(line, flush=True)
    assert passed, line


def _params(delta, zeta):
    return SystemParams.from_zeta(delta=delta, zeta=zeta)


@pytest.fixture(scope="module")
def quasienergy_sweep():
    config = RunConfig(
        params=SystemParams(delta=DELTA, rabi=1.0), propagation=PropagationConfig()
    )
    return cmd_sweep(config, 0.0, 6.0, 121, 0)


def test_criterion_01_quasienergy_first_order(quasienergy_sweep):
    worst = 0.0
    rows = quasienergy_sweep["rows"]
    for zeta, eps1, eps2 in zip(rows["zeta"], rows["eps1_exact"], rows["eps2_exact"]):
        target = -0.5 * DELTA * bessel_j(0, zeta)
        worst = max(worst, abs(fold_quasienergy(eps1 - target)))
        worst = max(worst, abs(fold_quasienergy(eps2 + target)))
    _report(
        1,
        worst <= 2e-3,
        f"max |eps_exact - eps_analytic| = {worst:.3e} over 121 points in "
        f"zeta [0, 6] at delta {DELTA} (tol 2e-3)",
    )


def test_criterion_02_error_scaling_with_detuning():
    def max_err(delta):
        worst = 0.0
        for zeta in (math.pi / 2, math.pi, 4.0):
            pair = exact_quasienergies(_params(delta, zeta))
            target = -0.5 * delta * bessel_j(0, zeta)
            worst = max(worst, abs(fold_quasienergy(pair.eps1 - target)))
        return worst

    coarse, fine = max_err(0.04), max_err(0.02)
    ratio = coarse / fine
    _report(
        2,
        ratio >= 3.0,
        f"halving delta 0.04 -> 0.02 shrinks max quasienergy error "
        f"{coarse:.3e} -> {fine:.3e}, ratio {ratio:.2f} (need >= 3)",
    )


def test_criterion_03_level_crossings_at_bessel_zeros(quasienergy_sweep):
    crossings = quasienergy_sweep["crossings"]
    targets = (2.404825558, 5.520078110)
    ok = len(crossings) == len(targets) and all(
        abs(c - t) <= 2e-3 for c, t in zip(crossings, targets)
    )
    found = ", ".join(f"{c:.9f}" for c in crossings)
    _report(
        3,
        ok,
        f"exact-gap crossings at zeta = [{found}] vs J0 zeros "
        f"{targets[0]}, {targets[1]} (tol 2e-3)",
    )


def test_criterion_04_mode_fidelity():
    worst = 1.0
    for zeta in (math.pi / 5, math.pi / 2, math.pi):
        p = _params(DELTA, zeta)
        # both solvers label the symmetric mode 1, so the modes pair by label
        for e, a in zip(build_modes(p).modes, analytic_modes(p)):
            worst = min(worst, averaged_overlap_sq(e.samples, a.samples))
    floor = 1.0 - 10 * DELTA**2
    _report(
        4,
        worst >= floor,
        f"min period-averaged fidelity {worst:.10f} over zeta "
        f"{{pi/5, pi/2, pi}} at delta {DELTA} (need >= {floor})",
    )


def test_criterion_05_selection_rules_exact():
    worst = 0.0
    for zeta in (math.pi / 5, math.pi, 2.404826):
        p = _params(0.1, zeta)
        lines = spectrum(p, build_modes(p).modes, 9, include_forbidden=True)
        worst = max(worst, lines["intensity_numeric"][lines["forbidden"]].max())
    _report(
        5,
        worst <= 1e-10,
        f"max forbidden-line intensity {worst:.3e} * mu^2 for |k| <= 9 at "
        f"delta 0.1 (tol 1e-10)",
    )


def test_criterion_06_line_intensities():
    p = _params(DELTA, math.pi)
    lines = spectrum(p, build_modes(p).modes, 7)
    numeric, closed = lines["intensity_numeric"], lines["intensity_analytic"]
    worst = np.max(np.abs(numeric - closed) / closed)
    worst_intra = np.max(np.abs(numeric[lines["class"] == "intra_manifold"] - 1.0))
    _report(
        6,
        worst <= 0.2 and worst_intra <= 0.2,
        f"allowed |k| <= 7 intensities at delta {DELTA}, zeta = pi: max "
        f"relative error {worst:.3e}, intra-manifold offset from mu^2 "
        f"{worst_intra:.3e} (tol 0.2)",
    )


def test_criterion_07_doublet_collapse():
    p = _params(DELTA, 2.404825558)
    lines = spectrum(p, build_modes(p).modes, 3)
    single = line_intensity_analytic(p, 1, 2, 2)
    worst_spread = 0.0
    worst_rel = 0.0
    for k in (2, -2):
        pair = (lines["i"] != lines["j"]) & (lines["k"] == k)
        assert np.count_nonzero(pair) == 2
        (f0, f1), (i0, i1) = lines["frequency"][pair], lines["intensity_numeric"][pair]
        worst_spread = max(worst_spread, abs(f0 - f1))
        merged = i0 + i1
        worst_rel = max(worst_rel, abs(merged - 2.0 * single) / (2.0 * single))
    _report(
        7,
        worst_spread <= 1e-9 and worst_rel <= 0.2,
        f"k = +-2 doublet at the first crossing: frequency spread "
        f"{worst_spread:.3e} (tol 1e-9), merged intensity off 2x single "
        f"branch by {worst_rel:.3e} (tol 0.2)",
    )


def test_criterion_08_weight_extremes():
    mode1, _ = build_modes(_params(0.1, math.pi)).modes
    weight = np.abs(mode1.samples[:, 0]) ** 2
    lo, hi = float(np.min(weight)), float(np.max(weight))
    _report(
        8,
        lo <= 1e-2 and hi >= 1.0 - 1e-2,
        f"mode-1 ground weight at zeta = pi, delta 0.1 spans "
        f"[{lo:.3e}, {hi:.6f}] (need <= 1e-2 and >= 0.99)",
    )


def test_criterion_09_solver_integrity(quasienergy_sweep):
    worst_defect = 0.0
    worst_estimate = 0.0
    rows = quasienergy_sweep["rows"]
    worst_sum = max(
        abs(fold_quasienergy(eps1 + eps2))
        for eps1, eps2 in zip(rows["eps1_exact"], rows["eps2_exact"])
    )
    for zeta in (1.0, 10.0, 40.0):
        p = _params(0.1, zeta)
        solution = build_modes(p)
        worst_defect = max(worst_defect, unitarity_defect(solution.monodromy))
        worst_estimate = max(worst_estimate, solution.error_estimate)
        pair = exact_quasienergies(p)
        worst_sum = max(worst_sum, abs(fold_quasienergy(pair.eps1 + pair.eps2)))

    # step counts in the asymptotic regime of the fourth-order integrator,
    # where the error is well above rounding
    ratios = []
    for zeta, coarse, fine, ref_steps in ((1.0, 256, 512, 4096), (40.0, 512, 1024, 8192)):
        p = _params(DELTA, zeta)
        ref = propagate(p, 0.0, TWO_PI, PropagationConfig(steps_per_period=ref_steps))
        errs = [
            np.max(np.abs(propagate(p, 0.0, TWO_PI, PropagationConfig(steps_per_period=n)) - ref))
            for n in (coarse, fine)
        ]
        ratios.append(errs[0] / errs[1])
    min_ratio = min(ratios)

    _report(
        9,
        worst_defect <= 1e-10
        and worst_estimate <= 1e-10
        and min_ratio >= 8.0
        and worst_sum <= 1e-9,
        f"unitarity defect {worst_defect:.3e} and error estimate "
        f"{worst_estimate:.3e} per period up to zeta = 40 (tol 1e-10); "
        f"step-halving error ratio {min_ratio:.2f} "
        f"(need >= 8); |eps1 + eps2 mod 1| <= {worst_sum:.3e} everywhere "
        f"tested (tol 1e-9)",
    )


def test_criterion_10_bessel_kernel():
    taus = tau_grid(64)
    worst_ja = 0.0
    worst_norm = 0.0
    for zeta in np.linspace(0.0, 40.0, 81):
        row = bessel_row(series_cutoff(zeta), zeta)
        ns = np.arange(row.size)
        even = ns[2::2]
        odd = ns[1::2]
        cos_sum = row[0] + 2.0 * (np.cos(np.multiply.outer(taus, even)) @ row[even])
        sin_sum = 2.0 * (np.sin(np.multiply.outer(taus, odd)) @ row[odd])
        worst_ja = max(worst_ja, float(np.max(np.abs(cos_sum - np.cos(zeta * np.sin(taus))))))
        worst_ja = max(worst_ja, float(np.max(np.abs(sin_sum - np.sin(zeta * np.sin(taus))))))
        worst_norm = max(worst_norm, abs(row[0] + 2.0 * np.sum(row[even]) - 1.0))
    worst_zero = max(abs(j0_zero(k) - j0_zero_oracle(k)) for k in (1, 2, 3))
    _report(
        10,
        worst_ja <= 1e-10 and worst_zero <= 1e-10 and worst_norm <= 1e-10,
        f"Jacobi-Anger closure {worst_ja:.3e} and normalization "
        f"{worst_norm:.3e} on zeta [0, 40] (tol 1e-10); J0 zeros off the "
        f"bisection oracle by {worst_zero:.3e} (tol 1e-10)",
    )
