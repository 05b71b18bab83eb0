import math
import warnings

import numpy as np
import pytest

from oracles import shirley_quasienergies

import driventls.propagator
from driventls import (
    AccuracyError,
    ClassificationError,
    DomainError,
    PropagationConfig,
    SystemParams,
    exact_quasienergies,
    j0_zero,
    one_period_propagator,
    propagate,
    propagate_grid,
    quasienergy_distance,
    unitarity_defect,
)
from driventls.floquet import exact_quasienergy_scan
from driventls.propagator import _compose, _steps, grid_propagators, half_period_propagators

TWO_PI = 2.0 * math.pi


def _params(delta, zeta):
    return SystemParams.from_zeta(delta=delta, zeta=zeta)


def test_config_validation():
    PropagationConfig(steps_per_period=256)
    with pytest.raises(DomainError):
        PropagationConfig(steps_per_period=100)
    with pytest.raises(DomainError):
        PropagationConfig(steps_per_period=32)


def test_free_evolution():
    # no drive: U is the bare phase rotation exp(-i sigma_z delta tau / 2)
    p = SystemParams(delta=0.3, rabi=0.0)
    tau = 1.7
    u = propagate(p, 0.0, tau)
    ref = np.diag([np.exp(0.5j * 0.3 * tau), np.exp(-0.5j * 0.3 * tau)])
    assert np.max(np.abs(u - ref)) <= 1e-12


def test_resonant_drive_no_detuning():
    # delta = 0 integrates exactly to a rotation by the accumulated pulse area
    p = SystemParams(delta=0.0, rabi=0.7)
    tau = 2.4
    area = 0.7 * math.sin(tau)
    u = propagate(p, 0.0, tau)
    ref = np.array(
        [
            [math.cos(area), 1j * math.sin(area)],
            [1j * math.sin(area), math.cos(area)],
        ]
    )
    assert np.max(np.abs(u - ref)) <= 1e-12


def test_empty_span_is_identity():
    u = propagate(_params(0.1, 2.0), 1.3, 1.3)
    assert np.array_equal(u, np.eye(2, dtype=complex))


def test_determinant_and_unitarity():
    u = propagate(_params(0.1, math.pi), 0.0, TWO_PI)
    assert unitarity_defect(u) <= 1e-10
    assert abs(np.linalg.det(u) - 1.0) <= 1e-10


def test_composition():
    p = _params(0.1, math.pi)
    mid = 0.7 * TWO_PI
    u_full = propagate(p, 0.0, TWO_PI)
    u_a = propagate(p, 0.0, mid)
    u_b = propagate(p, mid, TWO_PI)
    assert np.max(np.abs(u_b @ u_a - u_full)) <= 1e-9


def test_period_translation_invariance():
    p = _params(0.1, 2.0)
    tau = 1.1
    u0 = propagate(p, 0.0, tau)
    u1 = propagate(p, TWO_PI, TWO_PI + tau)
    assert np.max(np.abs(u1 - u0)) <= 1e-9


def test_half_period_parity_conjugation():
    # flipping sigma_z and advancing by half a period reproduces the original
    # propagator because the drive changes sign
    p = _params(0.1, math.pi)
    par = np.diag([1.0, -1.0])
    for tau in (0.6, 2.9):
        u0 = propagate(p, 0.0, tau)
        u_shift = propagate(p, math.pi, math.pi + tau)
        assert np.max(np.abs(par @ u_shift @ par - u0)) <= 1e-9


def test_monodromy_eigenphases():
    p = _params(0.1, math.pi)
    u = one_period_propagator(p)
    eig = np.linalg.eigvals(u)
    phases = np.sort(np.angle(eig) / TWO_PI)
    eps = 0.1 * (-0.30424217764409384) / 2.0
    expected = np.sort([eps, -eps])
    assert np.max(np.abs(phases - expected)) <= 5 * 0.1**2


def test_step_halving_order():
    # both step counts sit in the asymptotic regime, well above rounding
    p = _params(0.1, 3.0)
    ref = propagate(p, 0.0, TWO_PI, PropagationConfig(steps_per_period=8192))
    err = {}
    for n in (512, 1024):
        u = propagate(p, 0.0, TWO_PI, PropagationConfig(steps_per_period=n))
        err[n] = np.max(np.abs(u - ref))
    assert err[512] / err[1024] >= 8.0


@pytest.mark.parametrize("delta", [0.02, 0.5])
@pytest.mark.parametrize("zeta", [0.6, 2.404825557695773, 10.0, 40.0, 100.0])
def test_quasienergies_match_shirley(zeta, delta):
    # Shirley's Floquet matrix shares no code with the propagator
    pair = exact_quasienergies(_params(delta, zeta))
    a, b = shirley_quasienergies(delta, zeta)
    gap = quasienergy_distance
    straight = max(gap(pair.eps1, a), gap(pair.eps2, b))
    crossed = max(gap(pair.eps1, b), gap(pair.eps2, a))
    assert min(straight, crossed) <= 1e-10


@pytest.mark.parametrize("zeta", [1.0, j0_zero(1), 40.0, 100.0])
@pytest.mark.parametrize("delta", [0.02, 1.0])
def test_quarter_period_reflection(zeta, delta):
    # U(pi, 0) reflected from U(pi/2, 0) is the half-period propagator, and
    # its estimate is the one of the direct 2048/1024-step run over [0, pi]
    p = _params(delta, zeta)
    halves, estimates, refusals = half_period_propagators(delta, [p.rabi])
    assert refusals == [None]
    direct = propagate(p, 0.0, math.pi)
    assert np.max(np.abs(halves[0] - direct)) <= 1e-14
    coarse = propagate(p, 0.0, math.pi, PropagationConfig(steps_per_period=2048))
    estimate = np.max(np.abs(direct[0] - coarse[0])) / 15.0
    assert estimates[0] == pytest.approx(estimate, rel=1e-3, abs=0.0)


@pytest.mark.parametrize("batch_bytes", [1 << 15, 1 << 22])
def test_quasienergy_scan_matches_single_points(monkeypatch, batch_bytes):
    # 121 drive strengths in groups of one (at 1 << 15 bytes a quarter period of 1024 steps
    # fills the budget) or in one group of all; each row equals its own solve bit for bit
    monkeypatch.setattr(driventls.propagator, "_BATCH_BYTES", batch_bytes)
    zetas = np.linspace(0.0, 6.0, 121)
    scan = exact_quasienergy_scan(0.03, zetas)
    assert scan.shape == (121, 2)
    for zeta, row in zip(zetas, scan):
        pair = exact_quasienergies(_params(0.03, zeta))
        assert np.array_equal(_bits(row), _bits(np.array([pair.eps1, pair.eps2])))


def _bits(u):
    return np.ascontiguousarray(u).view(np.uint64)


def _plain_steps(delta, rabi, tau0, h, n):
    # the step factors as plain complex expressions
    node = math.sqrt(3.0) / 6.0
    mid = tau0 + h * (np.arange(n) + 0.5)
    c1, c2 = np.cos(mid - node * h), np.cos(mid + node * h)
    gz = 0.5 * delta * h
    gx = -0.5 * rabi * h * (c1 + c2)
    gy = node * h * gz * rabi * (c1 - c2)
    r = np.sqrt(gz * gz + gx * gx + gy * gy)
    s = np.sinc(r / math.pi)
    return np.stack((np.cos(r) + 1j * s * gz, -s * (gy + 1j * gx)), axis=-1)


@pytest.mark.parametrize("delta", [0.0, 0.02, 1.0])
@pytest.mark.parametrize("rabi", [np.array([[0.0], [0.3], [3.0], [50.0]]), 0.0, 0.7])
def test_in_place_kernel_is_bitwise_the_plain_expressions(delta, rabi):
    # bit for bit, signed zeros included, on every row without a zero factor; a zero drive
    # or detuning may flip the sign of a zero part, so those rows compare by value
    for tau0, span, n in ((0.0, math.pi / 2, 64), (0.0, TWO_PI, 256), (1.0, 3.0, 6)):
        steps = _steps(delta, rabi, tau0, span / n, n)
        plain = _plain_steps(delta, rabi, tau0, span / n, n)
        nonzero = np.full(steps.shape[:-1], delta != 0.0) & (np.asarray(rabi) != 0.0)
        assert np.array_equal(steps, plain)
        assert np.array_equal(_bits(steps[nonzero]), _bits(plain[nonzero]))
        assert nonzero.any() == (delta != 0.0 and np.any(rabi))
        later, earlier = steps[..., 1::2, :], steps[..., ::2, :]
        a2, b2, a1, b1 = later[..., 0], later[..., 1], earlier[..., 0], earlier[..., 1]
        plain = np.stack((a2 * a1 - b2 * b1.conj(), a2 * b1 + b2 * a1.conj()), axis=-1)
        assert np.array_equal(_bits(_compose(later, earlier)), _bits(plain))


@pytest.mark.parametrize("steps, batch_bytes", [(4096, 1 << 18), (4096, 1 << 12), (128, 1 << 18)])
def test_batched_grid_is_bitwise_the_one_drive_grid(monkeypatch, steps, batch_bytes):
    # five drive strengths in one pass, built one time block at a time, against
    # each one's own propagate_grid; at 1 << 12 bytes a block is a single grid
    # interval of a group of drive strengths, at most 2 per group in the fine
    # run and 4 in the half-step run; 128 steps per period refuse zeta = 40 and 100
    config = PropagationConfig(steps_per_period=steps)
    zetas = [0.0, 0.6, 2.404825557695773, 40.0, 100.0]
    alone = []
    for zeta in zetas:
        try:
            alone.append(propagate_grid(SystemParams.from_zeta(0.02, zeta), config, 64))
        except AccuracyError as exc:
            alone.append(str(exc))
    monkeypatch.setattr(driventls.propagator, "_BATCH_BYTES", batch_bytes)
    grids, estimates, refusals = grid_propagators(0.02, np.array(zetas) / 2.0, config, 64)
    for single, grid, estimate, refusal in zip(alone, grids, estimates, refusals):
        if isinstance(single, str):
            assert str(refusal) == single
        else:
            assert refusal is None and estimate == single[1]
            assert np.array_equal(_bits(grid), _bits(single[0]))
    assert sum(refusal is not None for refusal in refusals) == (2 if steps == 128 else 0)


def test_scan_accuracy_error_names_first_failing_point():
    # the batch returns each drive strength's refusal; the scan raises the first
    config = PropagationConfig(steps_per_period=64)
    _, _, refusals = half_period_propagators(0.02, [0.5, 20.0, 50.0], config)
    assert refusals[0] is None
    assert " at zeta = 40 with 32 steps over a span of 3.14159;" in str(refusals[1])
    assert " at zeta = 100 with 32 steps over a span of 3.14159;" in str(refusals[2])
    with pytest.raises(AccuracyError, match=r"at zeta = 40 with 32 steps over a span of 3\.14159;"):
        exact_quasienergy_scan(0.02, [1.0, 40.0, 100.0], config)


def test_scan_raises_a_refusal_before_a_zone_boundary_error():
    # delta = 1 without drive sits on the zone boundary; zeta = 1e300 overflows the step
    # factors, so its grid is NaN and refused, and never reaches the symmetry split
    # and the overflow is silent: no RuntimeWarning reaches the caller
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, estimates, refusals = half_period_propagators(1.0, [0.0, 0.5e300])
        assert refusals[0] is None and np.isnan(estimates[1])
        with pytest.raises(AccuracyError, match=r"estimate nan exceeds 1e-07 at zeta = 1.0000000000000001e\+300"):
            exact_quasienergy_scan(1.0, [0.0, 1e300])
    with pytest.raises(ClassificationError, match="zone boundary"):
        exact_quasienergy_scan(1.0, [0.6, 0.0])


def test_accuracy_gate_trips_on_coarse_grid():
    cfg = PropagationConfig(steps_per_period=64)
    with pytest.raises(AccuracyError):
        propagate(_params(0.1, 40.0), 0.0, TWO_PI, cfg)


def test_accuracy_gate_checks_interior_grid_points():
    # at delta = 0 the one-period product is exact at any step count, so
    # only the interior grid points show the 64-step error
    cfg = PropagationConfig(steps_per_period=64)
    with pytest.raises(AccuracyError):
        propagate_grid(_params(0.0, 40.0), cfg, n_grid=64)


def test_accuracy_gate_passes_weak_drive_on_coarse_grid():
    cfg = PropagationConfig(steps_per_period=64)
    grid, estimate = propagate_grid(_params(0.5, 0.5), cfg, n_grid=64)
    assert grid.shape == (65, 2, 2)
    assert estimate <= 1e-7


def test_propagate_grid_shape_and_anchor():
    p = _params(0.1, math.pi)
    grid, _ = propagate_grid(p, n_grid=128)
    assert grid.shape == (129, 2, 2)
    assert np.array_equal(grid[0], np.eye(2, dtype=complex))
    # closure: last entry is the one-period propagator
    u = one_period_propagator(p)
    assert np.max(np.abs(grid[128] - u)) <= 1e-13


def test_propagate_grid_interior_point():
    p = _params(0.1, math.pi)
    grid, _ = propagate_grid(p, n_grid=8)
    u_half = propagate(p, 0.0, math.pi)
    assert np.max(np.abs(grid[4] - u_half)) <= 1e-13


@pytest.mark.parametrize("delta, zeta", [(0.02, 0.6), (0.5, 3.1), (0.1, 40.0)])
def test_grid_points_past_half_period_match_propagate(delta, zeta):
    # the grid route propagates [0, pi] and fills each later point by the shift symmetry
    p = _params(delta, zeta)
    grid, _ = propagate_grid(p, n_grid=64)
    for k in range(33, 65):
        assert np.max(np.abs(grid[k] - propagate(p, 0.0, TWO_PI * k / 64))) <= 1e-13, k


def test_propagate_grid_validation():
    p = _params(0.1, 1.0)
    with pytest.raises(DomainError):
        propagate_grid(p, n_grid=0)
    with pytest.raises(DomainError):
        propagate_grid(p, n_grid=128.0)
    # tau = pi must be a grid point
    with pytest.raises(DomainError, match="n_grid must be an even positive integer, got 65"):
        propagate_grid(p, n_grid=65)
    with pytest.raises(DomainError, match="n_grid"):
        grid_propagators(0.1, [0.5], n_grid=1)


def test_bad_span():
    with pytest.raises(DomainError):
        propagate(_params(0.1, 1.0), 1.0, 0.0)
    with pytest.raises(DomainError):
        propagate(_params(0.1, 1.0), 0.0, math.inf)


def test_diagnostics_keys_and_strong_drive():
    grid, estimate = propagate_grid(_params(0.1, 40.0))
    assert 0.0 < estimate <= 1e-10
    assert unitarity_defect(grid[-1]) <= 1e-12


def test_diagnostics_moderate_drive():
    _, estimate = propagate_grid(_params(0.02, math.pi))
    assert estimate <= 1e-12
