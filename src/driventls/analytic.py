"""Closed-form first-order results for the driven two-level system.

The strong-drive treatment rotates away the coupling term exactly and
treats the detuning as the perturbation.  Everything downstream is built
from the oscillating rotation angle phi(tau) = (zeta/2) sin(tau) and from
Fourier series in the Bessel coefficients J_n(zeta): the even-harmonic
antiderivative xi_s, the odd-harmonic antiderivative xi_a, and the phase
function eta assembled from them.  The results are first order in the
detuning delta; errors scale as delta**2.
"""

from __future__ import annotations

import math

import numpy as np

from .bessel import bessel_j, bessel_row, series_cutoff
from .core import DomainError, SystemParams, su2_exponential, tau_grid
from .floquet import FloquetMode, QuasienergyPair, _phase_factor, fold_quasienergy


def _as_tau_array(tau) -> np.ndarray:
    t = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("tau must be finite")
    return t


def _unwrap(out):
    # scalars in, Python scalars out; arrays pass through
    return out.item() if np.ndim(out) == 0 else out


def phi(params: SystemParams, tau):
    """Oscillating rotation angle (zeta/2)*sin(tau) of the drive frame."""
    t = _as_tau_array(tau)
    return _unwrap(params.rabi * np.sin(t))


def _coefficient_row(params: SystemParams) -> np.ndarray:
    zeta = params.zeta
    return bessel_row(series_cutoff(zeta), zeta)


def _xi_s_from_row(row: np.ndarray, t: np.ndarray) -> np.ndarray:
    ns = np.arange(2, row.size, 2)
    return np.sin(np.multiply.outer(t, ns)) @ (row[ns] / ns)


def _xi_a_from_row(row: np.ndarray, t: np.ndarray) -> np.ndarray:
    ns = np.arange(1, row.size, 2)
    return np.cos(np.multiply.outer(t, ns)) @ (row[ns] / ns)


def _grid_series(row: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """xi_s and xi_a at tau_grid(n) from one inverse FFT: xi_a + i xi_s = sum c_k e^{i k tau},
    c_{+-k} = J_k / 2k for odd k and +-J_k / 2k for even k, each read at k mod n.  Sampled
    harmonics alias, so a row past n / 2 folds onto the grid and still equals the direct sum."""
    ns = np.arange(1, row.size)
    half = row[1:] / ns / 2.0
    c = np.bincount(ns % n, half, n) + np.bincount(-ns % n, np.where(ns % 2, half, -half), n)
    # numpy.fft loads on first use, so importing the package does not pay for it
    z = np.fft.ifft(c, norm="forward")
    return z.imag, z.real


def xi_s(params: SystemParams, tau):
    """Even-harmonic series sum_{n>=1} J_2n(zeta) sin(2n tau)/(2n).

    Antiderivative of (cos(zeta sin tau) - J_0(zeta))/2; symmetric under a
    half-period shift.
    """
    t = _as_tau_array(tau)
    return _unwrap(_xi_s_from_row(_coefficient_row(params), t))


def xi_a(params: SystemParams, tau):
    """Odd-harmonic series sum_{n>=0} J_{2n+1}(zeta) cos((2n+1) tau)/(2n+1).

    Antiderivative of -sin(zeta sin tau)/2 up to the constant xi_a(0);
    antisymmetric under a half-period shift.
    """
    t = _as_tau_array(tau)
    return _unwrap(_xi_a_from_row(_coefficient_row(params), t))


def _eta_from_row(delta: float, row: np.ndarray, j0: float, t: np.ndarray) -> np.ndarray:
    xa0 = _xi_a_from_row(row, np.asarray(0.0))
    return 1j * (xa0 - np.exp(-1j * delta * j0 * t) * _xi_a_from_row(row, t))


def eta(params: SystemParams, tau):
    """Complex phase function i*(xi_a(0) - exp(-i delta J_0 tau) xi_a(tau))."""
    t = _as_tau_array(tau)
    row = _coefficient_row(params)
    return _unwrap(_eta_from_row(params.delta, row, bessel_j(0, params.zeta), t))


def analytic_quasienergies(params: SystemParams) -> QuasienergyPair:
    """First-order quasienergies -(delta/2) J_0(zeta) and +(delta/2) J_0(zeta).

    Mode 1 is the one connected to the ground state at zero drive.  Both
    values are folded into (-1/2, 1/2].
    """
    e = 0.5 * params.delta * bessel_j(0, params.zeta)
    return QuasienergyPair(fold_quasienergy(-e), fold_quasienergy(e))


def _raw_states(
    params: SystemParams, row: np.ndarray, t: np.ndarray, series=None
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalised first-order spinors of mode 1 and mode 2 at the phases t; series is
    (xi_s, xi_a) at t, by default their direct sums."""
    ph = params.rabi * np.sin(t)
    xs, xa = series or (_xi_s_from_row(row, t), _xi_a_from_row(row, t))
    c, s = np.cos(ph), np.sin(ph)
    d = params.delta
    u = xs * c - xa * s
    v = xs * s + xa * c
    mode1 = np.stack([c + 1j * d * u, 1j * (s + 1j * d * v)], axis=-1)
    mode2 = np.stack([1j * (s - 1j * d * v), c - 1j * d * u], axis=-1)
    return mode1, mode2


def _states(params: SystemParams, t: np.ndarray, on_grid: bool = False) -> list[np.ndarray]:
    """Both first-order modes at the phases t from one Bessel row, phase-anchored at tau = 0;
    on_grid means t = tau_grid(t.size), where the series come from one inverse FFT."""
    row = _coefficient_row(params)
    raw = _raw_states(params, row, t, _grid_series(row, t.size) if on_grid else None)
    zero = _raw_states(params, row, np.zeros(1))
    states = []
    for out, anchor in zip(raw, zero):
        out = out / np.linalg.norm(out, axis=-1, keepdims=True)
        states.append(out * _phase_factor(anchor[0]))
    return states


def analytic_floquet_state(params: SystemParams, label: int, tau) -> np.ndarray:
    """First-order Floquet mode spinor at phase tau.

    Arguments:
        params: system parameters.
        label: 1 for the symmetric mode (ground-state-like at weak drive),
            2 for the antisymmetric one.
        tau: scalar or array of phases.

    Returns:
        Unit-norm spinor(s), shape (..., 2).  The global phase makes the
        largest component at tau = 0 real positive (ties toward the first
        component), so states are directly comparable to the exact solver.
    """
    if label not in (1, 2):
        raise DomainError(f"mode label must be 1 or 2, got {label!r}")
    t = _as_tau_array(tau)
    out = _states(params, np.atleast_1d(t))[label - 1]
    if np.ndim(tau) == 0:
        return out[0]
    return out


def analytic_evolution(params: SystemParams, tau: float) -> np.ndarray:
    """First-order evolution operator from phase 0 to tau, exactly unitary.

    Product of the drive-frame rotation, the averaged-detuning phase, and
    the closed-form exponential of the first-order correction, all from one
    Bessel coefficient row and one J_0.  Agrees with the exact propagator to
    O(delta**2) in operator norm.
    """
    if np.ndim(tau) != 0:
        raise DomainError("tau must be a scalar")
    t = float(tau)
    if not math.isfinite(t):
        raise DomainError("tau must be finite")
    d = params.delta
    ph = params.rabi * math.sin(t)
    row = _coefficient_row(params)
    j0 = bessel_j(0, params.zeta)
    frame = np.array(
        [[math.cos(ph), 1j * math.sin(ph)], [1j * math.sin(ph), math.cos(ph)]],
        dtype=complex,
    )
    mean_phase = np.array(
        [[np.exp(0.5j * d * j0 * t), 0.0], [0.0, np.exp(-0.5j * d * j0 * t)]],
        dtype=complex,
    )
    ta = np.asarray(t)
    xs = _xi_s_from_row(row, ta).item()
    correction = su2_exponential(-d * xs, d * _eta_from_row(d, row, j0, ta).item())
    return frame @ mean_phase @ correction


def analytic_modes(params: SystemParams, n_grid: int = 512) -> tuple[FloquetMode, FloquetMode]:
    """Both first-order modes sampled on the uniform period grid.

    Arguments:
        params: system parameters.
        n_grid: even sample count >= 64.

    Returns:
        (mode1, mode2), directly comparable label by label to the numeric
        modes from build_modes on the same grid.  Mode 1 is symmetric by
        construction: phi and xi_a change sign under tau -> tau + pi, and
        xi_s does not.
    """
    if not isinstance(n_grid, (int, np.integer)) or n_grid < 64 or n_grid % 2 != 0:
        raise DomainError(f"n_grid must be an even integer >= 64, got {n_grid!r}")
    pair = analytic_quasienergies(params)
    state1, state2 = _states(params, tau_grid(n_grid), on_grid=True)
    return FloquetMode(1, pair.eps1, state1), FloquetMode(2, pair.eps2, state2)
