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
from .core import DomainError, SystemParams, _unwrap, tau_grid
from .floquet import FloquetMode, QuasienergyPair, _phase_factor, fold_quasienergy


def _as_tau_array(tau) -> np.ndarray:
    t = np.asarray(tau, dtype=float)
    if not np.all(np.isfinite(t)):
        raise DomainError("tau must be finite")
    return t


def phi(params: SystemParams, tau):
    """Oscillating rotation angle (zeta/2)*sin(tau) of the drive frame."""
    t = _as_tau_array(tau)
    return _unwrap(params.rabi * np.sin(t))


def _coefficient_row(zeta: float) -> np.ndarray:
    return bessel_row(series_cutoff(zeta), zeta)


def _xi_s_from_row(row: np.ndarray, t: np.ndarray) -> np.ndarray:
    ns = np.arange(2, row.size, 2)
    return np.sin(np.multiply.outer(t, ns)) @ (row[ns] / ns)


def _xi_a_from_row(row: np.ndarray, t: np.ndarray) -> np.ndarray:
    ns = np.arange(1, row.size, 2)
    return np.cos(np.multiply.outer(t, ns)) @ (row[ns] / ns)


def _grid_series(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """xi_s and xi_a at tau_grid(n) for each Bessel row, shape (m, n) each, from one inverse FFT
    over the stack: xi_a + i xi_s = sum c_k e^{i k tau}, c_{+-k} = J_k / 2k for odd k and
    +-J_k / 2k for even k, each read at k mod n.  Sampled harmonics alias, so a row past n / 2
    folds onto the grid and still equals the direct sum."""
    coefficients = np.zeros((len(rows), n))
    for c, row in zip(coefficients, rows):
        ns = np.arange(1, row.size)
        half = row[1:] / ns / 2.0
        c[:] = np.bincount(ns % n, half, n) + np.bincount(-ns % n, np.where(ns % 2, half, -half), n)
    # numpy.fft loads on first use, so importing the package does not pay for it
    z = np.fft.ifft(coefficients, norm="forward")
    return z.imag, z.real


def xi_s(params: SystemParams, tau):
    """Even-harmonic series sum_{n>=1} J_2n(zeta) sin(2n tau)/(2n).

    Antiderivative of (cos(zeta sin tau) - J_0(zeta))/2; symmetric under a
    half-period shift.
    """
    t = _as_tau_array(tau)
    return _unwrap(_xi_s_from_row(_coefficient_row(params.zeta), t))


def xi_a(params: SystemParams, tau):
    """Odd-harmonic series sum_{n>=0} J_{2n+1}(zeta) cos((2n+1) tau)/(2n+1).

    Antiderivative of -sin(zeta sin tau)/2 up to the constant xi_a(0);
    antisymmetric under a half-period shift.
    """
    t = _as_tau_array(tau)
    return _unwrap(_xi_a_from_row(_coefficient_row(params.zeta), t))


def _eta_from_row(delta: float, row: np.ndarray, j0: float, t: np.ndarray) -> np.ndarray:
    xa0 = _xi_a_from_row(row, np.asarray(0.0))
    return 1j * (xa0 - np.exp(-1j * delta * j0 * t) * _xi_a_from_row(row, t))


def eta(params: SystemParams, tau):
    """Complex phase function i*(xi_a(0) - exp(-i delta J_0 tau) xi_a(tau))."""
    t = _as_tau_array(tau)
    row = _coefficient_row(params.zeta)
    return _unwrap(_eta_from_row(params.delta, row, bessel_j(0, params.zeta), t))


def _quasienergies(delta: float, j0s) -> np.ndarray:
    """-(delta/2) J_0(zeta) and +(delta/2) J_0(zeta), folded, for each J_0(zeta) in j0s, (m, 2)."""
    halves = 0.5 * delta * np.array(j0s, dtype=float).reshape(-1, 1)
    return fold_quasienergy(np.hstack((-halves, halves)))


def analytic_quasienergies(params: SystemParams) -> QuasienergyPair:
    """First-order quasienergies -(delta/2) J_0(zeta) and +(delta/2) J_0(zeta).

    Mode 1 is the one connected to the ground state at zero drive.  Both
    values are folded into (-1/2, 1/2].
    """
    return QuasienergyPair(*_quasienergies(params.delta, [bessel_j(0, params.zeta)])[0])


def _raw_states(delta: float, rabis: np.ndarray, t: np.ndarray, xs: np.ndarray, xa: np.ndarray) -> np.ndarray:
    """Unnormalised first-order spinors of both modes, shape (m, 2, t.size, 2), at the Rabi
    amplitudes rabis (m, 1) and the phases t, where the series are xs = xi_s and xa = xi_a."""
    ph = rabis * np.sin(t)
    c, s = np.cos(ph), np.sin(ph)
    u = xs * c - xa * s
    v = xs * s + xa * c
    du, dv = 1j * delta * u, 1j * delta * v
    out = np.empty(ph.shape[:1] + (2,) + ph.shape[1:] + (2,), dtype=complex)
    out[:, 0, :, 0], out[:, 0, :, 1] = c + du, 1j * (s + dv)
    out[:, 1, :, 0], out[:, 1, :, 1] = 1j * (s - dv), c - du
    return out


def _states(delta: float, zetas, t: np.ndarray, on_grid: bool = False, rows=None) -> np.ndarray:
    """Both first-order modes at the phases t (1-D) for every zeta, shape (m, 2, t.size, 2) with
    [k, i - 1] mode i at zetas[k], unit norm and phase-anchored at tau = 0.  Each zeta reads one
    Bessel row, for its series and its anchor, or takes its _coefficient_row from rows.

    on_grid means t = tau_grid(t.size) with t.size even: the series of every zeta come from one
    inverse FFT, and only the first half of the grid is evaluated.  phi and xi_a change sign
    under tau -> tau + pi and xi_s does not, so the second half is P = diag(1, -1) times the
    first for mode 1 and -P times it for mode 2."""
    rows = [_coefficient_row(zeta) for zeta in zetas] if rows is None else rows
    zero = np.zeros(1)

    def direct(at):
        return [np.reshape([f(row, at) for row in rows], (-1, at.size)) for f in (_xi_s_from_row, _xi_a_from_row)]

    rabis = np.reshape(zetas, (-1, 1)) / 2.0
    if on_grid:
        half = t.size // 2
        states = _raw_states(delta, rabis, t[:half], *(s[:, :half] for s in _grid_series(rows, t.size)))
    else:
        states = _raw_states(delta, rabis, t, *direct(t))
    states = states / np.linalg.norm(states, axis=-1, keepdims=True)
    states = states * _phase_factor(_raw_states(delta, rabis, zero, *direct(zero)))
    if on_grid:
        shifted = states.copy()
        np.negative(shifted[:, 0, :, 1], out=shifted[:, 0, :, 1])
        np.negative(shifted[:, 1, :, 0], out=shifted[:, 1, :, 0])
        states = np.concatenate((states, shifted), axis=-2)
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
    out = _states(params.delta, [params.zeta], t.reshape(-1))[0, label - 1]
    return out.reshape(t.shape + (2,))


def _su2_exponential(az: float, ap: complex) -> np.ndarray:
    """exp(i*M) in closed form for M = [[-az, ap], [conj(ap), az]].

    M is Hermitian and traceless with eigenvalues +-r, r = sqrt(az**2 + |ap|**2),
    so the exponential is cos(r)*I + i*sin(r)/r * M, exact and branch-free.
    """
    r = math.sqrt(az * az + abs(ap) ** 2)
    c = math.cos(r)
    s = math.sin(r) / r if r > 0 else 1.0
    return np.array(
        [[c - 1j * s * az, 1j * s * ap], [1j * s * np.conj(ap), c + 1j * s * az]],
        dtype=complex,
    )


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
    row = _coefficient_row(params.zeta)
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
    correction = _su2_exponential(-d * xs, d * _eta_from_row(d, row, j0, ta).item())
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
    eps = _quasienergies(params.delta, [bessel_j(0, params.zeta)])[0]
    states = _states(params.delta, [params.zeta], tau_grid(n_grid), on_grid=True)[0]
    return FloquetMode(1, eps[0], states[0]), FloquetMode(2, eps[1], states[1])
