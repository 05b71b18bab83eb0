"""Exact numerical propagator for the driven two-level system.

Solves i dU/dtau = H(tau) U on a fixed step grid, with no perturbative input
whatsoever; every closed-form result in the package is validated against
this module.  Each step is the closed-form SU(2) exponential of the
fourth-order Magnus generator sampled at the two Gauss-Legendre nodes of the
step (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)), so every
factor is exactly unitary and all steps of a call are built in one array
expression.  Every call also runs the same span with half as many steps; the
difference at the returned points, divided by 2**4 - 1, estimates their
error and must stay below a fixed bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import AccuracyError, DomainError, SystemParams, _frozen

TWO_PI = 2.0 * math.pi

# largest step-halving error estimate a returned propagator may carry
_ERROR_BOUND = 1e-7

# bytes of steps held at once: per batch of drive strengths in half_period_propagators
# (8 at the default step count), per time block in the full-period route; in sweeps
# 1 << 17 and 1 << 19 ran slower, and 1 << 19 peaked higher in memory
_BATCH_BYTES = 1 << 18

# distance of the two Gauss-Legendre nodes from the step midpoint, in steps
_NODE = math.sqrt(3.0) / 6.0


@dataclass(frozen=True)
class PropagationConfig:
    """Integrator settings.

    steps_per_period must be a power of two >= 64 so that grid points fall
    on step boundaries and the half-step run nests in the full one.
    """

    steps_per_period: int = 4096

    def __post_init__(self) -> None:
        n = self.steps_per_period
        if not isinstance(n, (int, np.integer)) or n < 64 or (n & (n - 1)) != 0:
            raise DomainError(
                f"steps_per_period must be a power of two >= 64, got {n!r}"
            )


DEFAULT_CONFIG = PropagationConfig()

# An SU(2) matrix [[a, b], [-conj(b), conj(a)]] is stored as the pair (a, b)
# along a trailing axis of length 2.


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """later @ earlier for stacks of SU(2) pairs of one shape."""
    a2, b2 = later[..., 0], later[..., 1]
    a1, b1 = earlier[..., 0], earlier[..., 1]
    out = np.empty(later.shape, dtype=complex)
    # [a2 a1 - b2 conj(b1), a2 b1 + b2 conj(a1)].  Each product goes to a contiguous array
    # apart from its operands, which stay in this order: numpy picks its complex-product
    # loop, and so the last bit, by operand order, layout and overlap
    conj = np.conjugate(b1)
    right = b2 * conj
    left = a2 * a1
    np.subtract(left, right, out=out[..., 0])
    np.conjugate(a1, out=conj)
    np.multiply(b2, conj, out=right)
    np.multiply(a2, b1, out=left)
    np.add(left, right, out=out[..., 1])
    return out


@functools.lru_cache(maxsize=4)
def _nodes(tau0: float, h: float, n: int) -> np.ndarray:
    """cos tau at the first and the second Gauss-Legendre node of the n steps of width h from
    tau0, read-only: every batch and every call with these steps reads the same two rows."""
    mid = tau0 + h * (np.arange(n) + 0.5)
    return _frozen(np.cos(mid + np.array([[-_NODE], [_NODE]]) * h), float)


def _steps(delta: float, rabi, tau0: float, h: float, n: int, block=slice(None)) -> np.ndarray:
    """The n Magnus steps of width h from tau0, or the slice block of them, as SU(2) pairs;
    (m, 1) rabi gives m rows."""
    c1, c2 = _nodes(tau0, h, n)[:, block]
    # exp(-i (gz sigma_z + gx sigma_x + gy sigma_y)): gz and gx average H over
    # the step, gy is the commutator of H at the two nodes
    gz = 0.5 * delta * h
    gx = -0.5 * rabi * h * (c1 + c2)
    gy = _NODE * h * gz * rabi * (c1 - c2)
    r = gx * gx
    r += gz * gz
    r += gy * gy
    np.sqrt(r, out=r)
    # s = np.sinc(r / pi) with fewer temporaries: sin(x) / x for x = pi * (r / pi),
    # a zero x replaced by the float epsilon
    x = r / math.pi
    x *= math.pi
    if not x.all():
        x[x == 0.0] = np.finfo(float).eps
    s = np.divide(np.sin(x), x, out=x)
    # the pair (cos r + i s gz, -s gy - i s gx), written through its float view; where a factor
    # is zero (zeta = 0, delta = 0) a zero part may differ in sign from the complex expression,
    # and no printed result depends on that sign
    out = np.empty(r.shape + (2,), dtype=complex)
    parts = out.view(float)
    np.multiply(s, gz, out=parts[..., 1])
    np.negative(s, out=s)
    np.multiply(s, gy, out=parts[..., 2])
    np.multiply(s, gx, out=parts[..., 3])
    parts[..., 0] = np.cos(r, out=gx)  # gx is spent; its buffer takes cos r
    return out


def _product(u: np.ndarray) -> np.ndarray:
    """Ordered product over axis -2, later factors to the left, by pairwise tree."""
    while u.shape[-2] > 1:
        even = u.shape[-2] // 2 * 2
        pairs = _compose(u[..., 1:even:2, :], u[..., 0:even:2, :])
        u = pairs if even == u.shape[-2] else np.concatenate((pairs, u[..., even:, :]), axis=-2)
    return u[..., 0, :]


def _prefix(blocks: np.ndarray) -> np.ndarray:
    """Running products B_k ... B_1 for k = 1..n over axis -2, by doubling scan."""
    shift = 1
    while shift < blocks.shape[-2]:
        later = _compose(blocks[..., shift:, :], blocks[..., :-shift, :])
        blocks = np.concatenate((blocks[..., :shift, :], later), axis=-2)
        shift *= 2
    return blocks


def _evolve(delta: float, rabis, tau0: float, span: float, n_steps: int, n_out: int) -> np.ndarray:
    """U(tau0 + span*k/n_out, tau0), k = 0..n_out, as SU(2) pairs of shape (m, n_out + 1, 2)
    for m rabis; n_out | n_steps.  The steps of all rabis are built and multiplied one time
    block of whole output intervals at a time: _BATCH_BYTES of steps, or one interval."""
    sub = n_steps // n_out
    per = sub * max(1, _BATCH_BYTES // (32 * sub * rabis.size))
    blocks = []
    for first in range(0, n_steps, per):
        steps = _steps(delta, rabis[:, None], tau0, span / n_steps, n_steps, slice(first, first + per))
        blocks.append(_product(steps.reshape(rabis.size, steps.shape[-2] // sub, sub, 2)))
    start = np.broadcast_to(np.array([1.0, 0.0], dtype=complex), (rabis.size, 1, 2))
    return np.concatenate((start, _prefix(np.concatenate(blocks, axis=-2))), axis=-2)


def _checked(delta: float, rabis, tau0: float, span: float, n_steps: int, n_out: int):
    """_evolve with n_steps (even) at every Rabi amplitude, with the step-halving error
    estimate of each and its AccuracyError, or None; nothing is raised.

    The estimate is the largest difference to the half-step run over every
    returned point that run also reaches: all of them when each output
    interval holds an even step count, every second one otherwise.
    """
    stride = 1 if (n_steps // n_out) % 2 == 0 else 2
    rabis = np.asarray(rabis, dtype=float).reshape(-1)
    # from zeta ~ 1e157 the step factors overflow to NaN, which the estimate refuses
    with np.errstate(over="ignore", invalid="ignore"):
        fine = _evolve(delta, rabis, tau0, span, n_steps, n_out)
        coarse = _evolve(delta, rabis, tau0, span, n_steps // 2, n_out // stride)
        estimates = np.max(np.abs(fine[:, ::stride] - coarse), axis=(1, 2)) / 15.0
    refusals = [
        _refusal(estimate, f"at zeta = {2.0 * rabi:.17g} with {n_steps} steps over a span of {span:.6g}")
        for rabi, estimate in zip(rabis.tolist(), estimates.tolist())
    ]
    return fine, estimates, refusals


def _refusal(estimate: float, where: str) -> AccuracyError | None:
    if estimate <= _ERROR_BOUND:
        return None
    return AccuracyError(
        f"step-halving error estimate {estimate:.3e} exceeds {_ERROR_BOUND:.0e} "
        f"{where}; increase steps_per_period"
    )


def _matrices(u: np.ndarray) -> np.ndarray:
    a, b = u[..., 0], u[..., 1]
    return np.stack((np.stack((a, b), -1), np.stack((-b.conj(), a.conj()), -1)), -2)


def propagate(
    params: SystemParams,
    tau_start: float,
    tau_end: float,
    config: PropagationConfig | None = None,
) -> np.ndarray:
    """Propagator U(tau_end, tau_start) of i dU/dtau = H(tau) U.

    Arguments:
        params: system parameters.
        tau_start: initial phase.
        tau_end: final phase, >= tau_start.
        config: integrator settings; defaults to 4096 steps/period.

    Returns:
        2x2 complex unitary array.

    Raises:
        AccuracyError: the step-halving error estimate exceeds 1e-7.
    """
    config = config or DEFAULT_CONFIG
    if not (math.isfinite(tau_start) and math.isfinite(tau_end)):
        raise DomainError("tau_start and tau_end must be finite")
    span = tau_end - tau_start
    if span < 0:
        raise DomainError(f"tau_end must be >= tau_start, got span {span}")
    if span == 0:
        return np.eye(2, dtype=complex)
    n_steps = 2 * max(1, round(span / TWO_PI * config.steps_per_period / 2))
    (u,), _, (refusal,) = _checked(params.delta, [params.rabi], tau_start, span, n_steps, 1)
    if refusal is not None:
        raise refusal
    return _matrices(u[-1])


def one_period_propagator(
    params: SystemParams, config: PropagationConfig | None = None
) -> np.ndarray:
    """Monodromy operator U(T, 0) over one full drive period T = 2*pi."""
    return propagate(params, 0.0, TWO_PI, config)


def propagate_grid(
    params: SystemParams, config: PropagationConfig | None = None, n_grid: int = 512
) -> tuple[np.ndarray, float]:
    """U(tau_k, 0) on the uniform grid tau_k = 2*pi*k/n_grid, k = 0..n_grid.

    Returns the (n_grid + 1, 2, 2) array of propagators and its step-halving
    error estimate, which covers every grid point.  The last entry is the
    monodromy operator; the middle entry (even n_grid) is the half-period
    propagator used for symmetry resolution.  grid_propagators of one drive.
    """
    grids, estimates, (refusal,) = grid_propagators(params.delta, [params.rabi], config, n_grid)
    if refusal is not None:
        raise refusal
    return grids[0], float(estimates[0])


def grid_propagators(
    delta: float, rabis, config: PropagationConfig | None = None, n_grid: int = 512
) -> tuple[np.ndarray, np.ndarray, list[AccuracyError | None]]:
    """propagate_grid at every Rabi amplitude in rabis, in one pass: the (m, n_grid + 1, 2, 2)
    grids, their (m,) estimates, and per grid the AccuracyError propagate_grid raises, or None."""
    config = config or DEFAULT_CONFIG
    if not isinstance(n_grid, (int, np.integer)) or n_grid < 1:
        raise DomainError(f"n_grid must be a positive integer, got {n_grid!r}")
    sub = max(1, config.steps_per_period // n_grid)
    # the half-step run needs an even step count
    sub += (sub * n_grid) % 2
    u, estimates, refusals = _checked(delta, rabis, 0.0, TWO_PI, sub * n_grid, n_grid)
    return _matrices(u), estimates, refusals


def half_period_propagators(
    delta: float, rabis, config: PropagationConfig | None = None
) -> tuple[np.ndarray, np.ndarray, list[AccuracyError | None]]:
    """U(pi, 0) at every Rabi amplitude in rabis, shape (m, 2, 2), the step-halving error
    estimate of each, shape (m,), and per amplitude the AccuracyError of an estimate over
    1e-7, naming its zeta = 2*rabi, or None; nothing is raised.

    Only [0, pi/2] is propagated, with steps_per_period // 4 steps: the drive is odd about
    pi/2, so H(pi - tau) = P H(tau) P with P = diag(1, -1), and U(pi, 0) = P U(pi/2, 0)^T P
    U(pi/2, 0).  Both runs are reflected before they are compared, so the estimate is the
    one propagate(params, 0, pi) checks.
    """
    config = config or DEFAULT_CONFIG
    rabis = np.asarray(rabis, dtype=float).reshape(-1)
    n = config.steps_per_period // 4
    h = 0.5 * math.pi / n
    batch = max(1, _BATCH_BYTES // (32 * n))
    halves, estimates = [], []
    # as in _checked, an overflow to NaN is refused by its estimate
    with np.errstate(over="ignore", invalid="ignore"):
        for chunk in np.split(rabis, range(batch, rabis.size, batch)):
            # the fine run's first tree level leaves as many factors as the half-step run
            # has steps, so the rest of both trees is one product over stacked rows
            fine = _steps(delta, chunk[:, None], 0.0, h, n)
            fine = _compose(fine[:, 1::2], fine[:, ::2])
            u = _product(np.concatenate((fine, _steps(delta, chunk[:, None], 0.0, 2.0 * h, n // 2))))
            # P U^T P is the pair (a, conj(b))
            runs = np.split(_compose(np.stack((u[..., 0], u[..., 1].conj()), axis=-1), u), 2)
            halves.append(runs[0])
            estimates.append(np.max(np.abs(runs[0] - runs[1]), axis=-1) / 15.0)
    estimates = np.concatenate(estimates)
    refusals = [
        _refusal(estimate, f"at zeta = {2.0 * rabi:.17g} with {4 * n} steps per period")
        for rabi, estimate in zip(rabis.tolist(), estimates.tolist())
    ]
    return _matrices(np.concatenate(halves)), estimates, refusals
