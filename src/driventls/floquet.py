"""Floquet analysis of the numerically exact propagator.

The drive Hamiltonian satisfies an exact generalized-parity symmetry:
conjugating by P = diag(1, -1) and shifting the phase by half a period
leaves it invariant, so the monodromy operator is the square of the
symmetry operator P U(pi, 0).  Quasienergies, tau = 0 mode vectors and
parity labels all come from one eigensolve of that operator.  Every Floquet
mode is symmetric or antisymmetric, and the symmetric one is labeled
mode 1.  This labeling never becomes ambiguous at crossings, unlike any
labeling based on quasienergy ordering or on which bare state dominates.
The closed-form modes follow the same convention, so exact and analytic
modes pair by label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ClassificationError, DomainError, _frozen, _unwrap, tau_grid
from .propagator import DEFAULT_CONFIG, PropagationConfig, grid_propagators, half_period_propagators, propagate_grid

# generalized-parity matrix: swaps nothing, flips the excited amplitude
PARITY = _frozen([[1, 0], [0, -1]])

# symmetry-operator splittings below this put both modes on the zone boundary
_BOUNDARY_GAP = 1e-7


def fold_quasienergy(value):
    """Fold quasienergies into the first zone (-1/2, 1/2], units of omega_L, elementwise: a
    scalar gives a float, an array an array."""
    v = np.asarray(value, dtype=float)
    finite = np.isfinite(v)
    if not finite.all():
        raise DomainError(f"quasienergy must be finite, got {v[~finite].tolist()[0]!r}")
    r = v - np.floor(v)
    # a value already in the zone is returned unchanged, which keeps folding
    # exactly idempotent and sign-symmetric
    return _unwrap(np.where((-0.5 < v) & (v <= 0.5), v, np.where(r > 0.5, r - 1.0, r)))


def quasienergy_distance(a, b):
    """Distance between quasienergies on the circle of circumference 1, elementwise."""
    return abs(fold_quasienergy(np.subtract(a, b)))


@dataclass(frozen=True)
class QuasienergyPair:
    """Quasienergies of the two Floquet modes, folded to (-1/2, 1/2]."""

    eps1: float
    eps2: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps1", float(self.eps1))
        object.__setattr__(self, "eps2", float(self.eps2))


@dataclass(frozen=True, eq=False)
class FloquetMode:
    """One Floquet mode sampled over a drive period.

    samples[k] is the periodic part at tau = 2*pi*k/n, k = 0..n-1, unit norm
    at every sample.  The label carries the generalized parity: both solvers
    build mode 1 symmetric and mode 2 antisymmetric, so modes from the two
    are paired by label.
    """

    label: int
    quasienergy: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 2:
            raise DomainError(f"samples must have shape (n, 2), got {samples.shape}")
        object.__setattr__(self, "samples", _frozen(samples))

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def _phase_factor(v: np.ndarray) -> np.ndarray:
    # the (..., 1) unit factors that make the largest component of each vector real positive,
    # ties broken toward the first: the phase convention of the exact and the analytic modes
    mag = np.abs(v)
    big = np.take_along_axis(v, (mag[..., :1] < mag[..., 1:]).astype(np.intp), -1)
    return big.conj() / np.abs(big)


def _split(halves: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """Quasienergies and tau = 0 vectors of both modes from each U(pi, 0) of a stack.

    Q = P U(pi, 0) squares to the monodromy operator, so its eigenvectors are
    the modes at tau = 0.  Q is unitary with det Q = -1, so its eigenvalues
    are q and -conj(q), and its Hermitian part has the same eigenvectors
    with eigenvalues +-Re q.  The positive one is the symmetric mode 1,
    with P u(pi) = u(0); mode 2 has P u(pi) = -u(0).  Either way
    (v^dagger Q v)^2 = exp(-2 pi i eps), and eps = -arg(v^dagger Q v)/pi
    folded into the first zone.  The two eigenvalues stay apart through
    every crossing and meet only on the zone boundary eps = 1/2, where
    neither mode has a definite parity.

    Returns the folded (m, 2) quasienergies, per matrix the ClassificationError
    of both modes on the zone boundary, or None, and the (m, 2, 2) vectors:
    [k, i - 1] is the vector of mode i from halves[k].
    """
    q = PARITY @ halves
    values, vectors = np.linalg.eigh(0.5 * (q + np.conj(q).swapaxes(-1, -2)))
    # eigh sorts ascending: the positive eigenvalue's vector, mode 1, is the last column
    v = vectors[..., ::-1].swapaxes(-1, -2)
    overlap = np.conj(v)[..., None, :] @ q[:, None] @ v[..., None]
    eps = fold_quasienergy(-np.angle(overlap[..., 0, 0]) / math.pi)
    errors = [
        ClassificationError(
            "both modes sit on the zone boundary eps = 1/2, where parity does "
            f"not split them (symmetry eigenvalues {low:.3e}, {high:.3e})"
        )
        if high - low < _BOUNDARY_GAP
        else None
        for low, high in values.tolist()
    ]
    return eps, errors, v * _phase_factor(v)


def _raise_first(errors: list) -> None:
    """Raise the first error of a list of errors and Nones, if it holds one."""
    for error in errors:
        if error is not None:
            raise error


@dataclass(frozen=True, eq=False)
class FloquetSolution:
    """Everything one propagation over a period yields at a parameter point.

    modes is (mode1, mode2) with mode 1 symmetric; monodromy is the
    one-period propagator U(2*pi, 0) of the same propagation;
    error_estimate is the step-halving error estimate over every grid point.
    """

    modes: tuple[FloquetMode, FloquetMode]
    monodromy: np.ndarray
    error_estimate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "monodromy", _frozen(self.monodromy))


def _check_grid(n_grid, config: PropagationConfig) -> None:
    power_of_two = isinstance(n_grid, (int, np.integer)) and n_grid > 0 and not n_grid & (n_grid - 1)
    if not (power_of_two and 64 <= n_grid <= config.steps_per_period):
        raise DomainError(
            f"n_grid must be a power of two with 64 <= n_grid <= steps_per_period, got {n_grid!r}"
        )


def _modes(grids: np.ndarray) -> tuple[np.ndarray, list, np.ndarray]:
    """_split of the U(pi, 0) of each propagated grid (m, n + 1, 2, 2), with the samples of both
    modes of every grid, (m, 2, n, 2), from one stacked expression in place of the vectors."""
    m, n = grids.shape[0], grids.shape[1] - 1
    eps, errors, vectors = _split(grids[:, n // 2])
    # mode i at tau_k is e^{i eps_i tau_k} U(tau_k, 0) v_i: one (2n, 2) by 2 product per grid
    # and mode, not one 2x2 product per sample
    phases = np.exp((1j * eps)[..., None] * tau_grid(n))[..., None]
    samples = grids[:, :n].reshape(m, 1, 2 * n, 2) @ vectors[..., None]
    return eps, errors, phases * samples.reshape(m, 2, n, 2)


def build_modes(
    params,
    config: PropagationConfig | None = None,
    n_grid: int = 512,
) -> FloquetSolution:
    """Both Floquet modes of the driven system, sampled over one period.

    Arguments:
        params: system parameters.
        config: integrator settings.
        n_grid: samples per period; a power of two with
            64 <= n_grid <= steps_per_period.

    Returns:
        FloquetSolution from a single propagation of [0, pi], the grid past
        pi filled by the shift symmetry as in propagate_grid.  Mode 1 is the
        symmetric mode; mode samples are unit norm at every grid point and
        satisfy the phase convention at tau = 0.  The error estimate covers
        every grid point, the filled ones included: it compares the filled
        grid with the half-step run filled the same way.
    """
    config = config or DEFAULT_CONFIG
    _check_grid(n_grid, config)
    grid, estimate = propagate_grid(params, config, n_grid)
    eps, errors, (samples,) = _modes(grid[None])
    _raise_first(errors)
    eps1, eps2 = eps[0].tolist()
    modes = FloquetMode(1, eps1, samples[0]), FloquetMode(2, eps2, samples[1])
    return FloquetSolution(modes, grid[-1], estimate)


def _mode_scan(delta: float, zetas, config: PropagationConfig, n_grid: int) -> tuple:
    """build_modes at every drive strength in zetas, from one batched propagation, as stacks: per
    zeta the error build_modes raises for it, or None, and for the zetas without one, in order,
    their (m, 2) quasienergies, (m, 2, n_grid, 2) mode samples and (m, 2, 2) monodromies.  Only
    a bad n_grid or no zeta raises."""
    _check_grid(n_grid, config)
    if not len(zetas):
        raise DomainError("zeta list must be non-empty")
    grids, _, refusals = grid_propagators(delta, np.asarray(zetas, float) / 2.0, config, n_grid)
    grids = grids[[refusal is None for refusal in refusals]]
    eps, classified, samples = _modes(grids)
    solved = [error is None for error in classified]
    # a propagated zeta's error is its ClassificationError, if any
    propagated = iter(classified)
    errors = [refusal or next(propagated) for refusal in refusals]
    return errors, eps[solved], samples[solved], grids[solved, -1]


def exact_quasienergy_scan(delta: float, zetas, config: PropagationConfig | None = None) -> np.ndarray:
    """exact_quasienergies at every drive strength in zetas, as rows (eps1, eps2) of an (m, 2)
    array, from one batched propagation.  The first refusal is raised, else the first
    ClassificationError."""
    halves, _, refusals = half_period_propagators(delta, np.asarray(zetas, dtype=float) / 2.0, config)
    _raise_first(refusals)
    eps, errors, _ = _split(halves)
    _raise_first(errors)
    return eps


def exact_quasienergies(params, config: PropagationConfig | None = None) -> QuasienergyPair:
    """Symmetry-labeled quasienergies from the half-period propagator alone.

    Cheaper than build_modes when the mode functions are not needed; eps1
    belongs to the symmetric mode.
    """
    return QuasienergyPair(*exact_quasienergy_scan(params.delta, [params.zeta], config)[0])
