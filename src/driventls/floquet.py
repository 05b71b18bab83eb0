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

from .core import ClassificationError, DomainError, _frozen, tau_grid
from .propagator import PropagationConfig, grid_propagators, half_period_propagators, propagate_grid

# generalized-parity matrix: swaps nothing, flips the excited amplitude
PARITY = _frozen([[1, 0], [0, -1]])

# symmetry-operator splittings below this put both modes on the zone boundary
_BOUNDARY_GAP = 1e-7


def fold_quasienergy(value: float) -> float:
    """Fold a quasienergy into the first zone (-1/2, 1/2], units of omega_L."""
    if not math.isfinite(value):
        raise DomainError(f"quasienergy must be finite, got {value!r}")
    if -0.5 < value <= 0.5:
        # already in the zone; returning the input unchanged keeps folding
        # exactly idempotent and sign-symmetric
        return value
    r = value - math.floor(value)
    return r - 1.0 if r > 0.5 else r


def quasienergy_distance(a: float, b: float) -> float:
    """Distance between quasienergies on the circle of circumference 1."""
    return abs(fold_quasienergy(a - b))


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


def _split(halves: np.ndarray) -> tuple[list[QuasienergyPair], np.ndarray]:
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

    Returns per matrix its pair, or the ClassificationError of a matrix with
    both modes on the zone boundary, and the (m, 2, 2) vectors: [k, i - 1] is
    the vector of mode i from halves[k].
    """
    q = PARITY @ halves
    values, vectors = np.linalg.eigh(0.5 * (q + np.conj(q).swapaxes(-1, -2)))
    # eigh sorts ascending: the positive eigenvalue's vector, mode 1, is the last column
    v = vectors[..., ::-1].swapaxes(-1, -2)
    overlap = np.conj(v)[..., None, :] @ q[:, None] @ v[..., None]
    eps = -np.angle(overlap[..., 0, 0]) / math.pi
    pairs = [
        ClassificationError(
            "both modes sit on the zone boundary eps = 1/2, where parity does "
            f"not split them (symmetry eigenvalues {low:.3e}, {high:.3e})"
        )
        if high - low < _BOUNDARY_GAP
        else QuasienergyPair(*map(fold_quasienergy, row))
        for row, (low, high) in zip(eps.tolist(), values.tolist())
    ]
    return pairs, v * _phase_factor(v)


def _raise_first(entries: list) -> list:
    """entries, unless one is an error: then the first error is raised."""
    for entry in entries:
        if isinstance(entry, Exception):
            raise entry
    return entries


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


def _modes(grids: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """Per propagated grid (m, n + 1, 2, 2) its QuasienergyPair, or the ClassificationError of its
    U(pi, 0); the (m, 2) quasienergies, 0 for an error; and the samples of both modes of every
    grid, (m, 2, n, 2), from one stacked expression."""
    n = grids.shape[1] - 1
    pairs, vectors = _split(grids[:, n // 2])
    eps = np.reshape([(p.eps1, p.eps2) if isinstance(p, QuasienergyPair) else (0.0, 0.0) for p in pairs], (-1, 2))
    # mode i at tau_k is e^{i eps_i tau_k} U(tau_k, 0) v_i
    phases = np.exp((1j * eps)[..., None] * tau_grid(n))[..., None]
    return pairs, eps, phases * (grids[:, None, :n] @ vectors[:, :, None, :, None])[..., 0]


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
        FloquetSolution from a single propagation.  Mode 1 is the symmetric
        mode; mode samples are unit norm at every grid point and satisfy the
        phase convention at tau = 0.
    """
    config = config or PropagationConfig()
    _check_grid(n_grid, config)
    grid, estimate = propagate_grid(params, config, n_grid)
    pairs, _, (samples,) = _modes(grid[None])
    (pair,) = _raise_first(pairs)
    modes = FloquetMode(1, pair.eps1, samples[0]), FloquetMode(2, pair.eps2, samples[1])
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
    pairs, eps, samples = _modes(grids)
    solved = [isinstance(pair, QuasienergyPair) for pair in pairs]
    # a propagated zeta's error is its ClassificationError, if any
    classified = iter(None if ok else pair for ok, pair in zip(solved, pairs))
    errors = [refusal or next(classified) for refusal in refusals]
    return errors, eps[solved], samples[solved], grids[solved, -1]


def exact_quasienergy_scan(
    delta: float, zetas, config: PropagationConfig | None = None
) -> list[QuasienergyPair]:
    """exact_quasienergies at every drive strength in zetas, from one batched propagation."""
    halves, _ = half_period_propagators(delta, np.asarray(zetas, dtype=float) / 2.0, config)
    return _raise_first(_split(halves)[0])


def exact_quasienergies(params, config: PropagationConfig | None = None) -> QuasienergyPair:
    """Symmetry-labeled quasienergies from the half-period propagator alone.

    Cheaper than build_modes when the mode functions are not needed; eps1
    belongs to the symmetric mode.
    """
    return exact_quasienergy_scan(params.delta, [params.zeta], config)[0]
