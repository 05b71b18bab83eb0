"""Floquet analysis of the one-period propagator.

Quasienergies and periodic mode functions are extracted from the numerically
exact monodromy operator.  The drive Hamiltonian satisfies an exact
generalized-parity symmetry: conjugating by diag(1, -1) and shifting the
phase by half a period leaves it invariant.  Every Floquet mode is therefore
either symmetric or antisymmetric under that operation, and the symmetric
one is labeled mode 1.  This labeling never becomes ambiguous at avoided
crossings, unlike any labeling based on quasienergy ordering or on which
bare state dominates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ClassificationError,
    DomainError,
    tau_grid,
    unitarity_defect,
)
from .propagator import PropagationConfig, propagate_grid

TWO_PI = 2.0 * math.pi

# generalized-parity matrix: swaps nothing, flips the excited amplitude
PARITY = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PARITY.setflags(write=False)

# |parity overlap| below this is neither clearly symmetric nor antisymmetric
_PARITY_MARGIN = 0.9

# quasienergy splittings below this are resolved via the symmetry operator
# rather than the (ill-conditioned) eigenvectors of the monodromy operator
_DEGENERACY_GAP = 1e-7


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

    def for_label(self, label: int) -> float:
        if label == 1:
            return self.eps1
        if label == 2:
            return self.eps2
        raise DomainError(f"mode label must be 1 or 2, got {label!r}")


@dataclass(frozen=True, eq=False)
class FloquetMode:
    """One Floquet mode sampled over a drive period.

    samples[k] is the periodic part at tau = 2*pi*k/n, k = 0..n-1, unit norm
    at every sample.  parity is "symmetric" or "antisymmetric" under the
    generalized-parity operation; source is "exact" or "analytic".
    """

    label: int
    quasienergy: float
    samples: np.ndarray
    parity: str
    source: str

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=complex)
        if samples.ndim != 2 or samples.shape[1] != 2 or samples.shape[0] < 2:
            raise DomainError(f"samples must have shape (n, 2), got {samples.shape}")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[0]


def _parity_overlap(samples: np.ndarray) -> complex:
    n = samples.shape[0]
    if n % 2 != 0:
        raise DomainError("parity classification needs an even sample count")
    shifted = np.roll(samples, -n // 2, axis=0)
    shifted = shifted * np.array([1.0, -1.0])
    return complex(np.mean(np.sum(np.conj(shifted) * samples, axis=1)))


def classify_parity(samples: np.ndarray) -> str:
    """Classify periodic samples as symmetric or antisymmetric.

    The overlap of the mode with its parity-conjugated, half-period-shifted
    self is +1 or -1 for a clean mode; values of small magnitude mean the
    sampled function is not a symmetry eigenstate and raise
    ClassificationError.
    """
    s = _parity_overlap(np.asarray(samples, dtype=complex))
    if abs(s) <= _PARITY_MARGIN:
        raise ClassificationError(
            f"parity overlap {s:.3f} has magnitude <= {_PARITY_MARGIN}; "
            "samples are not a symmetry eigenstate"
        )
    return "symmetric" if s.real > 0.0 else "antisymmetric"


def mode_parity_sign(eigvec: np.ndarray, quasienergy: float, half_period: np.ndarray) -> float:
    """Expectation of the symmetry operator in a monodromy eigenvector.

    The operator exp(i*pi*eps) P U(pi, 0) squares to the monodromy operator
    on the eigenspace of quasienergy eps, so this is close to +1 for the
    symmetric mode and -1 for the antisymmetric one.
    """
    op = np.exp(1j * math.pi * quasienergy) * (PARITY @ np.asarray(half_period, dtype=complex))
    return float(np.real(np.conj(eigvec) @ (op @ eigvec)))


def _fix_phase(v: np.ndarray) -> np.ndarray:
    # largest component made real positive; ties broken toward the first
    idx = 0 if abs(v[0]) >= abs(v[1]) else 1
    return v * (v[idx].conjugate() / abs(v[idx]))


def _rayleigh_quasienergy(u: np.ndarray, v: np.ndarray) -> float:
    lam = complex(np.conj(v) @ (u @ v))
    return fold_quasienergy(-np.angle(lam) / TWO_PI)


def extract_floquet(
    u_period: np.ndarray, symmetry_half: np.ndarray | None = None
) -> tuple[QuasienergyPair, np.ndarray, np.ndarray]:
    """Quasienergies and tau = 0 mode vectors from the monodromy operator.

    Arguments:
        u_period: one-period propagator, 2x2 unitary.
        symmetry_half: optional half-period propagator U(pi, 0).  Required
            to split a (near-)degenerate monodromy spectrum by symmetry; if
            omitted there, the bare parity matrix is used, which is exact
            only when the degenerate propagator is proportional to the
            identity.

    Returns:
        (QuasienergyPair, vec1, vec2): orthonormal eigenvectors at tau = 0
        with the phase convention that the largest component is real
        positive.  Mode 1 is the vector with the larger ground-state weight
        |v[0]|^2 (lower quasienergy on a tie).
    """
    u = np.asarray(u_period, dtype=complex)
    if u.shape != (2, 2):
        raise DomainError(f"u_period must be 2x2, got shape {u.shape}")
    defect = unitarity_defect(u)
    if defect > 1e-8:
        raise DomainError(f"u_period is not unitary (defect {defect:.3e})")

    evals, evecs = np.linalg.eig(u)
    eps_a = fold_quasienergy(-np.angle(evals[0]) / TWO_PI)
    eps_b = fold_quasienergy(-np.angle(evals[1]) / TWO_PI)

    if quasienergy_distance(eps_a, eps_b) < _DEGENERACY_GAP:
        # eigenvectors of a near-degenerate unitary are arbitrary mixtures;
        # the symmetry operator splits the doublet exactly
        mean_eps = fold_quasienergy(-np.angle(evals[0] + evals[1]) / TWO_PI)
        half = PARITY if symmetry_half is None else PARITY @ np.asarray(symmetry_half, complex)
        op = np.exp(1j * math.pi * mean_eps) * half
        herm = 0.5 * (op + op.conj().T)
        _, basis = np.linalg.eigh(herm)
        va, vb = basis[:, 1], basis[:, 0]
    else:
        va, vb = evecs[:, 0], evecs[:, 1]

    va = va / np.linalg.norm(va)
    vb = vb - (np.conj(va) @ vb) * va
    vb = vb / np.linalg.norm(vb)
    ea = _rayleigh_quasienergy(u, va)
    eb = _rayleigh_quasienergy(u, vb)
    va, vb = _fix_phase(va), _fix_phase(vb)

    wa, wb = abs(va[0]) ** 2, abs(vb[0]) ** 2
    if abs(wa - wb) <= 1e-12:
        first = ea <= eb
    else:
        first = wa > wb
    if first:
        return QuasienergyPair(ea, eb), va, vb
    return QuasienergyPair(eb, ea), vb, va


def _labelled(
    monodromy: np.ndarray, half: np.ndarray
) -> tuple[QuasienergyPair, np.ndarray, np.ndarray]:
    """extract_floquet with the symmetric mode first, by mode_parity_sign."""
    pair, v1, v2 = extract_floquet(monodromy, symmetry_half=half)
    s1 = mode_parity_sign(v1, pair.eps1, half)
    s2 = mode_parity_sign(v2, pair.eps2, half)
    if s1 * s2 >= 0.0:
        raise ClassificationError(
            f"parity signs {s1:.3f}, {s2:.3f} do not split the modes"
        )
    if s1 > 0.0:
        return pair, v1, v2
    return QuasienergyPair(pair.eps2, pair.eps1), v2, v1


def _mode_samples(grid: np.ndarray, eigvec: np.ndarray, quasienergy: float) -> np.ndarray:
    n = grid.shape[0] - 1
    taus = tau_grid(n)
    phases = np.exp(1j * quasienergy * taus)
    return phases[:, None] * (grid[:n] @ eigvec)


@dataclass(frozen=True, eq=False)
class FloquetSolution:
    """Everything one propagation over a period yields at a parameter point.

    modes is (mode1, mode2) with mode 1 symmetric; monodromy is the
    one-period propagator U(2*pi, 0) the modes were extracted from;
    error_estimate is the step-halving error estimate over every grid point.
    """

    modes: tuple[FloquetMode, FloquetMode]
    monodromy: np.ndarray
    error_estimate: float

    def __post_init__(self) -> None:
        monodromy = np.array(self.monodromy, dtype=complex)
        monodromy.setflags(write=False)
        object.__setattr__(self, "monodromy", monodromy)


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
    if (
        not isinstance(n_grid, (int, np.integer))
        or n_grid < 64
        or (n_grid & (n_grid - 1)) != 0
        or n_grid > config.steps_per_period
    ):
        raise DomainError(
            "n_grid must be a power of two with 64 <= n_grid <= steps_per_period, "
            f"got {n_grid!r}"
        )
    grid, estimate = propagate_grid(params, config, n_grid)
    pair, v1, v2 = _labelled(grid[n_grid], grid[n_grid // 2])
    modes = (
        FloquetMode(1, pair.eps1, _mode_samples(grid, v1, pair.eps1), "symmetric", "exact"),
        FloquetMode(2, pair.eps2, _mode_samples(grid, v2, pair.eps2), "antisymmetric", "exact"),
    )
    return FloquetSolution(modes, grid[n_grid], estimate)


def exact_quasienergies(params, config: PropagationConfig | None = None) -> QuasienergyPair:
    """Symmetry-labeled quasienergies from the monodromy operator alone.

    Cheaper than build_modes when the mode functions are not needed; eps1
    belongs to the symmetric mode.
    """
    grid, _ = propagate_grid(params, config, n_grid=2)
    pair, _, _ = _labelled(grid[2], grid[1])
    return pair


@dataclass(frozen=True)
class ModeMatch:
    """Result of pairing one mode set against another.

    pairs maps labels of the first set to labels of the second; overlaps are
    the squared period-averaged overlaps of the matched pairs;
    min_pointwise_fidelity is the worst instantaneous |<a|b>|^2 over both
    pairs and all sample points.
    """

    pairs: tuple[tuple[int, int], tuple[int, int]]
    overlaps: tuple[float, float]
    min_pointwise_fidelity: float
    quasienergy_gaps: tuple[float, float]
    resolved_by: str
    degenerate: bool


def _averaged_overlap_sq(a: FloquetMode, b: FloquetMode) -> float:
    inner = np.mean(np.sum(np.conj(a.samples) * b.samples, axis=1))
    return float(abs(inner) ** 2)


def match_modes(
    first: tuple[FloquetMode, FloquetMode], second: tuple[FloquetMode, FloquetMode]
) -> ModeMatch:
    """Pair two mode sets by period-averaged overlap.

    When the overlap criterion is ambiguous (the two pairings score within
    1e-3 of each other) the parity tags decide; if those coincide too, the
    sets are flagged degenerate and the higher-scoring overlap pairing is
    kept.
    """
    if first[0].n_samples != second[0].n_samples:
        raise DomainError("mode sets must share the same sample grid")
    o = [[_averaged_overlap_sq(a, b) for b in second] for a in first]
    straight = o[0][0] + o[1][1]
    crossed = o[0][1] + o[1][0]
    degenerate = False
    if abs(straight - crossed) >= 1e-3:
        use_straight = straight > crossed
        resolved_by = "overlap"
    elif first[0].parity != first[1].parity and second[0].parity != second[1].parity:
        use_straight = first[0].parity == second[0].parity
        resolved_by = "parity"
    else:
        use_straight = straight >= crossed
        resolved_by = "overlap"
        degenerate = True

    idx = ((0, 0), (1, 1)) if use_straight else ((0, 1), (1, 0))
    pairs = tuple((first[i].label, second[j].label) for i, j in idx)
    overlaps = tuple(o[i][j] for i, j in idx)
    fid = min(
        float(np.min(np.abs(np.sum(np.conj(first[i].samples) * second[j].samples, axis=1)) ** 2))
        for i, j in idx
    )
    gaps = tuple(
        quasienergy_distance(first[i].quasienergy, second[j].quasienergy) for i, j in idx
    )
    return ModeMatch(pairs, overlaps, fid, gaps, resolved_by, degenerate)
