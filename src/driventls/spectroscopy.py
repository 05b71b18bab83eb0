"""Emission and absorption lines between Floquet modes.

Transitions connect the replica states e^{i k tau} |mode_j> to |mode_i>;
the integer Fourier offset k plays the role of a net photon number.  Line
positions follow from the quasienergies, line strengths from matrix
elements of the dipole operator in the period-averaged inner product.  The
generalized parity of the modes forbids half of all (i, j, k) combinations
exactly: same-mode transitions need odd k, cross-mode transitions even k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import analytic_quasienergies
from .bessel import bessel_j, bessel_row
from .core import SIGMA_X, DomainError, SystemParams, tau_grid
from .floquet import FloquetMode


@dataclass(frozen=True)
class TransitionLine:
    """One spectral line between Floquet-mode manifolds.

    The final state is mode i in the reference manifold, the initial state
    is mode j offset by k drive quanta.  frequency is non-negative in units
    of the drive frequency; direction holds the sign of the underlying
    energy difference (+1 emission-side, -1 absorption-side, 0 degenerate).
    Intensities are in units of dipole**2.
    """

    i: int
    j: int
    k: int
    frequency: float
    intensity_numeric: float
    intensity_analytic: float
    line_class: str
    forbidden: bool
    direction: int


def _check_label(label: int) -> None:
    if label not in (1, 2):
        raise DomainError(f"mode label must be 1 or 2, got {label!r}")


def _check_offset(k) -> None:
    if not isinstance(k, (int, np.integer)):
        raise DomainError(f"Fourier offset k must be an integer, got {k!r}")


def is_forbidden(i: int, j: int, k: int) -> bool:
    """Parity selection rule: allowed iff (i=j, k odd) or (i!=j, k even)."""
    _check_label(i)
    _check_label(j)
    _check_offset(k)
    if i == j:
        return k % 2 == 0
    return k % 2 != 0


def line_class(i: int, j: int, k: int) -> str:
    """Transition family: intra_manifold, hyper_raman, or odd_harmonic.

    Classifies by the (i, j, k) pattern alone; whether the line is actually
    allowed is tracked separately by is_forbidden.
    """
    _check_label(i)
    _check_label(j)
    _check_offset(k)
    if i == j:
        return "odd_harmonic"
    return "intra_manifold" if k == 0 else "hyper_raman"


def line_intensity_analytic(params: SystemParams, i: int, j: int, k: int) -> float:
    """Closed-form first-order line intensity in units of dipole**2.

    Cross-mode k = 0 lines carry the full dipole strength; every other
    allowed line is weaker by (delta * J_|k|(zeta) / k)**2; forbidden
    combinations return exactly 0.
    """
    if is_forbidden(i, j, k):
        return 0.0
    mu2 = params.dipole**2
    if k == 0:
        return mu2
    return mu2 * (params.delta * bessel_j(abs(k), params.zeta) / k) ** 2


def spectrum(
    params: SystemParams,
    modes: tuple[FloquetMode, FloquetMode],
    k_max: int,
    include_forbidden: bool = False,
) -> list[TransitionLine]:
    """All transitions ending in the reference manifold, sorted by frequency.

    Arguments:
        params: system parameters.
        modes: (mode1, mode2) on one sample grid, e.g. build_modes(...).modes.
        k_max: include initial-state offsets |k| <= k_max, with
            1 <= k_max < n_samples/2; a grid of n samples cannot tell k from
            k - n.
        include_forbidden: also emit parity-forbidden lines, whose numeric
            intensity quantifies the symmetry leakage of the modes.

    Returns:
        TransitionLine list.  Frequencies come from the first-order
        quasienergies, so degenerate doublets collapse exactly at the
        level-crossing drive strengths; intensities are computed both from
        the given modes and from the closed-form formulas.
    """
    n = modes[0].n_samples
    if modes[1].n_samples != n:
        raise DomainError("modes must share the same sample grid")
    if not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise DomainError(f"k_max must be an integer >= 1, got {k_max!r}")
    if k_max >= n // 2:
        raise DomainError(f"k_max must be below n_samples/2 = {n // 2}, got {k_max}")
    pair = analytic_quasienergies(params)
    row = bessel_row(k_max, params.zeta)
    ks = np.arange(-k_max, k_max + 1)
    phases = np.exp(1j * np.multiply.outer(tau_grid(n), ks))
    by_label = {m.label: m for m in modes}
    mu2 = params.dipole**2
    intensities = []
    for i in (1, 2):
        for j in (1, 2):
            # <mode_i(tau)| sigma_x |mode_j(tau)> at every sample
            f = np.sum(np.conj(by_label[i].samples) * (by_label[j].samples @ SIGMA_X), axis=1)
            # period average of f(tau) e^{i k tau} for every k at once
            intensities.append(mu2 * np.abs(f @ phases / n) ** 2)
    # one entry per (i, j, k), in the order the intensities were stacked
    i_col = np.repeat([1, 1, 2, 2], ks.size)
    j_col = np.repeat([1, 2, 1, 2], ks.size)
    k_col = np.tile(ks, 4)
    same = i_col == j_col
    forbidden = same == (k_col % 2 == 0)
    eps = np.array([pair.eps1, pair.eps2])
    signed = eps[j_col - 1] - eps[i_col - 1] + k_col
    # k = 0 lines carry mu2; dividing by 1 there keeps the unused branch finite
    scaled = mu2 * (params.delta * row[np.abs(k_col)] / np.where(k_col == 0, 1, k_col)) ** 2
    analytic = np.where(forbidden, 0.0, np.where(k_col == 0, mu2, scaled))
    classes = np.where(same, "odd_harmonic", np.where(k_col == 0, "intra_manifold", "hyper_raman"))
    frequency = np.abs(signed)
    order = np.lexsort((j_col, i_col, k_col, frequency))
    if not include_forbidden:
        order = order[~forbidden[order]]
    columns = (i_col, j_col, k_col, frequency, np.concatenate(intensities), analytic, classes)
    columns += (forbidden, np.sign(signed).astype(int))
    return [TransitionLine(*line) for line in zip(*(c[order].tolist() for c in columns))]
