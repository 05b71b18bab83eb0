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
from .bessel import bessel_row
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

    @property
    def intensity(self) -> float:
        return self.intensity_numeric


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


def _first_order_intensity(
    params: SystemParams, i: int, j: int, k: int, row: np.ndarray
) -> float:
    """line_intensity_analytic with J_|k|(zeta) read from a Bessel row."""
    if is_forbidden(i, j, k):
        return 0.0
    mu2 = params.dipole**2
    if k == 0:
        return mu2
    return mu2 * (params.delta * row[abs(k)] / k) ** 2


def line_intensity_analytic(params: SystemParams, i: int, j: int, k: int) -> float:
    """Closed-form first-order line intensity in units of dipole**2.

    Cross-mode k = 0 lines carry the full dipole strength; every other
    allowed line is weaker by (delta * J_|k|(zeta) / k)**2; forbidden
    combinations return exactly 0.
    """
    _check_offset(k)
    return _first_order_intensity(params, i, j, k, bessel_row(abs(k), params.zeta).values)


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
    row = bessel_row(k_max, params.zeta).values
    by_label = {m.label: m for m in modes}
    ks = np.arange(-k_max, k_max + 1)
    phases = np.exp(1j * np.multiply.outer(tau_grid(n), ks))
    lines = []
    for i in (1, 2):
        for j in (1, 2):
            # <mode_i(tau)| sigma_x |mode_j(tau)> at every sample
            f = np.sum(np.conj(by_label[i].samples) * (by_label[j].samples @ SIGMA_X), axis=1)
            # period average of f(tau) e^{i k tau} for every k at once
            intensities = params.dipole**2 * np.abs(f @ phases / n) ** 2
            for k, intensity in zip(ks.tolist(), intensities.tolist()):
                forbidden = is_forbidden(i, j, k)
                if forbidden and not include_forbidden:
                    continue
                signed = pair.for_label(j) - pair.for_label(i) + k
                lines.append(
                    TransitionLine(
                        i=i,
                        j=j,
                        k=k,
                        frequency=abs(signed),
                        intensity_numeric=intensity,
                        intensity_analytic=_first_order_intensity(params, i, j, k, row),
                        line_class=line_class(i, j, k),
                        forbidden=forbidden,
                        direction=(signed > 0) - (signed < 0),
                    )
                )
    lines.sort(key=lambda line: (line.frequency, line.k, line.i, line.j))
    return lines
