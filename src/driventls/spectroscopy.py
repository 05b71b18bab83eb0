"""Emission and absorption lines between Floquet modes.

Transitions connect the replica states e^{i k tau} |mode_j> to |mode_i>;
the integer Fourier offset k plays the role of a net photon number.  Line
positions follow from the quasienergies, line strengths from matrix
elements of the dipole operator in the period-averaged inner product.  The
generalized parity of the modes forbids half of all (i, j, k) combinations
exactly: same-mode transitions need odd k, cross-mode transitions even k.
"""

from __future__ import annotations

import functools

import numpy as np

from .analytic import analytic_quasienergies
from .bessel import bessel_row
from .core import DomainError, SystemParams, _frozen, _unwrap, tau_grid
from .floquet import FloquetMode


def _lines(i, j, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """i, j, k as arrays, once every mode label is 1 or 2 and every offset an integer."""
    i, j, k = np.asarray(i), np.asarray(j), np.asarray(k)
    for label in (i, j):
        bad = (label != 1) & (label != 2)
        if np.any(bad):
            raise DomainError(f"mode label must be 1 or 2, got {label[bad].tolist()[0]!r}")
    if k.dtype.kind not in "iu":
        raise DomainError(f"Fourier offset k must be an integer, got {k.tolist()!r}")
    return i, j, k


def is_forbidden(i, j, k):
    """Parity selection rule, elementwise: allowed iff (i=j, k odd) or (i!=j, k even)."""
    i, j, k = _lines(i, j, k)
    return _unwrap((i == j) == (k % 2 == 0))


def line_class(i, j, k):
    """Transition family, elementwise: intra_manifold, hyper_raman, or odd_harmonic.

    Classifies by the (i, j, k) pattern alone; whether the line is actually
    allowed is tracked separately by is_forbidden.
    """
    i, j, k = _lines(i, j, k)
    return _unwrap(np.where(i == j, "odd_harmonic", np.where(k == 0, "intra_manifold", "hyper_raman")))


def line_intensity_analytic(params: SystemParams, i, j, k):
    """Closed-form first-order line intensity in units of dipole**2, elementwise.

    Cross-mode k = 0 lines carry the full dipole strength; every other
    allowed line is weaker by (delta * J_|k|(zeta) / k)**2; forbidden
    combinations give exactly 0.  One Bessel row serves every k.
    """
    forbidden = is_forbidden(i, j, k)
    k = np.asarray(k)
    row = bessel_row(np.abs(k).max(initial=0), params.zeta)
    return _unwrap(_closed_form(params.delta, params.dipole**2, row, k, forbidden))


def _closed_form(delta: float, mu2: float, rows: np.ndarray, k: np.ndarray, forbidden) -> np.ndarray:
    """line_intensity_analytic of the lines with offsets k and forbidden flags, for each Bessel
    row J_0 .. J_|k|max of a stack (..., |k|max + 1): shape (...,) + k.shape."""
    # k = 0 lines carry mu2; dividing by 1 there keeps the unused branch finite
    scaled = mu2 * (delta * rows[..., np.abs(k)] / np.where(k == 0, 1, k)) ** 2
    return np.where(forbidden, 0.0, np.where(k == 0, mu2, scaled))


@functools.lru_cache(maxsize=4)
def _phases(n: int, k_max: int) -> np.ndarray:
    """e^{i k tau} at tau_grid(n) for k = -k_max..k_max, read-only.  One validate makes one
    _line_stack call, so the cache serves repeated calls with this grid and k_max in one
    process: library use, or the benchmark's in-process loop."""
    return _frozen(np.exp(1j * np.multiply.outer(tau_grid(n), np.arange(-k_max, k_max + 1))))


def _line_stack(delta: float, mu2: float, zetas, samples: np.ndarray, k_max: int) -> tuple:
    """Every line up to |k| = k_max at each of m drive strengths: the (i, j, k) columns and their
    forbidden flags, 4 (2 k_max + 1) lines ordered by (i, j), then k; and per zeta the numeric
    intensities from its mode samples (m, 2, n, 2) and the closed-form ones, (m, lines) each."""
    ks = np.arange(-k_max, k_max + 1)
    i = np.repeat([1, 1, 2, 2], ks.size)
    j = np.repeat([1, 2, 1, 2], ks.size)
    k = np.tile(ks, 4)
    forbidden = is_forbidden(i, j, k)
    n = samples.shape[-2]
    bra, ket = samples.conj()[:, :, None], samples[:, None]
    # <mode_i(tau)| sigma_x |mode_j(tau)> at every sample: sigma_x swaps the ket's components
    f = (bra[..., 0] * ket[..., 1] + bra[..., 1] * ket[..., 0]).reshape(-1, 4, n)
    # period average of f(tau) e^{i k tau} for every k at once, one row product per (i, j); a
    # single matrix product over every row would round differently
    numeric = mu2 * np.abs((f[..., None, :] @ _phases(n, k_max))[..., 0, :] / n) ** 2
    rows = np.reshape([bessel_row(k_max, zeta) for zeta in zetas], (-1, k_max + 1))
    closed = _closed_form(delta, mu2, rows, k, forbidden)
    return (i, j, k, forbidden), numeric.reshape(-1, k.size), closed


def spectrum(
    params: SystemParams,
    modes: tuple[FloquetMode, FloquetMode],
    k_max: int,
    include_forbidden: bool = False,
) -> dict[str, np.ndarray]:
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
        The line table as equal-length columns: final mode i, initial mode j
        and its offset k; frequency in units of the drive frequency, from the
        first-order quasienergies, so doublets collapse exactly at the level
        crossings; intensity_numeric from the modes and intensity_analytic,
        in units of dipole**2; class; forbidden; direction, the sign of the
        energy difference (+1 emission side, -1 absorption side, 0 degenerate).
    """
    n = modes[0].n_samples
    if modes[1].n_samples != n:
        raise DomainError("modes must share the same sample grid")
    if not isinstance(k_max, (int, np.integer)) or k_max < 1:
        raise DomainError(f"k_max must be an integer >= 1, got {k_max!r}")
    if k_max >= n // 2:
        raise DomainError(f"k_max must be below n_samples/2 = {n // 2}, got {k_max}")
    pair = analytic_quasienergies(params)
    samples = np.array([[m.samples for m in sorted(modes, key=lambda m: m.label)]])
    lines = _line_stack(params.delta, params.dipole**2, [params.zeta], samples, k_max)
    (i_col, j_col, k_col, forbidden), (numeric,), (closed,) = lines
    eps = np.array([pair.eps1, pair.eps2])
    signed = eps[j_col - 1] - eps[i_col - 1] + k_col
    table = {
        "i": i_col,
        "j": j_col,
        "k": k_col,
        "frequency": np.abs(signed),
        "intensity_numeric": numeric,
        "intensity_analytic": closed,
        "class": line_class(i_col, j_col, k_col),
        "forbidden": forbidden,
        "direction": np.sign(signed).astype(int),
    }
    order = np.lexsort((j_col, i_col, k_col, table["frequency"]))
    if not include_forbidden:
        order = order[~forbidden[order]]
    return {name: column[order] for name, column in table.items()}
