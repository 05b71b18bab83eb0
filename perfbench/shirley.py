"""Independent quasienergy and Floquet-mode reference (Shirley's method).

J. H. Shirley, Phys. Rev. 138, B979 (1965): writing a Floquet state as
exp(-i eps tau) * sum_n phi_n exp(i n tau) turns the periodic Schroedinger
equation for H(tau) = -(delta/2) sigma_z - (zeta/2) cos(tau) sigma_x into a
time-independent eigenproblem.  The Floquet matrix has diagonal blocks
diag(-delta/2 + n, delta/2 + n) and off-diagonal blocks -(zeta/4) sigma_x
between neighbouring harmonics n, n + 1.  One symmetric eigensolve gives
the quasienergies and the Fourier coefficients of both modes, with no time
grid and no integrator.

The generalized parity (sigma_z combined with a half-period shift) maps
phi_n to (-1)^n sigma_z phi_n, so the matrix splits into a symmetric sector
(even harmonics of the ground state, odd harmonics of the excited state)
and an antisymmetric sector.  Each sector has exactly one eigenvalue in the
zone (-1/2, 1/2]; mode 1 is the symmetric one, as in the package.

This module shares no code with driventls and does not import it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def harmonics(zeta: float) -> int:
    """Harmonics kept on each side; J_n(zeta/2) is negligible well past this."""
    return math.ceil(zeta) + 40


def floquet_matrix(delta: float, zeta: float, n_harm: int) -> np.ndarray:
    """Truncated Floquet matrix; index 2k is the ground, 2k+1 the excited state
    of harmonic n = k - n_harm."""
    n = np.arange(-n_harm, n_harm + 1, dtype=float)
    size = 2 * n.size
    h = np.zeros((size, size))
    idx = np.arange(size)
    h[idx[0::2], idx[0::2]] = n - 0.5 * delta
    h[idx[1::2], idx[1::2]] = n + 0.5 * delta
    k = np.arange(n.size - 1)
    coupling = -0.25 * zeta
    for a, b in ((2 * k, 2 * k + 3), (2 * k + 1, 2 * k + 2)):
        h[a, b] = coupling
        h[b, a] = coupling
    return h


def _sectors(n_harm: int) -> tuple[np.ndarray, np.ndarray]:
    k = np.arange(2 * n_harm + 1)
    even = (k - n_harm) % 2 == 0
    ground, excited = 2 * k, 2 * k + 1
    symmetric = np.where(even, ground, excited)
    antisymmetric = np.where(even, excited, ground)
    return symmetric, antisymmetric


@dataclass(frozen=True)
class FloquetReference:
    """Both modes at one (delta, zeta): quasienergies in (-1/2, 1/2] and
    Fourier coefficients phi[m] of shape (2 * n_harm + 1, 2), harmonic
    m - n_harm, normalised to sum |phi|^2 = 1.  Index 0 is mode 1
    (symmetric), index 1 is mode 2 (antisymmetric)."""

    quasienergies: tuple[float, float]
    coefficients: tuple[np.ndarray, np.ndarray]

    @property
    def gap(self) -> float:
        """eps2 - eps1 in the parity labelling; changes sign at a crossing."""
        return self.quasienergies[1] - self.quasienergies[0]

    def mode(self, label: int, taus: np.ndarray) -> np.ndarray:
        """Periodic mode function u(tau) = sum_n phi_n exp(i n tau), shape (n, 2)."""
        phi = self.coefficients[label - 1]
        n_harm = (phi.shape[0] - 1) // 2
        return np.exp(1j * np.outer(taus, np.arange(-n_harm, n_harm + 1))) @ phi

    def intensity(self, i: int, j: int, k: int, dipole: float = 1.0) -> float:
        """|<<u_i| dipole sigma_x e^{i k tau} |u_j>>|^2, period-averaged:
        the squared sum over m of phi_i[m + k] . sigma_x phi_j[m]."""
        a = self.coefficients[i - 1]
        b = self.coefficients[j - 1][:, ::-1]
        if k >= 0:
            element = np.sum(a[k:] * b[: b.shape[0] - k])
        else:
            element = np.sum(a[: a.shape[0] + k] * b[-k:])
        return float((dipole * element) ** 2)


def solve(delta: float, zeta: float) -> FloquetReference:
    """Quasienergies and modes from one eigensolve per parity sector."""
    n_harm = harmonics(zeta)
    h = floquet_matrix(delta, zeta, n_harm)
    energies, coefficients = [], []
    for sector in _sectors(n_harm):
        values, vectors = np.linalg.eigh(h[np.ix_(sector, sector)])
        inside = np.flatnonzero((values > -0.5) & (values <= 0.5))
        if inside.size != 1:
            raise ArithmeticError(
                f"{inside.size} sector eigenvalues in the zone at delta={delta}, zeta={zeta}"
            )
        full = np.zeros(h.shape[0])
        full[sector] = vectors[:, inside[0]]
        energies.append(float(values[inside[0]]))
        coefficients.append(full.reshape(-1, 2))
    return FloquetReference((energies[0], energies[1]), (coefficients[0], coefficients[1]))


def bessel_j(k: int, x: float) -> float:
    """J_k(x) = (1/2pi) int cos(k t - x sin t) dt over one period; the
    trapezoid rule is spectrally accurate here once the sample count
    exceeds |x| + |k| by a margin, which 512 does for x <= 100."""
    t = 2.0 * math.pi * np.arange(512) / 512
    return float(np.mean(np.cos(k * t - x * np.sin(t))))


def first_order_intensity(delta: float, zeta: float, k: int) -> float:
    """First-order intensity of an allowed line in units of dipole**2: 1 for
    the cross-mode k = 0 line, else (delta J_|k|(zeta) / k)^2."""
    if k == 0:
        return 1.0
    return (delta * bessel_j(abs(k), zeta) / k) ** 2


def zone_distance(a: float, b: float) -> float:
    """Distance between two quasienergies on the circle of circumference 1."""
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


def quasienergy_error(ref: FloquetReference, pair: tuple[float, float]) -> float:
    """Largest distance between a quasienergy pair and the reference, matched
    as an unordered pair so labels do not matter."""
    a, b = ref.quasienergies
    straight = max(zone_distance(pair[0], a), zone_distance(pair[1], b))
    crossed = max(zone_distance(pair[0], b), zone_distance(pair[1], a))
    return min(straight, crossed)


def crossings(delta: float, zetas: list[float], gaps: list[float], tol: float = 1e-13) -> list[float]:
    """Drive strengths where the reference gap eps2 - eps1, sampled as gaps
    on the ascending grid zetas, changes sign, located by bisection to tol."""
    found = []
    for lo, hi, g_lo, g_hi in zip(zetas, zetas[1:], gaps, gaps[1:]):
        if g_lo == 0.0:
            found.append(lo)
        if g_lo * g_hi >= 0.0:
            continue
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            g_mid = solve(delta, mid).gap
            if (g_mid > 0.0) == (g_lo > 0.0):
                lo, g_lo = mid, g_mid
            else:
                hi = mid
        found.append(0.5 * (lo + hi))
    if gaps and gaps[-1] == 0.0:
        found.append(zetas[-1])
    return found
