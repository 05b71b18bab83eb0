"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the production code paths: Bessel values
come from the ascending power series evaluated in multiprecision arithmetic
(the production code uses a downward recurrence), zeros come from bisection
on that series, and the auxiliary Fourier sums are checked against direct
quadrature of their defining integrals.  Agreement between these routes and
the package is the point of the tests, so none of them may share code.
"""

from __future__ import annotations

import numpy as np
from mpmath import mp, mpf


def j_power_series(n: int, x: float, dps: int = 40) -> float:
    """J_n(x) from the ascending series sum_m (-1)^m (x/2)^(n+2m) / (m! (n+m)!).

    The series alternates with huge intermediate terms for large x, so it is
    summed in multiprecision and rounded to float at the end.  Slow but
    trustworthy; valid for the whole tested range (x <= 50, n <= 80).
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    with mp.workdps(dps):
        half = mpf(x) / 2
        if half == 0:
            return 1.0 if n == 0 else 0.0
        # first term: (x/2)^n / n!
        term = half**n / mp.factorial(n)
        total = term
        m = 0
        while True:
            m += 1
            term = -term * half * half / (m * (n + m))
            total += term
            if abs(term) < mpf(10) ** (-dps + 2) * (abs(total) + 1):
                break
            if m > 500:
                raise RuntimeError("series failed to converge")
        return float(total)


def _j0_series_mp(x) -> mpf:
    """J0 at an mpf argument, same ascending series as j_power_series."""
    half = x / 2
    term = mpf(1)
    total = term
    m = 0
    while True:
        m += 1
        term = -term * half * half / (m * m)
        total += term
        if abs(term) < mpf(10) ** (-mp.dps + 2) * (abs(total) + 1):
            return total
        if m > 500:
            raise RuntimeError("series failed to converge")


def j0_zero_oracle(k: int) -> float:
    """k-th positive zero of J0 by multiprecision bisection on the power series.

    Each interval ((k-1/2)*pi, k*pi) contains exactly one zero of J0 and the
    endpoint signs alternate with k, so plain bisection is safe.  Runs at 40
    digits so the returned float is correctly rounded.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    with mp.workdps(40):
        lo = (k - mpf(1) / 2) * mp.pi
        hi = k * mp.pi
        flo = _j0_series_mp(lo)
        fhi = _j0_series_mp(hi)
        assert flo * fhi < 0, "bracket does not straddle a sign change"
        while hi - lo > mpf(10) ** -20:
            mid = (lo + hi) / 2
            fmid = _j0_series_mp(mid)
            if flo * fmid <= 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        return float((lo + hi) / 2)


def _gauss_integrate(f, a: float, b: float, nodes: int = 200) -> float:
    """Gauss-Legendre quadrature of a smooth integrand on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    t = 0.5 * (b - a) * x + 0.5 * (b + a)
    return 0.5 * (b - a) * float(np.sum(w * f(t)))


def xi_a_zero_quadrature(zeta: float) -> float:
    """xi_a(0) = sum_n J_{2n+1}(zeta)/(2n+1) = (1/2) int_0^{pi/2} sin(zeta sin t) dt.

    The integral form follows from the odd Jacobi-Anger expansion integrated
    term by term; it involves no Bessel evaluation at all.
    """
    return 0.5 * _gauss_integrate(lambda t: np.sin(zeta * np.sin(t)), 0.0, np.pi / 2)


def xi_a_quadrature(zeta: float, tau: float) -> float:
    """xi_a(tau) via its derivative d xi_a/d tau = -sin(zeta sin tau)/2."""
    return xi_a_zero_quadrature(zeta) - 0.5 * _gauss_integrate(
        lambda t: np.sin(zeta * np.sin(t)), 0.0, tau
    )


def xi_s_quadrature(zeta: float, tau: float) -> float:
    """xi_s(tau) via d xi_s/d tau = (cos(zeta sin tau) - J0(zeta))/2, xi_s(0)=0."""
    j0 = j_power_series(0, zeta)
    return 0.5 * _gauss_integrate(
        lambda t: np.cos(zeta * np.sin(t)) - j0, 0.0, tau
    )


def fd_derivative_periodic(values: np.ndarray, h: float) -> np.ndarray:
    """Eighth-order central finite differences on a periodic grid."""
    coeffs = (4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0)
    out = np.zeros_like(values, dtype=float)
    for m, c in enumerate(coeffs, start=1):
        out += c * (np.roll(values, -m) - np.roll(values, m))
    return out / h


def shirley_quasienergies(delta: float, zeta: float) -> tuple[float, float]:
    """Both quasienergies in (-1/2, 1/2] from Shirley's Floquet matrix.

    J. H. Shirley, Phys. Rev. 138, B979 (1965): expanding a Floquet state in
    harmonics exp(i n tau) turns H(tau) = diag(-delta/2, delta/2) -
    (zeta/2) cos(tau) sigma_x into a time-independent symmetric matrix with
    diagonal blocks diag(-delta/2 + n, delta/2 + n) and blocks
    -(zeta/4) sigma_x between neighbouring harmonics.  No time grid and no
    integrator; ceil(zeta) + 40 harmonics on each side truncate far past
    where J_n(zeta/2) is negligible.
    """
    n_harm = int(np.ceil(zeta)) + 40
    n = np.arange(-n_harm, n_harm + 1, dtype=float)
    h = np.diag(np.column_stack((n - 0.5 * delta, n + 0.5 * delta)).ravel())
    # ground of harmonic n couples to excited of n + 1 and vice versa
    ground = 2 * np.arange(n.size - 1)
    for a, b in ((ground, ground + 3), (ground + 1, ground + 2)):
        h[a, b] = h[b, a] = -0.25 * zeta
    values = np.linalg.eigvalsh(h)
    inside = values[(values > -0.5) & (values <= 0.5)]
    if inside.size != 2:
        raise RuntimeError(f"{inside.size} Floquet-matrix eigenvalues in the zone")
    return float(inside[0]), float(inside[1])
