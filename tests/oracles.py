"""Independent reference implementations used only by the test suite.

Everything here deliberately avoids the production code paths: Bessel values
come from the ascending power series evaluated in multiprecision arithmetic
(the production code uses a downward recurrence), zeros come from bisection
on that series, and the auxiliary Fourier sums are checked against direct
quadrature of their defining integrals.  Quasienergies, modes, intensities
and crossings come from Shirley's Floquet matrix, ``shirley`` here: the
benchmark's perfbench/shirley.py.  Agreement between these routes and the
package is the point of the tests, so none of them may share code with it.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
from mpmath import mp, mpf

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import shirley  # noqa: E402


def j_power_series(n: int, x: float, dps: int = 40) -> float:
    """J_n(x) from the ascending series sum_m (-1)^m (x/2)^(n+2m) / (m! (n+m)!).

    The series alternates with huge intermediate terms for large x (about
    1e41 at x = 100), so it is summed in multiprecision and rounded to float
    at the end.  Slow but trustworthy; the default 40 digits cover x <= 50,
    dps=80 covers x <= 100 (n <= 150 tested).
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


def evolution_linearized(delta: float, zeta: float, tau: float) -> np.ndarray:
    """Strictly first-order (non-unitary) evolution operator from 0 to tau.

    The same drive-frame rotation and averaged-detuning phase as the
    production closed form, but with the correction I + i*M kept linear
    instead of exponentiated, M = az*sigma_z + ap*sigma_minus + h.c. with
    az = -delta*xi_s and ap = delta*eta.  xi_s, xi_a and J0 come from the
    quadrature and power-series routes above, not from the package.
    """
    ph = 0.5 * zeta * np.sin(tau)
    j0 = j_power_series(0, zeta)
    eta = 1j * (
        xi_a_zero_quadrature(zeta) - np.exp(-1j * delta * j0 * tau) * xi_a_quadrature(zeta, tau)
    )
    az, ap = -delta * xi_s_quadrature(zeta, tau), delta * eta
    frame = np.array([[np.cos(ph), 1j * np.sin(ph)], [1j * np.sin(ph), np.cos(ph)]])
    mean_phase = np.diag([np.exp(0.5j * delta * j0 * tau), np.exp(-0.5j * delta * j0 * tau)])
    linear = np.array([[1.0 - 1j * az, 1j * ap], [1j * np.conj(ap), 1.0 + 1j * az]])
    return frame @ mean_phase @ linear


def quasienergy_miss(delta: float, zeta: float, eps1: float, eps2: float) -> float:
    """Larger zone distance of eps1, eps2 from Shirley's mode 1, mode 2: a label swap misses."""
    reference = shirley.solve(delta, zeta).quasienergies
    return max(shirley.zone_distance(eps1, reference[0]), shirley.zone_distance(eps2, reference[1]))


# |parity overlap| below this is neither clearly symmetric nor antisymmetric
PARITY_MARGIN = 0.9


def classify_parity(samples: np.ndarray) -> str:
    """Classify periodic samples on a uniform even grid as symmetric or antisymmetric.

    The period-averaged overlap of the mode with its half-period-shifted self,
    excited amplitude sign-flipped (the generalized parity P = diag(1, -1)),
    is +1 or -1 for a clean mode.  An odd sample count has no half-period
    shift and raises ValueError; so does an overlap of magnitude at most
    PARITY_MARGIN, which means the samples are not a symmetry eigenstate.
    """
    samples = np.asarray(samples, dtype=complex)
    n = samples.shape[0]
    if n % 2 != 0:
        raise ValueError("parity classification needs an even sample count")
    shifted = np.roll(samples, -n // 2, axis=0) * np.array([1.0, -1.0])
    s = complex(np.mean(np.sum(np.conj(shifted) * samples, axis=1)))
    if abs(s) <= PARITY_MARGIN:
        raise ValueError(
            f"parity overlap {s:.3f} has magnitude <= {PARITY_MARGIN}; "
            "samples are not a symmetry eigenstate"
        )
    return "symmetric" if s.real > 0.0 else "antisymmetric"


def averaged_overlap_sq(a: np.ndarray, b: np.ndarray) -> float:
    """|period average of <a(tau)|b(tau)>|^2 for two modes sampled on one grid."""
    return float(abs(np.mean(np.sum(np.conj(a) * b, axis=1))) ** 2)
