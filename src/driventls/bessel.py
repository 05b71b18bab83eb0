"""Integer-order Bessel functions of the first kind and zeros of J0.

These are the special-function kernel behind every closed-form expression in
the package: the Fourier coefficients of the transformed Hamiltonian are
Bessel functions of the coupling zeta, and the quasienergy crossings sit at
the zeros of J0.  Values are produced by Miller's algorithm (downward
three-term recurrence normalized by J0 + 2*sum J_{2n} = 1), which is stable
for every order, unlike the upward recurrence.
"""

from __future__ import annotations

import math

import numpy as np

from .core import DomainError, _frozen

# rescale the downward recurrence whenever entries grow past this, to avoid
# overflow at small arguments where successive ratios are ~2n/x
_BIG = 1e250
_BIG_INV = 1e-250


def series_cutoff(zeta: float) -> int:
    """Truncation order for all Bessel sums: ceil(zeta) + max(36, ceil(10*zeta**(1/3))).

    Beyond order ~zeta the values decay super-exponentially, but the
    turning-point region around n ~ zeta widens like zeta**(1/3); the margin
    keeps every truncated tail below 1e-13 for zeta <= 100.
    """
    return int(math.ceil(zeta)) + max(36, math.ceil(10.0 * zeta ** (1.0 / 3.0)))


def _miller_row(order_max: int, x: float) -> np.ndarray:
    """Downward recurrence J_{n-1} = (2n/x) J_n - J_{n+1}, then normalize."""
    if x < 1e-8:
        # the ratios 2n/x would overflow the recurrence below x ~ 1e-66; here the
        # leading series term (x/2)^n / n! is exact to double precision
        return np.cumprod(np.concatenate(([1.0], x / (2.0 * np.arange(1, order_max + 1)))))
    # start high enough above both the requested order and the turning
    # point n ~ x that the seeded tail has converged to the true ratio and the
    # dropped normalization tail is negligible; past x ~ 45 the turning-point
    # region, which widens like x**(1/3), sets the margin
    margin = max(
        16 + math.ceil(10.0 * math.log10(1.0 + x)), math.ceil(10.0 * x ** (1.0 / 3.0)) - 2
    )
    n_start = max(order_max, math.ceil(x)) + margin
    # the recurrence runs on Python floats, J_{n_start+1} first; numpy scalars
    # would cost more per step than the arithmetic itself
    descending = [0.0, 1e-30]
    upper, current = 0.0, 1e-30
    for n in range(n_start, 0, -1):
        upper, current = current, (2.0 * n / x) * current - upper
        if abs(current) > _BIG:
            # entries this far above the head underflow harmlessly
            descending = [v * _BIG_INV for v in descending]
            upper *= _BIG_INV
            current *= _BIG_INV
        descending.append(current)
    values = np.array(descending[::-1])
    norm = values[0] + 2.0 * np.sum(values[2::2])
    return values[: order_max + 1] / norm


def bessel_j(n: int, x: float) -> float:
    """Bessel function of the first kind J_n(x).

    Parameters
    ----------
    n : int
        Order, n >= 0.  Negative orders follow from J_{-n} = (-1)^n J_n at
        call sites if ever needed.
    x : float
        Argument, x >= 0 and finite.

    Returns
    -------
    float
        J_n(x), absolute error below 1e-12 for x <= 100, n <= 150.
    """
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"order must be a non-negative integer, got {n!r}")
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"argument must be finite and >= 0, got {x!r}")
    return float(_miller_row(int(n), float(x))[n])


def bessel_row(order_max: int, x: float) -> np.ndarray:
    """Read-only array of J_0(x) .. J_order_max(x) from one downward sweep.

    Satisfies the normalization J0^2 + 2*sum_{n>=1} J_n^2 = 1 up to the
    truncated tail when order_max follows series_cutoff.
    """
    if not isinstance(order_max, (int, np.integer)) or order_max < 0:
        raise DomainError(f"order_max must be a non-negative integer, got {order_max!r}")
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"argument must be finite and >= 0, got {x!r}")
    return _frozen(_miller_row(int(order_max), float(x)), float)


def j0_zero(k: int) -> float:
    """k-th positive zero of J0, accurate to better than 1e-10.

    The zeros interlace so that exactly one lies in ((k-1/2)*pi, k*pi), and
    J0 alternates sign between consecutive interval endpoints; bisection on
    that bracket therefore always converges, and two Newton polish steps with
    J0' = -J1 finish the job.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise DomainError(f"zero index must be an integer >= 1, got {k!r}")
    lo = (k - 0.5) * math.pi
    hi = k * math.pi
    f_lo = bessel_j(0, lo)
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        f_mid = bessel_j(0, mid)
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    root = 0.5 * (lo + hi)
    for _ in range(2):
        root += bessel_j(0, root) / bessel_j(1, root)
    return root
