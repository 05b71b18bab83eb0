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


def _floquet_matrix(delta: float, zeta: float) -> tuple[np.ndarray, np.ndarray]:
    """Shirley's Floquet matrix and the harmonic index of each basis state.

    The basis is (harmonic n, ground) and (harmonic n, excited) for
    n = -n_harm..n_harm, interleaved.
    """
    n_harm = int(np.ceil(zeta)) + 40
    n = np.arange(-n_harm, n_harm + 1, dtype=float)
    h = np.diag(np.column_stack((n - 0.5 * delta, n + 0.5 * delta)).ravel())
    # ground of harmonic n couples to excited of n + 1 and vice versa
    ground = 2 * np.arange(n.size - 1)
    for a, b in ((ground, ground + 3), (ground + 1, ground + 2)):
        h[a, b] = h[b, a] = -0.25 * zeta
    return h, np.repeat(np.arange(-n_harm, n_harm + 1), 2)


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
    h, _ = _floquet_matrix(delta, zeta)
    values = np.linalg.eigvalsh(h)
    inside = values[(values > -0.5) & (values <= 0.5)]
    if inside.size != 2:
        raise RuntimeError(f"{inside.size} Floquet-matrix eigenvalues in the zone")
    return float(inside[0]), float(inside[1])


def _parity_block_modes(delta: float, zeta: float) -> tuple[list[np.ndarray], int, list[float]]:
    """Harmonic coefficients and quasienergies of mode 1 and mode 2 from the
    parity blocks.

    An eigenvector c of the Floquet matrix with eigenvalue eps in (-1/2, 1/2]
    is the periodic mode u(tau) = sum_n c_n e^{i n tau}, unit norm over the
    period.  The matrix commutes with the generalized parity
    c_{n,s} -> (-1)^(n+s) c_{n,s} (s = 0 ground, 1 excited), so the symmetric
    mode 1 lives on the states with n + s even and the antisymmetric mode 2
    on the rest; diagonalizing each block separately keeps the two modes
    apart even where their quasienergies cross.  Row n + n_harm of each
    returned array holds (ground, excited) of harmonic n.
    """
    h, harmonic = _floquet_matrix(delta, zeta)
    spin = np.arange(harmonic.size) % 2
    coeffs, eps = [], []
    for parity in (0, 1):
        block = (harmonic + spin) % 2 == parity
        values, vectors = np.linalg.eigh(h[np.ix_(block, block)])
        inside = np.flatnonzero((values > -0.5) & (values <= 0.5))
        if inside.size != 1:
            raise RuntimeError(f"{inside.size} block eigenvalues in the zone")
        full = np.zeros(harmonic.size, dtype=complex)
        full[block] = vectors[:, inside[0]]
        coeffs.append(full.reshape(-1, 2))
        eps.append(float(values[inside[0]]))
    return coeffs, int(harmonic.max()), eps


def shirley_parity_gap(delta: float, zeta: float) -> float:
    """eps2 - eps1 of the parity-labelled modes, from the same Floquet matrix
    as shirley_quasienergies split into its parity blocks; it changes sign
    at every level crossing."""
    eps = _parity_block_modes(delta, zeta)[2]
    return eps[1] - eps[0]


def shirley_modes(delta: float, zeta: float, taus) -> np.ndarray:
    """Mode 1 (symmetric) and mode 2 (antisymmetric) sampled at the phases taus.

    Sums the harmonics of the parity-block eigenvectors of Shirley's Floquet
    matrix, u(tau) = sum_n c_n e^{i n tau}.  Returns an array of shape
    (2, len(taus), 2); the overall phase of each mode is arbitrary.
    """
    coeffs, n_harm, _ = _parity_block_modes(delta, zeta)
    harmonics = np.arange(-n_harm, n_harm + 1)
    waves = np.exp(1j * np.multiply.outer(np.asarray(taus, dtype=float), harmonics))
    return np.stack([waves @ c for c in coeffs])


def shirley_line_intensities(
    delta: float, zeta: float, k_max: int, dipole: float = 1.0
) -> dict[tuple[int, int, int], float]:
    """Line intensities |<<mode_i| dipole*sigma_x e^{i k tau} |mode_j>>|^2 from
    the Fourier components of the parity-block eigenvectors.

    The period average reduces to a sum over harmonics:
    <<u_i| sigma_x e^{i k tau} |u_j>> = sum_m conj(c^i_{m+k}) . sigma_x c^j_m.

    Returns intensities for i, j in (1, 2) and |k| <= k_max, every parity
    class included.
    """
    coeffs, n_harm, _ = _parity_block_modes(delta, zeta)
    out = {}
    for i in (1, 2):
        for j in (1, 2):
            ci, flipped = coeffs[i - 1], coeffs[j - 1][:, ::-1]  # sigma_x c^j
            for k in range(-k_max, k_max + 1):
                # pair c^i at harmonic m + k with sigma_x c^j at harmonic m
                m = np.arange(max(0, -k), min(2 * n_harm + 1, 2 * n_harm + 1 - k))
                element = np.sum(np.conj(ci[m + k]) * flipped[m])
                out[(i, j, k)] = float(abs(dipole * element) ** 2)
    return out


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
