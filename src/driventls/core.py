"""Shared types and conventions for the driven two-level system.

All modules work in the dimensionless phase variable tau = omega_L * t, so
one drive period is T = 2*pi and every energy is measured in units of the
drive photon energy.  The basis ordering is (|1>, |2>) = (ground, excited)
throughout, which fixes sigma_z = |2><2| - |1><1| = diag(-1, +1).  Mixing
conventions is the classic source of sign errors in this problem, so the
drive and dipole operator sigma_x is defined here once and imported
everywhere else.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class DrivenTLSError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(DrivenTLSError, ValueError):
    """Physical parameters outside their allowed domain."""


class DomainError(DrivenTLSError, ValueError):
    """Operation argument outside its allowed domain."""


class AccuracyError(DrivenTLSError, RuntimeError):
    """A numerical result failed to meet its accuracy contract."""


class ClassificationError(DrivenTLSError, RuntimeError):
    """A symmetry classification came out ambiguous."""


def _frozen(values, dtype=complex) -> np.ndarray:
    """A read-only copy of values, the form of every array the package keeps or shares."""
    m = np.array(values, dtype=dtype)
    m.setflags(write=False)
    return m


def _unwrap(out):
    # scalars in, Python scalars out; arrays pass through
    return out.item() if np.ndim(out) == 0 else out


IDENTITY = _frozen([[1, 0], [0, 1]])
# sigma_x = |1><2| + |2><1|, the drive coupling and dipole operator
SIGMA_X = _frozen([[0, 1], [1, 0]])


@dataclass(frozen=True)
class SystemParams:
    """Dimensionless parameters of the driven two-level system.

    Arguments:
        delta: transition frequency over drive frequency, >= 0.
        rabi: Rabi frequency over drive frequency, >= 0.
        dipole: dipole matrix element mu in [1e-100, 1e100]; intensities
            scale as mu**2, which stays a normal float there, as does
            1e-12 mu**2, the bound weak lines are held to.

    Any real number, numpy scalars included, is accepted and stored as a
    plain float; bool is rejected.
    """

    delta: float
    rabi: float
    dipole: float = 1.0

    def __post_init__(self) -> None:
        for name in ("delta", "rabi", "dipole"):
            value = getattr(self, name)
            if (
                not isinstance(value, numbers.Real)
                or isinstance(value, bool)
                or not math.isfinite(value)
            ):
                raise ParameterError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.delta < 0:
            raise ParameterError(f"delta must be >= 0, got {self.delta}")
        if self.rabi < 0:
            raise ParameterError(f"rabi must be >= 0, got {self.rabi}")
        if not 1e-100 <= self.dipole <= 1e100:
            raise ParameterError(f"dipole must be in [1e-100, 1e100], got {self.dipole}")

    @classmethod
    def from_zeta(cls, delta: float, zeta: float, dipole: float = 1.0) -> SystemParams:
        """Construct from the coupling zeta = 2*rabi instead of rabi."""
        return cls(delta=delta, rabi=zeta / 2.0, dipole=dipole)

    @property
    def zeta(self) -> float:
        """Coupling parameter zeta = 2*rabi, the Bessel argument everywhere."""
        return 2.0 * self.rabi


def su2_exponential(az: float, ap: complex) -> np.ndarray:
    """exp(i*M) in closed form for M = [[-az, ap], [conj(ap), az]].

    M is Hermitian and traceless with eigenvalues +-r, r = sqrt(az**2 + |ap|**2),
    so the exponential is cos(r)*I + i*sin(r)/r * M, exact and branch-free.
    """
    r = math.sqrt(az * az + abs(ap) ** 2)
    c = math.cos(r)
    s = math.sin(r) / r if r > 0 else 1.0
    return np.array(
        [[c - 1j * s * az, 1j * s * ap], [1j * s * np.conj(ap), c + 1j * s * az]],
        dtype=complex,
    )


def tau_grid(n: int) -> np.ndarray:
    """Uniform phase grid tau_k = 2*pi*k/n, k = 0..n-1 (endpoint excluded)."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"grid size must be a positive integer, got {n!r}")
    return 2.0 * math.pi * np.arange(n) / n


def unitarity_defect(u: np.ndarray):
    """Max-norm deviation of U^dagger U from the identity: a float, or an array for a stack."""
    return np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - IDENTITY), axis=(-2, -1))
