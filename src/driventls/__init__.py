"""Floquet states, quasienergies and spectra of a driven two-level system.

The package solves the periodically driven two-level problem two ways: a
closed-form first-order treatment valid for small detuning-to-drive-
frequency ratio at arbitrary drive strength, and an exact numerical
propagator; the two cross-validate each other.  On top of both sit the
transition spectra: selection rules, line positions and line intensities
between the Floquet-mode manifolds.
"""

from .analytic import (
    analytic_evolution,
    analytic_floquet_state,
    analytic_modes,
    analytic_quasienergies,
    eta,
    phi,
    xi_a,
    xi_s,
)
from .bessel import bessel_j, bessel_row, j0_zero, series_cutoff
from .core import (
    IDENTITY,
    SIGMA_X,
    AccuracyError,
    ClassificationError,
    DomainError,
    DrivenTLSError,
    ParameterError,
    SystemParams,
    su2_exponential,
    tau_grid,
    unitarity_defect,
)
from .floquet import (
    FloquetMode,
    FloquetSolution,
    QuasienergyPair,
    build_modes,
    exact_quasienergies,
    fold_quasienergy,
    quasienergy_distance,
)
from .propagator import (
    DEFAULT_CONFIG,
    PropagationConfig,
    one_period_propagator,
    propagate,
    propagate_grid,
)
from .spectroscopy import (
    is_forbidden,
    line_class,
    line_intensity_analytic,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ClassificationError",
    "DEFAULT_CONFIG",
    "DomainError",
    "DrivenTLSError",
    "FloquetMode",
    "FloquetSolution",
    "IDENTITY",
    "ParameterError",
    "PropagationConfig",
    "QuasienergyPair",
    "SIGMA_X",
    "SystemParams",
    "analytic_evolution",
    "analytic_floquet_state",
    "analytic_modes",
    "analytic_quasienergies",
    "bessel_j",
    "bessel_row",
    "build_modes",
    "eta",
    "exact_quasienergies",
    "fold_quasienergy",
    "is_forbidden",
    "j0_zero",
    "line_class",
    "line_intensity_analytic",
    "one_period_propagator",
    "phi",
    "propagate",
    "propagate_grid",
    "quasienergy_distance",
    "series_cutoff",
    "spectrum",
    "su2_exponential",
    "tau_grid",
    "unitarity_defect",
    "xi_a",
    "xi_s",
]
