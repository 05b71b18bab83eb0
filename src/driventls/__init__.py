"""Floquet states, quasienergies and spectra of a driven two-level system.

The package solves the periodically driven two-level problem two ways: a
closed-form first-order treatment valid for small detuning-to-drive-
frequency ratio at arbitrary drive strength, and an exact numerical
propagator; the two cross-validate each other.  On top of both sit the
transition spectra: selection rules, line positions and line intensities
between the Floquet-mode manifolds.
"""

from .analytic import (
    alpha,
    analytic_evolution,
    analytic_floquet_state,
    analytic_modes,
    analytic_quasienergies,
    beta_over_i,
    eta,
    phi,
    xi_a,
    xi_s,
)
from .bessel import BesselSeries, bessel_j, bessel_row, j0_zero, series_cutoff
from .core import (
    IDENTITY,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    AccuracyError,
    ClassificationError,
    DomainError,
    DrivenTLSError,
    ParameterError,
    SystemParams,
    hamiltonian_at,
    pauli_combination,
    su2_exponential,
    tau_grid,
    unitarity_defect,
)
from .floquet import (
    PARITY,
    FloquetMode,
    FloquetSolution,
    ModeMatch,
    QuasienergyPair,
    build_modes,
    classify_parity,
    exact_quasienergies,
    fold_quasienergy,
    match_modes,
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
    TransitionLine,
    is_forbidden,
    line_class,
    line_intensity_analytic,
    spectrum,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "BesselSeries",
    "ClassificationError",
    "DEFAULT_CONFIG",
    "DomainError",
    "DrivenTLSError",
    "FloquetMode",
    "FloquetSolution",
    "IDENTITY",
    "ModeMatch",
    "PARITY",
    "ParameterError",
    "PropagationConfig",
    "QuasienergyPair",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "SIGMA_X",
    "SIGMA_Z",
    "SystemParams",
    "TransitionLine",
    "alpha",
    "analytic_evolution",
    "analytic_floquet_state",
    "analytic_modes",
    "analytic_quasienergies",
    "bessel_j",
    "bessel_row",
    "beta_over_i",
    "build_modes",
    "classify_parity",
    "eta",
    "exact_quasienergies",
    "fold_quasienergy",
    "hamiltonian_at",
    "is_forbidden",
    "j0_zero",
    "line_class",
    "line_intensity_analytic",
    "match_modes",
    "one_period_propagator",
    "pauli_combination",
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
