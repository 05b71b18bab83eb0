import math

import numpy as np
import pytest

import driventls
from driventls import (
    IDENTITY,
    SIGMA_X,
    DomainError,
    ParameterError,
    SystemParams,
    su2_exponential,
    tau_grid,
    unitarity_defect,
)


def test_params_fields_and_zeta():
    p = SystemParams(delta=0.1, rabi=1.5)
    assert p.delta == 0.1
    assert p.rabi == 1.5
    assert p.dipole == 1.0
    assert p.zeta == 3.0


def test_params_from_zeta_roundtrip():
    p = SystemParams.from_zeta(delta=0.1, zeta=3.0)
    assert p.rabi == 1.5
    assert p.zeta == 3.0
    assert SystemParams.from_zeta(0.0, 0.0).rabi == 0.0


def test_params_validation():
    with pytest.raises(ParameterError):
        SystemParams(delta=-0.1, rabi=1.0)
    with pytest.raises(ParameterError):
        SystemParams(delta=0.1, rabi=-1.0)
    with pytest.raises(ParameterError):
        SystemParams(delta=0.1, rabi=1.0, dipole=0.0)
    with pytest.raises(ParameterError):
        SystemParams(delta=math.nan, rabi=1.0)
    with pytest.raises(ParameterError):
        SystemParams(delta=0.1, rabi=math.inf)
    with pytest.raises(ParameterError):
        SystemParams(delta=True, rabi=1.0)
    # numpy real scalars are accepted and stored as plain floats
    p = SystemParams(delta=np.float32(0.1), rabi=np.int64(1))
    assert type(p.delta) is float and type(p.rabi) is float and type(p.dipole) is float


def test_params_immutable():
    p = SystemParams(delta=0.1, rabi=1.0)
    with pytest.raises(Exception):
        p.delta = 0.2


def test_pauli_matrices_fixed():
    # sigma_x = |1><2| + |2><1| in the (ground, excited) ordering
    assert np.array_equal(SIGMA_X, [[0.0, 1.0], [1.0, 0.0]])
    assert not SIGMA_X.flags.writeable


def test_constants_immutable():
    with pytest.raises(ValueError):
        IDENTITY[0, 0] = 5.0


def test_su2_exponential_identity_and_series():
    assert np.allclose(su2_exponential(0.0, 0.0), IDENTITY)
    az, ap = 0.4, 0.3 + 0.2j
    m = 1j * np.array([[-az, ap], [np.conj(ap), az]])
    ref = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, 40):
        term = term @ m / n
        ref = ref + term
    got = su2_exponential(az, ap)
    assert np.max(np.abs(got - ref)) <= 1e-14
    assert unitarity_defect(got) <= 1e-14
    assert abs(np.linalg.det(got) - 1.0) <= 1e-14


def test_tau_grid():
    g = tau_grid(8)
    assert g.shape == (8,)
    assert g[0] == 0.0
    assert g[-1] == pytest.approx(2.0 * math.pi * 7 / 8)
    with pytest.raises(DomainError):
        tau_grid(0)


def test_unitarity_defect():
    assert unitarity_defect(np.eye(2, dtype=complex)) == 0.0
    assert unitarity_defect(2.0 * np.eye(2, dtype=complex)) == pytest.approx(3.0)


REMOVED_NAMES = (
    "BesselSeries",
    "ModeMatch",
    "PARITY",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "SIGMA_Z",
    "alpha",
    "beta_over_i",
    "classify_parity",
    "hamiltonian_at",
    "match_modes",
    "pauli_combination",
)


def test_public_surface():
    # every exported name resolves, the names that only tests used stay
    # gone, and the surface stays small
    for name in driventls.__all__:
        getattr(driventls, name)
    assert not any(hasattr(driventls, name) for name in REMOVED_NAMES)
    assert not hasattr(SystemParams, "epsilon_eff")
    assert len(driventls.__all__) <= 40
