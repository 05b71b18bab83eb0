import math

import numpy as np
import pytest

from driventls import (
    IDENTITY,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Z,
    DomainError,
    ParameterError,
    SystemParams,
    hamiltonian_at,
    pauli_combination,
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


def test_epsilon_eff_regimes():
    # weak drive: the detuning itself is the small parameter
    assert SystemParams(delta=0.3, rabi=0.0).epsilon_eff == 0.3
    assert SystemParams(delta=0.3, rabi=0.25).epsilon_eff == 0.3
    # strong drive: suppressed by sqrt(2/(pi zeta))
    p = SystemParams(delta=0.3, rabi=4.0)
    assert p.epsilon_eff == pytest.approx(0.3 * math.sqrt(2.0 / (math.pi * 8.0)), rel=1e-14)


def test_hamiltonian_trivial_points():
    p = SystemParams(delta=0.1, rabi=1.0)
    h = hamiltonian_at(p, math.pi / 2)
    assert np.allclose(h, np.diag([-0.05, 0.05]), atol=1e-15)
    h0 = hamiltonian_at(SystemParams(delta=0.1, rabi=0.0), 0.37)
    assert np.allclose(h0, np.diag([-0.05, 0.05]), atol=1e-15)
    h1 = hamiltonian_at(p, 0.0)
    assert h1[0, 1] == pytest.approx(-1.0)
    assert h1[1, 0] == pytest.approx(-1.0)
    assert h1[0, 0] == pytest.approx(-0.05)


def test_hamiltonian_hermitian_traceless_antiperiodic():
    p = SystemParams(delta=0.37, rabi=2.1)
    for tau in np.linspace(0.0, 2.0 * math.pi, 17):
        h = hamiltonian_at(p, tau)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        assert abs(np.trace(h)) <= 1e-12
        h_shift = hamiltonian_at(p, tau + math.pi)
        assert h_shift[0, 1] == pytest.approx(-h[0, 1], abs=1e-12)
        assert h_shift[0, 0] == h[0, 0]


def test_hamiltonian_rejects_bad_tau():
    p = SystemParams(delta=0.1, rabi=1.0)
    with pytest.raises(DomainError):
        hamiltonian_at(p, math.inf)


def test_pauli_combination_basics():
    assert np.allclose(pauli_combination(1.0, 0.0), np.diag([-1.0, 1.0]))
    m = pauli_combination(0.0, 1.0)
    assert m[0, 1] == 1.0 and m[1, 0] == 1.0
    m2 = pauli_combination(0.3, 0.1j)
    assert np.allclose(m2, m2.conj().T)


def test_pauli_combination_eigenvalues():
    az, ap = 0.7, 0.2 - 0.4j
    evals = np.sort(np.linalg.eigvalsh(pauli_combination(az, ap)))
    r = math.sqrt(az**2 + abs(ap) ** 2)
    assert np.allclose(evals, [-r, r], atol=1e-14)


def test_pauli_matrices_fixed():
    assert np.allclose(SIGMA_Z, np.diag([-1.0, 1.0]))
    assert np.allclose(SIGMA_MINUS + SIGMA_PLUS, SIGMA_X)
    assert SIGMA_MINUS[0, 1] == 1.0
    assert SIGMA_PLUS[1, 0] == 1.0


def test_constants_immutable():
    with pytest.raises(ValueError):
        IDENTITY[0, 0] = 5.0


def test_su2_exponential_identity_and_series():
    assert np.allclose(su2_exponential(0.0, 0.0), IDENTITY)
    az, ap = 0.4, 0.3 + 0.2j
    m = 1j * pauli_combination(az, ap)
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
