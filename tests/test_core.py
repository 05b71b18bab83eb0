import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import driventls
from driventls import (
    DomainError,
    ParameterError,
    SystemParams,
    tau_grid,
    unitarity_defect,
)
from driventls.analytic import _su2_exponential


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


@pytest.mark.parametrize("bound, outward, far", [(1e-100, 0.0, 1e-160), (1e100, math.inf, 1e155)])
def test_dipole_domain(bound, outward, far):
    # mu**2 overflows past 1e154 and goes subnormal below 1e-154, so the
    # domain stops well inside: both bounds are accepted, the next float out refused
    for dipole in (bound, np.nextafter(bound, 1.0)):
        assert SystemParams(delta=0.1, rabi=1.0, dipole=dipole).dipole == dipole
    for dipole in (np.nextafter(bound, outward), far):
        with pytest.raises(ParameterError, match=r"dipole must be in \[1e-100, 1e100\]"):
            SystemParams(delta=0.1, rabi=1.0, dipole=dipole)


def test_params_immutable():
    p = SystemParams(delta=0.1, rabi=1.0)
    with pytest.raises(Exception):
        p.delta = 0.2


def test_su2_exponential_identity_and_series():
    assert np.allclose(_su2_exponential(0.0, 0.0), np.eye(2))
    az, ap = 0.4, 0.3 + 0.2j
    m = 1j * np.array([[-az, ap], [np.conj(ap), az]])
    ref = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for n in range(1, 40):
        term = term @ m / n
        ref = ref + term
    got = _su2_exponential(az, ap)
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
    "DEFAULT_CONFIG",
    "IDENTITY",
    "ModeMatch",
    "PARITY",
    "SIGMA_MINUS",
    "SIGMA_PLUS",
    "SIGMA_X",
    "SIGMA_Z",
    "alpha",
    "beta_over_i",
    "classify_parity",
    "hamiltonian_at",
    "match_modes",
    "pauli_combination",
    "su2_exponential",
)


def test_public_surface():
    # every exported name resolves, the names that only tests used stay
    # gone, and the surface stays small
    for name in driventls.__all__:
        getattr(driventls, name)
    assert not any(hasattr(driventls, name) for name in REMOVED_NAMES)
    assert not hasattr(SystemParams, "epsilon_eff")
    assert len(driventls.__all__) <= 35


def test_every_exported_name_is_documented_and_nothing_else_is_public():
    # the README's Library section names the whole public API, and the package
    # offers no public name beyond it apart from its modules and version
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    assert [name for name in driventls.__all__ if not re.search(rf"\b{name}\b", library)] == []
    public = {
        name
        for name, value in vars(driventls).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(driventls.__all__)
