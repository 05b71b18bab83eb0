import math

import numpy as np
import pytest

from oracles import (
    classify_parity,
    evolution_linearized,
    fd_derivative_periodic,
    xi_a_quadrature,
    xi_s_quadrature,
)

import driventls.bessel
from driventls import (
    DomainError,
    SystemParams,
    analytic_evolution,
    analytic_floquet_state,
    analytic_modes,
    analytic_quasienergies,
    bessel_j,
    eta,
    j0_zero,
    phi,
    propagate,
    tau_grid,
    unitarity_defect,
    xi_a,
    xi_s,
)
from driventls.analytic import (
    _coefficient_row,
    _grid_series,
    _states,
    _su2_exponential,
    _xi_a_from_row,
    _xi_s_from_row,
)

# frozen outputs of the quadrature oracle (tests/oracles.py), which builds
# xi_s and xi_a from their derivative relations by Gauss-Legendre
# integration and never touches the Bessel series
XI_A0_AT_PI = 0.4066991343662074
XI_A_PI3_AT_PI = 0.036599565117247546
XI_S_PI3_AT_PI = 0.1774882934850959
XI_A0_AT_PI_2 = 0.590289991782141
XI_S_11_AT_2 = 0.1346089532581195
XI_A_11_AT_2 = 0.2201585291363532
J0_PI = -0.30424217764409384
EPS1_D01_PI = 0.015212108882204693


def _params(delta, zeta):
    return SystemParams.from_zeta(delta=delta, zeta=zeta)


def test_phi_values():
    assert phi(SystemParams(delta=0.0, rabi=1.0), math.pi / 2) == pytest.approx(1.0)
    assert phi(SystemParams(delta=0.3, rabi=2.2), 0.0) == 0.0
    assert phi(_params(0.1, math.pi), math.pi / 2) == pytest.approx(math.pi / 2, rel=1e-15)


def test_phi_vectorized():
    p = _params(0.1, 2.0)
    taus = np.array([0.0, 1.0, 2.5])
    assert np.allclose(phi(p, taus), np.sin(taus))


def test_xi_trivial_points():
    assert xi_s(_params(0.1, 3.3), 0.0) == 0.0
    assert xi_a(_params(0.1, 0.0), 1.234) == 0.0


def test_xi_frozen_values():
    p = _params(0.1, math.pi)
    assert xi_a(p, 0.0) == pytest.approx(XI_A0_AT_PI, abs=1e-10)
    assert xi_a(p, math.pi / 3) == pytest.approx(XI_A_PI3_AT_PI, abs=1e-10)
    assert xi_s(p, math.pi / 3) == pytest.approx(XI_S_PI3_AT_PI, abs=1e-10)
    assert xi_a(_params(0.1, math.pi / 2), 0.0) == pytest.approx(XI_A0_AT_PI_2, abs=1e-10)
    p2 = _params(0.1, 2.0)
    assert xi_s(p2, 1.1) == pytest.approx(XI_S_11_AT_2, abs=1e-10)
    assert xi_a(p2, 1.1) == pytest.approx(XI_A_11_AT_2, abs=1e-10)


def test_xi_against_quadrature_oracle():
    for zeta in (0.5, 2.0, math.pi, 6.0):
        p = _params(0.05, zeta)
        for tau in (0.4, 1.1, 2.9, 5.5):
            assert xi_s(p, tau) == pytest.approx(xi_s_quadrature(zeta, tau), abs=1e-10)
            assert xi_a(p, tau) == pytest.approx(xi_a_quadrature(zeta, tau), abs=1e-10)


def test_derivative_identities():
    n = 256
    h = 2.0 * math.pi / n
    taus = tau_grid(n)
    for zeta in (0.8, math.pi, 5.0):
        p = _params(0.1, zeta)
        d_xi_s = fd_derivative_periodic(xi_s(p, taus), h)
        even = np.cos(zeta * np.sin(taus)) - bessel_j(0, zeta)
        assert np.max(np.abs(d_xi_s - 0.5 * even)) <= 1e-6
        d_xi_a = fd_derivative_periodic(xi_a(p, taus), h)
        assert np.max(np.abs(d_xi_a + 0.5 * np.sin(zeta * np.sin(taus)))) <= 1e-6


def test_half_period_symmetries():
    taus = tau_grid(32)
    p = _params(0.1, 2.7)
    assert np.max(np.abs(xi_s(p, taus + math.pi) - xi_s(p, taus))) <= 1e-12
    assert np.max(np.abs(xi_a(p, taus + math.pi) + xi_a(p, taus))) <= 1e-12
    assert np.max(np.abs(phi(p, taus + math.pi) + phi(p, taus))) <= 1e-12


def test_eta_trivial_points():
    assert eta(_params(0.3, 4.0), 0.0) == 0.0
    assert eta(_params(0.3, 0.0), 2.2) == 0.0


def test_eta_full_period_value():
    p = _params(0.1, math.pi)
    expected = 1j * XI_A0_AT_PI * (1.0 - np.exp(-1j * 0.1 * J0_PI * 2.0 * math.pi))
    assert eta(p, 2.0 * math.pi) == pytest.approx(expected, abs=1e-10)


def test_tau_must_be_finite():
    p = _params(0.1, 1.0)
    with pytest.raises(DomainError):
        xi_s(p, math.nan)
    with pytest.raises(DomainError):
        phi(p, np.array([1.0, math.inf]))


def test_quasienergies_zero_drive():
    pair = analytic_quasienergies(_params(0.1, 0.0))
    assert pair.eps1 == pytest.approx(-0.05, abs=1e-15)
    assert pair.eps2 == pytest.approx(0.05, abs=1e-15)


def test_quasienergies_at_crossing():
    pair = analytic_quasienergies(_params(0.1, j0_zero(1)))
    assert abs(pair.eps1) <= 1e-11
    assert abs(pair.eps2) <= 1e-11


def test_quasienergies_sign_inversion():
    pair = analytic_quasienergies(_params(0.1, math.pi))
    assert pair.eps1 == pytest.approx(EPS1_D01_PI, abs=1e-12)
    assert pair.eps2 == pytest.approx(-EPS1_D01_PI, abs=1e-12)
    assert pair.eps1 + pair.eps2 == 0.0


def test_state_label_validation():
    with pytest.raises(DomainError):
        analytic_floquet_state(_params(0.1, 1.0), 3, 0.0)


def test_state_undriven_limit():
    s = analytic_floquet_state(_params(0.1, 0.0), 1, 1.7)
    assert np.allclose(s, [1.0, 0.0], atol=1e-15)
    s2 = analytic_floquet_state(_params(0.1, 0.0), 2, 1.7)
    assert np.allclose(s2, [0.0, 1.0], atol=1e-15)


def test_state_norms_and_periodicity():
    p = _params(0.1, math.pi)
    taus = tau_grid(128)
    for label in (1, 2):
        s = analytic_floquet_state(p, label, taus)
        assert np.max(np.abs(np.linalg.norm(s, axis=1) - 1.0)) <= 1e-12
        s_shift = analytic_floquet_state(p, label, taus + 2.0 * math.pi)
        assert np.max(np.abs(s_shift - s)) <= 1e-12


def test_state_phase_convention():
    for zeta in (0.4, math.pi, 6.0):
        p = _params(0.1, zeta)
        for label in (1, 2):
            s0 = analytic_floquet_state(p, label, 0.0)
            big = s0[np.argmax(np.abs(s0))]
            assert abs(big.imag) <= 1e-14
            assert big.real > 0.0


def test_state_weight_extreme():
    # at zeta = pi the rotation angle reaches pi/2 a quarter period in, so
    # the ground-state weight of mode 1 dips to zero there
    s = analytic_floquet_state(_params(0.1, math.pi), 1, math.pi / 2)
    assert abs(s[0]) ** 2 <= 1e-3


def test_state_generalized_parity():
    p = _params(0.1, 2.2)
    taus = tau_grid(64)
    flip = np.array([1.0, -1.0])
    s1 = analytic_floquet_state(p, 1, taus)
    s1_shift = analytic_floquet_state(p, 1, taus + math.pi)
    assert np.max(np.abs(flip * s1_shift - s1)) <= 5 * 0.1**2
    s2 = analytic_floquet_state(p, 2, taus)
    s2_shift = analytic_floquet_state(p, 2, taus + math.pi)
    assert np.max(np.abs(flip * s2_shift + s2)) <= 5 * 0.1**2


def test_evolution_identity_at_zero():
    u = analytic_evolution(_params(0.1, math.pi), 0.0)
    assert np.allclose(u, np.eye(2), atol=1e-14)


def test_evolution_zero_detuning():
    p = _params(0.0, 1.8)
    tau = 2.2
    ph = 0.9 * math.sin(tau)
    ref = np.array([[math.cos(ph), 1j * math.sin(ph)], [1j * math.sin(ph), math.cos(ph)]])
    assert np.max(np.abs(analytic_evolution(p, tau) - ref)) <= 1e-14


def test_evolution_unitary_and_accurate():
    p = _params(0.02, math.pi)
    u = analytic_evolution(p, 2.0 * math.pi)
    assert unitarity_defect(u) <= 1e-12
    u_exact = propagate(p, 0.0, 2.0 * math.pi)
    assert np.max(np.abs(u - u_exact)) <= 5 * 0.02**2


def test_evolution_accurate_mid_period():
    p = _params(0.02, 2.0)
    for tau in (0.9, math.pi, 5.1):
        diff = np.max(np.abs(analytic_evolution(p, tau) - propagate(p, 0.0, tau)))
        assert diff <= 5 * 0.02**2


def test_evolution_reads_two_bessel_rows(monkeypatch):
    # one coefficient row and one J0 per call, and the same operator as the
    # product built from the public xi_s, eta and J0, bit for bit
    p = _params(0.3, 7.0)
    tau = 2.2
    d, j0 = p.delta, bessel_j(0, p.zeta)
    ph = p.rabi * math.sin(tau)
    frame = np.array(
        [[math.cos(ph), 1j * math.sin(ph)], [1j * math.sin(ph), math.cos(ph)]], dtype=complex
    )
    mean_phase = np.diag([np.exp(0.5j * d * j0 * tau), np.exp(-0.5j * d * j0 * tau)])
    expected = frame @ mean_phase @ _su2_exponential(-d * xi_s(p, tau), d * eta(p, tau))
    rows = []
    original = driventls.bessel._miller_row

    def counting(order_max, x):
        rows.append(order_max)
        return original(order_max, x)

    monkeypatch.setattr(driventls.bessel, "_miller_row", counting)
    u = analytic_evolution(p, tau)
    assert len(rows) == 2
    assert np.array_equal(u, expected)


def test_linearized_evolution_close_to_exponential():
    p = _params(0.02, math.pi)
    tau = 2.0 * math.pi
    lin = evolution_linearized(0.02, math.pi, tau)
    full = analytic_evolution(p, tau)
    # they differ at second order in the exponent
    assert np.max(np.abs(lin - full)) <= 1e-3
    assert np.max(np.abs(lin - full)) >= 1e-12
    assert unitarity_defect(lin) <= 1e-2


def test_analytic_modes_structure():
    p = _params(0.05, math.pi)
    m1, m2 = analytic_modes(p, n_grid=128)
    assert (m1.label, m2.label) == (1, 2)
    assert classify_parity(m1.samples) == "symmetric"
    assert classify_parity(m2.samples) == "antisymmetric"
    pair = analytic_quasienergies(p)
    assert m1.quasienergy == pair.eps1
    assert m2.quasienergy == pair.eps2
    taus = tau_grid(128)
    # the grid sums its series by FFT, analytic_floquet_state directly
    assert np.max(np.abs(m1.samples - analytic_floquet_state(p, 1, taus))) <= 1e-15
    with pytest.raises(DomainError):
        analytic_modes(p, n_grid=63)


def test_stacked_modes_are_each_zeta_alone():
    # one inverse FFT and one set of norms and phase anchors over a stack of
    # drive strengths, folded rows included, give each one's modes bit for bit
    zetas = [0.0, 1e-9, 0.6, 2.404825557695773, 40.0, 100.0]
    stacked = _states(0.3, zetas, tau_grid(64), on_grid=True)
    for zeta, modes in zip(zetas, stacked):
        assert np.array_equal(modes, _states(0.3, [zeta], tau_grid(64), on_grid=True)[0])
        assert np.array_equal(modes, [mode.samples for mode in analytic_modes(_params(0.3, zeta), 64)])


@pytest.mark.parametrize("zeta", [0.0, 1e-9, 0.6, 2.404825557695773, 40.0, 100.0])
@pytest.mark.parametrize("n_grid", [64, 512, 4096])
def test_grid_series_by_fft_equal_the_direct_sums(zeta, n_grid):
    # at grid 64 the rows of zeta 40 and 100 reach past n_grid / 2 and fold
    row = _coefficient_row(zeta)
    taus = tau_grid(n_grid)
    (xs,), (xa,) = _grid_series([row], n_grid)
    assert np.max(np.abs(xs - _xi_s_from_row(row, taus))) <= 1e-15
    assert np.max(np.abs(xa - _xi_a_from_row(row, taus))) <= 1e-15
