"""Properties of the exact solver over delta in [0, 1] and zeta in [0, 100].

The one point excluded is delta = 1 without drive, where both modes sit on
the zone boundary eps = 1/2 and have no definite parity.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import averaged_overlap_sq, classify_parity, quasienergy_miss

from driventls import (
    SystemParams,
    analytic_modes,
    build_modes,
    exact_quasienergies,
    fold_quasienergy,
    quasienergy_distance,
    spectrum,
)

domain = given(delta=st.floats(0.0, 1.0), zeta=st.floats(0.0, 100.0))
examples = settings(max_examples=25, derandomize=True, deadline=None, database=None)


def _params(delta, zeta):
    assume(not (delta > 0.999 and zeta < 1e-3))
    return SystemParams.from_zeta(delta=delta, zeta=zeta)


@examples
@domain
def test_quasienergies_sum_to_zero(delta, zeta):
    # det U = 1
    pair = exact_quasienergies(_params(delta, zeta))
    assert abs(fold_quasienergy(pair.eps1 + pair.eps2)) <= 1e-12


@examples
@domain
def test_half_period_route_matches_modes(delta, zeta):
    p = _params(delta, zeta)
    pair = exact_quasienergies(p)
    m1, m2 = build_modes(p, n_grid=64).modes
    assert quasienergy_distance(pair.eps1, m1.quasienergy) <= 1e-12
    assert quasienergy_distance(pair.eps2, m2.quasienergy) <= 1e-12


@examples
@domain
def test_quasienergies_match_shirley(delta, zeta):
    pair = exact_quasienergies(_params(delta, zeta))
    assert quasienergy_miss(delta, zeta, pair.eps1, pair.eps2) <= 1e-10


@examples
@domain
def test_samples_carry_their_parity_labels(delta, zeta):
    # both solvers build mode 1 symmetric and mode 2 antisymmetric; over the
    # even grid the period average of <symmetric|antisymmetric> is odd under
    # the half-period shift and cancels, so exact and analytic modes pair by
    # label with nothing left in the crossed overlaps
    p = _params(delta, zeta)
    exact = build_modes(p, n_grid=64).modes
    analytic = analytic_modes(p, n_grid=64)
    for m1, m2 in (exact, analytic):
        assert classify_parity(m1.samples) == "symmetric"
        assert classify_parity(m2.samples) == "antisymmetric"
    assert averaged_overlap_sq(exact[0].samples, analytic[1].samples) < 1e-20
    assert averaged_overlap_sq(exact[1].samples, analytic[0].samples) < 1e-20


@examples
@domain
def test_spectral_sum_rule_and_leakage(delta, zeta):
    # Parseval: for each final mode the lines over j and every k of the grid
    # carry mu^2; k_max = n/2 - 1 misses only the k = n/2 term, which a
    # 256-point grid makes negligible up to zeta = 100 (at 128 points it
    # reaches 4e-8 there)
    p = _params(delta, zeta)
    n = 256
    lines = spectrum(p, build_modes(p, n_grid=n).modes, n // 2 - 1, include_forbidden=True)
    mu2 = p.dipole**2
    intensity = lines["intensity_numeric"]
    for i in (1, 2):
        # summed in table order, one line after the other
        total = sum(intensity[lines["i"] == i].tolist())
        assert abs(total - mu2) <= 1e-12 * mu2
    assert intensity[lines["forbidden"]].max() < 1e-20 * mu2
