"""Properties of the exact solver over delta in [0, 1] and zeta in [0, 100].

The one point excluded is delta = 1 without drive, where both modes sit on
the zone boundary eps = 1/2 and have no definite parity.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import shirley_quasienergies

from driventls import (
    SystemParams,
    build_modes,
    classify_parity,
    exact_quasienergies,
    fold_quasienergy,
    quasienergy_distance,
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
    a, b = shirley_quasienergies(delta, zeta)
    straight = max(quasienergy_distance(pair.eps1, a), quasienergy_distance(pair.eps2, b))
    crossed = max(quasienergy_distance(pair.eps1, b), quasienergy_distance(pair.eps2, a))
    assert min(straight, crossed) <= 1e-10


@examples
@domain
def test_samples_carry_their_parity_labels(delta, zeta):
    m1, m2 = build_modes(_params(delta, zeta), n_grid=64).modes
    assert classify_parity(m1.samples) == "symmetric"
    assert classify_parity(m2.samples) == "antisymmetric"
