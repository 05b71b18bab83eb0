import math

import numpy as np
import pytest

from oracles import j0_zero_oracle, j_power_series

from driventls import (
    DomainError,
    bessel_j,
    bessel_row,
    j0_zero,
    series_cutoff,
)

# reference values computed once with the independent power-series oracle
# (tests/oracles.py) at 40 decimal digits and frozen here
J0_PI = -0.30424217764409384
J1_2 = 0.5767248077568734
J2_PI = 0.48543393263150914
J3_PI = 0.33345833620298954
J7_PI = 0.0034203167684957888
J0_PI_5 = 0.9037126420924663
J0_PI_2 = 0.4720012157682348
J0_4 = -0.39714980986384735
J0_40 = 0.00736689058423729
J20_5 = 2.7703300521289416e-11
J0_ZERO_1 = 2.404825557695773
J0_ZERO_2 = 5.520078110286311
J0_ZERO_3 = 8.653727912911013


def test_bessel_trivial_values():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    assert abs(bessel_j(0, J0_ZERO_1)) <= 1e-12


def test_bessel_frozen_values():
    assert bessel_j(0, math.pi) == pytest.approx(J0_PI, abs=1e-12)
    assert bessel_j(1, 2.0) == pytest.approx(J1_2, abs=1e-12)
    assert bessel_j(2, math.pi) == pytest.approx(J2_PI, abs=1e-12)
    assert bessel_j(3, math.pi) == pytest.approx(J3_PI, abs=1e-12)
    assert bessel_j(7, math.pi) == pytest.approx(J7_PI, abs=1e-12)
    assert bessel_j(0, math.pi / 5) == pytest.approx(J0_PI_5, abs=1e-12)
    assert bessel_j(0, math.pi / 2) == pytest.approx(J0_PI_2, abs=1e-12)
    assert bessel_j(0, 4.0) == pytest.approx(J0_4, abs=1e-12)
    assert bessel_j(0, 40.0) == pytest.approx(J0_40, abs=1e-12)
    assert bessel_j(20, 5.0) == pytest.approx(J20_5, abs=1e-20)


def test_bessel_against_series_oracle():
    for n in (0, 1, 5, 12, 33):
        for x in (0.3, 2.0, 7.7, 25.0, 40.0, 50.0):
            assert bessel_j(n, x) == pytest.approx(
                j_power_series(n, x), abs=1e-12
            ), f"J_{n}({x})"


def test_bessel_against_series_oracle_large_argument():
    # the ascending series reaches ~1e41 at x = 100, hence 80 digits
    for n in (0, 1, 17, 45, 60, 99, 100, 101, 120, 137, 150):
        for x in (55.0, 63.7, 77.0, 88.8, 100.0):
            assert bessel_j(n, x) == pytest.approx(
                j_power_series(n, x, dps=80), abs=1e-12
            ), f"J_{n}({x})"


def test_bessel_large_order_asymptotics():
    # n = 20 at x = 5 sits deep in the decay regime; the leading asymptotic
    # (e x / 2n)^n / sqrt(2 pi n) should agree in order of magnitude
    approx = (math.e * 5.0 / 40.0) ** 20 / math.sqrt(2.0 * math.pi * 20.0)
    ratio = bessel_j(20, 5.0) / approx
    assert 0.1 < ratio < 10.0


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(-1, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, -0.5)
    with pytest.raises(DomainError):
        bessel_j(0, math.inf)
    with pytest.raises(DomainError):
        bessel_j(1.5, 1.0)


def test_bessel_tiny_argument():
    # below x ~ 1e-66 the recurrence ratios 2n/x overflow to inf and NaN
    for x in (5e-324, 1e-300, 1e-70, 1e-20, 9e-9, 2e-8):
        row = bessel_row(5, x)
        for n in range(6):
            assert row[n] == pytest.approx(j_power_series(n, x), rel=1e-14, abs=0.0), f"J_{n}({x})"
        assert bessel_j(1, x) == row[1]


def test_bessel_row_rescaled_recurrence():
    # from n_start = 57 down, the unnormalised head would reach ~1e503, 1e463
    # and 1e349 at the first three arguments, so the recurrence rescales by
    # 1e-250 twice, once and once; at x = 1e-3 (~1e235) it stays below the
    # rescale.  J_39 and J_40 at x <= 1e-7 underflow to 0 on both sides.
    for x in (2e-8, 1e-7, 1e-5, 1e-3):
        row = bessel_row(40, x)
        for n in range(41):
            assert row[n] == pytest.approx(j_power_series(n, x), rel=1e-14, abs=0.0), f"J_{n}({x})"


def test_bessel_row_at_zero():
    row = bessel_row(4, 0.0)
    assert isinstance(row, np.ndarray) and row.shape == (5,)
    assert np.allclose(row, [1.0, 0.0, 0.0, 0.0, 0.0])


def test_bessel_row_matches_pointwise():
    row = bessel_row(30, 7.3)
    for n in range(31):
        assert row[n] == pytest.approx(bessel_j(n, 7.3), abs=1e-13)


def test_bessel_row_three_term_recurrence():
    x = 3.14159265
    row = bessel_row(40, x)
    for n in range(1, 40):
        lhs = row[n - 1] + row[n + 1]
        assert lhs == pytest.approx(2.0 * n / x * row[n], abs=1e-10)


def test_bessel_row_normalization_and_bound():
    for x in (0.0, 0.5, 3.14159265, 11.0, 27.0, 40.0, 100.0):
        row = bessel_row(series_cutoff(x), x)
        norm = row[0] ** 2 + 2.0 * np.sum(row[1:] ** 2)
        assert norm == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(row)) <= 1.0 + 1e-14


def test_bessel_row_immutable():
    row = bessel_row(10, 2.0)
    with pytest.raises(ValueError):
        row[0] = 7.0


def test_series_cutoff():
    assert series_cutoff(0.0) == 36
    assert series_cutoff(3.2) == 40
    assert series_cutoff(40.0) == 76
    assert series_cutoff(100.0) == 147


def test_series_cutoff_tail_against_oracle():
    # the first dropped term bounds every truncated Bessel sum
    for zeta in (0.0, 3.2, 20.0, 40.0, 47.0, 55.0, 70.0, 85.0, 99.5, 100.0):
        tail = j_power_series(series_cutoff(zeta) + 1, zeta, dps=80)
        assert abs(tail) < 1e-13, f"zeta = {zeta}"


def test_jacobi_anger_identities():
    taus = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    for x in (0.0, 1.0, math.pi, 10.5, 25.0, 40.0, 100.0):
        row = bessel_row(series_cutoff(x), x)
        ns = np.arange(row.size)
        even = ns[2::2]
        odd = ns[1::2]
        cos_sum = row[0] + 2.0 * np.cos(np.outer(taus, even)) @ row[even]
        sin_sum = 2.0 * np.sin(np.outer(taus, odd)) @ row[odd]
        assert np.max(np.abs(np.cos(x * np.sin(taus)) - cos_sum)) <= 1e-10
        assert np.max(np.abs(np.sin(x * np.sin(taus)) - sin_sum)) <= 1e-10


def test_j0_zero_frozen_values():
    assert j0_zero(1) == pytest.approx(J0_ZERO_1, abs=1e-10)
    assert j0_zero(2) == pytest.approx(J0_ZERO_2, abs=1e-10)
    assert j0_zero(3) == pytest.approx(J0_ZERO_3, abs=1e-10)


def test_j0_zero_against_oracle():
    for k in (1, 2, 3, 5, 9):
        assert j0_zero(k) == pytest.approx(j0_zero_oracle(k), abs=1e-10)


def test_j0_zero_is_a_zero():
    for k in (1, 2, 3):
        assert abs(bessel_j(0, j0_zero(k))) <= 1e-10


def test_j0_zero_domain_error():
    with pytest.raises(DomainError):
        j0_zero(0)
    with pytest.raises(DomainError):
        j0_zero(-2)
