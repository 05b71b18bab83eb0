import functools
import math

import numpy as np
import pytest

from oracles import shirley

import driventls.spectroscopy
from driventls import (
    DomainError,
    SystemParams,
    analytic_quasienergies,
    bessel_row,
    build_modes,
    is_forbidden,
    j0_zero,
    line_class,
    line_intensity_analytic,
    spectrum,
    tau_grid,
)
from driventls.floquet import FloquetMode
from driventls.spectroscopy import _line_stack

J0_PI = -0.30424217764409384
J1_PI = 0.28461534317975273
J2_PI = 0.48543393263150914

# sigma_x = |1><2| + |2><1| in the (ground, excited) ordering, the dipole operator
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _params(delta, zeta, dipole=1.0):
    return SystemParams.from_zeta(delta=delta, zeta=zeta, dipole=dipole)


def _modes(params, n_grid=128):
    return build_modes(params, n_grid=n_grid).modes


def _constant_mode(label, vec, eps=0.0, n=64):
    samples = np.tile(np.asarray(vec, dtype=complex), (n, 1))
    return FloquetMode(label, eps, samples)


COLUMNS = ["i", "j", "k", "frequency", "intensity_numeric", "intensity_analytic", "class", "forbidden", "direction"]


def _keys(lines):
    return list(zip(lines["i"].tolist(), lines["j"].tolist(), lines["k"].tolist()))


def _intensities(lines):
    return dict(zip(_keys(lines), lines["intensity_numeric"].tolist()))


def test_stacked_lines_are_the_per_line_sums():
    # the stacked lines of four drive strengths equal, bit for bit, each line's
    # matrix element through sigma_x and the inverse FFT of that zeta's own (i, j)
    # row, since stacking moves no bit, and the closed form of each drive strength
    # alone; each period average also matches the explicit phase sum
    # f @ e^{i k tau} / n, which shares no code with the FFT, within 1e-15 max|f|
    zetas = [0.6, 2.404825557695773, 9.93, 40.0]
    solutions = [build_modes(_params(0.02, zeta), n_grid=128) for zeta in zetas]
    samples = np.array([[mode.samples for mode in solution.modes] for solution in solutions])
    rows = [bessel_row(9, zeta) for zeta in zetas]
    (i, j, k, _), numeric, closed = _line_stack(0.02, 2.25, rows, samples, 9)
    ks = np.arange(-9, 10)
    phases = np.exp(1j * np.multiply.outer(tau_grid(128), ks))
    for zeta, solution, lines, closed_form in zip(zetas, solutions, numeric, closed):
        modes = {mode.label: mode.samples for mode in solution.modes}
        for (a, b), block in zip([(1, 1), (1, 2), (2, 1), (2, 2)], lines.reshape(4, -1)):
            f = np.sum(np.conj(modes[a]) * (modes[b] @ SIGMA_X), axis=1)
            average = np.fft.ifft(f)[ks % 128]
            assert np.array_equal(block, 2.25 * np.abs(average) ** 2)
            assert np.max(np.abs(average - f @ phases / 128)) <= 1e-15 * np.max(np.abs(f))
        assert np.array_equal(closed_form, line_intensity_analytic(_params(0.02, zeta, 1.5), i, j, k))


def test_extended_inner_exact_modes_orthogonal():
    m1, m2 = _modes(_params(0.1, math.pi / 2))
    # period-averaged inner product of the two exact modes
    assert abs(np.mean(np.sum(np.conj(m1.samples) * m2.samples, axis=1))) <= 1e-8


def test_selection_rule_truth_table():
    # same mode: odd k radiates, even k (including k = 0) is parity forbidden
    assert is_forbidden(1, 1, 0)
    assert not is_forbidden(1, 1, 1)
    assert is_forbidden(1, 1, 2)
    assert not is_forbidden(2, 2, -3)
    # cross mode: even k radiates, odd k is forbidden
    assert not is_forbidden(1, 2, 0)
    assert is_forbidden(1, 2, 1)
    assert not is_forbidden(2, 1, -2)
    assert is_forbidden(2, 1, 5)


def test_line_class_families():
    assert line_class(1, 1, 3) == "odd_harmonic"
    assert line_class(2, 2, -1) == "odd_harmonic"
    assert line_class(1, 2, 0) == "intra_manifold"
    assert line_class(1, 2, 2) == "hyper_raman"
    assert line_class(2, 1, -4) == "hyper_raman"


def test_label_and_offset_validation():
    with pytest.raises(DomainError):
        is_forbidden(3, 1, 0)
    with pytest.raises(DomainError):
        line_class(1, 0, 2)
    with pytest.raises(DomainError):
        is_forbidden(1, 1, 1.5)


def test_rules_are_elementwise_and_build_the_table():
    # k up to ceil(zeta) gives every Bessel row the same recurrence, so a
    # rule over arrays must equal its scalar calls exactly
    p = _params(0.3, 5.5, dipole=1.5)
    i, j = np.repeat([[1, 1, 2, 2], [1, 2, 1, 2]], 11, axis=1)
    k = np.tile(np.arange(-5, 6), 4)
    for rule, kind in ((is_forbidden, bool), (line_class, str), (functools.partial(line_intensity_analytic, p), float)):
        scalars = [rule(a, b, c) for a, b, c in zip(i.tolist(), j.tolist(), k.tolist())]
        assert {type(value) for value in scalars} == {kind}
        column = rule(i, j, k).tolist()
        assert column == scalars
        assert [type(value) for value in column] == [type(value) for value in scalars]
    # spectrum's rule columns are the rules applied to its own i, j and k
    lines = spectrum(p, _modes(p), 9, include_forbidden=True)
    ijk = (lines["i"], lines["j"], lines["k"])
    assert np.array_equal(lines["forbidden"], is_forbidden(*ijk))
    assert np.array_equal(lines["class"], line_class(*ijk))
    assert np.array_equal(lines["intensity_analytic"], line_intensity_analytic(p, *ijk))
    # arrays are checked like scalars
    with pytest.raises(DomainError):
        is_forbidden(np.array([1, 3]), j[:2], k[:2])
    with pytest.raises(DomainError):
        line_class(i[:2], np.array([2, 0]), k[:2])
    with pytest.raises(DomainError):
        line_intensity_analytic(p, i[:2], j[:2], np.array([1.0, 2.0]))


def test_dipole_matrix_element_constant_modes():
    # bare states as constant modes: only the k = 0 cross-mode lines carry
    # the full dipole strength; every replica offset averages to zero
    # exactly (roots of unity sum)
    ground = _constant_mode(1, [1.0, 0.0])
    excited = _constant_mode(2, [0.0, 1.0])
    p = _params(0.1, math.pi, dipole=2.0)
    table = _intensities(spectrum(p, (ground, excited), 3, include_forbidden=True))
    assert len(table) == 28
    for (i, j, k), value in table.items():
        expected = 4.0 if i != j and k == 0 else 0.0
        assert value == pytest.approx(expected, abs=1e-14), (i, j, k)
    with pytest.raises(DomainError):
        spectrum(p, (ground, _constant_mode(2, [0.0, 1.0], n=128)), 3)


def test_analytic_intensities():
    p = _params(0.1, math.pi)
    assert line_intensity_analytic(p, 1, 2, 0) == 1.0
    assert line_intensity_analytic(p, 1, 1, 2) == 0.0
    assert line_intensity_analytic(p, 1, 2, 1) == 0.0
    expected_k1 = (0.1 * J1_PI / 1) ** 2
    assert line_intensity_analytic(p, 1, 1, 1) == pytest.approx(expected_k1, rel=1e-10)
    assert line_intensity_analytic(p, 1, 1, -1) == pytest.approx(expected_k1, rel=1e-10)
    expected_k2 = (0.1 * J2_PI / 2) ** 2
    assert line_intensity_analytic(p, 2, 1, 2) == pytest.approx(expected_k2, rel=1e-10)


def test_analytic_intensity_dipole_scaling():
    p1 = _params(0.1, math.pi, dipole=1.0)
    p3 = _params(0.1, math.pi, dipole=3.0)
    for i, j, k in ((1, 2, 0), (1, 1, 1), (2, 1, -2)):
        assert line_intensity_analytic(p3, i, j, k) == pytest.approx(
            9.0 * line_intensity_analytic(p1, i, j, k), rel=1e-12
        )


def test_numeric_intensity_scales_with_dipole():
    base = _intensities(spectrum(_params(0.1, 2.0), _modes(_params(0.1, 2.0), 64), 2))
    p3 = _params(0.1, 2.0, dipole=3.0)
    scaled = _intensities(spectrum(p3, _modes(p3, 64), 2))
    assert scaled.keys() == base.keys()
    for key, value in base.items():
        assert scaled[key] == pytest.approx(9.0 * value, rel=1e-10)


def test_numeric_matches_analytic_weak_detuning():
    p = _params(0.02, math.pi)
    table = _intensities(spectrum(p, _modes(p), 3))
    for i, j, k in ((1, 2, 0), (1, 1, 1), (2, 2, 1), (1, 2, 2), (1, 1, 3)):
        assert table[(i, j, k)] == pytest.approx(line_intensity_analytic(p, i, j, k), rel=0.2)


def test_transition_frequency_same_mode_is_integer():
    lines = spectrum(_params(0.1, math.pi), _modes(_params(0.1, math.pi)), 3)
    same = lines["i"] == lines["j"]
    assert np.count_nonzero(same) == 8
    k = lines["k"][same]
    assert np.array_equal(lines["frequency"][same], np.abs(k))
    assert np.array_equal(lines["direction"][same], np.where(k > 0, 1, -1))


def test_transition_frequency_cross_mode():
    p = _params(0.1, math.pi)
    lines = spectrum(p, _modes(p), 2)
    k0 = lines["k"] == 0
    keys = [key[:2] for key, zero in zip(_keys(lines), k0) if zero]
    assert sorted(keys) == [(1, 2), (2, 1)]
    for frequency in lines["frequency"][k0]:
        assert frequency == pytest.approx(0.1 * abs(J0_PI), abs=1e-12)
    # J0(pi) < 0 puts mode 1 above mode 2: eps_2 - eps_1 = 0.1 * J0 < 0
    direction = dict(zip(keys, lines["direction"][k0].tolist()))
    assert direction == {(1, 2): -1, (2, 1): 1}


def test_transition_frequency_uses_given_pair():
    # positions come from the first-order quasienergy pair, not the modes
    p = _params(0.1, math.pi)
    pair = analytic_quasienergies(p)
    levels = (pair.eps1, pair.eps2)
    lines = spectrum(p, _modes(p), 3)
    for (i, j, k), frequency, direction in zip(_keys(lines), lines["frequency"], lines["direction"]):
        signed = levels[j - 1] - levels[i - 1] + k
        assert frequency == abs(signed)
        assert direction == (signed > 0) - (signed < 0)


def test_spectrum_row_counts_and_sorting():
    p = _params(0.1, 2.0)
    lines = spectrum(p, _modes(p), 3)
    assert {column.shape for column in lines.values()} == {(14,)}
    freqs = lines["frequency"].tolist()
    assert freqs == sorted(freqs)
    assert not lines["forbidden"].any()
    full = spectrum(p, _modes(p), 3, include_forbidden=True)
    assert {column.shape for column in full.values()} == {(28,)}
    assert np.count_nonzero(full["forbidden"]) == 14


def test_spectrum_classes_and_intensity_property():
    lines = spectrum(_params(0.1, 2.0), _modes(_params(0.1, 2.0)), 2)
    assert list(lines) == COLUMNS
    assert all(isinstance(column, np.ndarray) for column in lines.values())
    assert lines["class"].tolist() == [line_class(i, j, k) for i, j, k in _keys(lines)]
    assert np.all(lines["intensity_numeric"] >= 0.0)
    assert np.all(lines["frequency"] >= 0.0)
    assert np.all(np.isin(lines["direction"], (-1, 0, 1)))


def test_spectrum_hermiticity():
    table = _intensities(spectrum(_params(0.1, math.pi), _modes(_params(0.1, math.pi)), 3))
    for (i, j, k), value in table.items():
        assert table[(j, i, -k)] == pytest.approx(value, abs=1e-12)


def test_spectrum_doublet_collapse_at_crossing():
    p = _params(0.02, j0_zero(1))
    lines = spectrum(p, _modes(p), 3)
    frequency = lines["frequency"]
    assert np.all(np.abs(frequency - np.round(frequency)) <= 1e-9)
    cross_k2 = (lines["i"] != lines["j"]) & (np.abs(lines["k"]) == 2)
    assert np.count_nonzero(cross_k2) == 4
    for value in frequency[cross_k2]:
        assert value == pytest.approx(2.0, abs=1e-9)


def test_spectrum_forbidden_leakage_small():
    p = _params(0.1, math.pi)
    lines = spectrum(p, _modes(p), 5, include_forbidden=True)
    worst = lines["intensity_numeric"][lines["forbidden"]].max()
    assert worst <= 1e-10


def test_spectrum_sum_rule_per_final_mode():
    # summing over initial modes and offsets recovers the full dipole
    # strength; the truncated total grows monotonically toward it
    p = _params(0.1, math.pi)
    mu2 = p.dipole**2
    modes = _modes(p)
    totals = []
    for k_max in (3, 5, 7, 9):
        lines = spectrum(p, modes, k_max)
        # summed in table order, one line after the other
        total = [sum(lines["intensity_numeric"][lines["i"] == i].tolist()) for i in (1, 2)]
        for value in total:
            assert abs(value - mu2) <= 0.1 * mu2
        totals.append(total[0])
    assert all(b >= a - 1e-15 for a, b in zip(totals, totals[1:]))


def test_spectrum_reads_one_bessel_row(monkeypatch):
    p = _params(0.3, 10.0)
    modes = _modes(p, 64)
    orders = []
    original = driventls.spectroscopy.bessel_row

    def recording(order_max, x):
        orders.append(order_max)
        return original(order_max, x)

    monkeypatch.setattr(driventls.spectroscopy, "bessel_row", recording)
    lines = spectrum(p, modes, 9)
    assert orders == [9]
    monkeypatch.undo()
    # J_|k| from the shared row agrees with the per-line closed form
    for (i, j, k), value in zip(_keys(lines), lines["intensity_analytic"].tolist()):
        expected = line_intensity_analytic(p, i, j, k)
        assert value == pytest.approx(expected, rel=2e-15, abs=0.0)


@pytest.mark.parametrize("delta, zeta", [(0.1, 2.0), (0.3, j0_zero(1))])
def test_spectrum_metadata_matches_rules(delta, zeta):
    # each row must agree with the per-line rules, every column is a 1-D
    # array of the kind the CLI renders, and the rows come in sorted order
    p = _params(delta, zeta)
    pair = analytic_quasienergies(p)
    levels = (pair.eps1, pair.eps2)
    lines = spectrum(p, _modes(p), 9, include_forbidden=True)
    assert {column.shape for column in lines.values()} == {(4 * 19,)}
    kinds = {name: column.dtype.kind for name, column in lines.items()}
    assert kinds == dict(zip(COLUMNS, "iiifffUbi"))
    values = [lines[name].tolist() for name in ("frequency", "forbidden", "class", "direction")]
    for (i, j, k), frequency, forbidden, family, direction in zip(_keys(lines), *values):
        assert forbidden == is_forbidden(i, j, k)
        assert family == line_class(i, j, k)
        signed = levels[j - 1] - levels[i - 1] + k
        assert direction == (signed > 0) - (signed < 0)
        assert frequency == abs(signed)
    keys = list(zip(lines["frequency"].tolist(), lines["k"].tolist(), lines["i"].tolist(), lines["j"].tolist()))
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_spectrum_validation():
    p = _params(0.1, 1.0)
    modes = _modes(p, 64)
    with pytest.raises(DomainError):
        spectrum(p, modes, 0)
    with pytest.raises(DomainError):
        spectrum(p, modes, 2.5)
    # 64 samples cannot tell k = 32 from k = -32
    spectrum(p, modes, 31)
    with pytest.raises(DomainError):
        spectrum(p, modes, 32)


def test_spectrum_takes_modes_1_and_2_in_either_order():
    # any other pair would pass one mode's lines off as the other's
    p = _params(0.1, 1.0)
    m1, m2 = _modes(p, 64)
    assert _intensities(spectrum(p, (m2, m1), 3)) == _intensities(spectrum(p, (m1, m2), 3))
    third = FloquetMode(3, m2.quasienergy, m2.samples)
    with pytest.raises(DomainError, match=r"labelled 1 and 2, got \[1, 1\]"):
        spectrum(p, (m1, m1), 3)
    with pytest.raises(DomainError, match=r"labelled 1 and 2, got \[1, 3\]"):
        spectrum(p, (m1, third), 3)
    with pytest.raises(DomainError, match=r"labelled 1 and 2, got \[3, 2\]"):
        spectrum(p, (third, m2), 3)


@pytest.mark.parametrize("delta", [0.02, 0.5])
@pytest.mark.parametrize("zeta", [0.3, 0.6, j0_zero(1), 10.0, 40.0])
def test_intensities_match_shirley(zeta, delta):
    # relative on every line, the weakest included: with no absolute floor, lines of 1e-14
    # at zeta = 0.3 see a grid that loses digits in its second half
    p = _params(delta, zeta)
    reference = shirley.solve(delta, zeta)
    lines = spectrum(p, build_modes(p).modes, 5)
    assert lines["i"].size == 22
    for key, value in _intensities(lines).items():
        assert value == pytest.approx(reference.intensity(*key), rel=1e-8, abs=0.0), key
