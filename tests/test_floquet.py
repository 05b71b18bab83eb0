import math

import numpy as np
import pytest
from oracles import averaged_overlap_sq, classify_parity, quasienergy_miss, shirley

import driventls.propagator
from driventls import (
    ClassificationError,
    DomainError,
    FloquetMode,
    PropagationConfig,
    QuasienergyPair,
    SystemParams,
    analytic_floquet_state,
    analytic_modes,
    build_modes,
    exact_quasienergies,
    fold_quasienergy,
    j0_zero,
    one_period_propagator,
    quasienergy_distance,
    tau_grid,
)
from driventls.floquet import PARITY, _phase_factor, _split
from driventls.propagator import half_period_propagators

TWO_PI = 2.0 * math.pi


def _params(delta, zeta):
    return SystemParams.from_zeta(delta=delta, zeta=zeta)


def test_phase_factor_ties_anchor_on_the_first_component():
    # both components of each vector have the same magnitude, exactly; the
    # factor makes the first one real positive, one vector at a time and stacked
    vectors = np.array([[3 + 4j, 4 - 3j], [-5, 5j], [1j, 1], [2, -2], [-3 - 4j, 5]])
    assert np.array_equal(np.abs(vectors[:, 0]), np.abs(vectors[:, 1]))
    stacked = vectors * _phase_factor(vectors)
    grid = vectors.reshape(5, 1, 2) * _phase_factor(vectors.reshape(5, 1, 2))
    for v, row, cell in zip(vectors, stacked, grid[:, 0]):
        alone = v * _phase_factor(v)
        assert np.array_equal(alone, row) and np.array_equal(alone, cell)
        assert abs(alone[0] - abs(v[0])) <= 1e-15 * abs(v[0])
        assert abs(alone[1]) == pytest.approx(abs(v[1]), rel=1e-15)


def test_fold_examples():
    assert fold_quasienergy(0.0) == 0.0
    assert fold_quasienergy(0.3) == pytest.approx(0.3, abs=1e-15)
    assert fold_quasienergy(0.75) == pytest.approx(-0.25, abs=1e-15)
    assert fold_quasienergy(1.0) == 0.0
    assert fold_quasienergy(0.5) == 0.5
    assert fold_quasienergy(-0.5) == 0.5
    assert fold_quasienergy(-0.3) == pytest.approx(-0.3, abs=1e-15)


def test_fold_shift_covariance():
    for x in (0.31, -0.47, 0.5):
        for n in (-2, 1, 5):
            assert fold_quasienergy(x + n) == pytest.approx(fold_quasienergy(x), abs=1e-12)


def test_fold_rejects_non_finite():
    # a NaN or infinity anywhere, one value or a cell of a stack, to fold or to a distance
    for bad in (math.nan, math.inf, -math.inf):
        eps = np.array([[0.1, 0.2], [bad, 0.4]])
        for call in (lambda: fold_quasienergy(bad), lambda: fold_quasienergy(eps), lambda: quasienergy_distance(eps, 0.0)):
            with pytest.raises(DomainError, match=f"quasienergy must be finite, got {bad!r}"):
                call()


def _scalar_fold(value: float) -> float:
    # the scalar fold that the elementwise one replaced, kept as its oracle
    if not math.isfinite(value):
        raise DomainError(f"quasienergy must be finite, got {value!r}")
    if -0.5 < value <= 0.5:
        return value
    r = value - math.floor(value)
    return r - 1.0 if r > 0.5 else r


def _float_bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def test_elementwise_fold_and_distance_are_bitwise_the_scalar_ones():
    edges = [0.0, -0.0, 0.5, -0.5, 1.5, -1.5, 1e6 + 0.5, 0.75, -0.75, 2.0, 5e-324, 1e300, -1e300]
    edges += [math.nextafter(0.5, 1.0), math.nextafter(0.5, 0.0), math.nextafter(-0.5, -1.0)]
    values = np.concatenate((edges, np.random.default_rng(19).uniform(-3.0, 3.0, 48)))
    expected = [_scalar_fold(v) for v in values.tolist()]
    for value, fold in zip(values.tolist(), expected):
        folded = fold_quasienergy(value)
        assert type(folded) is float and _float_bits(folded) == _float_bits(fold)
    pairs = values.reshape(-1, 2)
    assert np.array_equal(_float_bits(fold_quasienergy(pairs)), _float_bits(expected).reshape(-1, 2))
    others = pairs[::-1]
    distances = [abs(_scalar_fold(a - b)) for a, b in zip(pairs.flat, others.flat)]
    assert np.array_equal(_float_bits(quasienergy_distance(pairs, others)), _float_bits(distances).reshape(-1, 2))
    distance = quasienergy_distance(0.4, -0.45)
    assert type(distance) is float and distance == abs(_scalar_fold(0.4 - -0.45))


def test_quasienergy_distance():
    assert quasienergy_distance(0.4, -0.4) == pytest.approx(0.2, abs=1e-15)
    assert quasienergy_distance(0.1, 0.1) == 0.0
    assert quasienergy_distance(1.3, 0.3) == pytest.approx(0.0, abs=1e-15)


def test_pair_labels():
    pair = QuasienergyPair(-0.1, 0.1)
    assert [(pair.eps1, pair.eps2)[label - 1] for label in (1, 2)] == [-0.1, 0.1]


def test_mode_validation_and_immutability():
    samples = np.tile([1.0 + 0j, 0.0j], (64, 1))
    mode = FloquetMode(1, 0.0, samples)
    assert mode.n_samples == 64
    with pytest.raises(ValueError):
        mode.samples[0, 0] = 2.0
    with pytest.raises(DomainError):
        FloquetMode(1, 0.0, np.zeros((64, 3), dtype=complex))
    with pytest.raises(DomainError):
        FloquetMode(1, 0.0, np.zeros(4, dtype=complex))


def test_modes_without_detuning():
    # delta = 0: the monodromy operator is the identity, both quasienergies
    # vanish and the bare states at tau = 0 carry the two parities
    p = _params(0.0, 2.0)
    pair = exact_quasienergies(p)
    assert abs(pair.eps1) <= 1e-14 and abs(pair.eps2) <= 1e-14
    m1, m2 = build_modes(p, n_grid=64).modes
    assert abs(m1.quasienergy) <= 1e-14 and abs(m2.quasienergy) <= 1e-14
    assert np.allclose(m1.samples[0], [1.0, 0.0], atol=1e-14)
    assert np.allclose(m2.samples[0], [0.0, 1.0], atol=1e-14)
    # mode 1 follows the exact rotation exp(i rabi sin(tau) sigma_x)
    angle = p.rabi * np.sin(tau_grid(64))
    rotated = np.column_stack((np.cos(angle), 1j * np.sin(angle)))
    assert np.max(np.abs(m1.samples - rotated)) <= 1e-12


def test_modes_without_drive():
    # zeta = 0: the monodromy operator diag(e^{i theta}, e^{-i theta}) has
    # the bare states as modes
    theta = 0.1
    p = SystemParams(delta=theta / math.pi, rabi=0.0)
    pair = exact_quasienergies(p)
    assert pair.eps1 == pytest.approx(-theta / TWO_PI, abs=1e-14)
    assert pair.eps2 == pytest.approx(theta / TWO_PI, abs=1e-14)
    m1, m2 = build_modes(p, n_grid=64).modes
    assert np.allclose(m1.samples[0], [1.0, 0.0], atol=1e-14)
    assert np.allclose(m2.samples[0], [0.0, 1.0], atol=1e-14)


def test_build_modes_orthonormal_and_phase_fixed():
    m1, m2 = build_modes(_params(0.1, math.pi), n_grid=64).modes
    v1, v2 = m1.samples[0], m2.samples[0]
    assert abs(np.linalg.norm(v1) - 1.0) <= 1e-12
    assert abs(np.linalg.norm(v2) - 1.0) <= 1e-12
    assert abs(np.conj(v1) @ v2) <= 1e-12
    for v in (v1, v2):
        big = v[np.argmax(np.abs(v))]
        assert abs(big.imag) <= 1e-12
        assert big.real > 0.0


@pytest.mark.parametrize(
    "delta, zeta", [(1e-5, 70.0), (1e-5, 100.0), (1e-4, 40.0), (0.02, j0_zero(1) + 3e-6)]
)
def test_mode_vectors_match_shirley(delta, zeta):
    # quasienergies 2e-7..1.3e-6 apart, where an eigensolve of the monodromy
    # operator loses digits in the mode vectors; Shirley's Floquet matrix
    # shares no code with the propagator
    modes = build_modes(_params(delta, zeta), n_grid=64).modes
    for mode in modes:
        ref = shirley.solve(delta, zeta).mode(mode.label, np.zeros(1))[0]
        big = ref[np.argmax(np.abs(ref))]
        ref = ref * (big.conjugate() / abs(big))  # largest component real positive
        assert np.max(np.abs(mode.samples[0] - ref)) <= 1e-12


@pytest.mark.parametrize("delta, zeta", [(1.0, 1e-4), (0.02, j0_zero(1)), (0.5, 40.0), (0.02, 100.0), (0.3, 3.1)])
def test_shirley_sectors_hold_the_zone_eigenvalues_of_the_unsplit_matrix(delta, zeta):
    values = np.linalg.eigvalsh(shirley.floquet_matrix(delta, zeta, shirley.harmonics(zeta)))
    inside = values[(values > -0.5) & (values <= 0.5)]
    assert inside.size == 2 and np.max(np.abs(inside - sorted(shirley.solve(delta, zeta).quasienergies))) <= 1e-12


def test_zone_boundary_has_no_parity():
    # delta = 1 without drive folds both modes onto eps = 1/2
    p = SystemParams(delta=1.0, rabi=0.0)
    with pytest.raises(ClassificationError, match="zone boundary"):
        exact_quasienergies(p)
    with pytest.raises(ClassificationError, match="zone boundary"):
        build_modes(p, n_grid=64)


def test_zone_boundary_neighbourhood_solves():
    # a weak drive at delta = 1 already splits the modes by parity
    pair = exact_quasienergies(_params(1.0, 1e-4))
    assert quasienergy_miss(1.0, 1e-4, pair.eps1, pair.eps2) <= 1e-10


@pytest.mark.parametrize("delta, zeta_min", [(0.0, 0.0), (0.02, 0.0), (1.0, 0.25)])
def test_batched_split_is_bitwise_the_per_matrix_solve(delta, zeta_min):
    # one stacked eigh, matmul and phase fix against the solve of each matrix
    # alone; delta = 1 without drive sits on the zone boundary, so it starts later
    halves, _, _ = half_period_propagators(delta, np.linspace(zeta_min, 6.0, 25) / 2.0)
    eps_rows, errors, vectors = _split(halves)
    assert eps_rows.shape == (25, 2) and errors == [None] * 25
    for half, (eps1, eps2), modes in zip(halves, eps_rows.tolist(), vectors):
        q = PARITY @ half
        _, vecs = np.linalg.eigh(0.5 * (q + q.conj().T))
        for v, eps, fixed in ((vecs[:, 1], eps1, modes[0]), (vecs[:, 0], eps2, modes[1])):
            assert eps == fold_quasienergy(-np.angle(np.conj(v) @ q @ v) / math.pi)
            big = v[0] if abs(v[0]) >= abs(v[1]) else v[1]
            expected = v * (big.conjugate() / abs(big))
            assert np.array_equal(np.ascontiguousarray(fixed).view(np.uint64), expected.view(np.uint64))


def test_exact_quasienergies_propagate_a_quarter_period(monkeypatch):
    # one run over [0, pi/2] with steps_per_period // 4 steps, plus its
    # half-step run; [pi/2, pi] comes from the reflection symmetry
    runs = []
    original = driventls.propagator._steps

    def recording(delta, rabi, tau0, h, n, block=slice(None)):
        runs.append((tau0, h * n, n, np.shape(rabi)))
        return original(delta, rabi, tau0, h, n, block)

    monkeypatch.setattr(driventls.propagator, "_steps", recording)
    exact_quasienergies(_params(0.1, 2.0), PropagationConfig(steps_per_period=256))
    quarter = math.pi / 2
    assert runs == [(0.0, quarter, 64, (1, 1)), (0.0, quarter, 32, (1, 1))]


def test_floquet_mode_periodicity():
    # carrying each mode once around the period, e^{2 pi i eps} U(2 pi, 0),
    # returns its tau = 0 sample
    solution = build_modes(_params(0.1, 2.0), n_grid=64)
    for mode in solution.modes:
        v = mode.samples[0]
        closed = np.exp(1j * mode.quasienergy * TWO_PI) * (solution.monodromy @ v)
        assert np.max(np.abs(closed - v)) <= 1e-8


def test_floquet_mode_matches_analytic_interior():
    p = _params(0.1, math.pi / 2)
    mode1, _ = build_modes(p, n_grid=64).modes
    probe = mode1.samples[8]  # tau = pi/4
    ref = analytic_floquet_state(p, 1, math.pi / 4)
    fidelity = abs(np.conj(probe) @ ref) ** 2
    assert fidelity >= 1.0 - 10 * 0.1**2


def test_build_modes_solution():
    p = _params(0.1, 2.0)
    solution = build_modes(p, n_grid=64)
    assert [m.label for m in solution.modes] == [1, 2]
    # the one propagation's last grid point is the monodromy operator
    assert np.max(np.abs(solution.monodromy - one_period_propagator(p))) <= 1e-13
    assert not solution.monodromy.flags.writeable
    assert 0.0 < solution.error_estimate <= 1e-10


def test_classify_parity_basics():
    const_ground = np.tile([1.0 + 0j, 0.0j], (64, 1))
    assert classify_parity(const_ground) == "symmetric"
    const_excited = np.tile([0.0j, 1.0 + 0j], (64, 1))
    assert classify_parity(const_excited) == "antisymmetric"


def test_classify_parity_replica_flips():
    p = _params(0.1, math.pi)
    m1, m2 = build_modes(p, n_grid=64).modes
    taus = tau_grid(64)
    replica = np.exp(1j * taus)[:, None] * m1.samples
    assert classify_parity(replica) == "antisymmetric"
    replica2 = np.exp(-1j * taus)[:, None] * m2.samples
    assert classify_parity(replica2) == "symmetric"


def test_classify_parity_rejects_mixture():
    p = _params(0.1, math.pi)
    m1, m2 = build_modes(p, n_grid=64).modes
    blend = (m1.samples + m2.samples) / math.sqrt(2.0)
    with pytest.raises(ValueError, match="not a symmetry eigenstate"):
        classify_parity(blend)


def test_classify_parity_origin_invariance():
    p = _params(0.1, 2.4)
    m1, m2 = build_modes(p, n_grid=64).modes
    for shift in (5, 16, 33):
        assert classify_parity(np.roll(m1.samples, shift, axis=0)) == "symmetric"
        assert classify_parity(np.roll(m2.samples, shift, axis=0)) == "antisymmetric"


def test_classify_parity_needs_even_grid():
    with pytest.raises(ValueError, match="even sample count"):
        classify_parity(np.ones((65, 2), dtype=complex))


def test_build_modes_zero_drive():
    p = SystemParams(delta=0.1, rabi=0.0)
    m1, m2 = build_modes(p, n_grid=64).modes
    assert classify_parity(m1.samples) == "symmetric"
    assert classify_parity(m2.samples) == "antisymmetric"
    assert m1.quasienergy == pytest.approx(-0.05, abs=1e-10)
    assert m2.quasienergy == pytest.approx(0.05, abs=1e-10)
    assert np.max(np.abs(m1.samples - np.array([1.0, 0.0]))) <= 1e-12
    assert np.max(np.abs(m2.samples - np.array([0.0, 1.0]))) <= 1e-12


def test_build_modes_norms_and_orthogonality():
    p = _params(0.1, math.pi)
    m1, m2 = build_modes(p, n_grid=128).modes
    for m in (m1, m2):
        assert np.max(np.abs(np.linalg.norm(m.samples, axis=1) - 1.0)) <= 1e-9
    cross = np.abs(np.sum(np.conj(m1.samples) * m2.samples, axis=1))
    assert np.max(cross) <= 1e-8
    # the sample-overlap oracle agrees with the labels from the parity sign
    assert classify_parity(m1.samples) == "symmetric"
    assert classify_parity(m2.samples) == "antisymmetric"


def test_build_modes_weight_curve():
    # ground-state weight of the symmetric mode follows cos^2 of the
    # accumulated pulse area at leading order
    p = _params(0.1, math.pi)
    m1, _ = build_modes(p, n_grid=64).modes
    taus = tau_grid(64)
    expected = np.cos(0.5 * math.pi * np.sin(taus)) ** 2
    got = np.abs(m1.samples[:, 0]) ** 2
    assert np.max(np.abs(got - expected)) <= 10 * 0.1**2


def test_build_modes_at_crossing():
    p = _params(0.1, j0_zero(1))
    m1, m2 = build_modes(p, n_grid=64).modes
    assert classify_parity(m1.samples) == "symmetric"
    assert classify_parity(m2.samples) == "antisymmetric"
    assert abs(m1.quasienergy) <= 5 * 0.1**2
    assert abs(m2.quasienergy) <= 5 * 0.1**2


def test_build_modes_deep_degenerate_split():
    # tiny detuning at the crossing puts both quasienergies within 1e-9 of
    # zero; the symmetry operator still splits the modes
    p = _params(1e-5, j0_zero(1))
    m1, m2 = build_modes(p, n_grid=64).modes
    assert classify_parity(m1.samples) == "symmetric"
    assert classify_parity(m2.samples) == "antisymmetric"
    assert abs(m1.quasienergy) <= 1e-9
    assert abs(m2.quasienergy) <= 1e-9


def test_build_modes_grid_validation():
    p = _params(0.1, 1.0)
    with pytest.raises(DomainError):
        build_modes(p, n_grid=32)
    with pytest.raises(DomainError):
        build_modes(p, n_grid=100)
    with pytest.raises(DomainError):
        build_modes(p, PropagationConfig(steps_per_period=256), n_grid=512)


def test_exact_quasienergies_free_limit():
    pair = exact_quasienergies(SystemParams(delta=0.1, rabi=0.0))
    assert pair.eps1 == pytest.approx(-0.05, abs=1e-10)
    assert pair.eps2 == pytest.approx(0.05, abs=1e-10)
    assert type(pair.eps1) is float and type(pair.eps2) is float


def test_exact_quasienergies_sign_flip():
    pair = exact_quasienergies(_params(0.1, math.pi))
    assert pair.eps1 > 0.0 > pair.eps2
    assert pair.eps1 == pytest.approx(0.015212108882204693, abs=1e-3)
    assert fold_quasienergy(pair.eps1 + pair.eps2) == pytest.approx(0.0, abs=1e-9)


def test_exact_quasienergies_match_build_modes():
    p = _params(0.05, 2.0)
    pair = exact_quasienergies(p)
    m1, m2 = build_modes(p, n_grid=64).modes
    assert pair.eps1 == pytest.approx(m1.quasienergy, abs=1e-10)
    assert pair.eps2 == pytest.approx(m2.quasienergy, abs=1e-10)


@pytest.mark.parametrize("zeta", [math.pi / 2, j0_zero(1)], ids=["pi_half", "crossing"])
def test_modes_pair_by_label(zeta):
    # both solvers label the symmetric mode 1: the straight overlaps carry
    # the first-order fidelity, and the crossed ones vanish even at the
    # crossing, where the quasienergies meet
    p = _params(0.02, zeta)
    exact = build_modes(p, n_grid=128).modes
    analytic = analytic_modes(p, n_grid=128)
    floor = 1.0 - 10 * 0.02**2
    for e, a in zip(exact, analytic):
        assert e.label == a.label
        assert averaged_overlap_sq(e.samples, a.samples) >= floor
        pointwise = np.abs(np.sum(np.conj(e.samples) * a.samples, axis=1)) ** 2
        assert np.min(pointwise) >= floor
        assert quasienergy_distance(e.quasienergy, a.quasienergy) <= 2e-3
    assert averaged_overlap_sq(exact[0].samples, analytic[1].samples) <= 1e-20
    assert averaged_overlap_sq(exact[1].samples, analytic[0].samples) <= 1e-20
