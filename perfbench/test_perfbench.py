"""Tests of the benchmark's own parts: the Shirley reference, the tracer,
the seeded generators and the output checks.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import contextlib
import inspect
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import shirley  # noqa: E402
import workloads  # noqa: E402
from run import Capture, propagator_steps, tail  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = pytest.importorskip("driventls.cli")


def _j0(x: float) -> float:
    return float(mpmath.besselj(0, x))


def _run(argv):
    sink = Capture()
    with contextlib.redirect_stdout(sink):
        code = cli.main(list(argv))
    return code, sink.text()


@pytest.mark.parametrize("zeta", [0.0, 0.7, 2.404825557695773, 3.9, 6.0])
def test_shirley_reproduces_first_order_quasienergies(zeta):
    errors = []
    for delta in (0.04, 0.02, 0.01):
        ref = shirley.solve(delta, zeta)
        first_order = (-0.5 * delta * _j0(zeta), 0.5 * delta * _j0(zeta))
        errors.append(max(abs(a - b) for a, b in zip(ref.quasienergies, first_order)))
        assert errors[-1] <= delta**2
    # the correction is at least second order: halving delta divides it by >= 4
    if errors[0] > 1e-13:
        assert errors[0] / errors[1] >= 3.9 and errors[1] / errors[2] >= 3.9


@pytest.mark.parametrize("k", [0, 1, 4, 7])
def test_reference_bessel_against_mpmath(k):
    for x in (0.0, 0.3, 2.404825557695773, 17.0, 40.0, 100.0):
        assert abs(shirley.bessel_j(k, x) - float(mpmath.besselj(k, x))) < 1e-14


def test_shirley_modes_are_unit_norm_and_split_by_parity():
    ref = shirley.solve(0.02, 3.1)
    taus = 2.0 * math.pi * np.arange(64) / 64
    for label in (1, 2):
        u = ref.mode(label, taus)
        assert np.allclose(np.sum(np.abs(u) ** 2, axis=1), 1.0, atol=1e-13)
    # forbidden lines vanish exactly: same mode needs odd k, cross-mode even k
    assert ref.intensity(1, 1, 2) == 0.0 and ref.intensity(1, 2, 1) == 0.0
    assert ref.intensity(1, 2, 0) > 0.99


def test_shirley_crossings_at_bessel_zeros():
    zetas = np.linspace(0.0, 6.0, 61).tolist()
    gaps = [shirley.solve(0.02, z).gap for z in zetas]
    found = shirley.crossings(0.02, zetas, gaps)
    assert len(found) == 2
    assert abs(found[0] - workloads.J0_ZEROS[0]) < 2e-3
    assert abs(found[1] - workloads.J0_ZEROS[1]) < 2e-3


SMALL = [
    ["sweep", "--zeta-steps", "7", "--zeta-max", "3", "--steps", "256"],
    ["spectrum", "--steps", "512", "--grid", "64", "--include-forbidden"],
    ["weights", "--zetas", "1.0", "4.0", "--steps", "256", "--grid", "64", "--format", "json"],
    ["validate", "--zetas", "0.6", "70", "--steps", "512", "--grid", "64"],
]


def _public_bindings():
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "driventls" or name.startswith("driventls.")
        for attr, value in vars(module).items()
        if inspect.isfunction(value)
    }


def test_tracer_leaves_stdout_identical_and_restores_functions():
    import driventls.propagator

    before = _public_bindings()
    plain = [_run(argv) for argv in SMALL]
    tracer = Tracer(propagator_steps(driventls.propagator))
    with tracer:
        traced = [_run(argv) for argv in SMALL]
    assert traced == plain
    assert _public_bindings() == before

    calls = tracer.layer_calls()
    assert calls["cli"] == len(SMALL)  # one outermost span per invocation
    assert calls["propagator"] > 0 and calls["cli.render"] == len(SMALL)
    assert tracer.calls["driventls.propagator.propagate_grid"] > 0
    assert tracer.counters["propagator.steps"] > 0
    # self times partition the traced wall time
    assert sum(tracer.self_ns.values()) == pytest.approx(tracer.wall_ns(), rel=1e-9)


def test_tracer_counts_nested_same_layer_calls_once():
    import driventls.propagator

    tracer = Tracer(propagator_steps(driventls.propagator))
    params = sys.modules["driventls"].SystemParams(delta=0.02, rabi=0.3)
    config = driventls.propagator.PropagationConfig(steps_per_period=256)
    with tracer:
        driventls.propagator.one_period_propagator(params, config)
    assert tracer.layer_calls()["propagator"] == 1
    assert tracer.calls["driventls.propagator.propagate"] == 1
    assert tracer.counters["propagator.steps"] == 256


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generator_is_seeded(name):
    generate = workloads.GENERATORS[name]

    def draw(seed):
        rng = random.Random(seed)
        return [generate(rng) for _ in range(3)]

    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
    for argvs in draw(7):
        for argv in argvs:
            assert all(isinstance(a, str) for a in argv)


def test_spectroscopy_bands():
    (validate, spectrum), = [workloads.spectroscopy(random.Random(3))]
    zetas = workloads._zetas(validate)
    assert len(zetas) == 8 and spectrum == ["spectrum"]
    assert all(0.2 <= z <= 2.0 for z in zetas[:2])
    assert all(abs(z - z0) <= 0.01 for z, z0 in zip(zetas[2:4], workloads.J0_ZEROS))
    assert all(8.0 <= z <= 40.0 for z in zetas[4:6])
    assert all(60.0 <= z <= 100.0 for z in zetas[6:])


def _bump(text: str, column: str, amount: float) -> str:
    """CSV text with column of the first data row increased by amount."""
    lines = text.splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[head].split(",").index(column)
    cells = lines[head + 1].split(",")
    cells[col] = repr(float(cells[col]) + amount)
    lines[head + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_checks_accept_outputs_and_catch_corruption():
    argv = ["weights", "--zetas", "1.3", "--steps", "512", "--grid", "64"]
    code, text = _run(argv)
    ok = workloads.check(argv, code, text)
    assert ok.problems == [] and ok.solved == 1 and ok.error < 1e-9
    assert workloads.check(argv, code, _bump(text, "weight2", 1e-3)).problems

    argv = ["spectrum", "--zeta", "2.0"]
    code, text = _run(argv)
    assert workloads.check(argv, code, text).problems == []
    assert workloads.check(argv, code, _bump(text, "intensity_numeric", 1e-3)).problems
    assert workloads.check(argv, 3, text).problems

    # 9.9323 sits near a zero of J_1: the first-order intensity gate fails
    # there although every number validate reports is right
    argv = ["validate", "--zetas", "0.6", "9.932314258317383", "70"]
    code, text = _run(argv)
    outcome = workloads.check(argv, code, text)
    assert code == 1 and outcome.problems == [] and (outcome.attempted, outcome.solved) == (3, 1)
    assert workloads.check(["validate", "--zetas", "0.6", "30", "70"], code, text).problems
    assert workloads.check(argv, code, text.replace('"quasienergy_gap": 3.', '"quasienergy_gap": 9.', 1)).problems


def test_sweep_check_uses_reference_crossings():
    argv = ["sweep", "--delta", "0.03", "--steps", "1024"]
    code, text = _run(argv)
    outcome = workloads.check(argv, code, text)
    assert outcome.problems == [] and outcome.solved == 121 and outcome.error < 1e-9
    moved = text.replace("# crossings = [2.404", "# crossings = [2.405", 1)
    assert moved != text and workloads.check(argv, code, moved).problems


def test_tail_rule():
    # ten samples beyond it once there are enough, the median before
    assert tail([float(i) for i in range(40)]) == (29.0, "p75 of 40 samples")
    assert tail([float(i) for i in range(21)]) == (10.0, "p52 of 21 samples")
    assert tail([3.0, 1.0, 4.0, 2.0]) == (2.5, "median of 4 samples (no tail resolved)")
