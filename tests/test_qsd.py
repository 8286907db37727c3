"""Tests for the recursive Shannon (CSD) compiler."""

import numpy as np
import pytest
import scipy.linalg

from atomqc import circuit as cir
from atomqc.circuit import rotation_matrix
from atomqc.exceptions import LengthNotPowerOfTwo, NotUnitary, SizeTooLarge
from atomqc.linalg import phase_distance, random_unitary
from atomqc.qsd import (
    _gray_walsh_matrix,
    multiplexer_angles,
    qsd_compile,
    synth_multiplexed_rotation,
)
from atomqc.simulate import circuit_unitary

RNG = np.random.default_rng(7)


def test_multiplexer_angles_single_control():
    alphas = multiplexer_angles([np.pi / 2, np.pi / 2])
    assert np.allclose(alphas, [np.pi / 2, 0.0])


def test_multiplexer_angles_inverse():
    thetas = RNG.uniform(-np.pi, np.pi, 8)
    assert np.allclose(_gray_walsh_matrix(3) @ multiplexer_angles(thetas), thetas)


def test_multiplexer_angles_bad_length():
    with pytest.raises(LengthNotPowerOfTwo):
        multiplexer_angles([0.1, 0.2, 0.3])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("axis", ["Y", "Z"])
def test_multiplexed_rotation_matches_block_diagonal(k, axis):
    thetas = RNG.uniform(-np.pi, np.pi, 2**k)
    gates, phase = synth_multiplexed_rotation(axis, tuple(range(k)), k, thetas)
    got = circuit_unitary(cir.Circuit(k + 1, gates, phase))
    expect = scipy.linalg.block_diag(*[rotation_matrix(axis, t) for t in thetas])
    assert phase_distance(got, expect) < 1e-12
    assert np.max(np.abs(got - expect)) < 1e-12
    cnots = [g for g in gates if g.kind == "CNOT"]
    assert len(cnots) == (2**k if k else 0)


def test_multiplexed_rotation_validation():
    with pytest.raises(ValueError):
        synth_multiplexed_rotation("X", (0,), 1, (0.1, 0.2))
    with pytest.raises(ValueError):
        synth_multiplexed_rotation("Y", (0,), 1, (0.1,))
    with pytest.raises(ValueError):
        synth_multiplexed_rotation("Y", (0,), 1, (0.1, 0.2, 0.3, 0.4))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip(n):
    u = random_unitary(n, seed=n)
    c = qsd_compile(u)
    assert phase_distance(circuit_unitary(c), u) < 1e-9


@pytest.mark.parametrize("n,count", [(1, 0), (2, 6), (3, 36), (4, 168)])
def test_cnot_recurrence(n, count):
    u = random_unitary(n, seed=n + 20)
    c = qsd_compile(u)
    assert cir.gate_counts(c).get("CNOT") == count


def test_gate_kinds_are_lowered():
    c = qsd_compile(random_unitary(3, seed=5))
    assert all(g.kind in ("RY", "RZ", "CNOT") for g in c.gates)


def test_identity_compiles_to_nothing():
    assert len(qsd_compile(np.eye(8)).gates) == 0


def test_structured_input_still_exact():
    # A CNOT matrix exercises the degenerate CSD branches (thetas 0 / pi/2).
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    c = qsd_compile(cnot)
    assert phase_distance(circuit_unitary(c), cnot) < 1e-10


def test_tensor_product_input():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = np.kron(h, np.kron(h, h))
    c = qsd_compile(u)
    assert phase_distance(circuit_unitary(c), u) < 1e-10


def test_input_validation():
    with pytest.raises(NotUnitary):
        qsd_compile(np.ones((4, 4)))
    with pytest.raises(SizeTooLarge):
        qsd_compile(np.eye(16), max_qubits=3)
