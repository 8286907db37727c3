"""Tests for the dense simulator and verification metrics."""

import numpy as np
import pytest

from atomqc import circuit as cir
from atomqc.circuit import c_matrix, rotation_matrix
from atomqc.exceptions import QubitOutOfRange, SizeTooLarge
from atomqc.linalg import haar_unitary
from atomqc.simulate import circuit_unitary, cnot_lower_bound, gate_matrix, verify

RNG = np.random.default_rng(99)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)


def test_h_embedding_big_endian():
    # Qubit 0 is the most significant bit of the basis index.
    assert np.allclose(gate_matrix(cir.h(0), 2), np.kron(H, np.eye(2)))
    assert np.allclose(gate_matrix(cir.h(1), 2), np.kron(np.eye(2), H))


def test_cnot_matrix():
    assert np.allclose(gate_matrix(cir.cnot(0, 1), 2), CNOT)


def test_cnot_reversed_control():
    # Control on the less significant qubit swaps |01> and |11>.
    m = gate_matrix(cir.cnot(1, 0), 2)
    expect = np.eye(4)[:, [0, 3, 2, 1]]
    assert np.allclose(m, expect)


def test_c_gate_example():
    assert np.allclose(c_matrix(np.pi, np.pi / 2), [[0, -1j], [-1j, 0]])


def test_c_gate_phi_zero_is_ry():
    theta = 1.234
    assert np.allclose(c_matrix(theta, 0.0), rotation_matrix("Y", theta))


def test_polarity_and_diag_phase_semantics():
    g = cir.mcu((0,), 1, np.array([[0, 1], [1, 0]], dtype=complex), polarities=(0,))
    m = gate_matrix(g, 2)
    expect = np.eye(4)[:, [1, 0, 2, 3]]  # X fires when the control is |0>
    assert np.allclose(m, expect)
    d = cir.diag_phase((0, 1), (1, 0), 0.5)
    m = gate_matrix(d, 2)
    assert np.allclose(np.diag(m), [1, 1, np.exp(0.5j), 1])


def test_gate_matrix_out_of_range():
    with pytest.raises(QubitOutOfRange):
        gate_matrix(cir.h(3), 2)


def test_circuit_unitary_identities():
    assert np.allclose(circuit_unitary(cir.Circuit(2)), np.eye(4))
    c = cir.Circuit(1, (cir.h(0), cir.h(0)))
    assert np.max(np.abs(circuit_unitary(c) - np.eye(2))) < 1e-14


def test_h_conjugation_gives_cnot():
    c = cir.Circuit(2, (cir.h(1), cir.cz(0, 1), cir.h(1)))
    assert np.max(np.abs(circuit_unitary(c) - CNOT)) < 1e-12


def test_time_order_is_left_multiplication():
    c = cir.Circuit(1, (cir.x(0), cir.h(0)))
    x = gate_matrix(cir.x(0), 1)
    assert np.allclose(circuit_unitary(c), np.kron(1, H) @ x)


def test_global_phase_applied():
    c = cir.Circuit(1, (), global_phase=0.7)
    assert np.allclose(circuit_unitary(c), np.exp(0.7j) * np.eye(2))


def test_homomorphism_over_concatenation():
    gates = tuple(
        cir.ry(float(a), int(q)) for a, q in zip(RNG.uniform(0, 6, 6), RNG.integers(0, 3, 6))
    ) + (cir.cnot(0, 2), cir.cz(1, 2))
    c1 = cir.Circuit(3, gates[:4])
    c2 = cir.Circuit(3, gates[4:])
    whole = cir.Circuit(3, gates)
    assert np.max(np.abs(
        circuit_unitary(c2) @ circuit_unitary(c1) - circuit_unitary(whole)
    )) < 1e-12


def test_every_gate_matrix_unitary():
    gates = [
        cir.rx(0.3, 0), cir.ry(1.0, 1), cir.rz(2.2, 0), cir.h(0), cir.x(1),
        cir.c_gate(0.5, 1.1, 0), cir.phase(0.4, 1),
        cir.u1q(haar_unitary(2, RNG), 0),
        cir.cnot(0, 1), cir.cz(0, 1), cir.mcu((0,), 1, haar_unitary(2, RNG)),
        cir.toffoli(0, 1, 2), cir.ccz(0, 1, 2),
        cir.mcu((0, 1), 2, haar_unitary(2, RNG), (1, 0)),
        cir.diag_phase((0, 1, 2), (1, 1, 0), 1.3),
    ]
    for g in gates:
        m = gate_matrix(g, 3)
        assert np.max(np.abs(m.conj().T @ m - np.eye(8))) < 1e-13, g.kind


def test_size_cap():
    with pytest.raises(SizeTooLarge):
        circuit_unitary(cir.Circuit(13))


@pytest.mark.parametrize("n,expected", [(1, 0), (2, 3), (3, 14), (4, 61)])
def test_cnot_lower_bound(n, expected):
    assert cnot_lower_bound(n) == expected


def test_verify_report_and_sensitivity():
    c = cir.Circuit(2, (cir.h(1), cir.cz(0, 1), cir.h(1)))
    report = verify(c, CNOT, tol=1e-7)
    assert report.passed and report.distance < 1e-12
    assert report.lower_bound == 3
    corrupted = cir.Circuit(2, (cir.h(1), cir.cz(0, 1), cir.h(1), cir.rz(1e-3, 0)))
    report = verify(corrupted, CNOT, tol=1e-7)
    assert not report.passed
    assert report.distance > 1e-4

