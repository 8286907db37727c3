"""Tests for the gate/circuit intermediate representation."""

import numpy as np
import pytest

from atomqc import circuit as cir
from atomqc.exceptions import DuplicateQubit, NotUnitary, QubitOutOfRange


def test_rotation_angles_canonicalized():
    g = cir.rz(-np.pi / 2, 0)
    assert 0 <= g.params[0] < 2 * np.pi
    assert g.params[0] == pytest.approx(3 * np.pi / 2)
    # -1e-17 mod 2 pi rounds to exactly 2 pi, which must become 0.
    assert cir.rz(-1e-17, 0).params[0] == 0.0


def test_gate_equality_with_matrices():
    m = np.eye(2, dtype=complex)
    assert cir.u1q(m, 0) == cir.u1q(m.copy(), 0)
    assert cir.u1q(m, 0) != cir.u1q(1j * m, 0)
    assert cir.h(0) != cir.x(0)


def test_single_qubit_predicate():
    assert cir.h(0).is_single_qubit
    assert cir.c_gate(0.3, 0.1, 2).is_single_qubit
    assert not cir.cnot(0, 1).is_single_qubit
    assert not cir.toffoli(0, 1, 2).is_single_qubit


def test_duplicate_qubits_rejected():
    with pytest.raises(DuplicateQubit):
        cir.cnot(1, 1)
    with pytest.raises(DuplicateQubit):
        cir.toffoli(0, 2, 2)


def test_non_unitary_matrix_rejected():
    with pytest.raises(NotUnitary):
        cir.u1q(np.array([[1.0, 0.0], [0.0, 2.0]]), 0)


def test_circuit_validates_width():
    with pytest.raises(QubitOutOfRange):
        cir.Circuit(2, (cir.h(5),))
    with pytest.raises(ValueError):
        cir.Circuit(0)


def test_dagger_involution():
    for g in (cir.rx(0.4, 0), cir.phase(1.2, 0), cir.cnot(0, 1),
              cir.u1q(np.array([[0, 1j], [1j, 0]], dtype=complex), 0)):
        back = g.dagger().dagger()
        assert back.kind == g.kind and back.qubits == g.qubits
        assert np.allclose(cir.gate_local_matrix(back), cir.gate_local_matrix(g))


def test_dagger_inverts_matrix():
    # Rotation angles are canonicalized into [0, 2pi), so the inverse holds
    # up to a global sign (RY(2pi - t) = -RY(-t)).
    for g in (cir.ry(1.1, 0), cir.c_gate(0.7, -0.2, 0), cir.phase(0.9, 0)):
        prod = cir.gate_local_matrix(g.dagger()) @ cir.gate_local_matrix(g)
        sign = 1.0 if prod[0, 0].real >= 0 else -1.0
        assert np.max(np.abs(sign * prod - np.eye(2))) < 1e-14


def test_gate_counts():
    c = cir.Circuit(3, (cir.h(0), cir.h(1), cir.cnot(0, 1), cir.toffoli(0, 1, 2)))
    counts = cir.gate_counts(c)
    assert counts.get("H") == 2
    assert counts.get("CNOT") == 1
    assert counts.entangling_total == 2
    assert counts.single_qubit_total == 2
