"""Tests for the gate/circuit intermediate representation."""

import numpy as np
import pytest
from reference import dagger

from atomqc import circuit as cir
from atomqc.exceptions import DuplicateQubit, NotUnitary, QubitOutOfRange
from atomqc.linalg import haar_unitary
from atomqc.quaternion import zy_angles
from atomqc.simulate import gate_matrix


def test_rotation_angles_canonicalized():
    g = cir.rz(-np.pi / 2, 0)
    assert 0 <= g.params[0] < 2 * np.pi
    assert g.params[0] == pytest.approx(3 * np.pi / 2)
    # -1e-17 mod 2 pi rounds to exactly 2 pi, which must become 0.
    assert cir.rz(-1e-17, 0).params[0] == 0.0
    # A 0-d array is a float angle.
    assert cir.rx(np.array(-0.5), 0).params == (2 * np.pi - 0.5,)


def _parity_angles():
    two_pi = 2 * np.pi
    edges = [-1e-17, -0.0, 0.0, two_pi, np.nextafter(two_pi, 0), -two_pi, 4 * np.pi + 1e-15, 1e6]
    rng = np.random.default_rng(8)
    us = np.array([haar_unitary(2, rng) for _ in range(250)])
    return np.concatenate([edges, *zy_angles(us)])


def test_array_canonicalization_matches_scalar_bit_for_bit():
    angles = _parity_angles()
    assert len(angles) == 1008
    got = cir.canonical_angles(angles)[0].tolist()
    assert [x.hex() for x in got] == [cir.canonical_angles(a)[0].hex() for a in angles.tolist()]
    # The lowering's wrap phase, as arrays, is the scalar formula entry by
    # entry (np.round keeps the sign of a zero, which math.fsum drops).
    canon, wraps = cir.canonical_angles(angles)
    assert canon.tolist() == got
    scalar = [
        np.pi * round((a - cir.canonical_angles(a)[0]) / (2 * np.pi)) for a in angles.tolist()
    ]
    assert wraps.tolist() == scalar
    assert np.count_nonzero(wraps) > 100


def test_canonical_angles_of_a_float_match_the_array():
    angles = _parity_angles()
    canon, wraps = cir.canonical_angles(angles)
    pairs = [cir.canonical_angles(a) for a in angles.tolist()]
    assert [c.hex() for c, _ in pairs] == [c.hex() for c in canon.tolist()]
    assert [w for _, w in pairs] == wraps.tolist()
    assert all(type(c) is float and type(w) is float for c, w in pairs)


def test_gate_equality_with_matrices():
    m = np.eye(2, dtype=complex)
    assert cir.u1q(m, 0) == cir.u1q(m.copy(), 0)
    assert cir.u1q(m, 0) != cir.u1q(1j * m, 0)
    assert cir.h(0) != cir.x(0)
    # An MCU without controls is the plain single-qubit gate.
    assert cir.mcu((), 0, m) == cir.u1q(m, 0)


def test_single_qubit_predicate():
    assert cir.h(0).is_single_qubit
    assert cir.c_gate(0.3, 0.1, 2).is_single_qubit
    assert not cir.cnot(0, 1).is_single_qubit
    assert not cir.toffoli(0, 1, 2).is_single_qubit
    with pytest.raises(ValueError, match="CNOT has no single-qubit matrix"):
        cir.local_matrices((cir.cnot(0, 1),))


def test_duplicate_qubits_rejected():
    with pytest.raises(DuplicateQubit):
        cir.cnot(1, 1)
    with pytest.raises(DuplicateQubit):
        cir.toffoli(0, 2, 2)
    with pytest.raises(ValueError, match="unknown gate kind 'FOO'"):
        cir.Gate("FOO", (0,))


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
        back = dagger(dagger(g))
        assert back.kind == g.kind and back.qubits == g.qubits
        assert np.allclose(gate_matrix(back, 2), gate_matrix(g, 2))


def test_dagger_inverts_matrix():
    # Rotation angles are canonicalized into [0, 2pi), so the inverse holds
    # up to a global sign (RY(2pi - t) = -RY(-t)).
    for g in (cir.ry(1.1, 0), cir.c_gate(0.7, -0.2, 0), cir.phase(0.9, 0)):
        prod = cir.gate_local_matrix(dagger(g)) @ cir.gate_local_matrix(g)
        sign = 1.0 if prod[0, 0].real >= 0 else -1.0
        assert np.max(np.abs(sign * prod - np.eye(2))) < 1e-14


def test_gate_counts():
    c = cir.Circuit(3, (cir.h(0), cir.h(1), cir.cnot(0, 1), cir.toffoli(0, 1, 2)))
    counts = cir.gate_counts(c)
    assert counts.get("H") == 2
    assert counts.get("CNOT") == 1
    assert counts.entangling_total == 2
    assert counts.single_qubit_total == 2


def test_block_index_shared_and_views():
    index = cir.block_index((0, 2), (1, 0), 1)
    # Calls share the cached index tuples.
    assert cir.block_index((0, 2), (1, 0), 1) is index
    a, b = cir.pair_views(np.arange(8), (0, 2), (1, 0), 1)
    assert a.ravel().tolist() == [0b100] and b.ravel().tolist() == [0b110]
    # The rows are views: writing them writes the array, for any column count.
    m = np.zeros((8, 3))
    a, b = cir.pair_views(m, (0, 2), (1, 0), 1)
    a[...], b[...] = 1.0, 2.0
    assert m[0b100].tolist() == [1.0] * 3 and m[0b110].tolist() == [2.0] * 3
    assert np.count_nonzero(m) == 6
    with pytest.raises(ValueError):
        cir.pair_views(np.zeros((3, 8)).T, (0, 2), (1, 0), 1)
