"""Tests for the controlled-gate lowering constructions."""

import numpy as np
import pytest

from atomqc import circuit as cir
from atomqc.barenco import (
    lower_1q,
    lower_circuit,
    lower_cu,
    lower_mcu,
    lower_mcx_ladder,
)
from atomqc.exceptions import InsufficientIdleQubits
from atomqc.formats import render_qasm
from atomqc.linalg import haar_unitary, phase_distance
from atomqc.quaternion import zy_decompose
from atomqc.retarget import retarget_circuit
from atomqc.simulate import circuit_unitary, gate_matrix

RNG = np.random.default_rng(4321)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_zy_decompose_reconstructs_exactly():
    for _ in range(200):
        u = haar_unitary(2, RNG)
        assert np.max(np.abs(circuit_unitary(lower_1q(0, u, 1)) - u)) < 1e-12
        assert 0 <= zy_decompose(u).gamma <= np.pi + 1e-12


def test_zy_decompose_degenerate_branches():
    for u in (np.eye(2, dtype=complex), X, 1j * X, np.diag([1.0, 1j])):
        assert np.max(np.abs(circuit_unitary(lower_1q(0, u, 1)) - u)) < 1e-12


def test_abc_identity_and_conjugation():
    # lower_cu is the ABC construction: A B C = I acts on control |0>, and
    # e^{i alpha} A X B X C = u on control |1>, with exactly two CNOTs.
    u = haar_unitary(2, RNG)
    frag = lower_cu(0, 1, u, 2)
    assert [g.kind for g in frag.gates].count("CNOT") == 2
    m = circuit_unitary(frag)
    assert np.max(np.abs(m[:2, :2] - np.eye(2))) < 1e-12
    assert np.max(np.abs(m[2:, 2:] - u)) < 1e-12
    assert np.max(np.abs(m[:2, 2:])) < 1e-12 and np.max(np.abs(m[2:, :2])) < 1e-12


def test_lower_1q_exact():
    for _ in range(50):
        u = haar_unitary(2, RNG)
        frag = lower_1q(0, u, 1)
        assert np.max(np.abs(circuit_unitary(frag) - u)) < 1e-12
        assert all(g.kind in ("RY", "RZ") for g in frag.gates)


def test_lower_cu_exact():
    for _ in range(50):
        u = haar_unitary(2, RNG)
        frag = lower_cu(0, 1, u, 2)
        target = gate_matrix(cir.mcu((0,), 1, u), 2)
        assert np.max(np.abs(circuit_unitary(frag) - target)) < 1e-12
        assert all(g.kind in ("RY", "RZ", "CNOT") for g in frag.gates)


def test_lower_cu_identity_is_empty():
    assert len(lower_cu(0, 1, np.eye(2, dtype=complex), 2).gates) == 0


@pytest.mark.parametrize("m", [3, 4, 5])
def test_ladder_matches_mcx(m):
    n = m + 1 + (m - 2)  # controls + target + borrows
    controls = tuple(range(m))
    target = m
    idle = tuple(range(m + 1, n))
    frag = lower_mcx_ladder(controls, target, idle, n)
    toffolis = [g for g in frag.gates if g.kind == "MCX"]
    assert len(toffolis) == 4 * (m - 2)
    expect = gate_matrix(cir.mcx(controls, target), n)
    assert phase_distance(circuit_unitary(frag), expect) < 1e-12


def test_ladder_borrow_qubits_arbitrary_state():
    # The compute-uncompute symmetry must restore borrows exactly, so the
    # fragment equals C^m X tensored with identity on the borrows; checking
    # the full matrix covers every borrow basis state.
    frag = lower_mcx_ladder((0, 1, 2), 3, (4,), 5)
    expect = gate_matrix(cir.mcx((0, 1, 2), 3), 5)
    assert np.max(np.abs(circuit_unitary(frag) - expect)) < 1e-12


def test_ladder_requires_idle():
    with pytest.raises(InsufficientIdleQubits):
        lower_mcx_ladder((0, 1, 2, 3), 4, (), 5)


@pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6)])
def test_lower_mcu_haar(m, n):
    u = haar_unitary(2, RNG)
    controls = tuple(range(m))
    frag = lower_mcu(controls, (1,) * m, m, u, n)
    expect = gate_matrix(cir.mcu(controls, m, u), n)
    assert phase_distance(circuit_unitary(frag), expect) < 1e-8


def test_lower_mcu_negative_polarity():
    u = haar_unitary(2, RNG)
    frag = lower_mcu((0, 1), (0, 1), 2, u, 3)
    expect = gate_matrix(cir.mcu((0, 1), 2, u, (0, 1)), 3)
    assert phase_distance(circuit_unitary(frag), expect) < 1e-10


def test_lower_mcu_recursion_fallback():
    # Five controls on six qubits: the inner C^4 X has one idle qubit, too
    # few for the ladder's two borrows, so it recurses through square roots.
    u = haar_unitary(2, RNG)
    frag = lower_mcu((0, 1, 2, 3, 4), (1,) * 5, 5, u, 6)
    expect = gate_matrix(cir.mcu((0, 1, 2, 3, 4), 5, u), 6)
    assert phase_distance(circuit_unitary(frag), expect) < 1e-8


def test_lower_circuit_dispatch():
    u = haar_unitary(2, RNG)
    c = cir.Circuit(
        3,
        (
            cir.mcu((0,), 1, u),
            cir.mcu((0, 1), 2, u, (1, 0)),
            cir.diag_phase((0, 1, 2), (1, 0, 1), 0.8),
            cir.h(0),
        ),
    )
    lowered = lower_circuit(c)
    allowed = {"RX", "RY", "RZ", "H", "X", "PHASE", "U1", "CNOT", "CZ", "CCZ", "MCX"}
    assert all(g.kind in allowed for g in lowered.gates)
    for g in lowered.gates:
        if g.kind == "MCX":
            assert len(g.qubits) == 3 and 0 not in g.polarities
    assert phase_distance(circuit_unitary(lowered), circuit_unitary(c)) < 1e-10


@pytest.mark.parametrize("polarity", [0, 1])
def test_lower_circuit_one_control_mcx(polarity):
    # One CNOT, conjugated by X when the control triggers on |0>.
    g = cir.mcx((0,), 1, (polarity,))
    lowered = lower_circuit(cir.Circuit(2, (g,)))
    flip = (cir.x(0),) if polarity == 0 else ()
    assert lowered.gates == flip + (cir.cnot(0, 1),) + flip
    assert np.max(np.abs(circuit_unitary(lowered) - gate_matrix(g, 2))) < 1e-12
    native = retarget_circuit(lowered)
    assert {h.kind for h in native.gates} <= {"C", "CZ"}
    assert phase_distance(circuit_unitary(native), gate_matrix(g, 2)) < 1e-8
    assert render_qasm(lowered).count("cx q[0],q[1];") == 1
