"""Tests for the Givens/Gray-code QR-style compiler."""

import numpy as np
import pytest

from atomqc import circuit as cir
from atomqc.exceptions import NotPowerOfTwo, NotUnitary, SizeTooLarge
from atomqc.linalg import phase_distance, random_unitary
from atomqc.qrd import _gate_row_pairs, gcb_code, qrd_compile
from atomqc.simulate import circuit_unitary, gate_matrix

RNG = np.random.default_rng(55)


def test_gcb_code_values():
    assert [gcb_code(i) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]


def test_gcb_permutation_properties():
    for n in range(1, 9):
        codes = [gcb_code(i) for i in range(2**n)]
        assert sorted(codes) == list(range(2**n))
        for a, b in zip(codes, codes[1:]):
            assert bin(a ^ b).count("1") == 1


def _elimination_ops(u):
    """Two-level eliminations in the order applied, and the residual diagonal.

    The unlowered, control-keeping circuit is the residual diagonal followed
    by the daggered eliminations in reverse.
    """
    c = qrd_compile(u, lower=False, drop_controls=False)
    ops = [g.dagger() for g in reversed(c.gates) if g.kind != "DIAG_PHASE"]
    diag = cir.Circuit(c.n_qubits, tuple(g for g in c.gates if g.kind == "DIAG_PHASE"))
    return ops, diag


def test_eliminate_diagonalizes():
    u = random_unitary(2, seed=0)
    ops, diag = _elimination_ops(u)
    m = u.copy()
    for op in ops:
        m = gate_matrix(op, 2) @ m
    off = m - np.diag(np.diag(m))
    assert np.max(np.abs(off)) < 1e-12
    assert np.allclose(np.abs(np.diag(m)), 1.0)
    assert np.allclose(circuit_unitary(diag), np.diag(np.diag(m)))


def test_eliminate_ops_are_gray_adjacent():
    u = random_unitary(3, seed=1)
    ops, _ = _elimination_ops(u)
    for op in ops:
        (basis_a,), (basis_b,) = _gate_row_pairs(op, 3)
        assert bin(basis_a ^ basis_b).count("1") == 1
    dim = 8
    assert len(ops) <= dim * (dim - 1) // 2


def test_compile_identity_is_empty():
    c = qrd_compile(np.eye(8))
    assert len(c.gates) == 0


def test_compile_diagonal_phase_only():
    u = np.diag([1.0, np.exp(1j * np.pi / 3)])
    c = qrd_compile(u, lower=False)
    assert [g.kind for g in c.gates] == ["DIAG_PHASE"]
    assert phase_distance(circuit_unitary(c), u) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("lower", [False, True])
@pytest.mark.parametrize("drop", [False, True])
def test_round_trip_all_modes(n, lower, drop):
    u = random_unitary(n, seed=17 + n)
    c = qrd_compile(u, lower=lower, drop_controls=drop)
    assert phase_distance(circuit_unitary(c), u) < 1e-8


def test_control_elimination_reduces_count():
    u = random_unitary(3, seed=4)
    full = cir.gate_counts(qrd_compile(u, drop_controls=False)).entangling_total
    reduced = cir.gate_counts(qrd_compile(u, drop_controls=True)).entangling_total
    assert reduced < full


def test_lowered_gate_kinds():
    u = random_unitary(3, seed=9)
    c = qrd_compile(u)
    allowed = {"RX", "RY", "RZ", "H", "X", "PHASE", "U1", "CNOT", "CZ", "CCZ", "MCX"}
    assert all(g.kind in allowed for g in c.gates)


def test_compile_unlowered_keeps_multi_controlled_kinds():
    u = random_unitary(2, seed=2)
    c = qrd_compile(u, lower=False, drop_controls=False)
    assert all(g.kind in ("MCU", "U1", "DIAG_PHASE", "CU") for g in c.gates)
    assert phase_distance(circuit_unitary(c), u) < 1e-10


def test_input_validation():
    with pytest.raises(NotUnitary):
        qrd_compile(np.eye(4) * 1.01)
    with pytest.raises(NotPowerOfTwo):
        qrd_compile(np.eye(6))
    with pytest.raises(SizeTooLarge):
        qrd_compile(np.eye(16), max_qubits=3)


def test_cnot_gate_compiles_to_few_gates():
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    c = qrd_compile(cnot)
    assert phase_distance(circuit_unitary(c), cnot) < 1e-12
    # QRD is exact but not count-optimal: a CNOT matrix comes back as 4 CNOTs.
    assert cir.gate_counts(c).entangling_total <= 4
