"""Tests for the controlled-gate lowering constructions."""

import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from reference import factor_inputs
from scipy.linalg.lapack import zgees
from test_compiler_inputs import DEGENERATE

from atomqc import barenco, qsd
from atomqc import circuit as cir
from atomqc.barenco import _schur_lwork, _unitary_sqrt, complex_schur, fill_rotations, lower_circuit
from atomqc.exceptions import NotUnitary
from atomqc.formats import render_qasm
from atomqc.linalg import TOL_ZERO, haar_unitary, is_unitary, phase_distance, random_unitary
from atomqc.qrd import qrd_compile
from atomqc.qsd import qsd_compile
from atomqc.quaternion import zy_angles
from atomqc.retarget import retarget_circuit
from atomqc.simulate import circuit_unitary, gate_matrix, verify

RNG = np.random.default_rng(4321)

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _lowered_1q(u):
    columns, phase = fill_rotations([(None, 0, u)])
    return cir.Circuit.from_columns(1, *columns, global_phase=phase)


def _lowered(n, g):
    return lower_circuit(cir.Circuit(n, (g,)))


def test_zy_angles_reconstructs_exactly():
    for _ in range(200):
        u = haar_unitary(2, RNG)
        assert np.max(np.abs(circuit_unitary(_lowered_1q(u)) - u)) < 1e-12
        _, _, gamma, _ = zy_angles(u)
        assert 0 <= gamma <= np.pi + 1e-12


def test_zy_angles_degenerate_branches():
    for u in (np.eye(2, dtype=complex), X, 1j * X, np.diag([1.0, 1j])):
        assert np.max(np.abs(circuit_unitary(_lowered_1q(u)) - u)) < 1e-12


def test_abc_identity_and_conjugation():
    # One control is the ABC construction: A B C = I acts on control |0>,
    # and e^{i alpha} A X B X C = u on control |1>, with exactly two CNOTs.
    u = haar_unitary(2, RNG)
    frag = _lowered(2, cir.mcu((0,), 1, u))
    assert [g.kind for g in frag.gates].count("CNOT") == 2
    m = circuit_unitary(frag)
    assert np.max(np.abs(m[:2, :2] - np.eye(2))) < 1e-12
    assert np.max(np.abs(m[2:, 2:] - u)) < 1e-12
    assert np.max(np.abs(m[:2, 2:])) < 1e-12 and np.max(np.abs(m[2:, :2])) < 1e-12


def test_lower_1q_exact():
    for _ in range(50):
        u = haar_unitary(2, RNG)
        frag = _lowered_1q(u)
        assert np.max(np.abs(circuit_unitary(frag) - u)) < 1e-12
        assert all(g.kind in ("RY", "RZ") for g in frag.gates)


def test_lower_cu_exact():
    for _ in range(50):
        u = haar_unitary(2, RNG)
        frag = _lowered(2, cir.mcu((0,), 1, u))
        target = gate_matrix(cir.mcu((0,), 1, u), 2)
        assert np.max(np.abs(circuit_unitary(frag) - target)) < 1e-12
        assert all(g.kind in ("RY", "RZ", "CNOT") for g in frag.gates)


def test_lower_cu_identity_is_empty():
    assert len(_lowered(2, cir.mcu((0,), 1, np.eye(2, dtype=complex))).gates) == 0


@pytest.mark.parametrize("m", [3, 4, 5])
def test_ladder_matches_mcx(m):
    n = m + 1 + (m - 2)  # controls + target + borrows
    controls = tuple(range(m))
    target = m
    frag = _lowered(n, cir.mcx(controls, target))
    toffolis = [g for g in frag.gates if g.kind == "MCX"]
    assert len(toffolis) == 4 * (m - 2)
    expect = gate_matrix(cir.mcx(controls, target), n)
    assert phase_distance(circuit_unitary(frag), expect) < 1e-12


def test_ladder_borrow_qubits_arbitrary_state():
    # The compute-uncompute symmetry must restore borrows exactly, so the
    # fragment equals C^m X tensored with identity on the borrows; checking
    # the full matrix covers every borrow basis state.
    frag = _lowered(5, cir.mcx((0, 1, 2), 3))
    expect = gate_matrix(cir.mcx((0, 1, 2), 3), 5)
    assert np.max(np.abs(circuit_unitary(frag) - expect)) < 1e-12


@pytest.mark.parametrize("m,n", [(1, 2), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6)])
def test_lower_mcu_haar(m, n):
    u = haar_unitary(2, RNG)
    controls = tuple(range(m))
    frag = _lowered(n, cir.mcu(controls, m, u))
    expect = gate_matrix(cir.mcu(controls, m, u), n)
    assert phase_distance(circuit_unitary(frag), expect) < 1e-8


def test_lower_mcu_negative_polarity():
    u = haar_unitary(2, RNG)
    frag = _lowered(3, cir.mcu((0, 1), 2, u, (0, 1)))
    expect = gate_matrix(cir.mcu((0, 1), 2, u, (0, 1)), 3)
    assert phase_distance(circuit_unitary(frag), expect) < 1e-10


def test_lower_mcu_recursion_fallback():
    # Five controls on six qubits: the inner C^4 X has one idle qubit, too
    # few for the ladder's two borrows, so it recurses through square roots.
    u = haar_unitary(2, RNG)
    frag = _lowered(6, cir.mcu((0, 1, 2, 3, 4), 5, u))
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


@pytest.mark.parametrize(
    "controls,polarities,target,n,count",
    [
        ((0, 1), (0, 1), 2, 3, 3),  # X, Toffoli, X
        ((0, 1, 2), (1, 1, 1), 3, 5, 4),  # ladder on one idle qubit
        ((0, 1, 2, 3), (1, 1, 1, 1), 4, 6, 61),  # one idle qubit of two: square roots
        ((0, 1, 2, 3), (1, 1, 1, 1), 4, 7, 8),  # ladder on two idle qubits
    ],
)
def test_lower_circuit_mcx(controls, polarities, target, n, count):
    g = cir.mcx(controls, target, polarities)
    lowered = lower_circuit(cir.Circuit(n, (g,)))
    assert len(lowered.gates) == count
    assert all(h.kind == "CNOT" or h.is_toffoli for h in lowered.gates if len(h.qubits) > 1)
    assert np.max(np.abs(circuit_unitary(lowered) - gate_matrix(g, n))) < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("block", sorted(DEGENERATE) + ["x"])
def test_lower_degenerate_blocks(block, m):
    # With n = m + 1 no qubit is idle, so the square-root recursion takes
    # roots of these blocks and of the antidiagonal X; n = m + 3 lends the
    # ladder its borrows.  X goes in as MCX, the others as MCU.
    controls = tuple(range(m))
    for n, polarities in itertools.product((m + 1, m + 3), itertools.product((0, 1), repeat=m)):
        if block == "x":
            g = cir.mcx(controls, m, polarities)
        else:
            g = cir.mcu(controls, m, DEGENERATE[block](0.7), polarities)
        expect = circuit_unitary(cir.Circuit(n, (g,)))
        lowered = lower_circuit(cir.Circuit(n, (g,)))
        assert np.max(np.abs(circuit_unitary(lowered) - expect)) < 1e-12, (n, polarities)
        native = retarget_circuit(lowered)
        assert np.max(np.abs(circuit_unitary(native) - expect)) < 1e-12, (n, polarities)


def test_unitary_sqrt():
    # Its own generator, so the draws of the tests above stay as they were.
    u = haar_unitary(2, np.random.default_rng(1234))
    v = _unitary_sqrt(u)
    assert np.max(np.abs(v @ v - u)) < 1e-12
    assert is_unitary(v, 1e-12)


def test_unitary_sqrt_of_minus_identity():
    v = _unitary_sqrt(-np.eye(2))
    assert np.max(np.abs(v @ v + np.eye(2))) < 1e-12


@pytest.mark.parametrize("dim", range(2, 33))
def test_complex_schur_is_scipys_schur(dim):
    for a in factor_inputs(dim, np.random.default_rng(dim)):
        before = a.copy()
        t, z = complex_schur(a)
        want_t, want_z = scipy.linalg.schur(a, output="complex")
        assert np.array_equal(t, want_t) and np.array_equal(z, want_z)
        assert np.array_equal(a, before)


def test_complex_schur_nonzero_info_raises(monkeypatch):
    def failing(*args, **kwargs):
        return (*zgees(*args, **kwargs)[:-1], 1)

    monkeypatch.setattr(barenco, "zgees", failing)
    with pytest.raises(np.linalg.LinAlgError, match="zgees failed with info 1"):
        complex_schur(np.eye(2, dtype=complex))


def test_schur_workspace_reads_only_the_size():
    # The cached query on the identity is the one scipy makes on each input.
    rng = np.random.default_rng(64)
    for n in range(2, 65):
        query = zgees(lambda x: None, haar_unitary(n, rng), lwork=-1)
        assert _schur_lwork(n) == int(query[-2][0].real), n


def test_workspace_queried_once_per_size(monkeypatch):
    queries = []

    def counted(select, a, lwork, **kwargs):
        if lwork == -1:
            queries.append(len(a))
        return zgees(select, a, lwork=lwork, **kwargs)

    monkeypatch.setattr(barenco, "zgees", counted)
    _schur_lwork.cache_clear()
    for seed in range(2):
        qsd_compile(random_unitary(4, seed))
        lower_circuit(qrd_compile(random_unitary(4, seed), lower=False))
    _schur_lwork.cache_clear()
    assert sorted(queries) == [2, 4, 8]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_block_is_not_unitary(bad):
    # complex_schur does not check for NaN or inf; lower_circuit's entry
    # check stops them first.
    m = np.eye(2, dtype=complex)
    m[0, 1] = bad
    c = cir.Circuit(2, (cir.Gate("MCU", (0, 1), matrix=m, polarities=(1,)),))
    with np.errstate(invalid="ignore"), pytest.raises(NotUnitary):
        lower_circuit(c)


def _reference_fill_rotations(items):
    """The per-rotation loop ``fill_rotations`` replaced: scalar angles, one gate at a time."""
    rows = iter(
        zip(*(a.tolist() for a in zy_angles(
            np.reshape([item[2] for item in items if isinstance(item, tuple)], (-1, 2, 2))
        )))
    )
    gates, phases = [], []

    def rotations(q, *axis_angle_pairs):
        for axis, angle in axis_angle_pairs:
            if abs(angle) <= TOL_ZERO:
                continue
            gate = (cir.ry if axis == "Y" else cir.rz)(angle, q)
            phases.append(np.pi * round((angle - gate.params[0]) / (2 * np.pi)))
            gates.append(gate)

    for item in items:
        if not isinstance(item, tuple):
            gates.append(item)
            continue
        control, target, u = item
        alpha, beta, gamma, delta = next(rows)
        if control is None:
            phases.append(alpha)
            rotations(target, ("Z", delta), ("Y", gamma), ("Z", beta))
        elif not np.max(np.abs(u - np.eye(2))) < TOL_ZERO:
            rotations(target, ("Z", (delta - beta) / 2))
            gates.append(cir.cnot(control, target))
            rotations(target, ("Z", -(delta + beta) / 2), ("Y", -gamma / 2))
            gates.append(cir.cnot(control, target))
            rotations(target, ("Y", gamma / 2), ("Z", beta))
            rotations(control, ("Z", alpha))
            phases.append(alpha / 2)
    return tuple(gates), math.fsum(phases)


def test_fill_rotations_matches_per_rotation_reference(monkeypatch):
    # Every fill made while compiling gives the gates and the phase of the
    # scalar loop, bit for bit.
    calls = []

    def checked(items):
        got = fill_rotations(items)
        want = _reference_fill_rotations(items)
        # Every input below is at most 4 qubits wide.
        assert cir.Circuit.from_columns(4, *got[0]).gates == want[0]
        assert float(got[1]).hex() == float(want[1]).hex()
        calls.append(len(got[0][0]))
        return got

    monkeypatch.setattr(barenco, "fill_rotations", checked)
    monkeypatch.setattr(qsd, "fill_rotations", checked)
    inputs = [random_unitary(n, seed) for n in (1, 2, 3, 4) for seed in range(2)]
    inputs += [scipy.linalg.block_diag(np.eye(6), block(0.7)) for block in DEGENERATE.values()]
    for u in inputs:
        qrd_compile(u)
        qsd_compile(u)
    assert len(calls) == 2 * len(inputs) and sum(calls) > 1000


def test_zero_control_mcx_is_x():
    # An MCX with no controls is X on its target: simulated as X, lowered
    # through its controlled block like any other MCX.
    gates = (cir.h(0), cir.mcx((), 1), cir.cnot(1, 2), cir.mcx((), 2), cir.mcx((1,), 0, (0,)))
    c = cir.Circuit(3, gates, 0.3)
    want = np.exp(0.3j) * np.eye(8, dtype=complex)
    for g in gates:
        want = gate_matrix(g, 3) @ want
    assert np.array_equal(cir.gate_local_matrix(cir.mcx((), 1)), cir.PAULI_X)
    assert np.max(np.abs(circuit_unitary(c) - want)) < 1e-14
    lowered = lower_circuit(c)
    assert {g.kind for g in lowered.gates} <= {"H", "RZ", "RY", "X", "CNOT"}
    assert np.max(np.abs(circuit_unitary(lowered) - want)) < 1e-12
    report = verify(retarget_circuit(lowered), want)
    assert report.passed and report.distance < 1e-12
