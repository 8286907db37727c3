"""Tests for the gate/circuit intermediate representation."""

import dataclasses
import pathlib

import numpy as np
import pytest
import reference
from reference import dagger

from atomqc import circuit as cir
from atomqc.barenco import lower_circuit
from atomqc.exceptions import DuplicateQubit, NotUnitary, QubitOutOfRange
from atomqc.formats import parse_qasm
from atomqc.linalg import haar_unitary, random_unitary
from atomqc.qrd import qrd_compile
from atomqc.qsd import qsd_compile
from atomqc.quaternion import zy_angles
from atomqc.retarget import _entangling_rewrite, retarget_circuit
from atomqc.simulate import gate_matrix

CORPUS = pathlib.Path(__file__).parent / "qasm_corpus"


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
        cir.gate_local_matrix(cir.cnot(0, 1))
    with pytest.raises(ValueError, match="CNOT has no single-qubit matrix"):
        cir.Circuit(2, (cir.cnot(0, 1),)).local_matrices(np.arange(1))


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


# ---------------------------------------------------------------------------
# Columns, lazy gates and the run walker
# ---------------------------------------------------------------------------


def _walk_edge_cases():
    return {
        "empty": cir.Circuit(3),
        "only_multi_qubit": cir.Circuit(3, (cir.cnot(0, 1), cir.cz(1, 2), cir.toffoli(0, 1, 2),
                                            cir.ccz(0, 1, 2))),
        "runs_open_at_end": cir.Circuit(3, (cir.h(0), cir.cz(0, 1), cir.rx(0.3, 1), cir.ry(0.4, 2),
                                            cir.c_gate(1.0, 2.0, 0))),
        "cnot_target_without_run": cir.Circuit(2, (cir.h(0), cir.cnot(0, 1), cir.rz(0.3, 1))),
        "toffoli_then_ccz": cir.Circuit(3, (cir.rz(0.2, 2), cir.toffoli(0, 1, 2), cir.ccz(0, 1, 2),
                                            cir.toffoli(0, 1, 2), cir.h(2), cir.ccz(0, 1, 2))),
    }


def _walk_inputs():
    for n in range(1, 6):
        for seed in range(5):
            u = random_unitary(n, seed)
            yield f"qrd n={n} seed={seed}", qrd_compile(u)
            yield f"qsd n={n} seed={seed}", qsd_compile(u)
    for path in sorted(CORPUS.glob("*.qasm")):
        if not path.name.startswith("err_"):
            yield path.name, parse_qasm(path.read_text())
    yield from _walk_edge_cases().items()


@pytest.mark.parametrize("rewrite", [False, True])
def test_run_walker_matches_the_gate_loop(rewrite):
    # Same slots and runs as the gate-by-gate loop, and us bit for bit.
    for label, c in _walk_inputs():
        on = _entangling_rewrite(c)[1] if rewrite else None
        slots, runs, us = cir.collect_runs(c, on)
        want_slots, want_runs, want_us = reference.collect_runs(c, on)
        assert slots.tolist() == want_slots, label
        assert runs.tolist() == [list(r) for r in want_runs], label
        assert us.shape == want_us.shape and us.tobytes() == want_us.tobytes(), label


def test_produced_circuits_build_equal_gates_once():
    lowered = lower_circuit(qrd_compile(random_unitary(3, 0), lower=False))
    native = retarget_circuit(lowered)
    for c in (lowered, native):
        gates = c.gates
        assert c.gates is gates
        assert c == cir.Circuit(c.n_qubits, tuple(c.gates), c.global_phase)
        assert len(c) == len(gates) and c.kinds.tolist() == [
            cir.KIND_CODES[g.kind] for g in gates]
    first = native.gates[0]
    bent = dataclasses.replace(first, params=(first.params[0] + 1.0, first.params[1]))
    assert bent.kind == "C" and bent != first


def test_matrices_and_polarities_survive_the_columns():
    rng = np.random.default_rng(11)
    u1, u2 = haar_unitary(2, rng), haar_unitary(2, rng)
    # Lowering keeps a U1 and a Toffoli as they are.
    c = cir.Circuit(3, (cir.u1q(u1, 0), cir.toffoli(0, 1, 2), cir.rz(0.3, 1)))
    lowered = lower_circuit(c)
    assert lowered.gates == c.gates
    assert np.array_equal(lowered.gates[0].matrix, u1) and lowered.gates[1].polarities == (1, 1)
    gates = (cir.u1q(u1, 0), cir.mcu((0, 2), 1, u2, (0, 1)), cir.mcx((2, 1), 0, (1, 0)),
             cir.diag_phase((1, 0, 2), (0, 1, 1), 0.9), cir.diag_phase((2,), (0,), -0.4),
             cir.c_gate(0.5, 1.5, 2), cir.phase(0.2, 1), cir.h(0), cir.cz(0, 2), cir.mcx((), 1))
    c = cir.Circuit(3, gates, 0.25)
    back = cir.Circuit.from_columns(3, c.kinds, c.qubits, c.params, c.polarities, c.matrices, 0.25)
    assert back.gates == gates and back == c
    with pytest.raises(ValueError):
        c.qubits[0, 0] = 2
    with pytest.raises(AttributeError):
        c.n_qubits = 4


def test_both_constructions_check_qubits_alike():
    gates = (cir.h(1), cir.cnot(1, 4), cir.cnot(5, 0))
    wide = cir.Circuit(6, gates)
    columns = (wide.kinds, wide.qubits, wide.params, wide.polarities, wide.matrices)
    for build in (lambda: cir.Circuit(2, gates), lambda: cir.Circuit.from_columns(2, *columns)):
        with pytest.raises(QubitOutOfRange) as info:
            build()
        assert str(info.value) == "qubit 4 outside width 2"
    with pytest.raises(ValueError, match="at least one qubit"):
        cir.Circuit.from_columns(0, *columns)


COLUMNS = ("kinds", "qubits", "params", "polarities", "matrices")


def test_one_class_from_gates_or_columns():
    rng = np.random.default_rng(12)
    gates = (cir.u1q(haar_unitary(2, rng), 0), cir.mcu((0, 2), 1, haar_unitary(2, rng), (0, 1)),
             cir.mcx((2, 1), 0, (1, 0)), cir.diag_phase((1, 0, 2), (0, 1, 1), 0.9),
             cir.c_gate(0.5, 1.5, 2), cir.cz(0, 2), cir.mcx((), 1))
    from_gates = cir.Circuit(3, gates, 0.5)
    # The tuple given is the tuple kept.
    assert from_gates.gates is gates
    from_columns = cir.Circuit.from_columns(
        3, *(getattr(from_gates, name).copy() for name in COLUMNS), global_phase=0.5)
    for name in COLUMNS:
        assert np.array_equal(getattr(from_gates, name), getattr(from_columns, name)), name
        assert not getattr(from_columns, name).flags.writeable, name
    assert from_columns.gates == gates and from_columns == from_gates
    # The column writers give the columns their gates convert to.
    lowered = qrd_compile(random_unitary(3, 0))
    for c in (lowered, retarget_circuit(lowered)):
        again = cir.Circuit(c.n_qubits, c.gates, c.global_phase)
        for name in COLUMNS:
            assert np.array_equal(getattr(c, name), getattr(again, name)), name
    # Columns with no polarities or matrices take the defaults.
    native = cir.Circuit(3, (cir.c_gate(0.5, 1.5, 2), cir.ccz(0, 1, 2)))
    bare = cir.Circuit.from_columns(3, native.kinds, native.qubits, native.params)
    assert bare.polarities.tolist() == native.polarities.tolist() == [[-1] * 3] * 2
    assert bare.matrices.shape == (0, 2, 2) and bare.matrices.dtype == complex
    assert bare.gates == native.gates
    for c in (from_gates, from_columns):
        for name in (*COLUMNS, "n_qubits", "global_phase", "gates"):
            with pytest.raises(AttributeError):
                setattr(c, name, getattr(c, name))
            with pytest.raises(AttributeError):
                delattr(c, name)
