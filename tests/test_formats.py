"""Tests for the text formats: OpenQASM subset, SEQUENCE files, matrices."""

import pathlib

import numpy as np
import pytest

from atomqc import circuit as cir
from atomqc.exceptions import (
    MatrixFormatError,
    NotUnitary,
    QasmSyntaxError,
    SequenceSyntaxError,
    UndeclaredRegister,
    UnsupportedGate,
)
from atomqc.formats import (
    emit_sequence,
    parse_qasm,
    parse_sequence,
    read_matrix,
    render_qasm,
    u3_matrix,
    write_matrix,
)
from atomqc.linalg import haar_unitary, phase_distance, random_unitary
from atomqc.qsd import qsd_compile
from atomqc.retarget import retarget_circuit
from atomqc.simulate import circuit_unitary

CORPUS = pathlib.Path(__file__).parent / "qasm_corpus"
RNG = np.random.default_rng(99)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _load(name):
    return (CORPUS / name).read_text()


# ---------------------------------------------------------------------------
# OpenQASM parsing
# ---------------------------------------------------------------------------


def test_bell_parses_to_expected_gates():
    c = parse_qasm(_load("bell.qasm"))
    assert c.n_qubits == 2
    assert [g.kind for g in c.gates] == ["H", "CNOT"]
    expect = CNOT @ np.kron(H, np.eye(2))
    assert phase_distance(circuit_unitary(c), expect) < 1e-12


def test_ghz_unitary_on_basis_state():
    c = parse_qasm(_load("ghz3.qasm"))
    state = circuit_unitary(c)[:, 0]
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    assert np.max(np.abs(np.abs(state) - np.abs(ghz))) < 1e-12


def test_u_gates_normalized_at_parse():
    c = parse_qasm(_load("u_gates.qasm"))
    kinds = [g.kind for g in c.gates]
    assert kinds == ["PHASE", "U1", "U1", "U1"]


def test_u3_of_hadamard_angles():
    # u3(pi/2, 0, pi) is H up to the global phase conventions of OpenQASM.
    m = u3_matrix(np.pi / 2, 0.0, np.pi)
    assert phase_distance(m, H) < 1e-12


def test_rotations_expression_grammar():
    c = parse_qasm(_load("rotations.qasm"))
    params = [g.params[0] for g in c.gates]
    assert params[0] == pytest.approx(np.pi / 2)
    # ry(-pi/4) canonicalizes into [0, 2pi)
    assert params[1] == pytest.approx(2 * np.pi - np.pi / 4)
    assert params[2] == pytest.approx(3 * np.pi / 4)
    assert params[3] == pytest.approx(np.pi / 4)
    assert params[4] == pytest.approx(np.pi / 3)
    assert params[5] == pytest.approx(0.125)


def test_cliffords_become_phase_gates():
    c = parse_qasm(_load("cliffords.qasm"))
    phases = [g.params[0] for g in c.gates if g.kind == "PHASE"]
    assert phases == pytest.approx([np.pi / 2, -np.pi / 2, np.pi / 4, -np.pi / 4])


def test_toffoli_and_native_ccz():
    c = parse_qasm(_load("toffoli.qasm"))
    assert [g.kind for g in c.gates] == ["MCX"]
    c = parse_qasm(_load("ccz_native.qasm"))
    assert [g.kind for g in c.gates] == ["CZ", "CCZ"]


def test_multi_register_flattening():
    c = parse_qasm(_load("multi_reg.qasm"))
    assert c.n_qubits == 3
    assert c.gates[0].qubits == (0,)
    assert c.gates[1].qubits == (1, 2)


def test_include_creg_barrier_ignored():
    c = parse_qasm(_load("include_barrier.qasm"))
    assert [g.kind for g in c.gates] == ["H", "CNOT"]


def test_comments_stripped():
    c = parse_qasm(_load("comments.qasm"))
    assert [g.kind for g in c.gates] == ["H"]


def test_empty_circuit_is_valid():
    c = parse_qasm(_load("empty_circuit.qasm"))
    assert c.n_qubits == 2 and len(c.gates) == 0


def test_qft2_matches_direct_construction():
    c = parse_qasm(_load("qft2.qasm"))
    assert phase_distance(
        circuit_unitary(c),
        circuit_unitary(
            cir.Circuit(
                2,
                (cir.h(0), cir.cz(1, 0), cir.phase(np.pi / 2, 1), cir.h(1)),
            )
        ),
    ) < 1e-12


@pytest.mark.parametrize(
    "name,exc",
    [
        ("err_measure.qasm", UnsupportedGate),
        ("err_undeclared.qasm", UndeclaredRegister),
        ("err_syntax.qasm", QasmSyntaxError),
        ("err_index.qasm", QasmSyntaxError),
        ("err_version.qasm", QasmSyntaxError),
        ("err_unknown_gate.qasm", UnsupportedGate),
    ],
)
def test_error_corpus(name, exc):
    with pytest.raises(exc):
        parse_qasm(_load(name))


def test_error_diagnostics_carry_line():
    with pytest.raises(QasmSyntaxError) as info:
        parse_qasm(_load("err_index.qasm"))
    assert info.value.line == 3
    with pytest.raises(UnsupportedGate) as info:
        parse_qasm(_load("err_measure.qasm"))
    assert "line 3" in str(info.value)


def test_no_qreg_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("OPENQASM 2.0;\nh q[0];\n")
    with pytest.raises(QasmSyntaxError):
        parse_qasm("")


# ---------------------------------------------------------------------------
# OpenQASM rendering
# ---------------------------------------------------------------------------


def test_render_parse_round_trip_simple():
    c = cir.Circuit(
        2,
        (
            cir.h(0),
            cir.rx(0.3, 1),
            cir.phase(1.2, 0),
            cir.cnot(0, 1),
            cir.cz(1, 0),
            cir.x(1),
        ),
    )
    back = parse_qasm(render_qasm(c))
    assert np.max(np.abs(circuit_unitary(back) - circuit_unitary(c))) < 1e-12


def test_render_u1_as_u3():
    u = haar_unitary(2, RNG)
    c = cir.Circuit(1, (cir.u1q(u, 0),))
    back = parse_qasm(render_qasm(c))
    assert phase_distance(circuit_unitary(back), u) < 1e-12


def test_render_native_pulse_as_u3():
    c = cir.Circuit(1, (cir.c_gate(0.7, 1.1, 0),))
    back = parse_qasm(render_qasm(c))
    assert phase_distance(circuit_unitary(back), circuit_unitary(c)) < 1e-12


def test_render_compiled_circuit_round_trip():
    u = random_unitary(3, seed=8)
    c = qsd_compile(u)
    back = parse_qasm(render_qasm(c))
    assert phase_distance(circuit_unitary(back), u) < 1e-9


def test_render_global_phase_comment():
    c = cir.Circuit(1, (cir.h(0),), global_phase=0.5)
    text = render_qasm(c)
    assert text.startswith("// global phase: 0.5")


def test_render_rejects_unloweable():
    c = cir.Circuit(4, (cir.mcx((0, 1, 2), 3),))
    with pytest.raises(UnsupportedGate):
        render_qasm(c)


# ---------------------------------------------------------------------------
# SEQUENCE v1
# ---------------------------------------------------------------------------


def test_sequence_round_trip_byte_exact():
    u = random_unitary(2, seed=5)
    native = retarget_circuit(qsd_compile(u))
    text = emit_sequence(native)
    again = emit_sequence(parse_sequence(text))
    assert text == again
    assert phase_distance(circuit_unitary(parse_sequence(text)), u) < 1e-9


def test_sequence_layout():
    c = cir.Circuit(3, (cir.c_gate(0.5, 1.0, 0), cir.cz(0, 1), cir.ccz(0, 1, 2)))
    lines = emit_sequence(c).splitlines()
    assert lines[0] == "SEQUENCE 1"
    assert lines[1] == "QUBITS 3"
    assert lines[2] == "C 0 0.5 1"
    assert lines[3] == "CZ 0 1"
    assert lines[4] == "CCZ 0 1 2"


def test_sequence_phase_line():
    c = cir.Circuit(1, (), global_phase=0.25)
    text = emit_sequence(c)
    assert "PHASE 0.25" in text
    assert parse_sequence(text).global_phase == 0.25


def test_sequence_comments_and_blank_lines():
    text = "SEQUENCE 1\n\n# header comment\nQUBITS 2\nCZ 0 1 # inline\n\n"
    c = parse_sequence(text)
    assert [g.kind for g in c.gates] == ["CZ"]


def test_sequence_emit_rejects_non_native():
    with pytest.raises(UnsupportedGate):
        emit_sequence(cir.Circuit(2, (cir.cnot(0, 1),)))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "QUBITS 2\nCZ 0 1\n",
        "SEQUENCE 2\nQUBITS 1\n",
        "SEQUENCE 1\nCZ 0 1\n",
        "SEQUENCE 1\nQUBITS 0\n",
        "SEQUENCE 1\nQUBITS 2\nCZ 0 5\n",
        "SEQUENCE 1\nQUBITS 2\nCZ 0 0\n",
        "SEQUENCE 1\nQUBITS 2\nC 0 bad 0.5\n",
        "SEQUENCE 1\nQUBITS 2\nC 0 0.5\n",
        "SEQUENCE 1\nQUBITS 2\nNOP 0\n",
        "SEQUENCE 1\nQUBITS 2\nC 0 nan inf\n",
        "SEQUENCE 1\nQUBITS 2\nPHASE nan\n",
    ],
)
def test_sequence_errors(text):
    with pytest.raises(SequenceSyntaxError):
        parse_sequence(text)


def test_sequence_error_reports_line():
    with pytest.raises(SequenceSyntaxError) as info:
        parse_sequence("SEQUENCE 1\nQUBITS 2\nCZ 0 9\n")
    assert info.value.line == 3
    with pytest.raises(SequenceSyntaxError) as info:
        parse_sequence("SEQUENCE 1\nQUBITS 1\nC 0 0.5 0.1\nC 0 -inf 0.1\n")
    assert info.value.line == 4


# ---------------------------------------------------------------------------
# Matrix files
# ---------------------------------------------------------------------------


def test_matrix_round_trip_exact():
    for n in (1, 2, 3):
        u = random_unitary(n, seed=n)
        back = read_matrix(write_matrix(u))
        assert np.array_equal(back, u)


def test_matrix_comments_and_blank_lines():
    text = "# dim\n2\n\n1+0i 0+0i # row\n0+0i 1+0i\n"
    assert np.array_equal(read_matrix(text), np.eye(2))


@pytest.mark.parametrize(
    "text",
    [
        "",
        "x\n1+0i\n",
        "0\n",
        "2\n1+0i 0+0i\n",
        "1\n1+0i 0+0i\n",
        "1\nnonsense\n",
        "1\n1.0\n",
    ],
)
def test_matrix_format_errors(text):
    with pytest.raises(MatrixFormatError):
        read_matrix(text)


def test_matrix_unitarity_check():
    text = write_matrix(np.eye(2) * 1.5)
    with pytest.raises(NotUnitary):
        read_matrix(text)
    # The check can be waived for raw matrix IO.
    m = read_matrix(text, require_unitary=False)
    assert np.array_equal(m, np.eye(2) * 1.5)
