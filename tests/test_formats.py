"""Tests for the text formats: OpenQASM subset, SEQUENCE files, matrices."""

import pathlib
import warnings

import numpy as np
import pytest

from atomqc import circuit as cir
from atomqc import formats as fmt
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
    parse_circuit,
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



def test_wrapped_rotations_keep_their_sign():
    # ry(-pi/4) is stored as ry(7pi/4) = -ry(-pi/4); the circuit phase takes the pi.
    steps = [("X", np.pi / 2), ("Y", -np.pi / 4), ("Z", 3 * np.pi / 4), ("X", np.pi / 4),
             ("Y", np.pi / 3), ("Z", 0.125)]
    expect = np.eye(2)
    for axis, theta in steps:
        expect = cir.rotation_matrix(axis, theta) @ expect
    got = circuit_unitary(parse_qasm(_load("rotations.qasm")))
    assert np.max(np.abs(got - expect)) < 1e-12
    got = circuit_unitary(parse_qasm("qreg q[1];\nrx(-0.5) q[0];\n"))
    assert np.max(np.abs(got - cir.rotation_matrix("X", -0.5))) < 1e-12

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
        ("err_div_zero.qasm", QasmSyntaxError),
        ("err_inf_angle.qasm", QasmSyntaxError),
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


@pytest.mark.parametrize(
    "text,exc,message",
    [
        ("qreg q[1];\nh q[0]; $\n", QasmSyntaxError, "unexpected character '$' (line 2, col 9)"),
        # The scan is eager: a bad character wins over an earlier syntax error.
        ("qreg q[1]\nh q[0]; $\n", QasmSyntaxError, "unexpected character '$' (line 2, col 9)"),
        ("qreg q[1];\nrx(.) q[0];\n", QasmSyntaxError, "unexpected character '.' (line 2, col 4)"),
        ('qreg q[1];\ninclude "qelib1.inc;\n', QasmSyntaxError,
         "unexpected character '\"' (line 2, col 9)"),
        ("qreg q[1];\nh q[0] > ;\n", QasmSyntaxError, "unexpected character '>' (line 2, col 8)"),
        ("qreg q[1];\nh q[0]; // ok $\né q[0];\n", QasmSyntaxError,
         "unexpected character 'é' (line 3, col 1)"),
        # At the end of input the line is the last token's.
        ("qreg q[1];\nrx(\n\n", QasmSyntaxError, "unexpected end of input (line 2)"),
        ("OPENQASM", QasmSyntaxError, "unexpected end of input (line 1)"),
        ("err_syntax.qasm", QasmSyntaxError, "expected ';', got 'h' (line 3, col 1)"),
        ("\tqreg q[1]; // note $\n  h q[0] q[0];\n", QasmSyntaxError,
         "expected ';', got 'q' (line 2, col 10)"),
        ("qreg q[1];\nh q[0] -> q[0];\n", QasmSyntaxError, "expected ';', got '->' (line 2, col 8)"),
        ('qreg q[1];\ninclude "a" "b";\n', QasmSyntaxError,
         "expected ';', got '\"b\"' (line 2, col 13)"),
        ("qreg q[1];\nrx(1.5e) q[0];\n", QasmSyntaxError, "expected ')', got 'e' (line 2, col 7)"),
        ("err_version.qasm", QasmSyntaxError, "unsupported version '3.0' (line 1, col 10)"),
        ("qreg q[1];\n[ q[0];\n", QasmSyntaxError, "expected statement, got '[' (line 2, col 1)"),
        ("qreg q[1];\n5;\n", QasmSyntaxError, "expected statement, got '5' (line 2, col 1)"),
        ("qreg q[2];\nqreg q[1];\n", QasmSyntaxError, "register 'q' redeclared (line 2, col 6)"),
        ("err_undeclared.qasm", UndeclaredRegister, "register 'r' not declared (line 3, col 3)"),
        ("err_index.qasm", QasmSyntaxError,
         "index 5 out of range for register 'q'[2] (line 3, col 5)"),
        ("qreg q[1];\nrx(;) q[0];\n", QasmSyntaxError,
         "bad term ';' in angle expression (line 2, col 4)"),
        ("qreg q[1];\nrx(q) q[0];\n", QasmSyntaxError,
         "bad term 'q' in angle expression (line 2, col 4)"),
        ("qreg q[1];\nrx(pi/0) q[0];\n", QasmSyntaxError,
         "division by zero in angle expression (line 2, col 6)"),
        ("OPENQASM 2.0;\n", QasmSyntaxError, "no qreg declared (line 1)"),
        ("err_measure.qasm", UnsupportedGate, "'measure' is not supported (line 3)"),
        ("qreg q[1];\nreset q[0];\n", UnsupportedGate, "'reset' is not supported (line 2)"),
        ("err_unknown_gate.qasm", UnsupportedGate,
         "gate 'swap' with 2 qubit(s) is not supported (line 3)"),
        ("qreg q[2];\nh q[0],q[1];\n", UnsupportedGate,
         "gate 'h' with 2 qubit(s) is not supported (line 2)"),
    ],
)
def test_diagnostic_messages(text, exc, message):
    # Each message with its exact type, line and column; a name ending in
    # .qasm is a corpus file.
    if text.endswith(".qasm"):
        text = _load(text)
    with pytest.raises(exc) as info:
        parse_qasm(text)
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize(
    "angle,col",
    [
        ("1/(1e308*10)", 7),
        ("1e308*10*0", 4),
        ("1e999-1e999", 4),
        ("-(1e308+1e308)", 6),
        ("pi+1e999", 7),
    ],
)
def test_angle_overflow_is_a_syntax_error(angle, col):
    # Every literal and partial result must be finite, even where the final
    # value would be; the column is where the overflowing part starts.
    with pytest.raises(QasmSyntaxError, match="angle must be finite, got inf") as info:
        parse_qasm(f"qreg q[1];\nrx({angle}) q[0];\n")
    assert (info.value.line, info.value.col) == (2, col)


@pytest.mark.parametrize(
    "stmt,col",
    [("cx q[0],q[0];", 9), ("ccx q[0],q[1],q[0];", 15), ("ccz q[2], q[1], q[1];", 17)],
)
def test_repeated_qubit_is_a_syntax_error(stmt, col):
    # Named at the repeated operand, like a duplicate qubit in SEQUENCE.
    with pytest.raises(QasmSyntaxError, match="repeats a qubit operand") as info:
        parse_qasm(f"qreg q[3];\n{stmt}\n")
    assert (info.value.line, info.value.col) == (2, col)


@pytest.mark.parametrize("stmt", ["h(0.5) q[0];", "s(pi) q[0];", "cx(1) q[0],q[1];"])
def test_parameter_count_checked_at_the_gate(stmt):
    # Every gate name has its qelib1.inc arity: s(pi) is not an S gate.
    with pytest.raises(QasmSyntaxError, match="takes 0 parameter") as info:
        parse_qasm(f"qreg q[2];\n{stmt}\n")
    assert (info.value.line, info.value.col) == (2, 1)


@pytest.mark.parametrize("decl,col", [("qreg r[0];", 8), ("creg c[x];", 8)])
def test_register_size_must_be_positive(decl, col):
    with pytest.raises(QasmSyntaxError, match="expected positive register size") as info:
        parse_qasm(f"qreg q[1];\n{decl}\n")
    assert (info.value.line, info.value.col) == (2, col)


@pytest.mark.parametrize("decl", ["qreg 5[2];", "creg 5[2];", "qreg [2];"])
def test_register_name_must_be_identifier(decl):
    # A register named by a number could never be referenced.
    with pytest.raises(QasmSyntaxError, match="expected register name") as info:
        parse_qasm(f"qreg q[1];\n{decl}\nh q[0];\n")
    assert (info.value.line, info.value.col) == (2, 6)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.qasm")), ids=lambda p: p.name)
def test_crlf_line_ends_parse_like_lf(path):
    # A carriage return is a blank: the same gates, or the same message,
    # line and column.
    text = path.read_text()
    try:
        expect = parse_qasm(text)
    except (QasmSyntaxError, UnsupportedGate) as exc:
        with pytest.raises(type(exc)) as info:
            parse_qasm(text.replace("\n", "\r\n"))
        assert (str(info.value), getattr(info.value, "col", None)) == (
            str(exc), getattr(exc, "col", None))
    else:
        got = parse_qasm(text.replace("\n", "\r\n"))
        assert (got.n_qubits, got.gates) == (expect.n_qubits, expect.gates)


def test_tiny_angle_quotient_parses():
    c = parse_qasm("qreg q[1];\nrx(1e-320/1e-10) q[0];\n")
    assert c.gates[0].params[0] == 1e-320 / 1e-10


def test_no_qreg_rejected():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("OPENQASM 2.0;\nh q[0];\n")
    with pytest.raises(QasmSyntaxError):
        parse_qasm("")


# ---------------------------------------------------------------------------
# OpenQASM rendering
# ---------------------------------------------------------------------------


def test_render_parse_round_trip_simple():
    # Every kind render_qasm writes.
    c = cir.Circuit(
        3,
        (
            cir.h(0),
            cir.rx(0.3, 1),
            cir.phase(1.2, 0),
            cir.cnot(0, 1),
            cir.cz(1, 0),
            cir.x(1),
            cir.ry(-0.7, 2),
            cir.rz(2.1, 0),
            cir.u1q(haar_unitary(2, np.random.default_rng(5)), 1),
            cir.c_gate(0.4, 1.9, 2),
            cir.toffoli(2, 0, 1),
            cir.ccz(1, 2, 0),
        ),
    )
    assert {g.kind for g in c.gates} == set(fmt._QASM_NAMES)
    back = parse_qasm(render_qasm(c))
    assert phase_distance(circuit_unitary(back), circuit_unitary(c)) < 1e-12
    # u3 fixes the global phase of a U1 or C gate; every other kind is exact.
    exact = cir.Circuit(3, tuple(g for g in c.gates if g.kind not in ("U1", "C")))
    back = parse_qasm(render_qasm(exact))
    assert np.max(np.abs(circuit_unitary(back) - circuit_unitary(exact))) < 1e-12


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


def _comment_phase(text):
    head = text.splitlines()[0]
    return float(head.split(":")[1]) if head.startswith("// global phase:") else 0.0


@pytest.mark.parametrize(
    "c",
    [
        cir.Circuit(1, (cir.c_gate(4.0, 0.3, 0),)),
        cir.Circuit(1, (cir.u1q(haar_unitary(2, np.random.default_rng(6)), 0),), 0.25),
        cir.Circuit(
            2,
            (
                cir.u1q(haar_unitary(2, np.random.default_rng(7)), 0),
                cir.cnot(0, 1),
                cir.c_gate(5.5, 2.0, 1),
                cir.rz(1.2, 0),
                cir.c_gate(0.4, 6.0, 0),
            ),
            -1.0,
        ),
    ],
)
def test_render_comment_phase_is_exact(c):
    # Each u3 drops alpha - (beta + delta)/2 of its gate's phase; the
    # comment adds it back, so the text states the circuit exactly.
    text = render_qasm(c)
    back = circuit_unitary(parse_qasm(text))
    assert np.max(np.abs(np.exp(1j * _comment_phase(text)) * back - circuit_unitary(c))) < 1e-12


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
        "SEQUENCE 1\nQUBITS 3\nCZ 0 2\nQUBITS 2\n",
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
    # A second PHASE would silently replace the first.
    with pytest.raises(SequenceSyntaxError, match="PHASE appears more than once") as info:
        parse_sequence("SEQUENCE 1\nQUBITS 1\nPHASE 1.0\nC 0 1 0.5\nPHASE 2.0\n")
    assert info.value.line == 5
    with pytest.raises(SequenceSyntaxError) as info:
        parse_sequence("SEQUENCE 1\n")
    assert str(info.value) == "missing QUBITS line (line 1)"


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


def test_matrix_diagnostics_name_the_file_line():
    # A comment and a blank line above the bad row count as file lines.
    text = "2\n# c\n\n1+0i 0+0i\n0+0i 1+0i 5\n"
    with pytest.raises(MatrixFormatError) as info:
        read_matrix(text)
    assert str(info.value) == "row 1 has 3 entries, expected 2 (line 5)"
    assert info.value.line == 5
    with pytest.raises(MatrixFormatError) as info:
        read_matrix("2\n\n# c\n1+0i 0+0i\n0+0i 1+0j\n")
    assert str(info.value) == "bad entry '1+0j' at row 1, column 1 (line 5)"


def test_matrix_unitarity_check():
    text = write_matrix(np.eye(2) * 1.5)
    with pytest.raises(NotUnitary):
        read_matrix(text)


@pytest.mark.parametrize("entry", ["1e999+0i", "0-1e999i", "-1e999+1e999i"])
def test_matrix_non_finite_entry_names_its_line(entry):
    # An entry that overflows a float is named with its file line; it never
    # reaches the unitarity check, whose matmul would warn about inf.
    text = f"2\n# c\n1+0i 0+0i\n0+0i {entry}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MatrixFormatError) as info:
            read_matrix(text)
    assert str(info.value) == f"entry {entry!r} at row 1, column 1 is not finite (line 4)"
    assert info.value.line == 4



# ---------------------------------------------------------------------------
# Numbers are ASCII in all three formats
# ---------------------------------------------------------------------------

_NOT_ASCII_NUMBERS = "arguments must be ASCII numbers without '_'"


@pytest.mark.parametrize(
    "parse, text, exc, message",
    [
        (parse_qasm, "qreg q[\u0663];\nrx(\u0661.5) q[\u0662];\n", QasmSyntaxError,
         "unexpected character '\u0663' (line 1, col 8)"),
        (parse_qasm, "qreg q[1];\nrx(\u0661.5) q[0];\n", QasmSyntaxError,
         "unexpected character '\u0661' (line 2, col 4)"),
        (read_matrix, "\u0661\n\u0661+0i\n", MatrixFormatError,
         "bad dimension line '\u0661'"),
        (read_matrix, "0_1\n1+0i\n", MatrixFormatError, "bad dimension line '0_1'"),
        (read_matrix, "1\n\u0661+0i\n", MatrixFormatError,
         "bad entry '\u0661+0i' at row 0, column 0 (line 2)"),
        (parse_sequence, "SEQUENCE \u0661\nQUBITS 1\n", SequenceSyntaxError,
         f"SEQUENCE {_NOT_ASCII_NUMBERS} (line 1)"),
        (parse_sequence, "SEQUENCE 1\nQUBITS \u0661\n", SequenceSyntaxError,
         f"QUBITS {_NOT_ASCII_NUMBERS} (line 2)"),
        (parse_sequence, "SEQUENCE 1\nQUBITS 1\nC \u0660 0.5 0\n", SequenceSyntaxError,
         f"C {_NOT_ASCII_NUMBERS} (line 3)"),
        (parse_sequence, "SEQUENCE 1\nQUBITS 1\nC 0 1_0 0\n", SequenceSyntaxError,
         f"C {_NOT_ASCII_NUMBERS} (line 3)"),
        (parse_sequence, "SEQUENCE 1\nQUBITS 1\nPHASE 1_000.5\n", SequenceSyntaxError,
         f"PHASE {_NOT_ASCII_NUMBERS} (line 3)"),
    ],
)
def test_numbers_must_be_ascii(parse, text, exc, message):
    with pytest.raises(exc) as info:
        parse(text)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_sequence_integer_may_carry_a_sign():
    # int() reads a leading sign; "+1" is qubit 1, and "-1" fails the range check.
    assert parse_sequence("SEQUENCE 1\nQUBITS 2\nCZ 0 +1\n").gates == (cir.cz(0, 1),)
    with pytest.raises(SequenceSyntaxError, match="qubit -1 outside width 2"):
        parse_sequence("SEQUENCE 1\nQUBITS 2\nCZ 0 -1\n")


# ---------------------------------------------------------------------------
# Lines end at "\n" only
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "parse, text, exc, message",
    [
        (parse_sequence, "SEQUENCE 1\x1cQUBITS 1\n", SequenceSyntaxError,
         "SEQUENCE takes 1 argument(s), got 2 (line 1)"),
        (parse_sequence, "SEQUENCE 1\u2028QUBITS 1\nC 0 0.5 0\n", SequenceSyntaxError,
         "SEQUENCE takes 1 argument(s), got 2 (line 1)"),
        (parse_sequence, "SEQUENCE 1\nQUBITS 1\x85C 0 0.5 0\n", SequenceSyntaxError,
         "QUBITS takes 1 argument(s), got 4 (line 2)"),
        (read_matrix, "2\x1c1+0i 0+0i\n0+0i 1+0i\n", MatrixFormatError,
         "bad dimension line '2\\x1c1+0i 0+0i'"),
        (read_matrix, "1\u20281+0i\n", MatrixFormatError, "bad dimension line '1\\u20281+0i'"),
    ],
)
def test_only_newline_ends_a_line(parse, text, exc, message):
    # str.splitlines() would also break at \x1c-\x1e, \x85, U+2028 and U+2029.
    with pytest.raises(exc) as info:
        parse(text)
    assert str(info.value) == message


def test_crlf_sequence_and_matrix_parse_like_lf():
    u = random_unitary(2, seed=3)
    text = emit_sequence(retarget_circuit(qsd_compile(u)))
    assert parse_sequence(text.replace("\n", "\r\n")) == parse_sequence(text)
    assert np.array_equal(read_matrix(write_matrix(u).replace("\n", "\r\n")), u)
    # A tab separates and pads fields as a space does.
    assert parse_sequence(text.replace(" ", "\t").replace("\n", "\t\n")) == parse_sequence(text)
    assert np.array_equal(read_matrix(write_matrix(u).replace(" ", "\t ")), u)


def test_bare_carriage_return_does_not_end_a_line():
    # A file whose lines end in "\r" alone is one line, as parse_qasm reads it.
    with pytest.raises(SequenceSyntaxError) as info:
        parse_sequence("SEQUENCE 1\rQUBITS 1\rC 0 0.5 0\r")
    assert str(info.value) == "SEQUENCE takes 1 argument(s), got 7 (line 1)"
    with pytest.raises(MatrixFormatError, match="^bad dimension line"):
        read_matrix("1\r1+0i\r")


# ---------------------------------------------------------------------------
# Fields are split at " ", "\t" and "\r" only
# ---------------------------------------------------------------------------

# Texts that str.split() and str.strip() read as valid, since they also take
# \x0b, \x1c-\x1f, \x85 and U+3000 as blanks: (parser, text, diagnostic).
UNICODE_BLANKS = [
    (read_matrix, "2\n1+0i 0+0i\n0+0i\x851+0i\n", "row 1 has 1 entries, expected 2 (line 3)"),
    (read_matrix, "1\n\x1c1+0i\n", "bad entry '\\x1c1+0i' at row 0, column 0 (line 2)"),
    (read_matrix, "2\n1+0i\x0b0+0i\n0+0i 1+0i\n", "row 0 has 1 entries, expected 2 (line 2)"),
    (parse_sequence, "SEQUENCE 1\nQUBITS 2\nCZ\x1c0\x1d1\n",
     "unknown instruction 'CZ\\x1c0\\x1d1' (line 3)"),
    (parse_sequence, "SEQUENCE 1\nQUBITS 1\nC 0 0.5 0\u3000\n", f"C {_NOT_ASCII_NUMBERS} (line 3)"),
    (parse_sequence, "SEQUENCE 1\nQUBITS 2\nCZ 0\x1c 1\n", f"CZ {_NOT_ASCII_NUMBERS} (line 3)"),
    (parse_sequence, "SEQUENCE 1\nQUBITS 2\nCZ 0\x0b1\n", "CZ takes 2 argument(s), got 1 (line 3)"),
]


@pytest.mark.parametrize("parse, text, message", UNICODE_BLANKS)
def test_fields_split_only_at_ascii_blanks(parse, text, message):
    exc = MatrixFormatError if parse is read_matrix else SequenceSyntaxError
    with pytest.raises(exc) as info:
        parse(text)
    assert str(info.value) == message


def test_parse_circuit_sniffs_the_first_field():
    seq = "# comment\n\t SEQUENCE\t1\r\nQUBITS 2\nCZ 0 1\n"
    assert parse_circuit(seq) == parse_sequence(seq)
    qasm = _load("bell.qasm")
    assert parse_circuit(qasm) == parse_qasm(qasm)
    # A blank outside " \t\r" starts a field, so this is not a SEQUENCE file.
    with pytest.raises(QasmSyntaxError) as info:
        parse_circuit("\x0bSEQUENCE 1\nQUBITS 1\n")
    assert str(info.value) == "unexpected character '\\x0b' (line 1, col 1)"
