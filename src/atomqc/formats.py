"""Text formats: OpenQASM 2.0 subset, SEQUENCE pulse files, matrix files.

All three formats are line-oriented ASCII.  Parsers are pure functions of
the input text and report positions in their diagnostics; emitters are
deterministic so outputs are diff- and golden-file-friendly.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from . import circuit as cir
from .exceptions import (
    DuplicateQubit,
    MatrixFormatError,
    QasmSyntaxError,
    QubitOutOfRange,
    SequenceSyntaxError,
    UndeclaredRegister,
    UnsupportedGate,
)
from .linalg import check_unitary
from .quaternion import zy_angles

__all__ = [
    "parse_qasm",
    "render_qasm",
    "emit_sequence",
    "parse_sequence",
    "read_matrix",
    "write_matrix",
]


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t]+)
  | (?P<comment>//[^\n]*)
  | (?P<newline>\n)
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<op>->|[;,()\[\]+\-*/])
    """,
    re.VERBOSE,
)

# name -> (parameter count, qubit count, builder(params, qubits)), after the
# qelib1.inc arities; u1 becomes a PHASE gate and u2/u3/U an explicit matrix.
_QASM_GATES = {
    "h": (0, 1, lambda a, q: cir.h(*q)),
    "x": (0, 1, lambda a, q: cir.x(*q)),
    "rx": (1, 1, lambda a, q: cir.rx(*a, *q)),
    "ry": (1, 1, lambda a, q: cir.ry(*a, *q)),
    "rz": (1, 1, lambda a, q: cir.rz(*a, *q)),
    "s": (0, 1, lambda a, q: cir.phase(math.pi / 2, *q)),
    "sdg": (0, 1, lambda a, q: cir.phase(-math.pi / 2, *q)),
    "t": (0, 1, lambda a, q: cir.phase(math.pi / 4, *q)),
    "tdg": (0, 1, lambda a, q: cir.phase(-math.pi / 4, *q)),
    "u1": (1, 1, lambda a, q: cir.phase(*a, *q)),
    "u2": (2, 1, lambda a, q: cir.u1q(u3_matrix(math.pi / 2, *a), *q)),
    "u3": (3, 1, lambda a, q: cir.u1q(u3_matrix(*a), *q)),
    "U": (3, 1, lambda a, q: cir.u1q(u3_matrix(*a), *q)),
    "cx": (0, 2, lambda a, q: cir.cnot(*q)),
    "cz": (0, 2, lambda a, q: cir.cz(*q)),
    "ccx": (0, 3, lambda a, q: cir.toffoli(*q)),
    "ccz": (0, 3, lambda a, q: cir.ccz(*q)),
}


def u3_matrix(theta, phi, lam):
    """The OpenQASM u3 gate as an explicit 2x2 matrix."""
    ct, st = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [ct, -np.exp(1j * lam) * st],
            [np.exp(1j * phi) * st, np.exp(1j * (phi + lam)) * ct],
        ]
    )


@dataclass(slots=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text):
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmSyntaxError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, value, line, col))
            col += len(value)
        else:
            col += len(value)
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the statement and expression grammar."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expect=None):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            line = last.line if last else 1
            raise QasmSyntaxError("unexpected end of input", line)
        if expect is not None and tok.text != expect:
            raise QasmSyntaxError(f"expected {expect!r}, got {tok.text!r}", tok.line, tok.col)
        self.pos += 1
        return tok

    # Expression grammar: term {(+|-) term}; term: factor {(*|/) factor};
    # factor: number | pi | ( expr ) | - factor.  Every literal and partial
    # result must be finite (``_finite``, at the start of its subexpression).
    def expr(self):
        start = self.peek()
        value = self.term()
        while self.peek() is not None and self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.term()
            value = _finite(value + rhs if op == "+" else value - rhs, start)
        return value

    def term(self):
        start = self.peek()
        value = self.factor()
        while self.peek() is not None and self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            if op.text == "/" and rhs == 0:
                raise QasmSyntaxError("division by zero in angle expression", op.line, op.col)
            value = _finite(value * rhs if op.text == "*" else value / rhs, start)
        return value

    def factor(self):
        tok = self.next()
        if tok.text == "-":
            return -self.factor()
        if tok.text == "(":
            value = self.expr()
            self.next(expect=")")
            return value
        if tok.kind == "number":
            return _finite(float(tok.text), tok)
        if tok.text == "pi":
            return math.pi
        raise QasmSyntaxError(f"bad term {tok.text!r} in angle expression", tok.line, tok.col)


def _finite(value, tok):
    """``value``, or a ``QasmSyntaxError`` at ``tok`` if it is inf or nan."""
    if not math.isfinite(value):
        raise QasmSyntaxError(f"angle must be finite, got {value}", tok.line, tok.col)
    return value


def _int_token(tok, what, least=0):
    if tok.kind != "number" or not tok.text.isdigit() or int(tok.text) < least:
        raise QasmSyntaxError(f"expected {what}, got {tok.text!r}", tok.line, tok.col)
    return int(tok.text)


def parse_qasm(text):
    """Parse the supported OpenQASM 2.0 subset into a Circuit.

    Registers are flattened in declaration order; u1/u2/u3/U are normalized
    at parse time (u1 to a PHASE gate, u2/u3/U to an explicit matrix) so
    downstream passes see a single single-qubit representation.
    """
    p = _Parser(text)
    registers = {}  # name -> (offset, size)
    n_qubits = 0
    gates = []

    tok = p.peek()
    if tok is not None and tok.text == "OPENQASM":
        p.next()
        version = p.next()
        if version.text != "2.0":
            raise QasmSyntaxError(f"unsupported version {version.text!r}", version.line, version.col)
        p.next(expect=";")

    def register_name():
        name = p.next()
        if name.kind != "name":
            raise QasmSyntaxError(f"expected register name, got {name.text!r}", name.line, name.col)
        return name

    def qubit_ref():
        name = register_name()
        if name.text not in registers:
            raise UndeclaredRegister(f"register {name.text!r} not declared", name.line, name.col)
        p.next(expect="[")
        idx = p.next()
        i = _int_token(idx, "qubit index")
        p.next(expect="]")
        offset, size = registers[name.text]
        if i >= size:
            raise QasmSyntaxError(
                f"index {i} out of range for register {name.text!r}[{size}]", idx.line, idx.col
            )
        return offset + i

    while p.peek() is not None:
        tok = p.next()
        if tok.text == "include":
            p.next()  # the string literal
            p.next(expect=";")
            continue
        if tok.text in ("qreg", "creg"):
            name = register_name()
            p.next(expect="[")
            size = _int_token(p.next(), "positive register size", 1)
            p.next(expect="]")
            p.next(expect=";")
            if tok.text == "creg":
                continue
            if name.text in registers:
                raise QasmSyntaxError(f"register {name.text!r} redeclared", name.line, name.col)
            registers[name.text] = (n_qubits, size)
            n_qubits += size
            continue
        if tok.text == "barrier":
            while p.peek() is not None and p.peek().text != ";":
                p.next()
            p.next(expect=";")
            continue
        if tok.text in ("measure", "reset", "if", "gate", "opaque"):
            raise UnsupportedGate(f"{tok.text!r} is not supported (line {tok.line})")
        if tok.kind != "name":
            raise QasmSyntaxError(f"expected statement, got {tok.text!r}", tok.line, tok.col)

        gname = tok.text
        args = []
        if p.peek() is not None and p.peek().text == "(":
            p.next()
            if p.peek() is not None and p.peek().text != ")":
                args.append(p.expr())
                while p.peek() is not None and p.peek().text == ",":
                    p.next()
                    args.append(p.expr())
            p.next(expect=")")
        spec = _QASM_GATES.get(gname)
        if spec is not None and len(args) != spec[0]:
            raise QasmSyntaxError(
                f"{gname} takes {spec[0]} parameter(s), got {len(args)}", tok.line, tok.col
            )
        qubits = [qubit_ref()]
        while p.peek() is not None and p.peek().text == ",":
            p.next()
            ref = p.peek()
            qubits.append(qubit_ref())
            if qubits[-1] in qubits[:-1]:
                raise QasmSyntaxError(f"{gname} repeats a qubit operand", ref.line, ref.col)
        p.next(expect=";")

        if spec is None or len(qubits) != spec[1]:
            raise UnsupportedGate(
                f"gate {gname!r} with {len(qubits)} qubit(s) is not supported (line {tok.line})"
            )
        gates.append(spec[2](args, qubits))

    if n_qubits == 0:
        raise QasmSyntaxError("no qreg declared", 1)
    return cir.Circuit(n_qubits, tuple(gates))


def _fmt(x):
    return f"{float(x):.17g}"


# Gate kind -> OpenQASM name; the one MCX written is the Toffoli, as ccx.
_QASM_NAMES = {
    "RX": "rx", "RY": "ry", "RZ": "rz", "H": "h", "X": "x", "PHASE": "u1", "U1": "u3",
    "C": "u3", "CNOT": "cx", "CZ": "cz", "MCX": "ccx", "CCZ": "ccz",
}


def render_qasm(c):
    """Render a lowered circuit in the supported OpenQASM subset.

    Generic single-qubit matrices (U1, C) become u3 applications through
    the ZY angles; u3(gamma, beta, delta) = e^{i (beta + delta)/2} RZ(beta)
    RY(gamma) RZ(delta) drops alpha - (beta + delta)/2 of each.  That and the
    circuit's phase, inexpressible in OpenQASM 2.0, are kept as a comment.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.n_qubits}];"]
    phase = c.global_phase
    for g in c.gates:
        name = _QASM_NAMES.get(g.kind)
        if name is None or (g.kind == "MCX" and not g.is_toffoli):
            raise UnsupportedGate(f"cannot render {g.kind} gate as OpenQASM; lower it first")
        params = g.params
        if g.kind in ("U1", "C"):
            alpha, beta, gamma, delta = zy_angles(cir.gate_local_matrix(g))
            params = (gamma, beta, delta)
            phase += alpha - (beta + delta) / 2
        args = f"({','.join(map(_fmt, params))})" if params else ""
        lines.append(f"{name}{args} " + ",".join([f"q[{q}]" for q in g.qubits]) + ";")
    if abs(phase) > 0:
        lines.insert(0, f"// global phase: {_fmt(phase)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# SEQUENCE v1
# ---------------------------------------------------------------------------


def emit_sequence(c):
    """Serialize a native {C, CZ, CCZ} circuit as a SEQUENCE v1 file."""
    lines = ["SEQUENCE 1", f"QUBITS {c.n_qubits}"]
    if abs(c.global_phase) > 0:
        lines.append(f"PHASE {_fmt(c.global_phase)}")
    for g in c.gates:
        if g.kind == "C":
            lines.append(f"C {g.qubits[0]} {_fmt(g.params[0])} {_fmt(g.params[1])}")
        elif g.kind == "CZ":
            lines.append(f"CZ {g.qubits[0]} {g.qubits[1]}")
        elif g.kind == "CCZ":
            lines.append(f"CCZ {g.qubits[0]} {g.qubits[1]} {g.qubits[2]}")
        else:
            raise UnsupportedGate(
                f"{g.kind} is not a native pulse instruction; retarget the circuit first"
            )
    return "\n".join(lines) + "\n"


def _seq_fields(raw, lineno, mnemonic, n_int, n_float):
    parts = raw.split()
    if len(parts) != 1 + n_int + n_float:
        raise SequenceSyntaxError(
            f"{mnemonic} takes {n_int + n_float} argument(s), got {len(parts) - 1}", lineno
        )
    try:
        ints = [int(p) for p in parts[1 : 1 + n_int]]
        floats = [float(p) for p in parts[1 + n_int :]]
    except ValueError as exc:
        raise SequenceSyntaxError(f"bad {mnemonic} argument: {exc}", lineno) from exc
    for x in floats:
        if not math.isfinite(x):
            raise SequenceSyntaxError(f"{mnemonic} argument must be finite, got {x}", lineno)
    return ints, floats


# Native instruction -> (qubit count, angle count).
_SEQ_INSTRUCTIONS = {"C": (1, 2), "CZ": (2, 0), "CCZ": (3, 0)}


def parse_sequence(text):
    """Parse a SEQUENCE v1 file back into a Circuit (inverse of emit)."""
    gates = []
    n_qubits = None
    phase = None
    saw_header = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        mnemonic = line.split(None, 1)[0]
        if not saw_header:
            if mnemonic != "SEQUENCE":
                raise SequenceSyntaxError("file must start with a SEQUENCE header", lineno)
            (version,), _ = _seq_fields(line, lineno, "SEQUENCE", 1, 0)
            if version != 1:
                raise SequenceSyntaxError(f"unsupported SEQUENCE version {version}", lineno)
            saw_header = True
            continue
        if mnemonic == "QUBITS":
            if n_qubits is not None:
                raise SequenceSyntaxError("QUBITS appears more than once", lineno)
            (n_qubits,), _ = _seq_fields(line, lineno, "QUBITS", 1, 0)
            if n_qubits < 1:
                raise SequenceSyntaxError("QUBITS must be positive", lineno)
            continue
        if n_qubits is None:
            raise SequenceSyntaxError("QUBITS line must precede instructions", lineno)
        if mnemonic == "PHASE":
            if phase is not None:
                raise SequenceSyntaxError("PHASE appears more than once", lineno)
            _, (phase,) = _seq_fields(line, lineno, "PHASE", 0, 1)
        elif mnemonic in _SEQ_INSTRUCTIONS:
            qs, params = _seq_fields(line, lineno, mnemonic, *_SEQ_INSTRUCTIONS[mnemonic])
            try:
                gate = cir.Gate(mnemonic, tuple(qs), tuple(params))
                cir.check_qubits(gate.qubits, n_qubits)
            except (DuplicateQubit, QubitOutOfRange) as exc:
                raise SequenceSyntaxError(str(exc), lineno) from exc
            gates.append(gate)
        else:
            raise SequenceSyntaxError(f"unknown instruction {mnemonic!r}", lineno)
    if not saw_header:
        raise SequenceSyntaxError("empty input: missing SEQUENCE header", 1)
    if n_qubits is None:
        raise SequenceSyntaxError("missing QUBITS line", 1)
    return cir.Circuit(n_qubits, tuple(gates), 0.0 if phase is None else phase)


# ---------------------------------------------------------------------------
# Matrix files
# ---------------------------------------------------------------------------

_ENTRY_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$"
)


def write_matrix(m):
    """Matrix text format: a dimension line, then one row per line.

    Entries are written as ``a+bi`` with 17 significant digits.
    """
    m = np.asarray(m, dtype=complex)
    lines = [str(m.shape[0])]
    for row in m:
        lines.append(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row))
    return "\n".join(lines) + "\n"


def read_matrix(text):
    """Parse the matrix text format, validating shape and unitarity."""
    lines = [ln for ln in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    try:
        dim = int(lines[0])
    except ValueError as exc:
        raise MatrixFormatError(f"bad dimension line {lines[0]!r}") from exc
    if dim < 1:
        raise MatrixFormatError(f"dimension must be positive, got {dim}")
    if len(lines) != dim + 1:
        raise MatrixFormatError(f"expected {dim} rows, got {len(lines) - 1}")
    m = np.zeros((dim, dim), dtype=complex)
    for i, line in enumerate(lines[1:]):
        entries = line.split()
        if len(entries) != dim:
            raise MatrixFormatError(f"row {i} has {len(entries)} entries, expected {dim}")
        for j, token in enumerate(entries):
            em = _ENTRY_RE.match(token)
            if em is None:
                raise MatrixFormatError(f"bad entry {token!r} at row {i}, column {j}")
            m[i, j] = complex(float(em.group("re")), float(em.group("im")))
    check_unitary(m, what="input matrix")
    return m
