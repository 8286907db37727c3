"""Text formats: OpenQASM 2.0 subset, SEQUENCE pulse files, matrix files.

All three formats are line-oriented ASCII.  Parsers are pure functions of
the input text and report positions in their diagnostics; emitters are
deterministic so outputs are diff- and golden-file-friendly.
"""

import math
import re

import numpy as np

from . import circuit as cir
from .exceptions import (
    MatrixFormatError,
    QasmSyntaxError,
    SequenceSyntaxError,
    UndeclaredRegister,
    UnsupportedGate,
)
from .linalg import check_unitary
from .quaternion import zy_decompose

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

_ONE_QUBIT_SIMPLE = {
    "h": lambda q, a: cir.h(q),
    "x": lambda q, a: cir.x(q),
    "rx": lambda q, a: cir.rx(a[0], q),
    "ry": lambda q, a: cir.ry(a[0], q),
    "rz": lambda q, a: cir.rz(a[0], q),
    "s": lambda q, a: cir.phase(math.pi / 2, q),
    "sdg": lambda q, a: cir.phase(-math.pi / 2, q),
    "t": lambda q, a: cir.phase(math.pi / 4, q),
    "tdg": lambda q, a: cir.phase(-math.pi / 4, q),
    "u1": lambda q, a: cir.phase(a[0], q),
}

_PARAM_COUNT = {"rx": 1, "ry": 1, "rz": 1, "u1": 1, "u2": 2, "u3": 3, "U": 3}


def u3_matrix(theta, phi, lam):
    """The OpenQASM u3 gate as an explicit 2x2 matrix."""
    ct, st = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [ct, -np.exp(1j * lam) * st],
            [np.exp(1j * phi) * st, np.exp(1j * (phi + lam)) * ct],
        ]
    )


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


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


def _int_token(tok, what):
    if tok.kind != "number" or not tok.text.isdigit():
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

    def qubit_ref():
        nonlocal n_qubits
        name = p.next()
        if name.kind != "name":
            raise QasmSyntaxError(f"expected register name, got {name.text!r}", name.line, name.col)
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
        if tok.text == "qreg":
            name = p.next()
            p.next(expect="[")
            size = _int_token(p.next(), "register size")
            p.next(expect="]")
            p.next(expect=";")
            if name.text in registers:
                raise QasmSyntaxError(f"register {name.text!r} redeclared", name.line, name.col)
            registers[name.text] = (n_qubits, size)
            n_qubits += size
            continue
        if tok.text == "creg":
            p.next()
            p.next(expect="[")
            p.next()
            p.next(expect="]")
            p.next(expect=";")
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
        if gname in _PARAM_COUNT and len(args) != _PARAM_COUNT[gname]:
            raise QasmSyntaxError(
                f"{gname} takes {_PARAM_COUNT[gname]} parameter(s), got {len(args)}",
                tok.line,
                tok.col,
            )
        qubits = [qubit_ref()]
        while p.peek() is not None and p.peek().text == ",":
            p.next()
            ref = p.peek()
            qubits.append(qubit_ref())
            if qubits[-1] in qubits[:-1]:
                raise QasmSyntaxError(f"{gname} repeats a qubit operand", ref.line, ref.col)
        p.next(expect=";")

        if gname in _ONE_QUBIT_SIMPLE and len(qubits) == 1:
            gates.append(_ONE_QUBIT_SIMPLE[gname](qubits[0], args))
        elif gname == "u2" and len(qubits) == 1:
            gates.append(cir.u1q(u3_matrix(math.pi / 2, args[0], args[1]), qubits[0]))
        elif gname in ("u3", "U") and len(qubits) == 1:
            gates.append(cir.u1q(u3_matrix(*args), qubits[0]))
        elif gname == "cx" and len(qubits) == 2:
            gates.append(cir.cnot(qubits[0], qubits[1]))
        elif gname == "cz" and len(qubits) == 2:
            gates.append(cir.cz(qubits[0], qubits[1]))
        elif gname == "ccx" and len(qubits) == 3:
            gates.append(cir.toffoli(qubits[0], qubits[1], qubits[2]))
        elif gname == "ccz" and len(qubits) == 3:
            gates.append(cir.ccz(qubits[0], qubits[1], qubits[2]))
        else:
            raise UnsupportedGate(
                f"gate {gname!r} with {len(qubits)} qubit(s) is not supported (line {tok.line})"
            )

    if n_qubits == 0:
        raise QasmSyntaxError("no qreg declared", 1)
    return cir.Circuit(n_qubits, tuple(gates))


def _fmt(x):
    return f"{float(x):.17g}"


def render_qasm(c):
    """Render a lowered circuit in the supported OpenQASM subset.

    Generic single-qubit matrices (U1, C) become u3 applications through
    the ZY angles; the global phase, inexpressible in OpenQASM 2.0, is kept
    as a comment.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.n_qubits}];"]
    if abs(c.global_phase) > 0:
        lines.insert(0, f"// global phase: {_fmt(c.global_phase)}")
    for g in c.gates:
        q = g.qubits
        if g.kind in ("RX", "RY", "RZ"):
            lines.append(f"{g.kind.lower()}({_fmt(g.params[0])}) q[{q[0]}];")
        elif g.kind == "H":
            lines.append(f"h q[{q[0]}];")
        elif g.kind == "X":
            lines.append(f"x q[{q[0]}];")
        elif g.kind == "PHASE":
            lines.append(f"u1({_fmt(g.params[0])}) q[{q[0]}];")
        elif g.kind in ("U1", "C"):
            zy = zy_decompose(cir.gate_local_matrix(g))
            lines.append(
                f"u3({_fmt(zy.gamma)},{_fmt(zy.beta)},{_fmt(zy.delta)}) q[{q[0]}];"
            )
        elif g.kind == "CNOT":
            lines.append(f"cx q[{q[0]}],q[{q[1]}];")
        elif g.kind == "CZ":
            lines.append(f"cz q[{q[0]}],q[{q[1]}];")
        elif g.is_toffoli:
            lines.append(f"ccx q[{q[0]}],q[{q[1]}],q[{q[2]}];")
        elif g.kind == "CCZ":
            lines.append(f"ccz q[{q[0]}],q[{q[1]}],q[{q[2]}];")
        else:
            raise UnsupportedGate(f"cannot render {g.kind} gate as OpenQASM; lower it first")
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
        elif mnemonic == "C":
            (q,), (theta, phi) = _seq_fields(line, lineno, "C", 1, 2)
            _check_seq_qubits((q,), n_qubits, lineno)
            gates.append(cir.Gate("C", (q,), (theta, phi)))
        elif mnemonic == "CZ":
            qs, _ = _seq_fields(line, lineno, "CZ", 2, 0)
            _check_seq_qubits(qs, n_qubits, lineno)
            gates.append(cir.cz(*qs))
        elif mnemonic == "CCZ":
            qs, _ = _seq_fields(line, lineno, "CCZ", 3, 0)
            _check_seq_qubits(qs, n_qubits, lineno)
            gates.append(cir.ccz(*qs))
        else:
            raise SequenceSyntaxError(f"unknown instruction {mnemonic!r}", lineno)
    if not saw_header:
        raise SequenceSyntaxError("empty input: missing SEQUENCE header", 1)
    if n_qubits is None:
        raise SequenceSyntaxError("missing QUBITS line", 1)
    return cir.Circuit(n_qubits, tuple(gates), 0.0 if phase is None else phase)


def _check_seq_qubits(qs, n_qubits, lineno):
    if len(set(qs)) != len(qs):
        raise SequenceSyntaxError(f"duplicate qubit in {qs}", lineno)
    for q in qs:
        if not 0 <= q < n_qubits:
            raise SequenceSyntaxError(f"qubit {q} outside width {n_qubits}", lineno)


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
