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
    "parse_circuit",
    "read_matrix",
    "write_matrix",
]


# ---------------------------------------------------------------------------
# OpenQASM 2.0 subset
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    [ \t\r]+ | //[^\n]* | \n  # skipped
  | (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<op>->|[;,()\[\]+\-*/])
  | (?P<bad>.)  # a character no token starts with
    """,
    re.VERBOSE | re.ASCII,  # OpenQASM 2.0 numbers are ASCII, so \d is [0-9]
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


class _Parser:
    """Recursive-descent parser over token texts closed by an empty-string sentinel.

    A diagnostic names its token by index; ``where`` scans again for its line and column.
    """

    def __init__(self, text):
        self.text = text
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            if m.lastgroup == "bad":
                # The scan in ``where`` counts it as the next token.
                raise QasmSyntaxError(f"unexpected character {m[0]!r}",
                                      *self.where(len(self.tokens)))
            if m.lastgroup:
                self.tokens.append(m[0])
        self.tokens.append("")
        self.pos = 0

    def where(self, i=None):
        """Line and column of token ``i``, by default the last one read."""
        i = self.pos - 1 if i is None else i
        offset = [m.start() for m in _TOKEN_RE.finditer(self.text) if m.lastgroup][i]
        return self.text.count("\n", 0, offset) + 1, offset - self.text.rfind("\n", 0, offset)

    def peek(self):
        return self.tokens[self.pos]

    def next(self, expect=None):
        tok = self.tokens[self.pos]
        if not tok:
            raise QasmSyntaxError("unexpected end of input", self.where()[0] if self.pos else 1)
        if expect is not None and tok != expect:
            raise QasmSyntaxError(f"expected {expect!r}, got {tok!r}", *self.where(self.pos))
        self.pos += 1
        return tok

    def integer(self, what, least=0):
        tok = self.next()
        if not tok.isdigit() or int(tok) < least:
            raise QasmSyntaxError(f"expected {what}, got {tok!r}", *self.where())
        return int(tok)

    # Expression grammar: term {(+|-) term}; term: factor {(*|/) factor};
    # factor: number | pi | ( expr ) | - factor.  Every literal and partial
    # result must be finite (``finite``, at the start of its subexpression).
    def expr(self):
        start = self.pos
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value = self.finite(value + rhs if op == "+" else value - rhs, start)
        return value

    def term(self):
        start = self.pos
        value = self.factor()
        while self.peek() in ("*", "/"):
            at = self.pos
            op = self.next()
            rhs = self.factor()
            if op == "/" and rhs == 0:
                raise QasmSyntaxError("division by zero in angle expression", *self.where(at))
            value = self.finite(value * rhs if op == "*" else value / rhs, start)
        return value

    def factor(self):
        tok = self.next()
        if tok == "-":
            return -self.factor()
        if tok == "(":
            value = self.expr()
            self.next(expect=")")
            return value
        if tok[0].isdigit() or tok[0] == ".":
            return self.finite(float(tok), self.pos - 1)
        if tok == "pi":
            return math.pi
        raise QasmSyntaxError(f"bad term {tok!r} in angle expression", *self.where())

    def finite(self, value, i):
        """``value``, or a ``QasmSyntaxError`` at token ``i`` if it is inf or nan."""
        if not math.isfinite(value):
            raise QasmSyntaxError(f"angle must be finite, got {value}", *self.where(i))
        return value


def parse_qasm(text):
    """Parse the supported OpenQASM 2.0 subset into a Circuit.

    Registers are flattened in declaration order; u1/u2/u3/U are normalized
    at parse time (u1 to a PHASE gate, u2/u3/U to an explicit matrix) so
    downstream passes see a single single-qubit representation.  The
    circuit phase takes the sign of each rx/ry/rz angle's 2pi wraps.
    """
    p = _Parser(text)
    registers = {}  # name -> (offset, size)
    n_qubits = 0
    gates = []
    wraps = []

    if p.peek() == "OPENQASM":
        p.next()
        version = p.next()
        if version != "2.0":
            raise QasmSyntaxError(f"unsupported version {version!r}", *p.where())
        p.next(expect=";")

    def register_name():
        name = p.next()
        if not name.isidentifier():
            raise QasmSyntaxError(f"expected register name, got {name!r}", *p.where())
        return name

    def qubit_ref():
        name = register_name()
        if name not in registers:
            raise UndeclaredRegister(f"register {name!r} not declared", *p.where())
        p.next(expect="[")
        i = p.integer("qubit index")
        p.next(expect="]")
        offset, size = registers[name]
        if i >= size:  # at the index, before the "]"
            raise QasmSyntaxError(
                f"index {i} out of range for register {name!r}[{size}]", *p.where(p.pos - 2)
            )
        return offset + i

    while p.peek():
        at = p.pos
        tok = p.next()
        if tok == "include":
            p.next()  # the string literal
            p.next(expect=";")
            continue
        if tok in ("qreg", "creg"):
            name = register_name()
            p.next(expect="[")
            size = p.integer("positive register size", 1)
            p.next(expect="]")
            p.next(expect=";")
            if tok == "creg":
                continue
            if name in registers:
                raise QasmSyntaxError(f"register {name!r} redeclared", *p.where(at + 1))
            registers[name] = (n_qubits, size)
            n_qubits += size
            continue
        if tok == "barrier":
            while p.next() != ";":
                pass
            continue
        if tok in ("measure", "reset", "if", "gate", "opaque"):
            raise UnsupportedGate(f"{tok!r} is not supported (line {p.where(at)[0]})")
        if not tok.isidentifier():
            raise QasmSyntaxError(f"expected statement, got {tok!r}", *p.where(at))

        args = []
        if p.peek() == "(":
            p.next()
            if p.peek() != ")":
                args.append(p.expr())
                while p.peek() == ",":
                    p.next()
                    args.append(p.expr())
            p.next(expect=")")
        spec = _QASM_GATES.get(tok)
        if spec is not None and len(args) != spec[0]:
            raise QasmSyntaxError(
                f"{tok} takes {spec[0]} parameter(s), got {len(args)}", *p.where(at)
            )
        qubits = [qubit_ref()]
        while p.peek() == ",":
            p.next()
            ref = p.pos
            qubits.append(qubit_ref())
            if qubits[-1] in qubits[:-1]:
                raise QasmSyntaxError(f"{tok} repeats a qubit operand", *p.where(ref))
        p.next(expect=";")

        if spec is None or len(qubits) != spec[1]:
            raise UnsupportedGate(
                f"gate {tok!r} with {len(qubits)} qubit(s) is not supported (line {p.where(at)[0]})"
            )
        gates.append(spec[2](args, qubits))
        if tok in ("rx", "ry", "rz"):
            wraps.append(cir.canonical_angles(args[0])[1])

    if n_qubits == 0:
        raise QasmSyntaxError("no qreg declared", 1)
    return cir.Circuit(n_qubits, tuple(gates), math.fsum(wraps))


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

# Fields split only at _TOKEN_RE's blanks; str.split() also splits at \x0b, \x1c, \x85, U+3000.
_BLANKS = " \t\r"
_BLANK_RE = re.compile(f"[{_BLANKS}]+")


_C, _CZ, _CCZ = (cir.KIND_CODES[k] for k in ("C", "CZ", "CCZ"))
_NATIVE = np.isin(np.arange(len(cir.KINDS)), (_C, _CZ, _CCZ))


def emit_sequence(c):
    """Serialize a native {C, CZ, CCZ} circuit as a SEQUENCE v1 file."""
    bad = np.flatnonzero(~_NATIVE[c.kinds])
    if bad.size:
        raise UnsupportedGate(f"{cir.KINDS[c.kinds[bad[0]]]} is not a native pulse instruction; "
                              "retarget the circuit first")
    lines = ["SEQUENCE 1", f"QUBITS {c.n_qubits}"]
    if abs(c.global_phase) > 0:
        lines.append(f"PHASE {_fmt(c.global_phase)}")
    for kind, qubits, (theta, phi) in cir.column_rows((c.kinds, c.qubits, c.params)):
        if kind == _C:
            lines.append(f"C {qubits[0]} {theta:.17g} {phi:.17g}")
        elif kind == _CZ:
            lines.append(f"CZ {qubits[0]} {qubits[1]}")
        else:
            lines.append(f"CCZ {qubits[0]} {qubits[1]} {qubits[2]}")
    return "\n".join(lines) + "\n"


def _seq_fields(raw, lineno, mnemonic, n_int, n_float):
    parts = _BLANK_RE.split(raw)
    if len(parts) != 1 + n_int + n_float:
        raise SequenceSyntaxError(
            f"{mnemonic} takes {n_int + n_float} argument(s), got {len(parts) - 1}", lineno
        )
    # int() and float() also read other digits, "1_0" and control characters ("0\x1c").
    if not raw.isascii() or not "".join(parts).isprintable() or "_" in raw:
        raise SequenceSyntaxError(f"{mnemonic} arguments must be ASCII numbers without '_'", lineno)
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
    # Only "\n" ends a line: splitlines() would also break at \x1c-\x1e, \x85, U+2028, U+2029.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip(_BLANKS)
        if not line:
            continue
        mnemonic = _BLANK_RE.split(line, 1)[0]
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


def parse_circuit(text):
    """A SEQUENCE file if its first field outside ``#`` comments says so, else OpenQASM."""
    lines = (raw.split("#", 1)[0].strip(_BLANKS) for raw in text.split("\n"))
    first = next((_BLANK_RE.split(line, 1)[0] for line in lines if line), None)
    return (parse_sequence if first == "SEQUENCE" else parse_qasm)(text)


# ---------------------------------------------------------------------------
# Matrix files
# ---------------------------------------------------------------------------

_ENTRY_RE = re.compile(
    r"^(?P<re>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i$",
    re.ASCII,  # \d would also match other Unicode digits
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
    # Only "\n" ends a line, as in parse_sequence; each line keeps its 1-based number.
    lines = [(n, ln) for n, ln in enumerate(
        (raw.split("#", 1)[0].strip(_BLANKS) for raw in text.split("\n")), start=1) if ln]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    head = lines[0][1]
    if not re.fullmatch(r"[+-]?[0-9]+", head):  # int() also reads other digits and "1_0"
        raise MatrixFormatError(f"bad dimension line {head!r}")
    dim = int(head)
    if dim < 1:
        raise MatrixFormatError(f"dimension must be positive, got {dim}")
    if len(lines) != dim + 1:
        raise MatrixFormatError(f"expected {dim} rows, got {len(lines) - 1}")
    m = np.zeros((dim, dim), dtype=complex)
    for i, (lineno, line) in enumerate(lines[1:]):
        entries = _BLANK_RE.split(line)
        if len(entries) != dim:
            raise MatrixFormatError(f"row {i} has {len(entries)} entries, expected {dim}", lineno)
        for j, token in enumerate(entries):
            em = _ENTRY_RE.match(token)
            if em is None:
                raise MatrixFormatError(f"bad entry {token!r} at row {i}, column {j}", lineno)
            m[i, j] = complex(float(em.group("re")), float(em.group("im")))
            if not np.isfinite(m[i, j]):  # an overflowing entry such as 1e999 reads as inf
                raise MatrixFormatError(f"entry {token!r} at row {i}, column {j} is not finite",
                                        lineno)
    check_unitary(m, what="input matrix")
    return m
