"""Gate and circuit intermediate representation.

Conventions, used everywhere in the package:

* Qubit 0 is the most significant bit of basis-state indices (big-endian):
  the basis state ``|q0 q1 ... q_{n-1}>`` has index ``sum q_k 2^{n-1-k}``.
* Gate qubits are listed controls first, target last.
* Control polarities (``MCU``/``MCX``/``DIAG_PHASE``) are explicit bits:
  1 triggers on ``|1>``, 0 triggers on ``|0>``.

Gates and circuits are value types: ``append_gate`` returns a new circuit.
"""

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .exceptions import DuplicateQubit, NotUnitary, QubitOutOfRange
from .linalg import wrap_angle

SINGLE_QUBIT_KINDS = frozenset({"RX", "RY", "RZ", "H", "X", "C", "PHASE", "U1"})
ENTANGLING_KINDS = frozenset({"CNOT", "CZ", "CCZ", "CU", "MCU", "MCX"})
GATE_KINDS = SINGLE_QUBIT_KINDS | ENTANGLING_KINDS | {"DIAG_PHASE"}

# Kinds whose first angle parameter lives in [0, 2pi); PHASE/DIAG_PHASE use (-pi, pi].
_MOD_2PI_KINDS = frozenset({"RX", "RY", "RZ", "C"})


def _canon_2pi(x):
    return float(np.asarray(x) % (2 * np.pi))


@dataclass(frozen=True, eq=False)
class Gate:
    kind: str
    qubits: tuple
    params: tuple = ()
    matrix: np.ndarray = None
    polarities: tuple = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(set(self.qubits)) != len(self.qubits):
            raise DuplicateQubit(f"{self.kind} on {self.qubits}")

    def __eq__(self, other):
        if not isinstance(other, Gate):
            return NotImplemented
        if (self.kind, self.qubits, self.params, self.polarities) != (
            other.kind,
            other.qubits,
            other.params,
            other.polarities,
        ):
            return False
        if (self.matrix is None) != (other.matrix is None):
            return False
        return self.matrix is None or np.array_equal(self.matrix, other.matrix)

    @property
    def is_single_qubit(self):
        return len(self.qubits) == 1

    def dagger(self):
        if self.kind in ("H", "X", "CNOT", "CZ", "CCZ", "MCX"):
            return self
        if self.kind in _MOD_2PI_KINDS:
            return replace(self, params=(_canon_2pi(-self.params[0]),) + self.params[1:])
        if self.kind in ("PHASE", "DIAG_PHASE"):
            return replace(self, params=(wrap_angle(-self.params[0]),))
        return replace(self, matrix=self.matrix.conj().T)


def _check_2x2_unitary(m):
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2) or np.max(np.abs(m.conj().T @ m - np.eye(2))) > 1e-10:
        raise NotUnitary("embedded gate matrix must be a 2x2 unitary")
    return m


def rx(theta, q):
    return Gate("RX", (q,), (_canon_2pi(theta),))


def ry(theta, q):
    return Gate("RY", (q,), (_canon_2pi(theta),))


def rz(theta, q):
    return Gate("RZ", (q,), (_canon_2pi(theta),))


def h(q):
    return Gate("H", (q,))


def x(q):
    return Gate("X", (q,))


def c_gate(theta, phi, q):
    """Native neutral-atom pulse: rotation theta about the equatorial axis set by phi."""
    return Gate("C", (q,), (_canon_2pi(theta), _canon_2pi(phi)))


def phase(gamma, q):
    return Gate("PHASE", (q,), (wrap_angle(gamma),))


def u1q(matrix, q):
    """Single-qubit gate carried as an explicit 2x2 unitary."""
    return Gate("U1", (q,), matrix=_check_2x2_unitary(matrix))


def cnot(control, target):
    return Gate("CNOT", (control, target))


def cz(q0, q1):
    return Gate("CZ", (q0, q1))


def ccz(q0, q1, q2):
    return Gate("CCZ", (q0, q1, q2))


def cu(control, target, matrix):
    return Gate("CU", (control, target), matrix=_check_2x2_unitary(matrix))


def mcu(controls, target, matrix, polarities=None):
    controls = tuple(controls)
    if polarities is None:
        polarities = (1,) * len(controls)
    if not controls:
        return u1q(matrix, target)
    return Gate(
        "MCU", controls + (target,), matrix=_check_2x2_unitary(matrix), polarities=tuple(polarities)
    )


def mcx(controls, target, polarities=None):
    controls = tuple(controls)
    if polarities is None:
        polarities = (1,) * len(controls)
    return Gate("MCX", controls + (target,), polarities=tuple(polarities))


def toffoli(c0, c1, target):
    return mcx((c0, c1), target)


def diag_phase(qubits, pattern, gamma):
    """Phase e^{i gamma} on the single basis state of ``qubits`` selected by ``pattern``."""
    return Gate("DIAG_PHASE", tuple(qubits), (wrap_angle(gamma),), polarities=tuple(pattern))


_H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def c_matrix(theta, phi):
    """The native single-qubit pulse gate C(theta, phi)."""
    ct, st = np.cos(theta / 2), np.sin(theta / 2)
    return np.array(
        [[ct, -np.exp(1j * phi) * st], [np.exp(-1j * phi) * st, ct]], dtype=complex
    )


def rotation_matrix(axis, theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if axis == "X":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if axis == "Y":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if axis == "Z":
        return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])
    raise ValueError(f"unknown axis {axis!r}")


def _pattern_index(polarities):
    idx = 0
    for bit in polarities:
        idx = (idx << 1) | bit
    return idx


def gate_local_matrix(g):
    """Matrix of ``g`` over its own qubits, first listed qubit most significant."""
    if g.kind in ("RX", "RY", "RZ"):
        return rotation_matrix(g.kind[1], g.params[0])
    if g.kind == "H":
        return _H.astype(complex)
    if g.kind == "X":
        return _X.astype(complex)
    if g.kind == "C":
        return c_matrix(*g.params)
    if g.kind == "PHASE":
        return np.diag([1.0, np.exp(1j * g.params[0])])
    if g.kind == "U1":
        return np.asarray(g.matrix, dtype=complex)
    if g.kind == "CNOT":
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = _X
        return m
    if g.kind == "CZ":
        return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    if g.kind == "CCZ":
        d = np.ones(8, dtype=complex)
        d[7] = -1.0
        return np.diag(d)
    if g.kind == "CU":
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = g.matrix
        return m
    if g.kind in ("MCU", "MCX"):
        k = len(g.qubits)
        block = _X if g.kind == "MCX" else np.asarray(g.matrix)
        m = np.eye(2**k, dtype=complex)
        base = _pattern_index(g.polarities) << 1
        rows = [base, base + 1]
        m[np.ix_(rows, rows)] = block
        return m
    if g.kind == "DIAG_PHASE":
        k = len(g.qubits)
        d = np.ones(2**k, dtype=complex)
        d[_pattern_index(g.polarities)] = np.exp(1j * g.params[0])
        return np.diag(d)
    raise ValueError(f"no matrix for kind {g.kind!r}")  # pragma: no cover


@dataclass(frozen=True)
class GateCounts:
    per_kind: dict
    entangling_total: int

    def __add__(self, other):
        merged = Counter(self.per_kind) + Counter(other.per_kind)
        return GateCounts(dict(merged), self.entangling_total + other.entangling_total)

    def get(self, kind):
        return self.per_kind.get(kind, 0)

    @property
    def single_qubit_total(self):
        return sum(v for k, v in self.per_kind.items() if k in SINGLE_QUBIT_KINDS)


@dataclass(frozen=True)
class Circuit:
    n_qubits: int
    gates: tuple = ()
    global_phase: float = 0.0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for g in self.gates:
            _validate(g, self.n_qubits)

    def __len__(self):
        return len(self.gates)

    def append(self, gate):
        return append_gate(self, gate)

    def extend(self, fragment):
        """Concatenate another circuit of the same width, accumulating phase."""
        if fragment.n_qubits != self.n_qubits:
            raise QubitOutOfRange("fragment width differs from circuit width")
        return Circuit(
            self.n_qubits,
            self.gates + fragment.gates,
            self.global_phase + fragment.global_phase,
        )

    def with_phase(self, extra):
        return replace(self, global_phase=self.global_phase + extra)


def _validate(gate, n_qubits):
    for q in gate.qubits:
        if not 0 <= q < n_qubits:
            raise QubitOutOfRange(f"qubit {q} outside width {n_qubits}")


def append_gate(circuit, gate):
    _validate(gate, circuit.n_qubits)
    return replace(circuit, gates=circuit.gates + (gate,))


def gate_counts(circuit):
    per_kind = Counter(g.kind for g in circuit.gates)
    entangling = sum(v for k, v in per_kind.items() if k in ENTANGLING_KINDS)
    return GateCounts(dict(per_kind), entangling)


def collect_single_qubit_runs(circuit):
    """Maximal per-qubit spans of single-qubit gates.

    A span is broken only by a multi-qubit gate touching that qubit; gates on
    other qubits may interleave.  Returns ``(qubit, index tuple)`` pairs
    ordered by first index.
    """
    open_runs = {}
    spans = []

    def close(q):
        if open_runs.get(q):
            spans.append((q, tuple(open_runs.pop(q))))

    for idx, g in enumerate(circuit.gates):
        if g.is_single_qubit:
            open_runs.setdefault(g.qubits[0], []).append(idx)
        else:
            for q in g.qubits:
                close(q)
    for q in sorted(open_runs):
        close(q)
    spans.sort(key=lambda item: item[1][0])
    return spans
