"""Gate and circuit intermediate representation.

Conventions, used everywhere in the package:

* Qubit 0 is the most significant bit of basis-state indices (big-endian):
  the basis state ``|q0 q1 ... q_{n-1}>`` has index ``sum q_k 2^{n-1-k}``.
* Gate qubits are listed controls first, target last.
* Control polarities (``MCU``/``MCX``/``DIAG_PHASE``) are explicit bits:
  1 triggers on ``|1>``, 0 triggers on ``|0>``.

Gates and circuits are immutable value types.
"""

from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .exceptions import DuplicateQubit, NotUnitary, QubitOutOfRange
from .linalg import is_unitary, wrap_angle

SINGLE_QUBIT_KINDS = frozenset({"RX", "RY", "RZ", "H", "X", "C", "PHASE", "U1"})
ENTANGLING_KINDS = frozenset({"CNOT", "CZ", "CCZ", "MCU", "MCX"})
GATE_KINDS = SINGLE_QUBIT_KINDS | ENTANGLING_KINDS | {"DIAG_PHASE"}

# Kinds whose first angle parameter lives in [0, 2pi); PHASE/DIAG_PHASE use (-pi, pi].
_MOD_2PI_KINDS = frozenset({"RX", "RY", "RZ", "C"})


def _canon_2pi(x):
    y = float(x) % (2 * np.pi)
    # A tiny negative x rounds up to exactly 2 pi, outside [0, 2 pi).
    return 0.0 if y == 2 * np.pi else y


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
            raise DuplicateQubit(f"duplicate qubit in {self.kind} {self.qubits}")

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

    @property
    def is_toffoli(self):
        """Two controls, both on |1>: the one MCX that retarget and QASM take as is."""
        return self.kind == "MCX" and len(self.qubits) == 3 and 0 not in self.polarities

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
    if m.shape != (2, 2) or not is_unitary(m):
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
_Z = np.diag([1.0, -1.0])


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


def gate_local_matrix(g):
    """The 2x2 matrix of a single-qubit kind; ``controlled_block`` covers every kind."""
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
    raise ValueError(f"{g.kind} has no single-qubit matrix; use controlled_block")


def controlled_block(g):
    """``(controls, polarities, target, block)``: ``g`` applies the 2x2 ``block``
    to ``target`` on the basis states where each control reads its polarity.

    A single-qubit gate has no controls.  DIAG_PHASE puts its phase on the
    target state its last polarity selects.
    """
    controls, target = g.qubits[:-1], g.qubits[-1]
    if g.kind == "DIAG_PHASE":
        e = np.exp(1j * g.params[0])
        block = np.diag([1.0, e]) if g.polarities[-1] else np.diag([e, 1.0])
        return controls, g.polarities[:-1], target, block
    if g.kind in ("MCU", "MCX"):
        return controls, g.polarities, target, _X if g.kind == "MCX" else g.matrix
    if g.kind in ("CNOT", "CZ", "CCZ"):
        return controls, (1,) * len(controls), target, _X if g.kind == "CNOT" else _Z
    return (), (), target, gate_local_matrix(g)


# A circuit has few distinct (controls, polarities, target) keys: at n = 6,
# QRD's MCUs have at most 6 * 3^5 = 1458, and the simulator meets the same
# keys gate after gate.  An entry holds 2^n indices: 32 KiB at 12 qubits.
@lru_cache(maxsize=2048)
def row_pairs(controls, polarities, target, n_qubits):
    """Basis-state index arrays ``(r0, r1)`` that a controlled block mixes.

    ``r0[k]`` and ``r1[k]`` match every control's polarity and differ only
    in the target bit, which ``r0`` has clear; ``r0`` is ascending.  The
    arguments are tuples and ints; the arrays are read-only, shared by
    every call with the same arguments.
    """
    tbit = 1 << (n_qubits - 1 - target)
    mask, base = tbit, 0
    for q, p in zip(controls, polarities):
        bit = 1 << (n_qubits - 1 - q)
        mask |= bit
        base |= p * bit
    rows = np.arange(2**n_qubits)
    r0 = rows[(rows & mask) == base]
    r1 = r0 | tbit
    r0.flags.writeable = r1.flags.writeable = False
    return r0, r1


def mixed_rows(m, r0, r1, block):
    """Rows ``r0`` and ``r1`` of ``m`` after ``block`` mixes each pair (r0[k], r1[k])."""
    a = m[r0, :]
    b = m[r1, :]
    return block[0, 0] * a + block[0, 1] * b, block[1, 0] * a + block[1, 1] * b


@dataclass(frozen=True)
class GateCounts:
    per_kind: dict
    entangling_total: int

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
            check_qubits(g, self.n_qubits)

    def __len__(self):
        return len(self.gates)


def check_qubits(gate, n_qubits):
    """Raise ``QubitOutOfRange`` unless every qubit of ``gate`` is below ``n_qubits``."""
    for q in gate.qubits:
        if not 0 <= q < n_qubits:
            raise QubitOutOfRange(f"qubit {q} outside width {n_qubits}")


def gate_counts(circuit):
    per_kind = Counter(g.kind for g in circuit.gates)
    entangling = sum(v for k, v in per_kind.items() if k in ENTANGLING_KINDS)
    return GateCounts(dict(per_kind), entangling)
