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
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import attrgetter

import numpy as np

from .exceptions import DuplicateQubit, NotUnitary, QubitOutOfRange
from .linalg import is_unitary, wrap_angle

SINGLE_QUBIT_KINDS = frozenset({"RX", "RY", "RZ", "H", "X", "C", "PHASE", "U1"})
ENTANGLING_KINDS = frozenset({"CNOT", "CZ", "CCZ", "MCU", "MCX"})
GATE_KINDS = SINGLE_QUBIT_KINDS | ENTANGLING_KINDS | {"DIAG_PHASE"}


def canonical_angles(angles):
    """Angles in [0, 2pi), and the phases pi * round((angle - canonical) / 2pi) keeping them exact.

    RX/RY/RZ/C(theta + 2pi) = -RX/RY/RZ/C(theta): a circuit's phase takes the pi
    of each wrap.  A float array gives two arrays, a float (or 0-d array) two floats.
    """
    if isinstance(angles, np.ndarray) and angles.ndim:
        canon = np.mod(angles, 2 * np.pi)
        canon[canon == 2 * np.pi] = 0.0
        return canon, np.pi * np.round((angles - canon) / (2 * np.pi))
    canon = float(angles) % (2 * np.pi)
    # A tiny negative angle rounds up to exactly 2 pi, outside [0, 2 pi).
    canon = 0.0 if canon == 2 * np.pi else canon
    return canon, np.pi * round((angles - canon) / (2 * np.pi))


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


def _check_2x2_unitary(m):
    m = np.asarray(m, dtype=complex)
    if m.shape != (2, 2) or not is_unitary(m):
        raise NotUnitary("embedded gate matrix must be a 2x2 unitary")
    return m


def rx(theta, q):
    return Gate("RX", (q,), (canonical_angles(theta)[0],))


def ry(theta, q):
    return Gate("RY", (q,), (canonical_angles(theta)[0],))


def rz(theta, q):
    return Gate("RZ", (q,), (canonical_angles(theta)[0],))


def h(q):
    return Gate("H", (q,))


def x(q):
    return Gate("X", (q,))


def c_gate(theta, phi, q):
    """Native neutral-atom pulse: rotation theta about the equatorial axis set by phi."""
    return Gate("C", (q,), (canonical_angles(theta)[0], canonical_angles(phi)[0]))


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


def _constant(m):
    m = np.asarray(m, dtype=complex)
    m.flags.writeable = False
    return m


# The fixed 2x2 blocks, complex and read-only, shared by every module.
HADAMARD = _constant(np.array([[1, 1], [1, -1]]) / np.sqrt(2))
PAULI_X = _constant([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = _constant(np.diag([1.0, -1.0]))


def _pack(m00, m01, m10, m11):
    """One complex ``(..., 2, 2)`` array from four entries that broadcast together."""
    m = np.empty(np.broadcast(m00, m01, m10, m11).shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = m00, m01, m10, m11
    return m


# The angle functions below take floats or arrays of them; an array of
# angles gives a stack of 2x2s, entry for entry the same as one at a time.
def c_matrix(theta, phi):
    """The native single-qubit pulse gate C(theta, phi)."""
    ct, st = np.cos(theta / 2), np.sin(theta / 2)
    return _pack(ct, -np.exp(1j * phi) * st, np.exp(-1j * phi) * st, ct)


def rotation_matrix(axis, theta):
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    if axis == "X":
        return _pack(c, -1j * s, -1j * s, c)
    if axis == "Y":
        return _pack(c, -s, s, c)
    if axis == "Z":
        return _pack(np.exp(-1j * theta / 2), 0, 0, np.exp(1j * theta / 2))
    raise ValueError(f"unknown axis {axis!r}")


def _phase_matrix(gamma):
    return _pack(1.0, 0, 0, np.exp(1j * gamma))


_ANGLE_MATRICES = {
    "RX": partial(rotation_matrix, "X"),
    "RY": partial(rotation_matrix, "Y"),
    "RZ": partial(rotation_matrix, "Z"),
    "C": c_matrix,
    "PHASE": _phase_matrix,
}
_FIXED_MATRICES = {"H": HADAMARD, "X": PAULI_X}


def local_matrices(gates):
    """The 2x2 of every single-qubit gate in ``gates``, as one ``(len, 2, 2)`` array.

    One array pass per kind: RX/RY/RZ/C/PHASE from their angle columns, H
    and X as constants, U1 as carried, and a one-qubit DIAG_PHASE as its
    ``controlled_block``.
    """
    out = np.empty((len(gates), 2, 2), dtype=complex)
    by_kind = {}
    for i, g in enumerate(gates):
        by_kind.setdefault(g.kind, []).append(i)
    for kind, idx in by_kind.items():
        if kind in _ANGLE_MATRICES:
            out[idx] = _ANGLE_MATRICES[kind](*np.array([gates[i].params for i in idx]).T)
        elif kind in _FIXED_MATRICES:
            out[idx] = _FIXED_MATRICES[kind]
        elif kind == "U1":
            out[idx] = [gates[i].matrix for i in idx]
        elif kind == "DIAG_PHASE" and all(gates[i].is_single_qubit for i in idx):
            out[idx] = [controlled_block(gates[i])[3] for i in idx]
        else:
            raise ValueError(f"{kind} has no single-qubit matrix; use controlled_block")
    return out


def gate_local_matrix(g):
    """The 2x2 matrix of a single-qubit kind; ``controlled_block`` covers every kind."""
    return local_matrices((g,))[0]


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
        return controls, g.polarities, target, PAULI_X if g.kind == "MCX" else g.matrix
    if g.kind in ("CNOT", "CZ", "CCZ"):
        return controls, (1,) * len(controls), target, PAULI_X if g.kind == "CNOT" else PAULI_Z
    return (), (), target, gate_local_matrix(g)


# A circuit has few distinct (controls, polarities, target) keys: at n = 6,
# QRD's MCUs have at most 6 * 3^5 = 1458, and the simulator meets the same
# keys gate after gate.  An entry is a few short tuples.
@lru_cache(maxsize=2048)
def block_index(controls, polarities, target):
    """``(shape, i0, i1)`` locating the row pairs a controlled block mixes.

    For any C-contiguous ``m`` with 2^n rows, ``m.reshape(shape)[i0]`` and
    ``[i1]`` are views of those rows: each control reads its polarity and
    the target bit is 0 in ``i0``, 1 in ``i1``.  Every touched qubit gets an
    axis of two, the untouched qubits between two of them share one axis,
    and the qubits after the last share the final axis with the columns, so
    both views list their entries in ascending row order, pair by pair.  The
    arguments are tuples and ints; the index holds for every width n.
    """
    bits = dict(zip(controls, polarities))
    bits[target] = None
    shape, i0, i1 = [], [], []
    free = 0  # first qubit without an axis yet
    for q in sorted(bits):
        if q > free:
            shape.append(2 ** (q - free))
            i0.append(slice(None))
            i1.append(slice(None))
        p = bits[q]
        shape.append(2)
        i0.append(0 if p is None else p)
        i1.append(1 if p is None else p)
        free = q + 1
    return tuple(shape) + (-1,), tuple(i0), tuple(i1)


def pair_views(m, controls, polarities, target):
    """Views ``(a, b)`` of the rows of ``m`` a controlled block mixes (``block_index``).

    Writing into them writes into ``m``, which must therefore be
    C-contiguous.
    """
    if not m.flags.c_contiguous:
        raise ValueError("pair_views needs a C-contiguous array")
    shape, i0, i1 = block_index(controls, polarities, target)
    v = m.reshape(shape)
    return v[i0], v[i1]


def mix(block, a, b):
    """New rows ``(b00 a + b01 b, b10 a + b11 b)``: ``block`` applied to every pair."""
    return block[0, 0] * a + block[0, 1] * b, block[1, 0] * a + block[1, 1] * b


def _fold(mats, run_of, n_runs):
    """Product of each run's matrices, later ones on the left.

    ``mats[j]`` belongs to run ``run_of[j]``, in gate order within each
    run; one batched matmul per position in a run.
    """
    lengths = np.bincount(run_of, minlength=n_runs)
    # Position of each matrix in its run: its place in run order less the
    # place where its run starts.
    depth = np.empty_like(run_of)
    depth[np.argsort(run_of, kind="stable")] = np.arange(len(run_of)) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    us = np.broadcast_to(np.eye(2, dtype=complex), (n_runs, 2, 2)).copy()
    by_depth = np.argsort(depth, kind="stable")
    for idx in np.split(by_depth, np.cumsum(np.bincount(depth))[:-1]):
        r = run_of[idx]
        us[r] = mats[idx] @ us[r]
    return us


# The Hadamard ``collect_runs`` puts around a conjugated gate; its matrix
# does not depend on the qubit.
_HADAMARD_GATE = h(0)


def collect_runs(gates, conjugate=None):
    """One pass over ``gates``: the slots in order, the runs and each run's fused 2x2.

    A run is a qubit's maximal stretch of single-qubit gates.  Every run and
    every multi-qubit gate takes one slot, in gate order: a gate's slot
    holds the gate, a run's holds its index into ``runs``, at the place
    where the run began.  That place is exact, as every gate up to the run's
    end acts on other qubits.  A run is ``(qubit, index of the gate where it
    began)``; ``us[r]`` is run r's product, later gates on the left, or
    ``us`` is None when there is no run.

    ``conjugate(g)``, if given, maps each multi-qubit gate to ``(gate,
    qubit)``: ``gate`` takes the slot and, unless ``qubit`` is None, a
    Hadamard on ``qubit`` before and after it joins that qubit's runs.  Its
    answer must depend only on the gate's kind, qubits and polarities: it is
    asked once per distinct triple, so equal gates share one output gate.
    The per-gate matrices are freed on return.
    """
    slots, ones, run_of, runs = [], [], [], []
    open_runs = {}  # qubit -> index into runs of its open run
    rewrites = {}  # (kind, qubits, polarities) -> conjugate's answer
    for i, g in enumerate(gates):
        qubits = g.qubits
        if len(qubits) == 1:
            q = qubits[0]
        else:
            q = None
            if conjugate is not None:
                key = (g.kind, qubits, g.polarities)
                hit = rewrites.get(key)
                if hit is None:
                    hit = rewrites[key] = conjugate(g)
                g, q = hit
            if q is not None:
                r = open_runs.get(q)
                if r is None:
                    r = open_runs[q] = len(runs)
                    runs.append((q, i))
                    slots.append(r)
                ones.append(_HADAMARD_GATE)
                run_of.append(r)
            for p in g.qubits:
                open_runs.pop(p, None)
            slots.append(g)
            if q is None:
                continue
            g = _HADAMARD_GATE  # the second one opens q's next run
        r = open_runs.get(q)
        if r is None:
            r = open_runs[q] = len(runs)
            runs.append((q, i))
            slots.append(r)
        ones.append(g)
        run_of.append(r)
    us = _fold(local_matrices(ones), np.array(run_of), len(runs)) if runs else None
    return slots, runs, us


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
        # Gates share few qubit tuples; each distinct one, in gate order, is checked once.
        for qubits in dict.fromkeys(map(attrgetter("qubits"), self.gates)):
            check_qubits(qubits, self.n_qubits)

    def __len__(self):
        return len(self.gates)


def check_qubits(qubits, n_qubits):
    """Raise ``QubitOutOfRange`` unless every one of ``qubits`` is below ``n_qubits``."""
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise QubitOutOfRange(f"qubit {q} outside width {n_qubits}")


def gate_counts(circuit):
    per_kind = Counter(g.kind for g in circuit.gates)
    entangling = sum(v for k, v in per_kind.items() if k in ENTANGLING_KINDS)
    return GateCounts(dict(per_kind), entangling)
