"""Gate and circuit intermediate representation.

Conventions, used everywhere in the package:

* Qubit 0 is the most significant bit of basis-state indices (big-endian):
  the basis state ``|q0 q1 ... q_{n-1}>`` has index ``sum q_k 2^{n-1-k}``.
* Gate qubits are listed controls first, target last.
* Control polarities (``MCU``/``MCX``/``DIAG_PHASE``) are explicit bits:
  1 triggers on ``|1>``, 0 triggers on ``|0>``.

Gates and circuits are immutable value types.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import chain
from operator import attrgetter

import numpy as np

from .exceptions import DuplicateQubit, NotUnitary, QubitOutOfRange
from .linalg import is_unitary, wrap_angle

SINGLE_QUBIT_KINDS = frozenset({"RX", "RY", "RZ", "H", "X", "C", "PHASE", "U1"})
ENTANGLING_KINDS = frozenset({"CNOT", "CZ", "CCZ", "MCU", "MCX"})
# A kind's code in a ``Circuit``'s ``kinds`` column is its place here.
KINDS = ("RX", "RY", "RZ", "H", "X", "C", "PHASE", "U1", "CNOT", "CZ", "CCZ", "MCU", "MCX",
         "DIAG_PHASE")
KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}
GATE_KINDS = frozenset(KINDS)
# Angles per kind (none for the rest), and the kinds with a matrix or polarities.
_N_PARAMS = {"RX": 1, "RY": 1, "RZ": 1, "C": 2, "PHASE": 1, "DIAG_PHASE": 1}
_MATRIX_KINDS = frozenset({"U1", "MCU"})
_HAS_MATRIX = np.array([kind in _MATRIX_KINDS for kind in KINDS])
_POLARITY_KINDS = frozenset({"MCU", "MCX", "DIAG_PHASE"})


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


@dataclass(frozen=True, eq=False, slots=True)
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


def _kind_matrices(kind, params):
    """The 2x2s of single-qubit gates of one angle or fixed ``kind``, from their ``(k, p)`` angles."""
    if kind in _ANGLE_MATRICES:
        return _ANGLE_MATRICES[kind](*params.T)
    if kind in _FIXED_MATRICES:
        return np.broadcast_to(_FIXED_MATRICES[kind], (len(params), 2, 2))
    raise ValueError(f"{kind} has no single-qubit matrix; use controlled_block")


def gate_local_matrix(g):
    """The 2x2 matrix of a single-qubit kind; ``controlled_block`` covers every kind.

    Bit for bit the matrix ``Circuit.local_matrices`` gives ``g``'s row.
    """
    if g.kind == "U1":
        return np.array(g.matrix, dtype=complex)
    if g.kind in _POLARITY_KINDS and g.is_single_qubit:
        return controlled_block(g)[3]
    return _kind_matrices(g.kind, np.array([g.params], dtype=float))[0]


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


def _fold(mats, lengths):
    """Product of each run's matrices, later ones on the left.

    Run r's matrices are the next ``lengths[r]`` of ``mats``, in time
    order.  One batched matmul per position in a run: with the runs taken
    longest first, those that reach a position are a leading slice.
    """
    by_length = (-lengths).argsort()
    starts = (lengths.cumsum() - lengths)[by_length]
    reach = (len(lengths) - np.bincount(lengths).cumsum()).tolist()  # runs longer than each depth
    us = np.zeros((len(lengths), 2, 2), dtype=complex)
    us[:, 0, 0] = us[:, 1, 1] = 1.0
    for depth, k in enumerate(reach[:-1]):
        us[:k] = mats[starts[:k] + depth] @ us[:k]
    return us[by_length.argsort()]


def collect_runs(c, on=None):
    """The slots of circuit ``c`` in time order, its runs and each run's fused 2x2, as arrays.

    A run is a qubit's maximal stretch of single-qubit gates: the run of a
    single-qubit row is (its qubit, the number of multi-qubit rows on that
    qubit before it).  ``on``, if given, holds per row a qubit or -1 (-1 on
    every single-qubit row): a Hadamard on that qubit before and after a
    multi-qubit row joins run k and run k + 1 of the qubit, k counted as
    for a single-qubit row.  Runs are numbered by their first element;
    ``runs[r]`` is ``(qubit, row where run r began)``.  Every run and every
    multi-qubit row takes one slot, in time order, a run at the place where
    it began: ``slots[j]`` is r >= 0 for run r and ``~row`` for a
    multi-qubit row.  That place is exact, as every row up to the run's end
    acts on other qubits.  ``us[r]`` is run r's product, later elements on
    the left.
    """
    # Each row's entries in time order: the Hadamard before it, its qubits,
    # the Hadamard after it.  A stable sort by qubit keeps that order, and
    # each run's elements (single-qubit rows and Hadamards) are consecutive.
    grid = c.qubits if on is None else np.concatenate([on[:, None], c.qubits, on[:, None]], 1)
    row, col = (grid >= 0).nonzero()
    qubit = grid[row, col]
    element = (c.widths == 1)[row]
    hadamard = np.zeros_like(element) if on is None else col % (grid.shape[1] - 1) == 0
    element |= hadamard
    order = qubit.argsort(kind="stable")
    qubit, sorted_element = qubit[order], element[order]
    first = sorted_element.copy()
    first[1:] &= ~sorted_element[:-1] | (qubit[1:] != qubit[:-1])
    begins = order[first]  # each run's first entry, an index in time order
    by_time = begins.argsort()
    runs = np.array([qubit[first], row[begins]]).T[by_time]
    els = order[sorted_element]
    h = hadamard[els]
    mats = np.empty((len(els), 2, 2), dtype=complex)
    mats[h] = HADAMARD
    mats[~h] = c.local_matrices(row[els[~h]])
    us = _fold(mats, np.bincount(first[sorted_element].cumsum() - 1))[by_time]
    # Slots: a run at its first element, a multi-qubit row at its first qubit.
    gate_at = (~element & (col == (on is not None))).nonzero()[0]
    keys = np.concatenate([begins[by_time], gate_at])
    slots = np.concatenate([np.arange(len(begins)), ~row[gate_at]])[keys.argsort()]
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


def _padded(rows, width, dtype, fill=-1):
    """Sequences of at most ``width`` numbers as one ``(len(rows), width)`` array padded with ``fill``."""
    out = np.full((len(rows), width), fill, dtype=dtype)
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    out[np.arange(width) < lengths[:, None]] = list(chain.from_iterable(rows))
    return out


def column_rows(columns, rows=None):
    """Each of ``rows`` (every row by default) as a tuple of its Python values in ``columns``.

    Converted 1,024 rows at a time, so a large circuit is never all Python
    objects at once.
    """
    for start in range(0, len(columns[0]) if rows is None else len(rows), 1024):
        at = slice(start, start + 1024) if rows is None else rows[start:start + 1024]
        yield from zip(*(column[at].tolist() for column in columns))


def gate_columns(gates):
    """The columns ``(kinds, qubits, params, polarities, matrices)`` of ``gates`` (see ``Circuit``)."""
    qubits = [g.qubits for g in gates]
    width = max(map(len, qubits), default=1)
    return (
        np.array([KIND_CODES[g.kind] for g in gates], dtype=np.int8),
        _padded(qubits, width, np.int32),
        _padded([g.params for g in gates], 2, float, 0.0),
        _padded([g.polarities or () for g in gates], width, np.int8),
        np.array([g.matrix for g in gates if g.kind in _MATRIX_KINDS],
                 dtype=complex).reshape(-1, 2, 2),
    )


# Frozen with no fields: setting or deleting any attribute raises
# ``FrozenInstanceError``, an ``AttributeError``.
@dataclass(frozen=True, eq=False, init=False, repr=False)
class Circuit:
    """``gates`` on ``n_qubits`` qubits in time order, then ``e^{i global_phase}``.

    Immutable.  The gates are read-only columns, one row per gate in time
    order.  ``kinds`` holds each gate's place in ``KINDS``.  ``qubits`` is
    ``(m, w)``, controls first and target last, padded with -1; ``w`` is at
    least the widest gate's qubit count.  ``params`` is ``(m, 2)``: the
    kind's angles, then 0.0.  ``polarities`` is ``(m, w)`` from column 0,
    padded with -1: an MCU's or MCX's control polarities, a DIAG_PHASE's
    pattern.  ``matrices`` stacks the 2x2s of the U1 and MCU rows, in row
    order.  ``Circuit(n, gates, phase)`` converts the gates once and keeps
    their tuple as ``gates``; a stage that writes columns uses
    ``from_columns``, and ``gates`` is built on first read, the same tuple
    on every read.
    """

    def __init__(self, n_qubits, gates=(), global_phase=0.0):
        gates = tuple(gates)
        self._freeze(n_qubits, global_phase, gate_columns(gates))
        self.__dict__["gates"] = gates
        # Gates share few qubit tuples; each distinct one, in gate order, is checked once.
        for qubits in dict.fromkeys(map(attrgetter("qubits"), gates)):
            check_qubits(qubits, n_qubits)

    @classmethod
    def from_columns(cls, n_qubits, kinds, qubits, params, polarities=None, matrices=None,
                     global_phase=0.0):
        """The circuit of these columns; raises ``QubitOutOfRange`` as ``Circuit`` does.

        ``polarities`` defaults to all -1 (no row has any), ``matrices`` to
        none (no U1 or MCU row).
        """
        if polarities is None:
            polarities = np.full(qubits.shape, -1, dtype=np.int8)
        if matrices is None:
            matrices = np.empty((0, 2, 2), dtype=complex)
        c = cls.__new__(cls)
        c._freeze(n_qubits, global_phase, (kinds, qubits, params, polarities, matrices))
        if qubits.max(initial=-1) >= n_qubits:
            # The first one row by row, controls first, as ``Circuit`` finds it.
            check_qubits((int(qubits[qubits >= n_qubits][0]),), n_qubits)
        return c

    def _freeze(self, n_qubits, global_phase, columns):
        if n_qubits < 1:
            raise ValueError("circuit needs at least one qubit")
        for column in columns:
            column.flags.writeable = False
        self.__dict__.update(zip(("kinds", "qubits", "params", "polarities", "matrices"), columns),
                             n_qubits=n_qubits, global_phase=global_phase)

    @cached_property
    def gates(self):
        return tuple(self.to_gates())

    @cached_property
    def widths(self):
        """The number of qubits of each row."""
        return np.count_nonzero(self.qubits >= 0, axis=1)

    @cached_property
    def _matrix_of(self):
        """Each row's index into ``matrices``, valid on U1 and MCU rows."""
        return np.cumsum(_HAS_MATRIX[self.kinds]) - 1

    def to_gates(self, rows=None):
        """The ``Gate`` of each of ``rows`` (every row by default), in order.

        A gate with no angle or matrix is built once per distinct (kind,
        qubits, polarities) and shared.
        """
        columns = (self.kinds, self.widths, self.qubits, self.params, self.polarities,
                   self._matrix_of)
        gates, shared = [], {}
        for k, w, qubits, params, polarities, j in column_rows(columns, rows):
            kind = KINDS[k]
            fields = (kind, tuple(qubits[:w]), tuple(params[:_N_PARAMS.get(kind, 0)]),
                      self.matrices[j] if kind in _MATRIX_KINDS else None,
                      tuple(p for p in polarities if p >= 0) if kind in _POLARITY_KINDS else None)
            if fields[2] or fields[3] is not None:
                gates.append(Gate(*fields))
            else:
                gates.append(shared.get(fields) or shared.setdefault(fields, Gate(*fields)))
        return gates

    def local_matrices(self, rows):
        """The 2x2 of each of ``rows``, single-qubit rows, as one ``(len(rows), 2, 2)`` array.

        One array pass per kind: RX/RY/RZ/C/PHASE from their angle columns,
        H and X as constants, U1 from ``matrices``, and a one-qubit MCU,
        MCX or DIAG_PHASE as its ``controlled_block``.
        """
        kinds = self.kinds[rows]
        out = np.empty((len(rows), 2, 2), dtype=complex)
        for k in np.bincount(kinds).nonzero()[0].tolist():
            idx = (kinds == k).nonzero()[0]
            at = rows[idx]
            kind = KINDS[k]
            if kind == "U1":
                out[idx] = self.matrices[self._matrix_of[at]]
            elif kind in _POLARITY_KINDS:
                out[idx] = [controlled_block(g)[3] for g in self.to_gates(at)]
            else:
                out[idx] = _kind_matrices(kind, self.params[at, :_N_PARAMS.get(kind, 0)])
        return out

    def __len__(self):
        return len(self.kinds)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n_qubits, self.gates, self.global_phase) == (
            other.n_qubits, other.gates, other.global_phase)

    def __repr__(self):
        return (f"Circuit(n_qubits={self.n_qubits!r}, gates={self.gates!r}, "
                f"global_phase={self.global_phase!r})")


def check_qubits(qubits, n_qubits):
    """Raise ``QubitOutOfRange`` unless every one of ``qubits`` is below ``n_qubits``."""
    for q in qubits:
        if not 0 <= q < n_qubits:
            raise QubitOutOfRange(f"qubit {q} outside width {n_qubits}")


def gate_counts(circuit):
    per_kind = np.bincount(circuit.kinds, minlength=len(KINDS)).tolist()
    per_kind = {kind: count for kind, count in zip(KINDS, per_kind) if count}
    entangling = sum(v for k, v in per_kind.items() if k in ENTANGLING_KINDS)
    return GateCounts(per_kind, entangling)
