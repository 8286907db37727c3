"""QR-style compiler: Givens elimination over a Gray-code basis order.

The elimination schedule walks columns left to right and, within each
column, rows bottom to top *in Gray-code order*, so every two-level
rotation couples basis states differing in exactly one bit.  Each rotation
therefore becomes a multi-controlled single-qubit gate without any
basis-flip conjugation.  Control elimination then drops controls whose
removal provably leaves all previously-cleared matrix entries untouched.
"""

import numpy as np

from . import circuit as cir
from .barenco import lower_circuit
from .exceptions import NotPowerOfTwo, SizeTooLarge
from .linalg import DEFAULT_TOL, MAX_QUBITS, check_unitary, wrap_angle

__all__ = ["gcb_code", "eliminate_controls", "qrd_compile"]


def gcb_code(i):
    """Gray code of ``i``: adjacent codes differ in exactly one bit."""
    if i < 0:
        raise ValueError("index must be non-negative")
    return i ^ (i >> 1)


def _qubit_count(dim):
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise NotPowerOfTwo(f"dimension {dim} is not a power of two >= 2")
    return n


def _mix_rows(m, r0, r1, block):
    """In-place left-multiplication on the row pairs (r0[k], r1[k])."""
    a = m[r0, :]
    b = m[r1, :]
    m[r0, :] = block[0, 0] * a + block[0, 1] * b
    m[r1, :] = block[1, 0] * a + block[1, 1] * b


def _givens_block(u_a, u_b, tol):
    """2x2 rotation sending (u_a, u_b)^T to (r, 0)^T with r real non-negative.

    ``None`` means there is nothing to eliminate: ``u_b`` is already zero
    to ``tol.tol_zero`` (which covers the degenerate case where both
    entries are), and the rows stay as they are.
    """
    if abs(u_b) <= tol.tol_zero:
        return None
    r = np.hypot(abs(u_a), abs(u_b))
    return np.array(
        [[u_a.conjugate() / r, u_b.conjugate() / r], [-u_b / r, u_a / r]]
    )


def _op_to_mcu(a, b, block, n_qubits):
    """Express the rotation ``block`` between Gray-adjacent basis states as an MCU.

    ``block`` is 2x2 with rows/columns ordered (a, b), where ``a`` is the
    pivot (the Gray predecessor of ``b``).
    """
    diff = a ^ b
    bit = diff.bit_length() - 1  # bit position counted from the LSB
    target = n_qubits - 1 - bit
    controls = tuple(q for q in range(n_qubits) if q != target)
    pol = tuple((a >> (n_qubits - 1 - q)) & 1 for q in controls)
    if (a >> bit) & 1 == 1:
        block = block[::-1, ::-1]
    return cir.mcu(controls, target, block, pol)


def _gate_row_pairs(gate, n_qubits):
    """(row0, row1) basis pairs an MCU/U1 gate acts on, as index arrays."""
    if gate.kind == "MCU":
        controls = gate.qubits[:-1]
        target = gate.qubits[-1]
        pol = gate.polarities
    else:  # plain single-qubit gate
        controls = ()
        target = gate.qubits[0]
        pol = ()
    free = [q for q in range(n_qubits) if q != target and q not in controls]
    tbit = 1 << (n_qubits - 1 - target)
    base = 0
    for q, p in zip(controls, pol):
        base |= p << (n_qubits - 1 - q)
    r0 = np.full(2 ** len(free), base, dtype=int)
    for pos, q in enumerate(free):
        stride = 1 << (n_qubits - 1 - q)
        r0 += stride * ((np.arange(2 ** len(free)) >> pos) & 1)
    return r0, r0 | tbit


def eliminate_controls(op, cleared_mask, matrix, n_qubits, tol=DEFAULT_TOL):
    """Drop controls from an MCU while provably preserving cleared entries.

    Controls are dropped greedily, most significant first; each candidate is
    verified semantically: the reduced gate, applied to the current matrix,
    must keep every coordinate flagged in ``cleared_mask`` at zero.  The
    reduced gate always retains the original 2x2 action on the active pair.
    Worst case the original gate is returned unchanged.
    """
    if op.kind != "MCU":
        return op
    block = np.asarray(op.matrix)
    threshold = tol.tol_zero * max(matrix.shape[0], 4)
    target = op.qubits[-1]
    controls = list(op.qubits[:-1])
    pol = list(op.polarities)
    for q in sorted(op.qubits[:-1]):
        if q not in controls:
            continue
        idx = controls.index(q)
        cand = cir.mcu(
            tuple(controls[:idx] + controls[idx + 1 :]),
            target,
            block,
            tuple(pol[:idx] + pol[idx + 1 :]),
        )
        r0, r1 = _gate_row_pairs(cand, n_qubits)
        a = matrix[r0, :]
        b = matrix[r1, :]
        new0 = block[0, 0] * a + block[0, 1] * b
        new1 = block[1, 0] * a + block[1, 1] * b
        bad = 0.0
        if cleared_mask[r0].any():
            bad = max(bad, np.max(np.abs(new0[cleared_mask[r0]])))
        if cleared_mask[r1].any():
            bad = max(bad, np.max(np.abs(new1[cleared_mask[r1]])))
        if bad > threshold:
            continue
        controls.pop(idx)
        pol.pop(idx)
        op = cand
        if op.kind != "MCU":
            break
    return op


def _apply_gate_rows(m, gate, n_qubits):
    r0, r1 = _gate_row_pairs(gate, n_qubits)
    _mix_rows(m, r0, r1, np.asarray(gate.matrix))


def qrd_compile(u, *, tol=DEFAULT_TOL, lower=True, drop_controls=True, max_qubits=MAX_QUBITS):
    """Compile a unitary via Givens elimination in Gray order.

    Emits the residual diagonal as DIAG_PHASE gates followed by the daggered
    elimination gates in reverse order; with ``lower`` the multi-controlled
    gates are expanded through the Barenco constructions, and with
    ``drop_controls`` each elimination gate loses the controls that
    ``eliminate_controls`` proves redundant.
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u, tol.tol_unitary)
    dim = u.shape[0]
    n = _qubit_count(dim)
    if n > max_qubits:
        raise SizeTooLarge(f"{n} qubits exceeds limit {max_qubits}")

    m = u.copy()
    emitted = []
    cleared = np.zeros((dim, dim), dtype=bool)
    for c in range(dim - 1):
        col = gcb_code(c)
        for s in range(dim - 1, c, -1):
            a, b = gcb_code(s - 1), gcb_code(s)
            block = _givens_block(complex(m[a, col]), complex(m[b, col]), tol)
            if block is not None:
                gate = _op_to_mcu(a, b, block, n)
                if drop_controls and gate.kind == "MCU":
                    gate = eliminate_controls(gate, cleared, m, n, tol)
                _apply_gate_rows(m, gate, n)
                emitted.append(gate)
            cleared[b, col] = True
        # Column done: its off-diagonal row entries vanish too (unitarity).
        cleared[:, col] = True
        cleared[col, :] = True
        cleared[col, col] = False

    gates = []
    for i in range(dim):
        basis = gcb_code(i)
        gamma = wrap_angle(float(np.angle(m[basis, basis])))
        if abs(gamma) > tol.tol_zero * dim:
            pattern = tuple((basis >> (n - 1 - q)) & 1 for q in range(n))
            gates.append(cir.diag_phase(tuple(range(n)), pattern, gamma))
    # Time order: diagonal first, then the daggered eliminations in reverse.
    for gate in reversed(emitted):
        gates.append(gate.dagger())
    circuit = cir.Circuit(n, tuple(gates))
    if lower:
        circuit = lower_circuit(circuit)
    return circuit
