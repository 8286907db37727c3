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
from .linalg import MAX_QUBITS, TOL_ZERO, check_unitary, qubit_count, wrap_angle

__all__ = ["gcb_code", "eliminate_controls", "qrd_compile"]


def gcb_code(i):
    """Gray code of ``i``: adjacent codes differ in exactly one bit."""
    if i < 0:
        raise ValueError("index must be non-negative")
    return i ^ (i >> 1)


def _givens_block(u_a, u_b):
    """2x2 rotation sending (u_a, u_b)^T to (r, 0)^T with r real non-negative.

    ``None`` means there is nothing to eliminate: ``u_b`` is already zero
    to ``TOL_ZERO`` (which covers the degenerate case where both
    entries are), and the rows stay as they are.
    """
    if abs(u_b) <= TOL_ZERO:
        return None
    r = np.hypot(abs(u_a), abs(u_b))
    return np.array(
        [[u_a.conjugate() / r, u_b.conjugate() / r], [-u_b / r, u_a / r]]
    )


def _op_to_mcu(a, b, block, n_qubits):
    """Express the rotation ``block`` between Gray-adjacent basis states as an MCU.

    ``block`` is 2x2 with rows/columns ordered (a, b), where ``a`` is the
    pivot (the Gray predecessor of ``b``).  Returns the MCU's
    ``(controls, polarities, target, block)``; every other qubit is a control.
    """
    diff = a ^ b
    bit = diff.bit_length() - 1  # bit position counted from the LSB
    target = n_qubits - 1 - bit
    controls = tuple(q for q in range(n_qubits) if q != target)
    pol = tuple((a >> (n_qubits - 1 - q)) & 1 for q in controls)
    if (a >> bit) & 1 == 1:
        block = block[::-1, ::-1]
    return controls, pol, target, block


def eliminate_controls(
    controls, polarities, target, block, cleared_mask, matrix, n_qubits
):
    """Drop controls from an MCU while provably preserving cleared entries.

    Controls are dropped greedily, most significant first; each candidate is
    verified semantically: the reduced gate, applied to the current matrix,
    must keep every coordinate flagged in ``cleared_mask`` at zero.  The
    reduced gate always retains the original 2x2 action on the active pair.
    ``controls`` and ``polarities`` are tuples; returns the kept ones, worst
    case all of them.

    ``block`` is applied once to every row pair ``target`` couples; a
    candidate then reads the largest cleared-entry magnitude over the
    patterns of the other qubits its controls select.
    """
    threshold = TOL_ZERO * max(matrix.shape[0], 4)
    rows = cir.mix(block, *cir.pair_views(matrix, (), (), target))
    masks = cir.pair_views(cleared_mask, (), (), target)
    # worst[pattern] over the other qubits, one axis each in qubit order.
    worst = np.maximum(*(
        np.where(mask, np.abs(r), 0.0).reshape((2,) * (n_qubits - 1) + (-1,)).max(axis=-1)
        for r, mask in zip(rows, masks)
    ))
    for q in sorted(controls):
        idx = controls.index(q)
        kept = (controls[:idx] + controls[idx + 1 :], polarities[:idx] + polarities[idx + 1 :])
        select = [slice(None)] * (n_qubits - 1)
        for p, bit in zip(*kept):
            select[p - (p > target)] = bit
        if worst[tuple(select)].max() <= threshold:
            controls, polarities = kept
    return controls, polarities


def qrd_compile(u, *, lower=True, drop_controls=True, max_qubits=MAX_QUBITS):
    """Compile a unitary via Givens elimination in Gray order.

    Emits the residual diagonal as DIAG_PHASE gates followed by the daggered
    elimination gates in reverse order; with ``lower`` the multi-controlled
    gates are expanded through the Barenco constructions, and with
    ``drop_controls`` each elimination gate loses the controls that
    ``eliminate_controls`` proves redundant.
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u)
    dim = u.shape[0]
    n = qubit_count(dim, max_qubits)

    m = u.copy()
    emitted = []  # each elimination's dagger
    cleared = np.zeros((dim, dim), dtype=bool)
    for c in range(dim - 1):
        col = gcb_code(c)
        for s in range(dim - 1, c, -1):
            a, b = gcb_code(s - 1), gcb_code(s)
            block = _givens_block(complex(m[a, col]), complex(m[b, col]))
            if block is not None:
                controls, pol, target, block = _op_to_mcu(a, b, block, n)
                if drop_controls:
                    controls, pol = eliminate_controls(
                        controls, pol, target, block, cleared, m, n
                    )
                rows_a, rows_b = cir.pair_views(m, controls, pol, target)
                rows_a[...], rows_b[...] = cir.mix(block, rows_a, rows_b)
                # Unitary by construction, so no ``cir.mcu`` check; a U1 if no control is left.
                emitted.append(cir.Gate("MCU" if controls else "U1", controls + (target,),
                                        matrix=block.conj().T, polarities=pol or None))
            cleared[b, col] = True
        # Column done: its off-diagonal row entries vanish too (unitarity).
        cleared[:, col] = True
        cleared[col, :] = True
        cleared[col, col] = False

    gates = []
    for i in range(dim):
        basis = gcb_code(i)
        gamma = wrap_angle(float(np.angle(m[basis, basis])))
        if abs(gamma) > TOL_ZERO * dim:
            pattern = tuple((basis >> (n - 1 - q)) & 1 for q in range(n))
            gates.append(cir.diag_phase(tuple(range(n)), pattern, gamma))
    # Time order: diagonal first, then the daggered eliminations in reverse.
    gates.extend(reversed(emitted))
    circuit = cir.Circuit(n, tuple(gates))
    if lower:
        circuit = lower_circuit(circuit)
    return circuit
