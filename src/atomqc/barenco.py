"""Exact lowerings of controlled and multi-controlled gates (Barenco et al., quant-ph/9503016).

ZY rotations for a single-qubit gate, the ABC construction for controlled-U,
the recursion through unitary square roots for multi-controlled gates, and
the Toffoli ladder for multi-controlled NOT with borrowed qubits.  Each
construction appends gates, or slots ``(control or None, target, u)`` for a
2x2 ``u``, to one item list; ``fill_rotations`` fills every slot from one
``zy_angles`` pass and sums the global phase once.
"""

import functools
import math

import numpy as np
from scipy.linalg.lapack import zgees

from . import circuit as cir
from .linalg import TOL_ZERO, check_unitary
from .quaternion import zy_angles


@functools.lru_cache(maxsize=None)
def _schur_lwork(n):
    """``zgees``' lwork for n x n, asked once: the query reads only n, so it is scipy's."""
    return int(zgees(lambda x: None, np.eye(n), lwork=-1)[-2][0].real)


def complex_schur(a):
    """``scipy.linalg.schur(a, output="complex")`` bit for bit, on a copy and without NaN checks."""
    t, _, _, z, _, info = zgees(lambda x: None, a, lwork=_schur_lwork(len(a)))
    if info:
        raise np.linalg.LinAlgError(f"zgees failed with info {info}")
    return t, z


def _unitary_sqrt(u):
    """Principal square root of a 2x2 unitary (eigenphases halved into (-pi/2, pi/2])."""
    t, z = complex_schur(u)
    roots = np.exp(1j * np.angle(np.diagonal(t)) / 2.0)
    return (z * roots) @ z.conj().T


# Each slot's candidate rows in time order, padded to eight: the kind, the
# row of ``fill_rotations``' keep and angle arrays it reads (6: a CNOT, 7:
# padding), and its first and second qubit as 0 the target, 1 the control
# or 2 none.
_RZ, _RY, _CNOT = (cir.KIND_CODES[k] for k in ("RZ", "RY", "CNOT"))
_ZYZ = ((_RZ, 0, 0, 2), (_RY, 1, 0, 2), (_RZ, 2, 0, 2)) + ((_RZ, 7, 2, 2),) * 5
_ABC = ((_RZ, 0, 0, 2), (_CNOT, 6, 1, 0), (_RZ, 1, 0, 2), (_RY, 2, 0, 2), (_CNOT, 6, 1, 0),
        (_RY, 3, 0, 2), (_RZ, 4, 0, 2), (_RZ, 5, 1, 2))
_KIND, _ROW, _FIRST, _SECOND = (np.array([[c[i] for c in t] for t in (_ZYZ, _ABC)])
                                for i in range(4))


def fill_rotations(items):
    """The columns of ``items`` with each slot filled in place, and their global phase.

    A slot ``(None, q, u)`` becomes RZ(delta) RY(gamma) RZ(beta) on ``q``;
    ``(control, target, u)`` becomes controlled-U by the ABC construction,
    or nothing when ``u`` is the identity to ``TOL_ZERO``.  The angles of
    every slot, their ``TOL_ZERO`` skips, canonical values and wrap phases
    are arrays with one column per rotation; a rotation whose angle is zero
    to ``TOL_ZERO`` is left out.  Each item has eight candidate rows, a gate
    its own first and a slot its template's; the kept ones are the rows.
    """
    is_slot = np.array([isinstance(item, tuple) for item in items], dtype=bool)
    slots = [item for item in items if isinstance(item, tuple)]
    fixed_kinds, fixed_qubits, fixed_params, fixed_polarities, matrices = cir.gate_columns(
        [item for item in items if not isinstance(item, tuple)])
    us = np.reshape([slot[2] for slot in slots], (-1, 2, 2))
    single = np.array([slot[0] is None for slot in slots], dtype=bool)
    alpha, beta, gamma, delta = zy_angles(us)
    skip = ~single & (np.max(np.abs(us - np.eye(2)), axis=(1, 2)) < TOL_ZERO)
    zero = np.zeros_like(alpha)
    angles = np.where(
        single,
        [delta, gamma, beta, zero, zero, zero],
        # Sign flips on the target half-rotations hit both control branches
        # pairwise, but tracking them keeps the gates exact.  The last
        # column is diag(1, e^{i alpha}) on the control = e^{i alpha/2} RZ(alpha).
        [(delta - beta) / 2, -(delta + beta) / 2, -gamma / 2, gamma / 2, beta, alpha],
    )
    kept = (np.abs(angles) > TOL_ZERO) & ~skip
    canon, wraps = cir.canonical_angles(angles)
    phase = math.fsum([*alpha[single].tolist(), *(alpha[~single & ~skip] / 2).tolist(),
                       *wraps[kept].tolist()])
    # Each slot's template rows, (slot, 8), read from the keep and angle
    # arrays with a CNOT row and a padding row added.
    template = (~single).astype(np.intp)
    slot = np.arange(len(slots))[:, None]
    at = (slot, _ROW[template])
    keep = np.concatenate([kept, [~single & ~skip, zero.astype(bool)]]).T[at]
    angle = np.concatenate([canon, [zero, zero]]).T[at]
    ends = np.array([(t, -1 if c is None else c, -1) for c, t, _ in slots],
                    dtype=np.int32).reshape(-1, 3)
    # Candidate rows of every item, (item, 8) and (item, 8, width), kind -1
    # where not kept; the kept ones in order.
    width, fixed_width = max(fixed_qubits.shape[1], 2), fixed_qubits.shape[1]
    fixed_at, slot_at = (~is_slot).nonzero()[0], is_slot.nonzero()[0]
    kinds = np.full((len(items), 8), -1, dtype=np.int8)
    params = np.zeros((len(items), 8, 2))
    qubits = np.full((len(items), 8, width), -1, dtype=np.int32)
    polarities = np.full((len(items), 8, width), -1, dtype=np.int8)
    kinds[fixed_at, 0] = fixed_kinds
    params[fixed_at, 0] = fixed_params
    qubits[fixed_at, 0, :fixed_width] = fixed_qubits
    polarities[fixed_at, 0, :fixed_width] = fixed_polarities
    kinds[slot_at] = np.where(keep, _KIND[template], -1)
    params[slot_at, :, 0] = angle
    qubits[slot_at, :, 0] = ends[slot, _FIRST[template]]
    qubits[slot_at, :, 1] = ends[slot, _SECOND[template]]
    keep = kinds.ravel() >= 0
    return (kinds.ravel()[keep], qubits.reshape(-1, width)[keep], params.reshape(-1, 2)[keep],
            polarities.reshape(-1, width)[keep], matrices), phase


def _mcx_ladder(gates, controls, target, idle):
    """Append C^m X, m >= 3, as 4(m-2) Toffolis using m - 2 ``idle`` qubits as a borrow chain.

    The borrowed qubits may hold arbitrary states; the compute-uncompute
    symmetry restores them exactly.
    """
    m = len(controls)
    borrows = idle[: m - 2]

    # Toffoli chain from the target down to the first two controls.
    chain = [(controls[-1], borrows[-1], target)]
    for i in range(m - 3):
        chain.append((controls[m - 2 - i], borrows[m - 4 - i], borrows[m - 3 - i]))
    chain.append((controls[0], controls[1], borrows[0]))

    down = [cir.toffoli(a, b, t) for a, b, t in chain]
    up = list(reversed(down))
    # Descend, ascend (without repeating the bottom), descend again without
    # the top, ascend again: 4(m-2) Toffolis, borrows restored.
    gates.extend(down + up[1:] + down[1:] + up[1:-1])


def _mcu_recursive(items, controls, target, u, n_qubits):
    """Append C^m U over {rotations, CNOT, Toffoli}, every control on |1>, as gates and slots.

    A block that is ``cir.PAULI_X`` itself takes the cheapest C^m X: a
    CNOT or a Toffoli, else the ladder when m - 2 qubits are idle, else
    the square-root recursion like any other block.
    """
    m = len(controls)
    if m and u is cir.PAULI_X:
        if m == 1:
            items.append(cir.cnot(controls[0], target))
            return
        if m == 2:
            items.append(cir.toffoli(controls[0], controls[1], target))
            return
        idle = [q for q in range(n_qubits) if q != target and q not in controls]
        if len(idle) >= m - 2:
            _mcx_ladder(items, controls, target, idle)
            return
    if m <= 1:
        items.append((controls[0] if m else None, target, u))
        return
    v = _unitary_sqrt(u)
    last = controls[-1]
    rest = controls[:-1]
    # The C^(m-1) X onto ``last`` appears twice; lower it once.
    mcx = []
    _mcu_recursive(mcx, rest, last, cir.PAULI_X, n_qubits)
    items.append((last, target, v))
    items.extend(mcx)
    items.append((last, target, v.conj().T))
    items.extend(mcx)
    _mcu_recursive(items, rest, target, v, n_qubits)


def _through_block(g):
    """Whether ``lower_circuit`` lowers ``g`` as its ``controlled_block``.

    True for every MCU and MCX, a zero-control MCX too, and for a
    DIAG_PHASE on two or more qubits.
    """
    return g.kind in ("MCU", "MCX") or (g.kind == "DIAG_PHASE" and not g.is_single_qubit)


def lower_circuit(c):
    """Lower MCU/MCX/DIAG_PHASE so only retarget-ready kinds remain.

    Their blocks are checked for unitarity in one pass; each goes through
    the Barenco recursion as its ``controlled_block``, |0> controls
    conjugated with X, so the output holds single-qubit gates, CNOT, CZ,
    CCZ and Toffolis (``Gate.is_toffoli``); a one-qubit DIAG_PHASE becomes
    one PHASE.
    """
    blocks = [cir.controlled_block(g) for g in c.gates if _through_block(g)]
    check_unitary(np.reshape([b[3] for b in blocks], (-1, 2, 2)), what="multi-controlled 2x2 block")
    blocks = iter(blocks)
    items = []
    phase = c.global_phase
    for g in c.gates:
        if _through_block(g):
            controls, polarities, target, u = next(blocks)
            u = cir.PAULI_X if np.array_equal(u, cir.PAULI_X) else u
            flips = [cir.x(q) for q, p in zip(controls, polarities) if p == 0]
            items.extend(flips)
            _mcu_recursive(items, controls, target, u, c.n_qubits)
            items.extend(flips)
        elif g.kind == "DIAG_PHASE":
            # diag(e^{i gamma}, 1) = e^{i gamma} * diag(1, e^{-i gamma})
            gamma, on_one = g.params[0], g.polarities[0]
            items.append(cir.phase(gamma if on_one else -gamma, g.qubits[0]))
            phase += 0.0 if on_one else gamma
        else:
            items.append(g)
    columns, slot_phase = fill_rotations(items)
    return cir.Circuit.from_columns(c.n_qubits, *columns, global_phase=phase + slot_phase)
