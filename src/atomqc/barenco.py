"""Exact lowerings of controlled and multi-controlled gates.

Provides the single-qubit lowering through ZY angles, the ABC construction
for controlled-U, the recursive lowering of multi-controlled gates via
unitary square roots, and the Toffoli ladder for multi-controlled NOT with
borrowed qubits.
"""

import numpy as np

from . import circuit as cir
from .exceptions import InsufficientIdleQubits
from .linalg import TOL_ZERO, check_unitary, unitary_sqrt
from .quaternion import zy_decompose

_X = cir.gate_local_matrix(cir.x(0))


def _rot_gates(q, *axis_angle_pairs):
    """Rotation gates in time order plus the phase that keeps them exact.

    Canonicalizing a rotation angle into [0, 2pi) flips the matrix sign once
    per 2pi wrap; the accumulated correction is returned alongside the gates.
    """
    out = []
    phase = 0.0
    for axis, angle in axis_angle_pairs:
        if abs(angle) <= TOL_ZERO:
            continue
        gate = (cir.ry if axis == "Y" else cir.rz)(angle, q)
        phase += np.pi * round((angle - gate.params[0]) / (2 * np.pi))
        out.append(gate)
    return out, phase


def lower_1q(q, u, n_qubits):
    """Single-qubit unitary as RZ/RY rotations plus global phase."""
    zy = zy_decompose(u)
    gates, extra = _rot_gates(q, ("Z", zy.delta), ("Y", zy.gamma), ("Z", zy.beta))
    return cir.Circuit(n_qubits, tuple(gates), zy.alpha + extra)


def lower_cu(control, target, u, n_qubits):
    """Controlled-U over {rotations, CNOT} via the ABC construction."""
    u = np.asarray(u, dtype=complex)
    check_unitary(u, what="controlled 2x2 block")
    if np.max(np.abs(u - np.eye(2))) < TOL_ZERO:
        return cir.Circuit(n_qubits)
    zy = zy_decompose(u)
    gates = []
    phase = 0.0

    def emit(q, *pairs):
        nonlocal phase
        out, extra = _rot_gates(q, *pairs)
        gates.extend(out)
        # Sign flips on the target half-rotations hit both control branches
        # pairwise, but tracking them keeps the fragment exact regardless.
        phase += extra

    emit(target, ("Z", (zy.delta - zy.beta) / 2))
    gates.append(cir.cnot(control, target))
    emit(target, ("Z", -(zy.delta + zy.beta) / 2), ("Y", -zy.gamma / 2))
    gates.append(cir.cnot(control, target))
    emit(target, ("Y", zy.gamma / 2), ("Z", zy.beta))
    if abs(zy.alpha) > TOL_ZERO:
        # diag(1, e^{i alpha}) on the control = e^{i alpha/2} RZ(alpha).
        emit(control, ("Z", zy.alpha))
        phase += zy.alpha / 2
    return cir.Circuit(n_qubits, tuple(gates), phase)


def lower_mcx_ladder(controls, target, idle, n_qubits):
    """C^m X as 4(m-2) Toffolis using ``idle`` qubits as a borrow chain.

    The borrowed qubits may hold arbitrary states; the compute-uncompute
    symmetry restores them exactly.
    """
    controls = list(controls)
    m = len(controls)
    if m < 3:
        raise ValueError("ladder needs at least 3 controls")
    if len(idle) < m - 2:
        raise InsufficientIdleQubits(f"need {m - 2} idle qubits, have {len(idle)}")
    borrows = list(idle)[: m - 2]

    # Toffoli chain from the target down to the first two controls.
    chain = [(controls[-1], borrows[-1], target)]
    for i in range(m - 3):
        chain.append((controls[m - 2 - i], borrows[m - 4 - i], borrows[m - 3 - i]))
    chain.append((controls[0], controls[1], borrows[0]))

    down = [cir.toffoli(a, b, t) for a, b, t in chain]
    up = list(reversed(down))
    # Descend, ascend (without repeating the bottom), descend again without
    # the top, ascend again: 4(m-2) Toffolis, borrows restored.
    gates = down + up[1:] + down[1:] + up[1:-1]
    return cir.Circuit(n_qubits, tuple(gates))


def _mcx_fragment(controls, target, n_qubits):
    """C^m X over the allowed endpoint set, picking the cheapest construction."""
    m = len(controls)
    if m == 1:
        return cir.Circuit(n_qubits, (cir.cnot(controls[0], target),))
    if m == 2:
        return cir.Circuit(n_qubits, (cir.toffoli(controls[0], controls[1], target),))
    idle = [q for q in range(n_qubits) if q != target and q not in controls]
    if len(idle) >= m - 2:
        return lower_mcx_ladder(controls, target, idle, n_qubits)
    return _mcu_recursive(controls, target, _X, n_qubits)


def _mcu_recursive(controls, target, u, n_qubits):
    m = len(controls)
    if m == 0:
        return lower_1q(target, u, n_qubits)
    if m == 1:
        return lower_cu(controls[0], target, u, n_qubits)
    v = unitary_sqrt(u)
    last = controls[-1]
    rest = controls[:-1]
    gates = []
    phase = 0.0
    for piece in (
        lower_cu(last, target, v, n_qubits),
        _mcx_fragment(rest, last, n_qubits),
        lower_cu(last, target, v.conj().T, n_qubits),
        _mcx_fragment(rest, last, n_qubits),
        _mcu_recursive(rest, target, v, n_qubits),
    ):
        gates.extend(piece.gates)
        phase += piece.global_phase
    return cir.Circuit(n_qubits, tuple(gates), phase)


def lower_mcu(controls, polarities, target, u, n_qubits):
    """Multi-controlled U over {rotations, CNOT, Toffoli}.

    Negative-polarity controls are conjugated with X at the fragment
    boundaries so the recursion itself is polarity-free.
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u, what="multi-controlled 2x2 block")
    controls = tuple(controls)
    flips = [q for q, p in zip(controls, polarities) if p == 0]
    pre = tuple(cir.x(q) for q in flips)
    core = _mcu_recursive(controls, target, u, n_qubits)
    return cir.Circuit(n_qubits, pre + core.gates + pre, core.global_phase)


def _lower_diag_phase(g, n_qubits):
    gamma = g.params[0]
    qubits = g.qubits
    pattern = g.polarities
    if len(qubits) == 1:
        q = qubits[0]
        if pattern[0] == 1:
            return cir.Circuit(n_qubits, (cir.phase(gamma, q),))
        # diag(e^{i gamma}, 1) = e^{i gamma} * diag(1, e^{-i gamma})
        return cir.Circuit(n_qubits, (cir.phase(-gamma, q),), gamma)
    target = qubits[-1]
    if pattern[-1] == 1:
        block = np.diag([1.0, np.exp(1j * gamma)])
    else:
        block = np.diag([np.exp(1j * gamma), 1.0])
    return lower_mcu(qubits[:-1], pattern[:-1], target, block, n_qubits)


def lower_circuit(c):
    """Lower MCU/MCX/DIAG_PHASE so only retarget-ready kinds remain.

    The output uses single-qubit gates, CNOT, CZ, CCZ and Toffolis
    (``Gate.is_toffoli``); a one-control MCX becomes one CNOT.
    """
    gates = []
    phase = c.global_phase
    for g in c.gates:
        if g.kind == "MCU":
            frag = lower_mcu(
                g.qubits[:-1], g.polarities, g.qubits[-1], g.matrix, c.n_qubits
            )
        elif g.kind == "MCX" and len(g.qubits) == 2:
            flip = (cir.x(g.qubits[0]),) if g.polarities[0] == 0 else ()
            frag = cir.Circuit(c.n_qubits, flip + (cir.cnot(*g.qubits),) + flip)
        elif g.kind == "MCX" and not g.is_toffoli:
            frag = lower_mcu(
                g.qubits[:-1], g.polarities, g.qubits[-1], _X, c.n_qubits
            )
        elif g.kind == "DIAG_PHASE":
            frag = _lower_diag_phase(g, c.n_qubits)
        else:
            gates.append(g)
            continue
        gates.extend(frag.gates)
        phase += frag.global_phase
    return cir.Circuit(c.n_qubits, tuple(gates), phase)
