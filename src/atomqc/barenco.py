"""Exact lowerings of controlled and multi-controlled gates.

Provides the single-qubit lowering through ZY angles, the ABC construction
for controlled-U, the recursive lowering of multi-controlled gates via
unitary square roots, and the Toffoli ladder for multi-controlled NOT with
borrowed qubits.  Each construction appends its gates to the caller's list
and returns their global phase; ``lower_circuit`` builds the one ``Circuit``.
"""

import numpy as np
import scipy.linalg

from . import circuit as cir
from .linalg import TOL_ZERO, check_unitary
from .quaternion import zy_decompose


def _rot_gates(gates, q, *axis_angle_pairs):
    """Append rotation gates in time order; return the phase that keeps them exact.

    Canonicalizing a rotation angle into [0, 2pi) flips the matrix sign once
    per 2pi wrap; the accumulated correction is the returned phase.
    """
    phase = 0.0
    for axis, angle in axis_angle_pairs:
        if abs(angle) <= TOL_ZERO:
            continue
        gate = (cir.ry if axis == "Y" else cir.rz)(angle, q)
        phase += np.pi * round((angle - gate.params[0]) / (2 * np.pi))
        gates.append(gate)
    return phase


def _unitary_sqrt(u):
    """Principal square root of a 2x2 unitary (eigenphases halved into (-pi/2, pi/2])."""
    t, z = scipy.linalg.schur(u, output="complex")
    roots = np.exp(1j * np.angle(np.diagonal(t)) / 2.0)
    return (z * roots) @ z.conj().T


def lower_1q(gates, q, u):
    """Append a single-qubit unitary as RZ/RY rotations; return its global phase."""
    zy = zy_decompose(u)
    return zy.alpha + _rot_gates(gates, q, ("Z", zy.delta), ("Y", zy.gamma), ("Z", zy.beta))


def _lower_cu(gates, control, target, u):
    """Controlled-U over {rotations, CNOT} via the ABC construction."""
    if np.max(np.abs(u - np.eye(2))) < TOL_ZERO:
        return 0.0
    zy = zy_decompose(u)
    # Sign flips on the target half-rotations hit both control branches
    # pairwise, but tracking them keeps the gates exact regardless.
    phase = _rot_gates(gates, target, ("Z", (zy.delta - zy.beta) / 2))
    gates.append(cir.cnot(control, target))
    phase += _rot_gates(gates, target, ("Z", -(zy.delta + zy.beta) / 2), ("Y", -zy.gamma / 2))
    gates.append(cir.cnot(control, target))
    phase += _rot_gates(gates, target, ("Y", zy.gamma / 2), ("Z", zy.beta))
    if abs(zy.alpha) > TOL_ZERO:
        # diag(1, e^{i alpha}) on the control = e^{i alpha/2} RZ(alpha).
        phase += _rot_gates(gates, control, ("Z", zy.alpha))
        phase += zy.alpha / 2
    return phase


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


def _mcu_recursive(gates, controls, target, u, n_qubits):
    """Append C^m U over {rotations, CNOT, Toffoli}, every control on |1>; return its phase.

    A block exactly equal to X takes the cheapest C^m X: a CNOT or a
    Toffoli, else the ladder when m - 2 qubits are idle, else the
    square-root recursion like any other block.
    """
    m = len(controls)
    if m == 0:
        return lower_1q(gates, target, u)
    if np.array_equal(u, cir.PAULI_X):
        if m == 1:
            gates.append(cir.cnot(controls[0], target))
            return 0.0
        if m == 2:
            gates.append(cir.toffoli(controls[0], controls[1], target))
            return 0.0
        idle = [q for q in range(n_qubits) if q != target and q not in controls]
        if len(idle) >= m - 2:
            _mcx_ladder(gates, controls, target, idle)
            return 0.0
    if m == 1:
        return _lower_cu(gates, controls[0], target, u)
    v = _unitary_sqrt(u)
    last = controls[-1]
    rest = controls[:-1]
    # The C^(m-1) X onto ``last`` appears twice; lower it once.
    mcx = []
    mcx_phase = _mcu_recursive(mcx, rest, last, cir.PAULI_X, n_qubits)
    phase = _lower_cu(gates, last, target, v)
    gates.extend(mcx)
    phase += mcx_phase
    phase += _lower_cu(gates, last, target, v.conj().T)
    gates.extend(mcx)
    phase += mcx_phase
    phase += _mcu_recursive(gates, rest, target, v, n_qubits)
    return phase


def lower_circuit(c):
    """Lower MCU/MCX/DIAG_PHASE so only retarget-ready kinds remain.

    Each is checked once for unitarity and goes through the Barenco
    recursion as its ``controlled_block``, |0> controls conjugated with X,
    so the output holds single-qubit gates, CNOT, CZ, CCZ and Toffolis
    (``Gate.is_toffoli``); a one-qubit DIAG_PHASE becomes one PHASE.
    """
    gates = []
    phase = c.global_phase
    for g in c.gates:
        if g.kind == "DIAG_PHASE" and g.is_single_qubit:
            # diag(e^{i gamma}, 1) = e^{i gamma} * diag(1, e^{-i gamma})
            gamma, on_one = g.params[0], g.polarities[0]
            gates.append(cir.phase(gamma if on_one else -gamma, g.qubits[0]))
            phase += 0.0 if on_one else gamma
        elif g.kind in ("MCU", "MCX", "DIAG_PHASE"):
            controls, polarities, target, u = cir.controlled_block(g)
            u = np.asarray(u, dtype=complex)
            check_unitary(u, what="multi-controlled 2x2 block")
            flips = [cir.x(q) for q, p in zip(controls, polarities) if p == 0]
            gates.extend(flips)
            phase += _mcu_recursive(gates, controls, target, u, c.n_qubits)
            gates.extend(flips)
        else:
            gates.append(g)
    return cir.Circuit(c.n_qubits, tuple(gates), phase)
