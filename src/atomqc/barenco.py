"""Exact lowerings of controlled and multi-controlled gates (Barenco et al., quant-ph/9503016).

ZY rotations for a single-qubit gate, the ABC construction for controlled-U,
the recursion through unitary square roots for multi-controlled gates, and
the Toffoli ladder for multi-controlled NOT with borrowed qubits.  Each
construction appends gates, or slots ``(control or None, target, u)`` for a
2x2 ``u``, to one item list; ``fill_rotations`` fills every slot from one
``zy_angles`` pass and sums the global phase once.
"""

import math

import numpy as np
import scipy.linalg

from . import circuit as cir
from .linalg import TOL_ZERO, check_unitary
from .quaternion import zy_angles


def _rot_gates(gates, phases, q, *axis_angle_pairs):
    """Append rotation gates in time order, and to ``phases`` the phase that keeps them exact.

    Canonicalizing an angle into [0, 2pi) flips the matrix sign once per 2pi wrap.
    """
    for axis, angle in axis_angle_pairs:
        if abs(angle) <= TOL_ZERO:
            continue
        gate = (cir.ry if axis == "Y" else cir.rz)(angle, q)
        phases.append(np.pi * round((angle - gate.params[0]) / (2 * np.pi)))
        gates.append(gate)


def _unitary_sqrt(u):
    """Principal square root of a 2x2 unitary (eigenphases halved into (-pi/2, pi/2])."""
    t, z = scipy.linalg.schur(u, output="complex")
    roots = np.exp(1j * np.angle(np.diagonal(t)) / 2.0)
    return (z * roots) @ z.conj().T


def fill_rotations(items):
    """The gates of ``items`` with each slot filled in place, and their global phase.

    A slot ``(None, q, u)`` becomes RZ(delta) RY(gamma) RZ(beta) on ``q``;
    ``(control, target, u)`` becomes controlled-U by the ABC construction,
    or nothing when ``u`` is the identity to ``TOL_ZERO``.
    """
    us = np.reshape([item[2] for item in items if isinstance(item, tuple)], (-1, 2, 2))
    skips = np.max(np.abs(us - np.eye(2)), axis=(1, 2)) < TOL_ZERO
    rows = zip(skips.tolist(), *(a.tolist() for a in zy_angles(us)))
    gates, phases = [], []
    for item in items:
        if not isinstance(item, tuple):
            gates.append(item)
            continue
        control, target, _ = item
        skip, alpha, beta, gamma, delta = next(rows)
        if control is None:
            phases.append(alpha)
            _rot_gates(gates, phases, target, ("Z", delta), ("Y", gamma), ("Z", beta))
        elif not skip:
            # Sign flips on the target half-rotations hit both control
            # branches pairwise, but tracking them keeps the gates exact.
            _rot_gates(gates, phases, target, ("Z", (delta - beta) / 2))
            gates.append(cir.cnot(control, target))
            _rot_gates(gates, phases, target, ("Z", -(delta + beta) / 2), ("Y", -gamma / 2))
            gates.append(cir.cnot(control, target))
            _rot_gates(gates, phases, target, ("Y", gamma / 2), ("Z", beta))
            # diag(1, e^{i alpha}) on the control = e^{i alpha/2} RZ(alpha).
            _rot_gates(gates, phases, control, ("Z", alpha))
            phases.append(alpha / 2)
    return tuple(gates), math.fsum(phases)


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

    A block exactly equal to X takes the cheapest C^m X: a CNOT or a
    Toffoli, else the ladder when m - 2 qubits are idle, else the
    square-root recursion like any other block.
    """
    m = len(controls)
    if m and np.array_equal(u, cir.PAULI_X):
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


def lower_circuit(c):
    """Lower MCU/MCX/DIAG_PHASE so only retarget-ready kinds remain.

    Each is checked once for unitarity and goes through the Barenco
    recursion as its ``controlled_block``, |0> controls conjugated with X,
    so the output holds single-qubit gates, CNOT, CZ, CCZ and Toffolis
    (``Gate.is_toffoli``); a one-qubit DIAG_PHASE becomes one PHASE.
    """
    items = []
    phase = c.global_phase
    for g in c.gates:
        if g.kind == "DIAG_PHASE" and g.is_single_qubit:
            # diag(e^{i gamma}, 1) = e^{i gamma} * diag(1, e^{-i gamma})
            gamma, on_one = g.params[0], g.polarities[0]
            items.append(cir.phase(gamma if on_one else -gamma, g.qubits[0]))
            phase += 0.0 if on_one else gamma
        elif g.kind in ("MCU", "MCX", "DIAG_PHASE"):
            controls, polarities, target, u = cir.controlled_block(g)
            check_unitary(u, what="multi-controlled 2x2 block")
            flips = [cir.x(q) for q, p in zip(controls, polarities) if p == 0]
            items.extend(flips)
            _mcu_recursive(items, controls, target, u, c.n_qubits)
            items.extend(flips)
        else:
            items.append(g)
    gates, slot_phase = fill_rotations(items)
    return cir.Circuit(c.n_qubits, gates, phase + slot_phase)
