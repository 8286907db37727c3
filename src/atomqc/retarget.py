"""Rewrite {single-qubit, CNOT, Toffoli, CZ, CCZ} circuits for neutral atoms.

CNOT and Toffoli become their controlled-Z counterparts conjugated by
Hadamards on the target; every maximal single-qubit run is then fused into
one 2x2 unitary and replayed as at most two C(theta, phi) pulses.  The
output contains only {C, CZ, CCZ} and is phase-equivalent to the input.
"""

import numpy as np

from . import circuit as cir
from .exceptions import UnsupportedGate
from .linalg import DEFAULT_TOL, wrap_angle
from .quaternion import synthesize_run

__all__ = ["retarget_circuit"]


def _entangling_rewrite(g):
    """H-conjugation step: CNOT -> H CZ H, Toffoli -> H CCZ H."""
    if g.kind == "CNOT":
        t = g.qubits[1]
        return (cir.h(t), cir.cz(g.qubits[0], t), cir.h(t))
    if g.kind == "MCX" and len(g.qubits) == 3 and 0 not in g.polarities:
        t = g.qubits[2]
        return (cir.h(t), cir.ccz(g.qubits[0], g.qubits[1], t), cir.h(t))
    if g.kind in ("CZ", "CCZ"):
        return (g,)
    raise UnsupportedGate(f"cannot retarget {g.kind} gate; lower it first")


def retarget_circuit(c, tol=DEFAULT_TOL):
    """Rewrite a lowered circuit over the native set {C, CZ, CCZ}.

    One pass: each qubit's single-qubit run is folded into a 2x2 until an
    entangling gate touches that qubit (or the circuit ends), and its pulses
    fill the slot reserved where the run began, so the gate order holds.
    Raises ``UnsupportedGate`` for any gate outside
    {single-qubit, CNOT, Toffoli, CZ, CCZ}; multi-controlled and matrix
    gates must be lowered first.
    """
    slots = []  # one tuple of output gates per run or entangling gate
    runs = {}  # qubit -> [slot index, fused 2x2 of its open run]
    phase = c.global_phase

    def close(q):
        nonlocal phase
        slot, u = runs.pop(q)
        pulses, gamma = synthesize_run(u, tol)
        slots[slot] = tuple(cir.c_gate(theta, phi, q) for theta, phi in pulses)
        phase += gamma

    for g in c.gates:
        for r in (g,) if g.is_single_qubit else _entangling_rewrite(g):
            if r.is_single_qubit:
                q = r.qubits[0]
                if q not in runs:
                    runs[q] = [len(slots), np.eye(2, dtype=complex)]
                    slots.append(())
                runs[q][1] = cir.gate_local_matrix(r) @ runs[q][1]
            else:
                for q in r.qubits:
                    if q in runs:
                        close(q)
                slots.append((r,))
    for q in list(runs):
        close(q)
    gates = tuple(g for slot in slots for g in slot)
    return cir.Circuit(c.n_qubits, gates, wrap_angle(phase))
