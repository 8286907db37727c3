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
from .quaternion import quaternion_from_unitary, to_axis_angle, two_pulse_synthesis

__all__ = ["retarget_circuit", "synthesize_run"]

_EQUATOR_EPS = 1e-9


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


def synthesize_run(u, tol=DEFAULT_TOL):
    """C pulses (0, 1 or 2 of them) plus phase realizing a fused 2x2 unitary.

    Identity runs emit nothing; runs whose rotation axis already lies on the
    equator need a single pulse; everything else takes the generic two-pulse
    path.
    """
    q, phase = quaternion_from_unitary(u, tol)
    aa = to_axis_angle(q)
    if aa.alpha <= tol.tol_recon or 2 * np.pi - aa.alpha <= tol.tol_recon:
        # Identity run: only the phase survives (q ~ -1 hides a pi of it).
        if q.w < 0:
            phase += np.pi
        return (), float(wrap_angle(phase))
    if abs(np.cos(aa.beta)) < _EQUATOR_EPS:
        # Equatorial axis: one pulse of duration alpha suffices.
        pulse = cir.c_gate(aa.alpha, wrap_angle(np.pi / 2.0 - aa.phi_axis), 0)
        for g in (phase, phase + np.pi):
            if np.max(np.abs(np.exp(1j * g) * cir.gate_local_matrix(pulse) - u)) <= tol.tol_recon:
                return ((pulse.kind, pulse.params),), float(wrap_angle(g))
    tp = two_pulse_synthesis(u, tol, precomputed=(q, phase))
    pulses = []
    for theta, phi in ((tp.theta1, tp.phi1), (tp.theta2, tp.phi2)):
        if abs(theta) > tol.tol_zero:
            pulses.append(("C", (float(theta), float(phi))))
    return tuple(pulses), float(tp.gamma)


def retarget_circuit(c, tol=DEFAULT_TOL):
    """Rewrite a lowered circuit over the native set {C, CZ, CCZ}.

    Raises ``UnsupportedGate`` for any gate outside
    {single-qubit, CNOT, Toffoli, CZ, CCZ}; multi-controlled and matrix
    gates must be lowered first.
    """
    staged = []
    for g in c.gates:
        if g.is_single_qubit:
            staged.append(g)
        else:
            staged.extend(_entangling_rewrite(g))
    inter = cir.Circuit(c.n_qubits, tuple(staged), c.global_phase)

    replacement = {}
    dropped = set()
    phase = c.global_phase
    for qubit, indices in cir.collect_single_qubit_runs(inter):
        u = np.eye(2, dtype=complex)
        for i in indices:
            u = cir.gate_local_matrix(inter.gates[i]) @ u
        pulses, gamma = synthesize_run(u, tol)
        phase += gamma
        dropped.update(indices)
        replacement[indices[0]] = tuple(
            cir.c_gate(params[0], params[1], qubit) for _, params in pulses
        )

    out = []
    for i, g in enumerate(inter.gates):
        if i in replacement:
            out.extend(replacement[i])
        elif i not in dropped:
            out.append(g)
    return cir.Circuit(c.n_qubits, tuple(out), wrap_angle(phase))
