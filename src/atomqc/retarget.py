"""Rewrite {single-qubit, CNOT, Toffoli, CZ, CCZ} circuits for neutral atoms.

CNOT and Toffoli become their controlled-Z counterparts conjugated by
Hadamards on the target; every maximal single-qubit run is then fused into
one 2x2 unitary and replayed as at most two C(theta, phi) pulses.  The
output contains only {C, CZ, CCZ} and is phase-equivalent to the input.
"""

import math

import numpy as np

from . import circuit as cir
from .exceptions import NotUnitary, SynthesisFailure, UnsupportedGate
from .linalg import wrap_angle
from .quaternion import TOL_RECON, synthesize_runs

__all__ = ["retarget_circuit"]


def _entangling_rewrite(g):
    """Native gate for ``g`` and the qubit its H-conjugation acts on, or None.

    CNOT -> H CZ H and Toffoli -> H CCZ H on the target; CZ and CCZ pass
    through.
    """
    if g.kind == "CNOT":
        return cir.cz(*g.qubits), g.qubits[1]
    if g.is_toffoli:
        return cir.ccz(*g.qubits), g.qubits[2]
    if g.kind in ("CZ", "CCZ"):
        return g, None
    raise UnsupportedGate(f"cannot retarget {g.kind} gate; lower it first")


def retarget_circuit(c, tol=TOL_RECON):
    """Rewrite a lowered circuit over the native set {C, CZ, CCZ}.

    ``cir.collect_runs`` walks the circuit once with the H-conjugation
    rewrite, collecting each qubit's single-qubit run until an entangling
    gate touches that qubit (or the circuit ends) and keeping the run's slot
    where it began, so the gate order holds; one ``synthesize_runs`` call
    then turns every run into pulses, whose angles are canonicalized as
    arrays; CNOTs (Toffolis) on the same qubits share one CZ (CCZ) gate.
    A failing run raises ``NotUnitary``
    or ``SynthesisFailure`` naming its qubit and first input gate.
    Raises ``UnsupportedGate`` for any gate outside
    {single-qubit, CNOT, Toffoli, CZ, CCZ}; multi-controlled and matrix
    gates must be lowered first.
    """
    slots, runs, us = cir.collect_runs(c.gates, _entangling_rewrite)
    phase = c.global_phase
    gates = []
    if runs:
        try:
            counts, tp = synthesize_runs(us, tol)
        except (NotUnitary, SynthesisFailure) as exc:
            q, start = runs[exc.row]
            raise type(exc)(f"run on qubit {q} from input gate {start}: {exc}") from exc
        counts = counts.tolist()
        angles = np.stack([tp.theta1, tp.phi1, tp.theta2, tp.phi2])
        theta1, phi1, theta2, phi2 = cir.canonical_angles(angles)[0].tolist()
        phase += math.fsum(tp.gamma)
    for s in slots:
        if not isinstance(s, int):
            gates.append(s)
            continue
        on = (runs[s][0],)
        if counts[s]:
            gates.append(cir.Gate("C", on, (theta1[s], phi1[s])))
        if counts[s] == 2:
            gates.append(cir.Gate("C", on, (theta2[s], phi2[s])))
    return cir.Circuit(c.n_qubits, tuple(gates), wrap_angle(phase))
