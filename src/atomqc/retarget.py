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

_H = cir.gate_local_matrix(cir.h(0))


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


def _fold(mats, run_of, n_runs):
    """Product of each run's matrices, later ones on the left.

    ``mats[j]`` belongs to run ``run_of[j]``, in gate order within each
    run; one batched matmul per position in a run.
    """
    lengths = np.bincount(run_of, minlength=n_runs)
    # Position of each matrix in its run: its place in run order less the
    # place where its run starts.
    depth = np.empty_like(run_of)
    depth[np.argsort(run_of, kind="stable")] = np.arange(len(run_of)) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    us = np.broadcast_to(np.eye(2, dtype=complex), (n_runs, 2, 2)).copy()
    by_depth = np.argsort(depth, kind="stable")
    for idx in np.split(by_depth, np.cumsum(np.bincount(depth))[:-1]):
        r = run_of[idx]
        us[r] = mats[idx] @ us[r]
    return us


def _collect_runs(c):
    """One pass over ``c``: output slots, runs and each run's fused 2x2.

    Every run and entangling gate gets a slot in input order; a run's slot
    is reserved where it began and left empty here.  A run is
    ``(qubit, index of the input gate where it began, slot)``.  The
    per-gate matrices are freed on return, before any output gate is built.
    """
    slots = []  # one tuple of output gates per run or entangling gate
    mats = []  # 2x2 matrix of every single-qubit gate, rewrite Hadamards included
    run_of = []  # index into runs of each entry of mats
    runs = []
    open_runs = {}  # qubit -> index into runs of its open run

    def join(q, m, i):
        r = open_runs.get(q)
        if r is None:
            r = open_runs[q] = len(runs)
            runs.append((q, i, len(slots)))
            slots.append(())
        mats.append(m)
        run_of.append(r)

    for i, g in enumerate(c.gates):
        if g.is_single_qubit:
            join(g.qubits[0], cir.controlled_block(g)[3], i)
            continue
        native, target = _entangling_rewrite(g)
        if target is not None:
            join(target, _H, i)
        for q in native.qubits:
            open_runs.pop(q, None)
        slots.append((native,))
        if target is not None:
            join(target, _H, i)
    us = _fold(np.array(mats), np.array(run_of), len(runs)) if runs else None
    return slots, runs, us


def retarget_circuit(c, tol=TOL_RECON):
    """Rewrite a lowered circuit over the native set {C, CZ, CCZ}.

    One pass collects each qubit's single-qubit run until an entangling
    gate touches that qubit (or the circuit ends) and reserves a slot where
    the run began, so the gate order holds; one ``synthesize_runs`` call
    then turns every run into pulses.  A failing run raises ``NotUnitary``
    or ``SynthesisFailure`` naming its qubit and first input gate.
    Raises ``UnsupportedGate`` for any gate outside
    {single-qubit, CNOT, Toffoli, CZ, CCZ}; multi-controlled and matrix
    gates must be lowered first.
    """
    slots, runs, us = _collect_runs(c)
    phase = c.global_phase
    if runs:
        try:
            counts, tp = synthesize_runs(us, tol)
        except (NotUnitary, SynthesisFailure) as exc:
            q, start, _ = runs[exc.row]
            raise type(exc)(f"run on qubit {q} from input gate {start}: {exc}") from exc
        pulses = zip(runs, counts, tp.theta1, tp.phi1, tp.theta2, tp.phi2)
        for (q, _, slot), n, theta1, phi1, theta2, phi2 in pulses:
            pair = ((theta1, phi1), (theta2, phi2))[:n]
            slots[slot] = tuple(cir.c_gate(theta, phi, q) for theta, phi in pair)
        phase += math.fsum(tp.gamma)
    gates = tuple(g for slot in slots for g in slot)
    return cir.Circuit(c.n_qubits, gates, wrap_angle(phase))
