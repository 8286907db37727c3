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


_CZ, _CCZ, _CNOT, _MCX = (cir.KIND_CODES[k] for k in ("CZ", "CCZ", "CNOT", "MCX"))
_C = cir.KIND_CODES["C"]


def _entangling_rewrite(c):
    """The native kind of each row of circuit ``c`` and the qubit its H-conjugation acts on, or -1.

    CNOT -> H CZ H and Toffoli -> H CCZ H on the target; CZ, CCZ and
    single-qubit rows pass through.
    """
    kinds = c.kinds.copy()
    target = c.qubits[np.arange(len(c)), c.widths - 1]
    cnot = kinds == _CNOT
    toffoli = (kinds == _MCX) & (c.widths == 3) & np.all(c.polarities[:, :2] == 1, axis=1)
    kinds[cnot], kinds[toffoli] = _CZ, _CCZ
    on = np.where(cnot | toffoli, target, -1)
    bad = np.flatnonzero((c.widths > 1) & (kinds != _CZ) & (kinds != _CCZ))
    if bad.size:
        raise UnsupportedGate(f"cannot retarget {cir.KINDS[kinds[bad[0]]]} gate; lower it first")
    return kinds, on


def retarget_circuit(c, tol=TOL_RECON):
    """Rewrite a lowered circuit over the native set {C, CZ, CCZ}.

    ``cir.collect_runs`` walks the circuit once with the H-conjugation
    rewrite, collecting each qubit's single-qubit run until an entangling
    gate touches that qubit (or the circuit ends) and keeping the run's slot
    where it began, so the gate order holds; one ``synthesize_runs`` call
    then turns every run into pulses, whose angles are canonicalized as
    arrays, and each slot's rows are written at its offset in the output
    columns.  A failing run raises ``NotUnitary``
    or ``SynthesisFailure`` naming its qubit and first input gate.
    Raises ``UnsupportedGate`` for any gate outside
    {single-qubit, CNOT, Toffoli, CZ, CCZ}; multi-controlled and matrix
    gates must be lowered first.
    """
    kinds, on = _entangling_rewrite(c)
    slots, runs, us = cir.collect_runs(c, on)
    try:
        counts, tp = synthesize_runs(us, tol)
    except (NotUnitary, SynthesisFailure) as exc:
        q, start = runs[exc.row].tolist()
        raise type(exc)(f"run on qubit {q} from input gate {start}: {exc}") from exc
    pulses = cir.canonical_angles(np.stack([tp.theta1, tp.phi1, tp.theta2, tp.phi2]))[0]
    # A run's slot takes its pulses, a multi-qubit row's slot the native row.
    is_run = slots >= 0
    is_row = ~is_run
    run, rows = slots[is_run], ~slots[is_row]
    size = np.ones(len(slots), dtype=np.intp)
    size[is_run] = counts[run]
    at = size.cumsum() - size
    out_kinds = np.full(size.sum(), _C, dtype=np.int8)
    qubits = np.full((len(out_kinds), c.qubits.shape[1]), -1, dtype=c.qubits.dtype)
    params = np.zeros((len(out_kinds), 2))
    out_kinds[at[is_row]] = kinds[rows]
    qubits[at[is_row]] = c.qubits[rows]
    for k in (1, 2):
        fired = counts[run] >= k
        pulse_rows = at[is_run][fired] + (k - 1)
        qubits[pulse_rows, 0] = runs[run[fired], 0]
        params[pulse_rows] = pulses[2 * k - 2: 2 * k, run[fired]].T
    return cir.Circuit.from_columns(c.n_qubits, out_kinds, qubits, params,
                                    global_phase=wrap_angle(c.global_phase + math.fsum(tp.gamma)))
