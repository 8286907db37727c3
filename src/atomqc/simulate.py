"""Dense unitary simulator and verification metrics.

Circuits are turned into full 2^n x 2^n matrices under the package's
big-endian qubit convention.  Verification is always modulo global phase.
"""

from dataclasses import dataclass

import numpy as np

from . import circuit as cir
from .exceptions import QubitOutOfRange, SizeTooLarge
from .linalg import MAX_QUBITS, phase_distance


def apply_gate(u, g, n_qubits):
    """Left-multiply ``u`` (shape ``(2^n, m)``) by the full embedding of ``g``."""
    for q in g.qubits:
        if not 0 <= q < n_qubits:
            raise QubitOutOfRange(f"qubit {q} outside width {n_qubits}")
    local = cir.gate_local_matrix(g)
    k = len(g.qubits)
    cols = u.shape[1]
    t = u.reshape([2] * n_qubits + [cols])
    t = np.moveaxis(t, g.qubits, range(k))
    rest = t.shape[k:]
    t = (local @ t.reshape(2**k, -1)).reshape([2] * k + list(rest))
    t = np.moveaxis(t, range(k), g.qubits)
    return t.reshape(2**n_qubits, cols)


def gate_matrix(g, n_qubits):
    """Full 2^n x 2^n embedding of a single gate."""
    return apply_gate(np.eye(2**n_qubits, dtype=complex), g, n_qubits)


def circuit_unitary(c):
    """Product of gate matrices in time order, times ``e^{i global_phase}``."""
    if c.n_qubits > MAX_QUBITS:
        raise SizeTooLarge(f"simulation capped at {MAX_QUBITS} qubits")
    u = np.eye(2**c.n_qubits, dtype=complex)
    for g in c.gates:
        u = apply_gate(u, g, c.n_qubits)
    return u * np.exp(1j * c.global_phase)


def cnot_lower_bound(n):
    """Theoretical minimum CNOT count for exact n-qubit synthesis."""
    return -(-(4**n - 3 * n - 1) // 4)


@dataclass(frozen=True)
class CompileReport:
    n_qubits: int
    counts: cir.GateCounts
    distance: float
    lower_bound: int
    tolerance: float
    passed: bool


def verify(c, target, tol=1e-7):
    """Distance of the circuit's unitary from ``target``, modulo global phase."""
    dist = phase_distance(circuit_unitary(c), np.asarray(target))
    return CompileReport(
        n_qubits=c.n_qubits,
        counts=cir.gate_counts(c),
        distance=dist,
        lower_bound=cnot_lower_bound(c.n_qubits),
        tolerance=tol,
        passed=dist < tol,
    )
