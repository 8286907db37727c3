"""Dense unitary simulator and verification metrics.

Circuits are turned into full 2^n x 2^n matrices under the package's
big-endian qubit convention.  Verification is always modulo global phase.
"""

from dataclasses import dataclass

import numpy as np

from . import circuit as cir
from .exceptions import DimMismatch, SizeTooLarge
from .linalg import MAX_QUBITS, phase_distance

# Phase-invariant Frobenius distance below which a circuit passes ``verify``.
VERIFY_TOL = 1e-7

# How apply_circuit treats a multi-qubit row, by kind code: CZ and CCZ flip
# signs, an X block swaps, MCU and DIAG_PHASE carry a block of their own.
_SIGN_FLIP = {cir.KIND_CODES["CZ"], cir.KIND_CODES["CCZ"]}
_SWAP = {cir.KIND_CODES["CNOT"], cir.KIND_CODES["MCX"]}
_OWN_BLOCK = {cir.KIND_CODES["MCU"], cir.KIND_CODES["DIAG_PHASE"]}


def apply_gate(u, g, n_qubits):
    """Left-multiply ``u`` (shape ``(2^n, m)``) by the full embedding of ``g``, in place.

    The unfused reference: one general 2x2 mix per gate.  ``u`` must be
    complex128, so that no write drops an imaginary part.
    """
    if u.dtype != np.complex128:
        raise ValueError("apply_gate needs a complex128 array")
    cir.check_qubits(g.qubits, n_qubits)
    controls, polarities, target, block = cir.controlled_block(g)
    a, b = cir.pair_views(u, controls, polarities, target)
    a[...], b[...] = cir.mix(block, a, b)
    return u


def gate_matrix(g, n_qubits):
    """Full 2^n x 2^n embedding of a single gate."""
    return apply_gate(np.eye(2**n_qubits, dtype=complex), g, n_qubits)


def apply_circuit(u, c):
    """Left-multiply ``u`` (shape ``(2^n, m)``) by ``c``'s unitary, in place.

    Each single-qubit run is applied once, as its fused 2x2, in the slot
    ``cir.collect_runs`` gives it.  CZ and CCZ flip the sign of the rows
    they select, an X block swaps its row pairs, and every other gate mixes
    them.  ``e^{i global_phase}`` is applied last.  ``u`` must be
    C-contiguous, so that every reshape is a view, and complex128, so that
    no write drops an imaginary part.
    """
    n = c.n_qubits
    if u.shape[0] != 2**n:
        raise DimMismatch(f"{u.shape[0]} rows for a {n}-qubit circuit")
    if not u.flags.c_contiguous:
        raise ValueError("apply_circuit needs a C-contiguous array")
    if u.dtype != np.complex128:
        raise ValueError("apply_circuit needs a complex128 array")
    slots, runs, us = cir.collect_runs(c)
    # One batched 2x2 matmul per run over the view (2^q, 2, rest) of its
    # qubit: fewer array passes than the general mix, equal up to rounding.
    run_views = [u.reshape(cir.block_index((), (), q)[0]) for q in range(n)]
    run_qubits = runs[:, 0].tolist()
    # Each multi-qubit row's pair views and block, made once per distinct
    # (kind, qubits, polarities), or per row for an MCU or DIAG_PHASE.
    rows = ~slots[slots < 0]
    kinds = c.kinds[rows].tolist()
    keys = [row if kind in _OWN_BLOCK else (kind, *qubits, *polarities)
            for row, kind, qubits, polarities
            in cir.column_rows((rows, c.kinds[rows], c.qubits[rows], c.polarities[rows]))]
    row_of = dict(zip(keys, rows.tolist()))
    blocks = map(cir.controlled_block, c.to_gates(list(row_of.values())))
    ops = {key: (*cir.pair_views(u, *where), block) for key, (*where, block) in zip(row_of, blocks)}
    steps = zip(kinds, map(ops.__getitem__, keys))
    for s in slots.tolist():
        if s >= 0:
            v = run_views[run_qubits[s]]
            v[...] = us[s] @ v
            continue
        kind, (a, b, block) = next(steps)
        if kind in _SIGN_FLIP:
            np.negative(b, out=b)
        elif kind in _SWAP:
            a[...], b[...] = b, a.copy()
        else:
            a[...], b[...] = cir.mix(block, a, b)
    u *= np.exp(1j * c.global_phase)
    return u


def circuit_unitary(c):
    """Product of gate matrices in time order, times ``e^{i global_phase}``."""
    if c.n_qubits > MAX_QUBITS:
        raise SizeTooLarge(f"simulation capped at {MAX_QUBITS} qubits")
    return apply_circuit(np.eye(2**c.n_qubits, dtype=complex), c)


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


def verify(c, target, tol=VERIFY_TOL):
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
