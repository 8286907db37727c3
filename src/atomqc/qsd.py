"""Shannon-style recursive compiler: CSD + demultiplexing.

Each level splits the unitary into two block-diagonal multiplexers and a
multiplexed RY; each multiplexer demultiplexes into two smaller unitaries
and a multiplexed RZ.  Recursion bottoms out at single-qubit slots that one
``fill_rotations`` turns into ZY rotations.  The output uses only RY/RZ
rotations and CNOT, and the CNOT count follows c_n = 4 c_{n-1} + 3 * 2^{n-1}
exactly for non-degenerate inputs.
"""

import math

import numpy as np
import scipy.linalg

from . import circuit as cir
from .barenco import fill_rotations
from .exceptions import LengthNotPowerOfTwo
from .linalg import MAX_QUBITS, TOL_ZERO, check_unitary, cs_decompose, demultiplex, qubit_count
from .qrd import gcb_code

__all__ = [
    "multiplexer_angles",
    "synth_multiplexed_rotation",
    "qsd_compile",
]

_IDENTITY_EPS = 1e-13


def _gray_walsh_matrix(k):
    """The sign matrix ``M`` of ``multiplexer_angles``: Hadamard columns in Gray order."""
    g = np.arange(2**k)
    # np.take returns C order (indexing [:, g] gives Fortran order, which
    # changes the order in which BLAS sums the angle products).
    return np.take(scipy.linalg.hadamard(2**k, dtype=float), g ^ (g >> 1), axis=1)


def multiplexer_angles(thetas):
    """Ladder rotation angles for a multiplexed rotation.

    Walsh-Hadamard transform in Gray ordering: ``alpha = M^T theta / 2^k``
    with ``M[b][g] = (-1)^popcount(b AND gray(g))``.  Self-inverse up to the
    scaling: ``M @ alpha`` gives back ``theta``.
    """
    thetas = np.asarray(thetas, dtype=float)
    k = int(np.log2(len(thetas)))
    if 2**k != len(thetas):
        raise LengthNotPowerOfTwo(f"got {len(thetas)} angles")
    if k == 0:
        return thetas.copy()
    m = _gray_walsh_matrix(k)
    return (m.T @ thetas) / 2**k


def synth_multiplexed_rotation(axis, controls, target, thetas):
    """Rotation/CNOT ladder implementing a multiplexed rotation exactly: ``(gates, phase)``.

    ``thetas[b]`` is the angle of the ``axis`` ("Y" or "Z") rotation on
    ``target`` when the controls (listed most significant first) are in
    basis state ``b``.  For k controls: 2^k rotations interleaved with 2^k
    CNOTs whose controls follow the Gray-code change positions; k = 0
    degenerates to one rotation.  ``phase`` is the wrap phase of the
    rotations' canonical angles (``canonical_angles``), so e^{i phase}
    times the gates is the multiplexed rotation.
    """
    k = len(controls)
    if axis not in ("Y", "Z") or len(thetas) != 2**k:
        raise ValueError("need axis Y or Z and one angle per control basis state")
    gates, wraps = [], []
    # One scalar canonicalization per rotation: an array pass per ladder
    # costs more than the ladder's few rotations at small k.
    for g, alpha in enumerate(multiplexer_angles(thetas).tolist()):
        angle, wrap = cir.canonical_angles(alpha)
        gates.append(cir.Gate("R" + axis, (target,), (angle,)))
        wraps.append(wrap)
        if k:
            nxt = gcb_code(g) ^ gcb_code((g + 1) % 2**k)
            bit = nxt.bit_length() - 1  # position from the LSB of the pattern
            gates.append(cir.cnot(controls[k - 1 - bit], target))
    return tuple(gates), math.fsum(wraps)


def qsd_compile(u, *, max_qubits=MAX_QUBITS):
    """Compile a unitary by recursive Shannon decomposition.

    The recursion base is a single-qubit slot (ZY synthesis); sign conventions
    for the multiplexed RY/RZ angles are fixed so the emitted circuit
    reproduces the input exactly up to accumulated float error.
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u)
    n = qubit_count(u.shape[0], max_qubits)

    items = []
    wraps = []  # each ladder's phase

    def ladder(axis, controls, target, thetas):
        if np.max(np.abs(thetas)) >= TOL_ZERO:
            gates, phase = synth_multiplexed_rotation(axis, controls, target, thetas)
            items.extend(gates)
            wraps.append(phase)

    def descend(block, qubits):
        if np.max(np.abs(block - np.eye(block.shape[0]))) < _IDENTITY_EPS:
            return
        if len(qubits) == 1:
            items.append((None, qubits[0], block))
            return
        csd = cs_decompose(block)
        select = qubits[0]
        lower = qubits[1:]
        # Time order is right to left: diag(a2,b2), middle RY, diag(a1,b1).
        emit_multiplexer(csd.a2, csd.b2, select, lower)
        ladder("Y", lower, select, 2.0 * csd.thetas)
        emit_multiplexer(csd.a1, csd.b1, select, lower)

    def emit_multiplexer(a, b, select, lower):
        if np.max(np.abs(a - b)) < _IDENTITY_EPS:
            # Same block on both select states: no multiplexing needed.
            descend(a, lower)
            return
        dm = demultiplex(a, b)
        descend(dm.w, lower)
        ladder("Z", lower, select, -2.0 * dm.d_phases)
        descend(dm.v, lower)

    descend(u, tuple(range(n)))
    gates, phase = fill_rotations(items)
    return cir.Circuit(n, gates, phase + math.fsum(wraps))
