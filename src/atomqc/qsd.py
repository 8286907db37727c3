"""Shannon-style recursive compiler: CSD + demultiplexing.

Each level splits the unitary into two block-diagonal multiplexers and a
multiplexed RY; each multiplexer demultiplexes into two smaller unitaries
and a multiplexed RZ.  Recursion bottoms out at single-qubit slots that one
``fill_rotations`` turns into ZY rotations.  The output uses only RY/RZ
rotations and CNOT, and the CNOT count follows c_n = 4 c_{n-1} + 3 * 2^{n-1}
exactly for non-degenerate inputs.
"""

import functools
import math

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zuncsd, zuncsd_lwork

from . import circuit as cir
from .barenco import complex_schur, fill_rotations
from .exceptions import LengthNotPowerOfTwo
from .linalg import MAX_QUBITS, TOL_ZERO, check_unitary, qubit_count

__all__ = [
    "multiplexer_angles",
    "synth_multiplexed_rotation",
    "qsd_compile",
]

_IDENTITY_EPS = 1e-13


@functools.lru_cache(maxsize=None)
def _gray_codes(k):
    """The Gray codes ``g ^ (g >> 1)`` of g = 0 .. 2^k - 1, in order."""
    return tuple(g ^ (g >> 1) for g in range(2**k))


@functools.lru_cache(maxsize=None)
def _gray_walsh_matrix(k):
    """The read-only sign matrix ``M`` of ``multiplexer_angles``: Hadamard columns in Gray order."""
    # np.take returns C order (indexing [:, g] gives Fortran order, which
    # changes the order in which BLAS sums the angle products).
    m = np.take(scipy.linalg.hadamard(2**k, dtype=float), _gray_codes(k), axis=1)
    m.flags.writeable = False
    return m


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
    codes = _gray_codes(k)
    # One scalar canonicalization per rotation: an array pass per ladder
    # costs more than the ladder's few rotations at small k.
    for g, alpha in enumerate(multiplexer_angles(thetas).tolist()):
        angle, wrap = cir.canonical_angles(alpha)
        gates.append(cir.Gate("R" + axis, (target,), (angle,)))
        wraps.append(wrap)
        if k:
            nxt = codes[g] ^ codes[(g + 1) % 2**k]
            bit = nxt.bit_length() - 1  # position from the LSB of the pattern
            gates.append(cir.cnot(controls[k - 1 - bit], target))
    return tuple(gates), math.fsum(wraps)


@functools.lru_cache(maxsize=None)
def _csd_lwork(m):
    """``zuncsd``' ``lwork`` and ``lrwork`` for equal halves of m x m, asked once per m."""
    work, rwork, _ = zuncsd_lwork(m, m // 2, m // 2)
    return {"lwork": int(work.real), "lrwork": int(rwork)}


def _cs_decompose(u):
    """Cosine-sine decomposition with equal block sizes: ``(a1, b1, a2, b2, thetas)``.

    ``U = diag(a1,b1) @ [[C,-S],[S,C]] @ diag(a2,b2)``, C and S the cosines
    and sines of thetas, all in [0, pi/2].  Unchecked: ``qsd_compile``
    checks its input, and every block it passes on is unitary by construction.
    """
    half = u.shape[0] // 2
    *_, theta, u1, u2, v1h, v2h, info = zuncsd(u[:half, :half], u[:half, half:], u[half:, :half],
                                               u[half:, half:], **_csd_lwork(len(u)))
    if info:
        raise np.linalg.LinAlgError(f"zuncsd failed with info {info}")
    return u1, u2, v1h, v2h, theta


def _demultiplex(a, b):
    """Split a block-diagonal pair via the eigendecomposition of ``A B^dagger``.

    ``(v, w, phases)`` with ``A = V D W``, ``B = V D^dagger W``, ``D = diag(e^{i phases})``.
    ``A B^dagger`` is unitary, hence normal; a complex Schur decomposition yields
    a unitary eigenbasis even for degenerate eigenvalues, and ``D`` takes the
    principal square root of the eigenvalues.  Unchecked, as ``_cs_decompose``.
    """
    t, v = complex_schur(a @ b.conj().T)
    # Principal branch: eigenphases of D^2 in (-pi, pi], halved.
    phases = np.angle(np.diagonal(t)) / 2.0
    d = np.exp(1j * phases)
    w = np.diag(d) @ v.conj().T @ b
    return v, w, phases


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
        a1, b1, a2, b2, thetas = _cs_decompose(block)
        select = qubits[0]
        lower = qubits[1:]
        # Time order is right to left: diag(a2,b2), middle RY, diag(a1,b1).
        emit_multiplexer(a2, b2, select, lower)
        ladder("Y", lower, select, 2.0 * thetas)
        emit_multiplexer(a1, b1, select, lower)

    def emit_multiplexer(a, b, select, lower):
        if np.max(np.abs(a - b)) < _IDENTITY_EPS:
            # Same block on both select states: no multiplexing needed.
            descend(a, lower)
            return
        v, w, phases = _demultiplex(a, b)
        descend(w, lower)
        ladder("Z", lower, select, -2.0 * phases)
        descend(v, lower)

    descend(u, tuple(range(n)))
    columns, phase = fill_rotations(items)
    return cir.Circuit.from_columns(n, *columns, global_phase=phase + math.fsum(wraps))
