"""Shannon-style recursive compiler: CSD + demultiplexing.

Each level splits the unitary into two block-diagonal multiplexers and a
multiplexed RY; each multiplexer demultiplexes into two smaller unitaries
and a multiplexed RZ.  Recursion bottoms out at single-qubit ZY synthesis.
The output uses only RY/RZ/RX-free rotations and CNOT, and the CNOT count
follows c_n = 4 c_{n-1} + 3 * 2^{n-1} exactly for non-degenerate inputs.
"""

from dataclasses import dataclass

import numpy as np

from . import circuit as cir
from .barenco import lower_1q
from .exceptions import LengthNotPowerOfTwo, SizeTooLarge
from .linalg import DEFAULT_TOL, MAX_QUBITS, check_unitary, cs_decompose, demultiplex
from .qrd import _qubit_count, gcb_code

__all__ = [
    "MultiplexedRotation",
    "multiplexer_angles",
    "inverse_multiplexer_angles",
    "synth_multiplexed_rotation",
    "qsd_compile",
]

_IDENTITY_EPS = 1e-13


@dataclass(frozen=True)
class MultiplexedRotation:
    """A rotation on ``target`` whose angle depends on the control pattern.

    ``thetas[b]`` is the rotation applied when the controls (listed most
    significant first) are in basis state ``b``.
    """

    axis: str
    controls: tuple
    target: int
    thetas: tuple

    def __post_init__(self):
        if self.axis not in ("Y", "Z"):
            raise ValueError("axis must be Y or Z")
        if len(self.thetas) != 2 ** len(self.controls):
            raise ValueError("need one angle per control basis state")


def _gray_sign_matrix(k):
    b = np.arange(2**k)
    g = np.array([gcb_code(int(i)) for i in range(2**k)])
    pops = np.array([[bin(int(bb) & int(gg)).count("1") for gg in g] for bb in b])
    return np.where(pops % 2, -1.0, 1.0)


def multiplexer_angles(thetas):
    """Ladder rotation angles for a multiplexed rotation.

    Walsh-Hadamard transform in Gray ordering: ``alpha = M^T theta / 2^k``
    with ``M[b][g] = (-1)^popcount(b AND gray(g))``.  Self-inverse up to the
    scaling (see ``inverse_multiplexer_angles``).
    """
    thetas = np.asarray(thetas, dtype=float)
    k = int(np.log2(len(thetas)))
    if 2**k != len(thetas):
        raise LengthNotPowerOfTwo(f"got {len(thetas)} angles")
    if k == 0:
        return thetas.copy()
    m = _gray_sign_matrix(k)
    return (m.T @ thetas) / 2**k


def inverse_multiplexer_angles(alphas):
    """Recover per-pattern rotation angles from ladder angles."""
    alphas = np.asarray(alphas, dtype=float)
    k = int(np.log2(len(alphas)))
    if 2**k != len(alphas):
        raise LengthNotPowerOfTwo(f"got {len(alphas)} angles")
    if k == 0:
        return alphas.copy()
    return _gray_sign_matrix(k) @ alphas


def synth_multiplexed_rotation(mux):
    """Rotation/CNOT ladder implementing a multiplexed rotation exactly.

    For k controls: 2^k rotations interleaved with 2^k CNOTs whose controls
    follow the Gray-code change positions; k = 0 degenerates to one rotation.
    """
    k = len(mux.controls)
    kind = "R" + mux.axis
    if k == 0:
        return (cir.Gate(kind, (mux.target,), (float(mux.thetas[0]) % (2 * np.pi),)),)
    alphas = multiplexer_angles(mux.thetas)
    gates = []
    for g in range(2**k):
        gates.append(cir.Gate(kind, (mux.target,), (float(alphas[g]) % (2 * np.pi),)))
        nxt = gcb_code(g) ^ gcb_code((g + 1) % 2**k)
        bit = nxt.bit_length() - 1  # position from the LSB of the pattern
        control = mux.controls[k - 1 - bit]
        gates.append(cir.cnot(control, mux.target))
    return tuple(gates)


def _mux_rotation_gates(axis, controls, target, thetas, eps):
    if np.max(np.abs(thetas)) < eps:
        return ()
    return synth_multiplexed_rotation(
        MultiplexedRotation(axis, tuple(controls), target, tuple(thetas))
    )


def qsd_compile(u, *, tol=DEFAULT_TOL, max_qubits=MAX_QUBITS):
    """Compile a unitary by recursive Shannon decomposition.

    The recursion base is a single qubit (ZY synthesis); sign conventions
    for the multiplexed RY/RZ angles are fixed so the emitted circuit
    reproduces the input exactly up to accumulated float error.
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u, tol.tol_unitary)
    n = _qubit_count(u.shape[0])
    if n > max_qubits:
        raise SizeTooLarge(f"{n} qubits exceeds limit {max_qubits}")

    gates = []
    phase = 0.0

    def emit_1q(block, qubits):
        nonlocal phase
        frag = lower_1q(qubits[0], block, n)
        gates.extend(frag.gates)
        phase += frag.global_phase

    def descend(block, qubits):
        nonlocal phase
        if np.max(np.abs(block - np.eye(block.shape[0]))) < _IDENTITY_EPS:
            return
        if len(qubits) == 1:
            emit_1q(block, qubits)
            return
        csd = cs_decompose(block, tol)
        select = qubits[0]
        lower = qubits[1:]
        # Time order is right to left: diag(a2,b2), middle RY, diag(a1,b1).
        emit_multiplexer(csd.a2, csd.b2, select, lower)
        gates.extend(_mux_rotation_gates("Y", lower, select, 2.0 * csd.thetas, tol.tol_zero))
        emit_multiplexer(csd.a1, csd.b1, select, lower)

    def emit_multiplexer(a, b, select, lower):
        nonlocal phase
        if np.max(np.abs(a - b)) < _IDENTITY_EPS:
            # Same block on both select states: no multiplexing needed.
            descend(a, lower)
            return
        dm = demultiplex(a, b, tol)
        descend(dm.w, lower)
        gates.extend(
            _mux_rotation_gates("Z", lower, select, -2.0 * dm.d_phases, tol.tol_zero)
        )
        descend(dm.v, lower)

    descend(u, tuple(range(n)))
    circuit = cir.Circuit(n, tuple(gates), phase)
    return circuit
