"""Dense complex linear algebra shared by every compiler stage.

All matrices are plain ``numpy.ndarray`` of complex128.  Qubit-facing
callers use dimensions that are powers of two; the routines here only
require what each factorization needs (CSD accepts any even dimension).
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import (
    DimMismatch,
    EigenFailure,
    NotPowerOfTwo,
    NotUnitary,
    OddDimension,
    SizeTooLarge,
)

__all__ = [
    "TOL_UNITARY",
    "TOL_ZERO",
    "MAX_QUBITS",
    "CsdResult",
    "DemuxResult",
    "unitarity_defect",
    "is_unitary",
    "check_unitary",
    "cs_decompose",
    "demultiplex",
    "unitary_sqrt",
    "random_unitary",
    "phase_distance",
    "qubit_count",
]

# Largest max |M^dagger M - I| a matrix may have and still count as unitary.
TOL_UNITARY = 1e-10
# Magnitude at or below which an entry, angle or rotation counts as zero.
TOL_ZERO = 1e-12

# Widest register any compiler, sampler or the dense simulator accepts.
MAX_QUBITS = 12


def unitarity_defect(m):
    """max |M^dagger M - I| of a square matrix, or of each matrix in a stack."""
    m = np.asarray(m)
    eye = np.eye(m.shape[-1])
    return np.max(np.abs(np.swapaxes(m.conj(), -1, -2) @ m - eye), axis=(-2, -1))


def is_unitary(m, tol=TOL_UNITARY):
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return unitarity_defect(m) <= tol


def check_unitary(m, what="matrix"):
    if not is_unitary(m):
        raise NotUnitary(f"{what} is not unitary to tolerance {TOL_UNITARY:g}")


def qubit_count(dim, max_qubits=MAX_QUBITS):
    """Number of qubits of a ``dim``-dimensional space, at most ``max_qubits``."""
    n = dim.bit_length() - 1
    if dim < 2 or 2**n != dim:
        raise NotPowerOfTwo(f"dimension {dim} is not a power of two >= 2")
    if n > max_qubits:
        raise SizeTooLarge(f"{n} qubits exceeds limit {max_qubits}")
    return n


def wrap_angle(x):
    """Wrap an angle into the principal branch (-pi, pi]."""
    y = -((-np.asarray(x, dtype=float) + np.pi) % (2 * np.pi) - np.pi)
    # Just above pi the modulo rounds up to exactly 2 pi, which gives -pi.
    y = np.where(y == -np.pi, np.pi, y)
    return y if np.ndim(x) else float(y)


@dataclass(frozen=True)
class CsdResult:
    """Cosine-sine factorization ``U = diag(a1,b1) @ [[C,-S],[S,C]] @ diag(a2,b2)``."""

    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray
    thetas: np.ndarray

    def middle(self):
        c = np.diag(np.cos(self.thetas))
        s = np.diag(np.sin(self.thetas))
        return np.block([[c, -s], [s, c]])

    def reconstruct(self):
        left = scipy.linalg.block_diag(self.a1, self.b1)
        right = scipy.linalg.block_diag(self.a2, self.b2)
        return left @ self.middle() @ right


def cs_decompose(u):
    """Cosine-sine decomposition with equal block sizes.

    Returns blocks sharing a single theta vector with all angles in
    [0, pi/2]; validated through the reconstruction contract.
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u)
    dim = u.shape[0]
    if dim % 2:
        raise OddDimension(f"CSD needs even dimension, got {dim}")
    half = dim // 2
    (u1, u2), theta, (v1h, v2h) = scipy.linalg.cossin(u, p=half, q=half, separate=True)
    return CsdResult(a1=u1, b1=u2, a2=v1h, b2=v2h, thetas=np.asarray(theta, dtype=float))


@dataclass(frozen=True)
class DemuxResult:
    """Factorization ``A = V D W`` and ``B = V D^dagger W`` with ``D = diag(e^{i phi_k})``."""

    v: np.ndarray
    w: np.ndarray
    d_phases: np.ndarray

    def d(self):
        return np.diag(np.exp(1j * self.d_phases))


def demultiplex(a, b):
    """Split a block-diagonal pair via the eigendecomposition of ``A B^dagger``.

    ``A B^dagger`` is unitary, hence normal; a complex Schur decomposition
    yields a unitary eigenbasis even for degenerate eigenvalues.  ``D`` takes
    the principal square root of the eigenvalues.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatch(f"shapes {a.shape} vs {b.shape}")
    check_unitary(a, "A")
    check_unitary(b, "B")
    try:
        t, v = scipy.linalg.schur(a @ b.conj().T, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - scipy rarely fails here
        raise EigenFailure(str(exc)) from exc
    # Principal branch: eigenphases of D^2 in (-pi, pi], halved.
    phases = np.angle(np.diagonal(t)) / 2.0
    d = np.exp(1j * phases)
    w = np.diag(d) @ v.conj().T @ b
    return DemuxResult(v=v, w=w, d_phases=phases)


def unitary_sqrt(u):
    """Principal square root of a unitary (eigenphases halved into (-pi/2, pi/2])."""
    u = np.asarray(u, dtype=complex)
    check_unitary(u)
    t, z = scipy.linalg.schur(u, output="complex")
    roots = np.exp(1j * np.angle(np.diagonal(t)) / 2.0)
    return (z * roots) @ z.conj().T


def haar_unitary(dim, rng):
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary(n_qubits, seed, max_qubits=MAX_QUBITS):
    """Deterministic Haar-random unitary on ``n_qubits`` qubits."""
    if not 1 <= n_qubits <= max_qubits:
        raise SizeTooLarge(f"n_qubits={n_qubits} outside 1..{max_qubits}")
    rng = np.random.default_rng(seed)
    return haar_unitary(2**n_qubits, rng)


def phase_distance(u, v):
    """min over gamma of ||U - e^{i gamma} V||_F, closed form for unitaries."""
    u = np.asarray(u)
    v = np.asarray(v)
    if u.shape != v.shape:
        raise DimMismatch(f"shapes {u.shape} vs {v.shape}")
    # Minimizer is gamma = -arg tr(U^dagger V); evaluating the norm at the
    # optimum directly avoids the cancellation in sqrt(2 dim - 2 |tr|).
    tr = np.trace(u.conj().T @ v)
    gamma = -np.angle(tr) if tr != 0 else 0.0
    return float(np.linalg.norm(u - np.exp(1j * gamma) * v, "fro"))
