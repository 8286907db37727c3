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
    NotUnitary,
    OddDimension,
    SizeTooLarge,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "MAX_QUBITS",
    "CsdResult",
    "DemuxResult",
    "is_unitary",
    "check_unitary",
    "cs_decompose",
    "demultiplex",
    "unitary_sqrt",
    "random_unitary",
    "phase_distance",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the pipeline."""

    tol_unitary: float = 1e-10
    tol_recon: float = 1e-8
    tol_zero: float = 1e-12

    def __post_init__(self):
        if min(self.tol_unitary, self.tol_recon, self.tol_zero) <= 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerances()

# Widest register any compiler, sampler or the dense simulator accepts.
MAX_QUBITS = 12


def is_unitary(m, tol=DEFAULT_TOL.tol_unitary):
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    eye = np.eye(m.shape[0])
    return np.max(np.abs(m.conj().T @ m - eye)) <= tol


def check_unitary(m, tol=DEFAULT_TOL.tol_unitary, what="matrix"):
    if not is_unitary(m, tol):
        raise NotUnitary(f"{what} is not unitary to tolerance {tol:g}")


def wrap_angle(x):
    """Wrap an angle into the principal branch (-pi, pi]."""
    y = -((-np.asarray(x) + np.pi) % (2 * np.pi) - np.pi)
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


def cs_decompose(u, tol=DEFAULT_TOL):
    """Cosine-sine decomposition with equal block sizes.

    Returns blocks sharing a single theta vector with all angles in
    [0, pi/2]; validated through the reconstruction contract.
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u, tol.tol_unitary)
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


def demultiplex(a, b, tol=DEFAULT_TOL):
    """Split a block-diagonal pair via the eigendecomposition of ``A B^dagger``.

    ``A B^dagger`` is unitary, hence normal; a complex Schur decomposition
    yields a unitary eigenbasis even for degenerate eigenvalues.  ``D`` takes
    the principal square root of the eigenvalues.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimMismatch(f"shapes {a.shape} vs {b.shape}")
    check_unitary(a, tol.tol_unitary, "A")
    check_unitary(b, tol.tol_unitary, "B")
    try:
        t, v = scipy.linalg.schur(a @ b.conj().T, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - scipy rarely fails here
        raise EigenFailure(str(exc)) from exc
    # Principal branch: eigenphases of D^2 in (-pi, pi], halved.
    phases = np.angle(np.diagonal(t)) / 2.0
    d = np.exp(1j * phases)
    w = np.diag(d) @ v.conj().T @ b
    return DemuxResult(v=v, w=w, d_phases=phases)


def unitary_sqrt(u, tol=DEFAULT_TOL):
    """Principal square root of a unitary (eigenphases halved into (-pi/2, pi/2])."""
    u = np.asarray(u, dtype=complex)
    check_unitary(u, tol.tol_unitary)
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
