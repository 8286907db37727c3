"""Dense complex linear algebra shared by every compiler stage.

All matrices are plain ``numpy.ndarray`` of complex128.  Qubit-facing
callers use dimensions that are powers of two.
"""

import numpy as np

from .exceptions import (
    DimMismatch,
    NotPowerOfTwo,
    NotUnitary,
    SizeTooLarge,
)

__all__ = [
    "TOL_UNITARY",
    "TOL_ZERO",
    "MAX_QUBITS",
    "unitarity_defect",
    "is_unitary",
    "check_unitary",
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
    """max |M^dagger M - I| of a square matrix, or of each matrix in a stack.

    A huge or non-finite entry gives an inf or NaN defect, silently: either
    fails every ``<= tol`` test, so the matrix counts as not unitary.
    """
    m = np.asarray(m)
    eye = np.eye(m.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.max(np.abs(np.swapaxes(m.conj(), -1, -2) @ m - eye), axis=(-2, -1))


def is_unitary(m, tol=TOL_UNITARY):
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return unitarity_defect(m) <= tol


def check_unitary(m, what="matrix"):
    """Raise ``NotUnitary`` unless ``m`` is unitary; for a stack, name its first bad matrix."""
    m = np.asarray(m)
    if m.ndim == 3:
        bad = np.flatnonzero(~(unitarity_defect(m) <= TOL_UNITARY))
        if bad.size:
            raise NotUnitary(f"{what} {bad[0]} is not unitary to tolerance {TOL_UNITARY:g}")
    elif not is_unitary(m):
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


def haar_unitary(dim, rng):
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_unitary(n_qubits, seed, max_qubits=MAX_QUBITS):
    """Deterministic Haar-random unitary on ``n_qubits`` qubits."""
    if n_qubits < 1:
        raise SizeTooLarge(f"n_qubits={n_qubits} outside 1..{max_qubits}")
    if n_qubits > max_qubits:
        raise SizeTooLarge(f"{n_qubits} qubits exceeds limit {max_qubits}")
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
    # tr(U^dagger V) is the sum of conj(U) * V entry by entry, O(4^n).
    tr = np.vdot(u, v)
    gamma = -np.angle(tr) if tr != 0 else 0.0
    return float(np.linalg.norm(u - np.exp(1j * gamma) * v, "fro"))
