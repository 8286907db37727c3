"""Reference helpers the tests check the compiler against; the compiler never calls them.

``dagger`` inverts a gate, ``quaternion_to_unitary`` inverts
``quaternion_from_unitary``, ``csd_product`` and ``demux_d`` multiply QSD's
factors back together, and ``synthesize_run`` is the one-run case of
``synthesize_runs``.
"""

from dataclasses import replace

import numpy as np
import scipy.linalg

from atomqc.circuit import canonical_angles
from atomqc.linalg import wrap_angle
from atomqc.quaternion import TOL_RECON, synthesize_runs

# Kinds whose first angle parameter lives in [0, 2pi); PHASE/DIAG_PHASE use (-pi, pi].
_MOD_2PI_KINDS = frozenset({"RX", "RY", "RZ", "C"})


def dagger(g):
    """The inverse of gate ``g``, up to the global sign of a wrapped rotation angle."""
    if g.kind in ("H", "X", "CNOT", "CZ", "CCZ", "MCX"):
        return g
    if g.kind in _MOD_2PI_KINDS:
        return replace(g, params=(canonical_angles(-g.params[0])[0],) + g.params[1:])
    if g.kind in ("PHASE", "DIAG_PHASE"):
        return replace(g, params=(wrap_angle(-g.params[0]),))
    return replace(g, matrix=g.matrix.conj().T)


def quaternion_to_unitary(q):
    """Inverse of ``quaternion_from_unitary`` for the special-unitary part."""
    return np.array(
        [
            [q.w - 1j * q.z, -q.y - 1j * q.x],
            [q.y - 1j * q.x, q.w + 1j * q.z],
        ]
    )


def csd_product(a1, b1, a2, b2, thetas):
    """``diag(a1,b1) @ [[C,-S],[S,C]] @ diag(a2,b2)``, C and S the cosines and sines of thetas."""
    c = np.diag(np.cos(thetas))
    s = np.diag(np.sin(thetas))
    left = scipy.linalg.block_diag(a1, b1)
    right = scipy.linalg.block_diag(a2, b2)
    return left @ np.block([[c, -s], [s, c]]) @ right


def demux_d(phases):
    """The diagonal ``D = diag(e^{i phases})`` of a demultiplexed pair."""
    return np.diag(np.exp(1j * phases))


def synthesize_run(u, tol=TOL_RECON):
    """C pulses (0, 1 or 2 ``(theta, phi)`` pairs, first fired first) and phase gamma.

    ``e^{i gamma}`` times the pulses, composed, equals the 2x2 unitary ``u``:
    row 0 of ``synthesize_runs`` on a one-run stack.
    """
    counts, tp = synthesize_runs(np.asarray(u)[None], tol)
    pulses = ((tp.theta1[0], tp.phi1[0]), (tp.theta2[0], tp.phi2[0]))
    return pulses[: counts[0]], tp.gamma[0]
