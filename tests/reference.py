"""Reference helpers the tests check the compiler against; the compiler never calls them.

``dagger`` inverts a gate, ``quaternion_to_unitary`` inverts
``quaternion_from_unitary``, ``csd_product`` and ``demux_d`` multiply QSD's
factors back together, ``synthesize_run`` is the one-run case of
``synthesize_runs``, ``collect_runs`` walks a circuit's runs gate by
gate, as ``circuit.collect_runs`` does with arrays, and ``factor_inputs``
gives the unitaries the Schur and CS factorizations are checked on.
"""

from dataclasses import replace

import numpy as np
import scipy.linalg

from atomqc.circuit import HADAMARD, canonical_angles
from atomqc.linalg import haar_unitary, wrap_angle
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


def _fold_by_depth(mats, run_of, n_runs):
    """Product of each run's matrices, later ones on the left.

    ``mats[j]`` belongs to run ``run_of[j]``, in gate order within each
    run; one batched matmul per position in a run.
    """
    lengths = np.bincount(run_of, minlength=n_runs)
    # Position of each matrix in its run: its place in run order less the
    # place where its run starts.
    depth = np.empty_like(run_of)
    depth[np.argsort(run_of, kind="stable")] = np.arange(len(run_of)) - np.repeat(
        np.cumsum(lengths) - lengths, lengths
    )
    us = np.broadcast_to(np.eye(2, dtype=complex), (n_runs, 2, 2)).copy()
    by_depth = np.argsort(depth, kind="stable")
    for idx in np.split(by_depth, np.cumsum(np.bincount(depth))[:-1]):
        r = run_of[idx]
        us[r] = mats[idx] @ us[r]
    return us


def collect_runs(c, on=None):
    """``circuit.collect_runs`` as one pass over the gates: ``(slots, runs, us)`` as lists.

    An open run per qubit; a multi-qubit gate closes the runs of its qubits,
    after a Hadamard on ``on[i]`` (if given and >= 0) joins that qubit's
    open run and before a second one opens its next run.
    """
    slots, elements, run_of, runs = [], [], [], []
    open_runs = {}  # qubit -> index into runs of its open run
    for i, g in enumerate(c.gates):
        if len(g.qubits) == 1:
            q, element = g.qubits[0], i
        else:
            q = None if on is None or on[i] < 0 else int(on[i])
            if q is not None:
                r = open_runs.get(q)
                if r is None:
                    r = open_runs[q] = len(runs)
                    runs.append((q, i))
                    slots.append(r)
                elements.append(-1)  # a Hadamard
                run_of.append(r)
            for p in g.qubits:
                open_runs.pop(p, None)
            slots.append(~i)
            if q is None:
                continue
            element = -1  # the second Hadamard opens q's next run
        r = open_runs.get(q)
        if r is None:
            r = open_runs[q] = len(runs)
            runs.append((q, i))
            slots.append(r)
        elements.append(element)
        run_of.append(r)
    elements = np.array(elements, dtype=np.intp)
    mats = np.empty((len(elements), 2, 2), dtype=complex)
    mats[elements < 0] = HADAMARD
    mats[elements >= 0] = c.local_matrices(elements[elements >= 0])
    return slots, runs, _fold_by_depth(mats, np.array(run_of, dtype=np.intp), len(runs))


def factor_inputs(dim, rng):
    """Unitaries of dimension ``dim`` for the Schur and CS factorizations, the last read-only.

    Haar, +-I, a permutation, diag(-1, i, -1, i, ...), a Kronecker product
    for even ``dim``, eigenphases clustered 1e-12 apart at 1 and at -1, and
    a read-only Haar matrix.
    """
    haar = haar_unitary(dim, rng)
    near = np.pi * (np.arange(dim) % 2) + 1e-12 * np.arange(dim)
    inputs = [haar, np.eye(dim, dtype=complex), -np.eye(dim, dtype=complex),
              np.eye(dim, dtype=complex)[rng.permutation(dim)],
              np.diag(np.resize([-1, 1j], dim)), (haar * np.exp(1j * near)) @ haar.conj().T]
    if dim % 2 == 0:
        inputs.append(np.kron(haar_unitary(2, rng), haar_unitary(dim // 2, rng)))
    frozen = haar_unitary(dim, rng)
    frozen.flags.writeable = False
    return inputs + [frozen]
