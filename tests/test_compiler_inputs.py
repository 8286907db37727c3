"""Property tests of both compilers on structured and near-degenerate inputs.

The acceptance sweeps draw Haar-random unitaries, which reach the degenerate
branches (QSD's identity and equal-block skips, a Givens pair with nothing
to eliminate, the ZY gamma = 0/pi cases, repeated eigenvalues in the
demultiplexing Schur step) only by chance.  Here every input family aims at
them: +-I, permutations, diagonals, Kronecker products, controlled-U, the
QFT, multi-controlled X (X, CNOT, Toffoli, C^3 X), exp(i eps H) for eps from
1e-15 to 1e-9, matrices whose unitarity defect is just under
``TOL_UNITARY``, and controlled blocks ``DEGENERATE`` with an eigenvalue at
exactly -1 or a ZY angle gamma of exactly 0 or pi.  Each input, on n <= 4
qubits, must compile through QRD and QSD to a verified circuit, retarget to
a {C, CZ, CCZ} circuit within ``RETARGET_TOL`` of the input (README's
promise), and keep the QSD CNOT count within the law.
"""

from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from atomqc import circuit as cir
from atomqc.linalg import TOL_UNITARY, haar_unitary, random_unitary, unitarity_defect
from atomqc.qrd import qrd_compile
from atomqc.qsd import qsd_compile
from atomqc.retarget import retarget_circuit
from atomqc.simulate import circuit_unitary, verify

PI = np.pi
NATIVE = {"C", "CZ", "CCZ"}
# Phase-invariant distance within which a retargeted circuit matches its input.
RETARGET_TOL = 1e-9

qubits = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)


def _haar(dim, seed):
    return haar_unitary(dim, np.random.default_rng(seed))


def _qft(n):
    dim = 2**n
    j = np.arange(dim)
    return np.exp(2j * PI * np.outer(j, j) / dim) / np.sqrt(dim)


def _mcx(n):
    """X on the last qubit when every other qubit is |1>: X, CNOT, Toffoli, C^3 X."""
    u = np.eye(2**n, dtype=complex)
    u[[-2, -1]] = u[[-1, -2]]
    return u


def _near_identity(n, seed, log_eps):
    """exp(i eps H) for a random Hermitian H of unit spectral norm."""
    a = np.random.default_rng(seed).normal(size=(2, 2**n, 2**n))
    h = a[0] + 1j * a[1]
    h = h + h.conj().T
    return scipy.linalg.expm(1j * 10.0**log_eps * h / np.linalg.norm(h, 2))


def _defective(n, seed, fraction):
    """A Haar unitary scaled column by column so max |U^dagger U - I| is just under the bound."""
    delta = fraction * TOL_UNITARY / 2
    signs = np.where(np.arange(2**n) % 2, 1.0, -1.0)
    u = _haar(2**n, seed) @ np.diag(1 + delta * signs)
    assert unitarity_defect(u) < TOL_UNITARY
    return u


one_qubit = st.one_of(
    st.sampled_from([
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.diag([1, -1]),
        np.diag([1, 1j]),
        np.array([[1, 1], [1, -1]]) / np.sqrt(2),
    ]),
    seeds.map(lambda seed: _haar(2, seed)),
)
phases = st.one_of(st.floats(-PI, PI), st.sampled_from([0.0, PI, -PI / 2, 1e-13]))

# 2x2 blocks on the degenerate branches: an eigenvalue at exactly -1,
# diag(-1, i) (where the quaternion square root leaves Schur's branch), and
# the ZY gamma = 0 / pi cases.  Each maps a phase psi to a block.
DEGENERATE = {
    "minus_identity": lambda psi: -np.eye(2),
    "diag_minus1_i": lambda psi: np.diag([-1, 1j]),
    "diag_minus1_1": lambda psi: np.diag([-1.0, 1.0]),
    "i_x": lambda psi: 1j * np.array([[0, 1], [1, 0]]),
    "phased_antidiagonal": lambda psi: np.exp(1j * psi) * np.array([[0, 1], [1, 0]]),
    "ry_pi": lambda psi: np.array([[0.0, -1.0], [1.0, 0.0]]),
}

FAMILIES = {
    "signed_identity": st.builds(
        lambda n, sign: sign * np.eye(2**n), qubits, st.sampled_from([1.0, -1.0])
    ),
    "permutation": qubits.flatmap(lambda n: st.permutations(range(2**n))).map(
        lambda p: np.eye(len(p))[:, p]
    ),
    "diagonal": qubits.flatmap(lambda n: st.lists(phases, min_size=2**n, max_size=2**n)).map(
        lambda ph: np.diag(np.exp(1j * np.array(ph)))
    ),
    "kron": qubits.flatmap(lambda n: st.lists(one_qubit, min_size=n, max_size=n)).map(
        lambda us: reduce(np.kron, us)
    ),
    "controlled": st.builds(
        lambda n, seed: scipy.linalg.block_diag(np.eye(2 ** (n - 1)), _haar(2 ** (n - 1), seed)),
        st.integers(2, 4),
        seeds,
    ),
    "qft": qubits.map(_qft),
    "mcx": qubits.map(_mcx),
    "near_identity": st.builds(_near_identity, qubits, seeds, st.floats(-15, -9)),
    "defect_under_tol": st.builds(_defective, qubits, seeds, st.floats(0.5, 0.99)),
    "degenerate_block": st.builds(
        lambda n, block, psi: scipy.linalg.block_diag(np.eye(2**n - 2), block(psi)),
        st.integers(2, 4),
        st.sampled_from(list(DEGENERATE.values())),
        phases,
    ),
}


def _qsd_law(n):
    return 0 if n == 1 else 4 * _qsd_law(n - 1) + 3 * 2 ** (n - 1)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(derandomize=True, database=None, deadline=None, max_examples=12)
@given(data=st.data())
def test_structured_input_compiles_exactly(family, data):
    u = data.draw(FAMILIES[family])
    n = u.shape[0].bit_length() - 1
    for compiler in (qrd_compile, qsd_compile):
        c = compiler(u)
        assert verify(c, u).passed, compiler.__name__
        native = retarget_circuit(c)
        assert {g.kind for g in native.gates} <= NATIVE
        report = verify(native, u)
        assert report.passed, compiler.__name__
        assert report.distance < RETARGET_TOL, compiler.__name__
        if compiler is qsd_compile:
            assert cir.gate_counts(c).get("CNOT") <= _qsd_law(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("compiler", [qrd_compile, qsd_compile], ids=["qrd", "qsd"])
def test_haar_exact_including_global_phase(compiler, n):
    # A rotation angle wrapped into [0, 2pi) flips the rotation's sign; the
    # circuit phase must carry that, so no phase freedom is allowed here.
    for seed in range(10):
        u = random_unitary(n, seed=seed)
        c = compiler(u)
        for circuit in (c, retarget_circuit(c)):
            assert np.max(np.abs(circuit_unitary(circuit) - u)) < 1e-9, seed
