"""Tests for the recursive Shannon (CSD) compiler."""

import numpy as np
import pytest
import scipy.linalg
from reference import factor_inputs
from scipy.linalg.lapack import zuncsd, zuncsd_lwork

from atomqc import circuit as cir
from atomqc import qsd
from atomqc.circuit import rotation_matrix
from atomqc import linalg
from atomqc.exceptions import LengthNotPowerOfTwo, NotPowerOfTwo, NotUnitary, SizeTooLarge
from atomqc.linalg import haar_unitary, phase_distance, random_unitary
from atomqc.qsd import (
    _cs_decompose,
    _csd_lwork,
    _gray_walsh_matrix,
    multiplexer_angles,
    qsd_compile,
    synth_multiplexed_rotation,
)
from atomqc.retarget import retarget_circuit
from atomqc.simulate import circuit_unitary

RNG = np.random.default_rng(7)


def test_multiplexer_angles_single_control():
    alphas = multiplexer_angles([np.pi / 2, np.pi / 2])
    assert np.allclose(alphas, [np.pi / 2, 0.0])
    # No controls: the one angle comes back bit for bit.
    for theta in (1.2345678901234567, -3.0, np.pi, 5e-324):
        assert [a.hex() for a in multiplexer_angles([theta]).tolist()] == [theta.hex()]


def test_multiplexer_angles_inverse():
    thetas = RNG.uniform(-np.pi, np.pi, 8)
    assert np.allclose(_gray_walsh_matrix(3) @ multiplexer_angles(thetas), thetas)


def test_multiplexer_angles_bad_length():
    with pytest.raises(LengthNotPowerOfTwo):
        multiplexer_angles([0.1, 0.2, 0.3])


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("axis", ["Y", "Z"])
def test_multiplexed_rotation_matches_block_diagonal(k, axis):
    thetas = RNG.uniform(-np.pi, np.pi, 2**k)
    gates, phase = synth_multiplexed_rotation(axis, tuple(range(k)), k, thetas)
    got = circuit_unitary(cir.Circuit(k + 1, gates, phase))
    expect = scipy.linalg.block_diag(*[rotation_matrix(axis, t) for t in thetas])
    assert phase_distance(got, expect) < 1e-12
    assert np.max(np.abs(got - expect)) < 1e-12
    cnots = [g for g in gates if g.kind == "CNOT"]
    assert len(cnots) == (2**k if k else 0)


def test_multiplexed_rotation_validation():
    with pytest.raises(ValueError):
        synth_multiplexed_rotation("X", (0,), 1, (0.1, 0.2))
    with pytest.raises(ValueError):
        synth_multiplexed_rotation("Y", (0,), 1, (0.1,))
    with pytest.raises(ValueError):
        synth_multiplexed_rotation("Y", (0,), 1, (0.1, 0.2, 0.3, 0.4))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_round_trip(n):
    u = random_unitary(n, seed=n)
    c = qsd_compile(u)
    assert phase_distance(circuit_unitary(c), u) < 1e-9


@pytest.mark.parametrize("n,count", [(1, 0), (2, 6), (3, 36), (4, 168)])
def test_cnot_recurrence(n, count):
    u = random_unitary(n, seed=n + 20)
    c = qsd_compile(u)
    assert cir.gate_counts(c).get("CNOT") == count


@pytest.mark.parametrize(
    "n,counts",
    [
        (1, (3, 0, 1, 2, 0, 2)),
        (2, (24, 6, 6, 12, 6, 17)),
        (3, (120, 36, 28, 56, 36, 83)),
        (4, (528, 168, 120, 240, 168, 359)),
        (5, (2208, 720, 496, 992, 720, 1487)),
    ],
)
def test_gate_counts_pinned(n, counts):
    # Gates, CNOTs, RYs and RZs, then the native CZs and C pulses: a rewrite
    # of the recursion, the ladders or retarget must keep all six.
    c = qsd_compile(random_unitary(n, seed=0))
    native = cir.gate_counts(retarget_circuit(c))
    got = cir.gate_counts(c)
    assert (
        len(c.gates),
        got.get("CNOT"),
        got.get("RY"),
        got.get("RZ"),
        native.get("CZ"),
        native.get("C"),
    ) == counts


def test_gate_kinds_are_lowered():
    c = qsd_compile(random_unitary(3, seed=5))
    assert all(g.kind in ("RY", "RZ", "CNOT") for g in c.gates)


def test_identity_compiles_to_nothing():
    assert len(qsd_compile(np.eye(8)).gates) == 0


def test_structured_input_still_exact():
    # A CNOT matrix exercises the degenerate CSD branches (thetas 0 / pi/2).
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    c = qsd_compile(cnot)
    assert phase_distance(circuit_unitary(c), cnot) < 1e-10


def test_tensor_product_input():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    u = np.kron(h, np.kron(h, h))
    c = qsd_compile(u)
    assert phase_distance(circuit_unitary(c), u) < 1e-10


def test_input_validation():
    with pytest.raises(NotUnitary):
        qsd_compile(np.ones((4, 4)))
    with pytest.raises(SizeTooLarge):
        qsd_compile(np.eye(16), max_qubits=3)


def test_odd_dimension_rejected():
    # A 6x6 unitary would split into 3x3 CSD blocks; the entry check stops it.
    with pytest.raises(NotPowerOfTwo):
        qsd_compile(haar_unitary(6, np.random.default_rng(6)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_input_checked_once(n, monkeypatch):
    # Every CSD and demultiplexing block is unitary by construction, so only
    # the input is checked.
    calls = []
    defect = linalg.unitarity_defect

    def spy(m):
        calls.append(np.shape(m))
        return defect(m)

    monkeypatch.setattr(linalg, "unitarity_defect", spy)
    qsd_compile(random_unitary(n, seed=n))
    assert calls == [(2**n, 2**n)]


@pytest.mark.parametrize("dim", range(2, 33, 2))
def test_cs_decompose_is_scipys_cossin(dim):
    half = dim // 2
    for u in factor_inputs(dim, np.random.default_rng(dim)):
        before = u.copy()
        a1, b1, a2, b2, thetas = _cs_decompose(u)
        (u1, u2), theta, (v1h, v2h) = scipy.linalg.cossin(u, p=half, q=half, separate=True)
        for got, want in zip((a1, b1, a2, b2, thetas), (u1, u2, v1h, v2h, theta)):
            assert np.array_equal(got, want)
        assert np.array_equal(u, before)


def test_cs_decompose_nonzero_info_raises(monkeypatch):
    def failing(*args, **kwargs):
        return (*zuncsd(*args, **kwargs)[:-1], 2)

    monkeypatch.setattr(qsd, "zuncsd", failing)
    with pytest.raises(np.linalg.LinAlgError, match="zuncsd failed with info 2"):
        _cs_decompose(np.eye(4, dtype=complex))


def test_csd_workspace_queried_once_per_size(monkeypatch):
    queries = []

    def counted(m, p, q):
        queries.append((m, p, q))
        return zuncsd_lwork(m, p, q)

    monkeypatch.setattr(qsd, "zuncsd_lwork", counted)
    _csd_lwork.cache_clear()
    for seed in range(2):
        qsd_compile(random_unitary(4, seed))
    _csd_lwork.cache_clear()
    assert sorted(queries) == [(4, 2, 2), (8, 4, 4), (16, 8, 8)]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.filterwarnings("error")
def test_non_finite_input_is_not_unitary(bad):
    # The LAPACK drivers are called without a finiteness check; the entry
    # check stops NaN and inf first.
    u = np.eye(4, dtype=complex)
    u[1, 2] = bad
    with pytest.raises(NotUnitary):
        qsd_compile(u)
