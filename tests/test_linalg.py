"""Tests for the shared linear-algebra layer."""

import math

import numpy as np
import pytest
from reference import csd_product, demux_d

from atomqc.exceptions import (
    DimMismatch,
    NotUnitary,
    SizeTooLarge,
)
from atomqc.linalg import (
    check_unitary,
    haar_unitary,
    is_unitary,
    phase_distance,
    random_unitary,
    wrap_angle,
)
from atomqc.qrd import _givens_block
from atomqc.qsd import _cs_decompose, _demultiplex

RNG = np.random.default_rng(1234)


def test_is_unitary():
    assert is_unitary(np.eye(4))
    assert not is_unitary(np.eye(4) * 1.001)
    assert not is_unitary(np.ones((2, 3)))


def test_check_unitary_raises():
    with pytest.raises(NotUnitary):
        check_unitary(np.diag([1.0, 1.1]))


def test_check_unitary_stack_names_first_bad_block():
    stack = np.array([np.eye(2), np.diag([1.0, 1j]), np.diag([1.0, 1.1]), 2 * np.eye(2)])
    check_unitary(stack[:2], what="block")
    with pytest.raises(NotUnitary, match=r"^block 2 is not unitary to tolerance 1e-10$"):
        check_unitary(stack, what="block")
    check_unitary(np.empty((0, 2, 2)))


def test_wrap_angle_principal_branch():
    assert wrap_angle(np.pi) == pytest.approx(np.pi)
    assert wrap_angle(-np.pi) == pytest.approx(np.pi)
    assert wrap_angle(3 * np.pi) == pytest.approx(np.pi)
    assert wrap_angle(0.1 + 4 * np.pi) == pytest.approx(0.1)
    # Just above pi the modulo rounds to 2 pi; the result must stay in (-pi, pi].
    assert wrap_angle(math.nextafter(math.pi, 4)) == math.pi
    xs = RNG.uniform(-20, 20, 100)
    ws = wrap_angle(xs)
    assert np.all(ws > -np.pi) and np.all(ws <= np.pi)
    assert np.allclose(np.exp(1j * ws), np.exp(1j * xs))


def test_givens_zeroes_target_entry():
    m = haar_unitary(4, RNG)
    block = _givens_block(complex(m[0, 1]), complex(m[2, 1]))
    out = m.copy()
    out[[0, 2], :] = block @ m[[0, 2], :]
    assert abs(out[2, 1]) < 1e-14
    assert out[0, 1].imag == pytest.approx(0.0, abs=1e-14)
    assert out[0, 1].real >= 0
    assert is_unitary(block)


def test_givens_degenerate_column():
    m = np.eye(4, dtype=complex)
    assert _givens_block(complex(m[0, 1]), complex(m[2, 1])) is None


def test_givens_already_zero_is_identity():
    # None tells the elimination loop to leave both rows as they are.
    m = np.eye(4, dtype=complex)
    assert _givens_block(complex(m[1, 1]), complex(m[2, 1])) is None


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_cs_decompose_reconstructs(dim):
    u = haar_unitary(dim, RNG)
    a1, b1, a2, b2, thetas = _cs_decompose(u)
    assert np.max(np.abs(csd_product(a1, b1, a2, b2, thetas) - u)) < 1e-12
    assert np.all(thetas >= 0) and np.all(thetas <= np.pi / 2 + 1e-12)
    for block in (a1, b1, a2, b2):
        assert is_unitary(block, 1e-12)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_demultiplex_factorization(dim):
    a = haar_unitary(dim, RNG)
    b = haar_unitary(dim, RNG)
    v, w, phases = _demultiplex(a, b)
    assert np.max(np.abs(v @ demux_d(phases) @ w - a)) < 1e-12
    assert np.max(np.abs(v @ demux_d(phases).conj().T @ w - b)) < 1e-12


def test_demultiplex_degenerate_pair():
    # A = B forces AB^dagger = I, a fully degenerate eigenproblem.
    a = haar_unitary(4, RNG)
    v, w, phases = _demultiplex(a, a)
    assert np.max(np.abs(v @ demux_d(phases) @ w - a)) < 1e-12


def test_random_unitary_deterministic():
    a = random_unitary(3, seed=7)
    b = random_unitary(3, seed=7)
    assert np.array_equal(a, b)
    assert is_unitary(a, 1e-12)
    assert not np.allclose(a, random_unitary(3, seed=8))


def test_random_unitary_size_guard():
    with pytest.raises(SizeTooLarge):
        random_unitary(13, seed=0)
    with pytest.raises(SizeTooLarge):
        random_unitary(0, seed=0)


def test_phase_distance_zero_modulo_phase():
    u = haar_unitary(8, RNG)
    for gamma in (0.0, 0.7, -2.9, np.pi):
        assert phase_distance(u, np.exp(1j * gamma) * u) < 1e-12


def test_phase_distance_detects_difference():
    u = haar_unitary(4, RNG)
    v = haar_unitary(4, RNG)
    assert phase_distance(u, v) > 1e-2
    with pytest.raises(DimMismatch):
        phase_distance(np.eye(2), np.eye(4))


def _trace_product_distance(u, v):
    """The distance as first written: the trace of the full product U^dagger V, O(8^n)."""
    tr = np.trace(u.conj().T @ v)
    gamma = -np.angle(tr) if tr != 0 else 0.0
    return float(np.linalg.norm(u - np.exp(1j * gamma) * v, "fro"))


@pytest.mark.parametrize("n", range(1, 9))
def test_phase_distance_matches_trace_of_product(n):
    rng = np.random.default_rng(300 + n)
    u, v = haar_unitary(2**n, rng), haar_unitary(2**n, rng)
    assert abs(phase_distance(u, v) - _trace_product_distance(u, v)) <= 1e-12
    for gamma in (0.4, -2.2, np.pi):
        w = np.exp(1j * gamma) * u
        assert abs(phase_distance(u, w) - _trace_product_distance(u, w)) <= 1e-12


def test_phase_distance_no_cancellation_floor():
    # Evaluating the norm at the optimal phase keeps exact matches at the
    # machine floor instead of sqrt(eps).
    u = haar_unitary(64, RNG)
    assert phase_distance(u, np.exp(0.3j) * u) < 1e-12
