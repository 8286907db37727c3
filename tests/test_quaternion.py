"""Tests for quaternion algebra and two-pulse synthesis."""

import numpy as np
import pytest

from atomqc.circuit import rotation_matrix
from atomqc import quaternion
from atomqc.exceptions import NotUnitary, SynthesisFailure
from atomqc.linalg import haar_unitary, phase_distance
from atomqc.quaternion import (
    Quaternion,
    quaternion_from_unitary,
    quaternion_multiply,
    quaternion_to_unitary,
    to_axis_angle,
    two_pulse_synthesis,
)

RNG = np.random.default_rng(2024)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def test_identity_quaternion():
    q, phase = quaternion_from_unitary(np.eye(2))
    assert (q.w, q.x, q.y, q.z) == pytest.approx((1, 0, 0, 0))
    assert phase == pytest.approx(0.0)


def test_rx_quaternion_form():
    theta = 0.7
    q, phase = quaternion_from_unitary(rotation_matrix("X", theta))
    assert q.w == pytest.approx(np.cos(theta / 2))
    assert q.x == pytest.approx(np.sin(theta / 2))
    assert (q.y, q.z) == pytest.approx((0, 0))
    assert phase == pytest.approx(0.0)


def test_hadamard_quaternion():
    q, phase = quaternion_from_unitary(H)
    aa = to_axis_angle(q)
    assert phase == pytest.approx(np.pi / 2)
    assert aa.alpha == pytest.approx(np.pi)
    assert np.allclose(aa.axis, (1 / np.sqrt(2), 0, 1 / np.sqrt(2)))
    assert aa.beta == pytest.approx(np.pi / 4)
    assert aa.phi_axis == pytest.approx(0.0, abs=1e-12)


def test_quaternion_round_trip_phase_exact():
    for _ in range(300):
        u = haar_unitary(2, RNG)
        q, phase = quaternion_from_unitary(u)
        back = np.exp(1j * phase) * quaternion_to_unitary(q)
        assert np.max(np.abs(back - u)) < 1e-12


def test_quaternion_from_non_unitary():
    with pytest.raises(NotUnitary):
        quaternion_from_unitary(np.ones((2, 2)))


def test_multiply_identity_and_same_axis():
    q, _ = quaternion_from_unitary(H)
    ident = Quaternion(1.0, 0.0, 0.0, 0.0)
    assert quaternion_multiply(q, ident) == q
    qx, _ = quaternion_from_unitary(rotation_matrix("X", np.pi))
    doubled = quaternion_multiply(qx, qx)
    assert abs(abs(doubled.w) - 1.0) < 1e-12  # rotation by 2 pi is +-identity


def test_multiply_composes_rotations():
    qx, _ = quaternion_from_unitary(rotation_matrix("X", np.pi))
    qy, _ = quaternion_from_unitary(rotation_matrix("Y", np.pi))
    qz_expected, _ = quaternion_from_unitary(rotation_matrix("Z", np.pi))
    prod = quaternion_multiply(qy, qx)
    dot = sum(a * b for a, b in zip(
        (prod.w, prod.x, prod.y, prod.z),
        (qz_expected.w, qz_expected.x, qz_expected.y, qz_expected.z),
    ))
    assert abs(abs(dot) - 1.0) < 1e-12


def test_axis_angle_conventions():
    assert to_axis_angle(Quaternion(1, 0, 0, 0)).alpha == 0.0
    assert to_axis_angle(Quaternion(1, 0, 0, 0)).axis == (0.0, 0.0, 1.0)
    qz = Quaternion(np.cos(np.pi / 4), 0.0, 0.0, np.sin(np.pi / 4))
    aa = to_axis_angle(qz)
    assert aa.alpha == pytest.approx(np.pi / 2)
    assert aa.beta == pytest.approx(0.0)


def test_two_pulse_x_example():
    tp = two_pulse_synthesis(X)
    assert tp.theta1 == pytest.approx(np.pi / 2)
    assert tp.theta2 == pytest.approx(np.pi / 2)
    assert tp.phi1 == pytest.approx(np.pi / 2)
    assert tp.phi2 == pytest.approx(np.pi / 2)
    assert abs(tp.gamma) == pytest.approx(np.pi / 2)
    assert phase_distance(tp.reconstruct(), X) < 1e-12


def test_two_pulse_h_example():
    tp = two_pulse_synthesis(H)
    assert tp.theta1 == pytest.approx(2 * np.pi / 3)
    assert tp.theta1 == tp.theta2
    delta = 2 * np.arctan(1 / np.sqrt(2))
    assert sorted((tp.phi1, tp.phi2)) == pytest.approx(
        sorted((np.pi / 2 + delta / 2, np.pi / 2 - delta / 2))
    )
    assert np.max(np.abs(tp.reconstruct() - H)) < 1e-12


def test_two_pulse_identity():
    tp = two_pulse_synthesis(np.eye(2))
    assert tp.theta1 == 0.0 and tp.theta2 == 0.0
    assert tp.gamma == pytest.approx(0.0)


def test_two_pulse_equal_thetas_always():
    for _ in range(100):
        u = haar_unitary(2, RNG)
        tp = two_pulse_synthesis(u)
        assert tp.theta1 == tp.theta2


def test_two_pulse_z_axis_grid():
    # The hardest branch: the rotation axis is the pole, forcing theta = pi.
    for a in np.linspace(-np.pi, np.pi, 101):
        m = rotation_matrix("Z", a)
        tp = two_pulse_synthesis(m)
        assert phase_distance(tp.reconstruct(), m) < 1e-9


def test_two_pulse_extreme_angles():
    for a in (0.0, 1e-9, np.pi, 2 * np.pi - 1e-9):
        for axis in "XYZ":
            m = rotation_matrix(axis, a)
            tp = two_pulse_synthesis(m)
            assert phase_distance(tp.reconstruct(), m) < 1e-9


def test_two_pulse_near_pole_keeps_full_precision():
    # An axis 1e-9 off the pole: arccos(axis_z) would keep only ~1e-9 of it.
    m = rotation_matrix("Z", np.pi / 2) @ rotation_matrix("X", 1e-9)
    tp = two_pulse_synthesis(m)
    assert phase_distance(tp.reconstruct(), m) < 1e-14


def test_two_pulse_rejects_a_missed_rotation(monkeypatch):
    closed_form = quaternion._closed_form

    def bent(aa):
        theta, delta, phi_mean = closed_form(aa)
        return theta + 1e-6, delta, phi_mean

    monkeypatch.setattr(quaternion, "_closed_form", bent)
    with pytest.raises(SynthesisFailure):
        two_pulse_synthesis(haar_unitary(2, np.random.default_rng(5)))
