"""Quaternion algebra and two-pulse synthesis of single-qubit gates.

Every single-qubit unitary, stripped of its global phase, is a rotation of
the Bloch sphere and hence a unit quaternion.  Composing two equal-duration
pulses about equatorial axes covers the whole rotation group, so any
single-qubit gate becomes exactly two C(theta, phi) pulses plus a phase.
``synthesize_run`` emits fewer where the rotation allows: none for the
identity, one for a rotation about an equatorial axis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .circuit import c_matrix
from .exceptions import SynthesisFailure
from .linalg import DEFAULT_TOL, check_unitary, wrap_angle

__all__ = [
    "Quaternion",
    "AxisAngle",
    "TwoPulse",
    "quaternion_from_unitary",
    "quaternion_to_unitary",
    "quaternion_multiply",
    "to_axis_angle",
    "synthesize_run",
    "two_pulse_synthesis",
]

_AXIS_EPS = 1e-12
# |cos beta| below which a rotation axis counts as equatorial (one pulse).
_EQUATOR_EPS = 1e-9


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion q = w + x i + y j + z k representing a rotation."""

    w: float
    x: float
    y: float
    z: float

    def norm(self):
        return float(np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2))

    def normalized(self):
        n = self.norm()
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)


@dataclass(frozen=True)
class AxisAngle:
    """Rotation by ``alpha`` about the unit ``axis``.

    The axis is also carried in spherical form,
    ``axis = (cos(phi_axis) sin(beta), sin(phi_axis) sin(beta), cos(beta))``.
    """

    alpha: float
    axis: tuple
    beta: float
    phi_axis: float


@dataclass(frozen=True)
class TwoPulse:
    """Pulse pair with ``e^{i gamma} C(theta2, phi2) C(theta1, phi1) = U``.

    Pulse 1 fires first (it is the rightmost matrix factor).  The equal-area
    ansatz forces theta1 = theta2; a degenerate pulse (theta = 0) stands for
    "no pulse emitted".
    """

    theta1: float
    phi1: float
    theta2: float
    phi2: float
    gamma: float

    def reconstruct(self):
        return np.exp(1j * self.gamma) * (
            c_matrix(self.theta2, self.phi2) @ c_matrix(self.theta1, self.phi1)
        )


def quaternion_from_unitary(u, tol=DEFAULT_TOL):
    """Split U into a unit quaternion and a global phase.

    The phase is arg(det U)/2 on the principal branch; the remaining
    special-unitary part maps through U' = wI - i(x sx + y sy + z sz).
    """
    u = np.asarray(u, dtype=complex)
    check_unitary(u, tol.tol_unitary)
    phase = wrap_angle(np.angle(np.linalg.det(u)) / 2.0)
    su = u * np.exp(-1j * phase)
    q = Quaternion(
        w=float(su[0, 0].real),
        x=float(-su[0, 1].imag),
        y=float(-su[0, 1].real),
        z=float(-su[0, 0].imag),
    )
    return q.normalized(), phase


def quaternion_to_unitary(q):
    """Inverse of ``quaternion_from_unitary`` for the special-unitary part."""
    return np.array(
        [
            [q.w - 1j * q.z, -q.y - 1j * q.x],
            [q.y - 1j * q.x, q.w + 1j * q.z],
        ]
    )


def quaternion_multiply(q2, q1):
    """Hamilton product; ``q2`` is the rotation applied after ``q1``."""
    w = q2.w * q1.w - q2.x * q1.x - q2.y * q1.y - q2.z * q1.z
    x = q2.w * q1.x + q2.x * q1.w + q2.y * q1.z - q2.z * q1.y
    y = q2.w * q1.y - q2.x * q1.z + q2.y * q1.w + q2.z * q1.x
    z = q2.w * q1.z + q2.x * q1.y - q2.y * q1.x + q2.z * q1.w
    return Quaternion(w, x, y, z)


def to_axis_angle(q):
    """Angle in [0, 2 pi) and unit axis; identity maps to the +z axis."""
    vec_norm = float(np.hypot(np.hypot(q.x, q.y), q.z))
    if vec_norm <= _AXIS_EPS:
        return AxisAngle(alpha=0.0, axis=(0.0, 0.0, 1.0), beta=0.0, phi_axis=0.0)
    alpha = 2.0 * float(np.arctan2(vec_norm, q.w)) % (2 * np.pi)
    axis = (q.x / vec_norm, q.y / vec_norm, q.z / vec_norm)
    # arccos(axis_z) would lose half its digits near the poles.
    beta = float(np.arctan2(np.hypot(q.x, q.y), q.z))
    phi_axis = float(np.arctan2(axis[1], axis[0]))
    return AxisAngle(alpha=alpha, axis=axis, beta=beta, phi_axis=phi_axis)


def _closed_form(aa):
    """Solve the equal-theta ansatz for a rotation (alpha, beta, phi_axis).

    With s = sin^2(theta/2) and pulse-axis separation -delta, composing the
    two pulses gives
        cos(alpha/2)          = 1 - s (1 + cos delta)
        sin(alpha/2) cos beta = -s sin delta
    so writing P = 1 - cos(alpha/2) and Q = sin(alpha/2) cos beta the pair
    (s, delta) follows in closed form; the azimuth match then fixes the mean
    pulse phase up to a pi flip chosen by the remaining sign condition.
    """
    # P = 1 - cos(alpha/2), written so it cannot underflow to zero for
    # nonzero alpha.
    p = 2.0 * np.sin(aa.alpha / 4.0) ** 2
    q = np.sin(aa.alpha / 2.0) * np.cos(aa.beta)
    delta = 2.0 * np.arctan2(-q, p)
    s = (p * p + q * q) / (2.0 * p)
    s = float(np.clip(s, 0.0, 1.0))
    if s < 0.5:
        theta = 2.0 * np.arcsin(np.sqrt(s))
    else:
        # Near s = 1 (axis close to z) arcsin(sqrt(s)) loses half the
        # significant digits; 1 - s has the stable closed form
        # sin^2(alpha/2) sin^2(beta) / (2P).
        one_minus_s = (np.sin(aa.alpha / 2.0) * np.sin(aa.beta)) ** 2 / (2.0 * p)
        theta = np.pi - 2.0 * np.arcsin(np.sqrt(np.clip(one_minus_s, 0.0, 1.0)))
    phi_mean = np.pi / 2.0 - aa.phi_axis
    # The equatorial component of the composed rotation must point along the
    # target axis, not against it.
    lhs = np.sin(theta) * np.cos(delta / 2.0)
    rhs = np.sin(aa.alpha / 2.0) * np.sin(aa.beta)
    if lhs * rhs < 0:
        phi_mean += np.pi
    return float(theta), delta, phi_mean


def _pulse_quaternion(theta, phi):
    """Quaternion of C(theta, phi): rotation about the equatorial axis at
    azimuth pi/2 - phi."""
    half = theta / 2.0
    a = np.pi / 2.0 - phi
    return Quaternion(np.cos(half), np.sin(half) * np.cos(a), np.sin(half) * np.sin(a), 0.0)


def _equal_pulses(aa):
    """The closed-form pulse pair ``((theta, phi1), (theta, phi2))``, pulse 1 first."""
    theta, delta, phi_mean = _closed_form(aa)
    return (
        (theta, wrap_angle(phi_mean + delta / 2.0)),
        (theta, wrap_angle(phi_mean - delta / 2.0)),
    )


def _pulse_phase(pulses, q, gamma, tol):
    """Global phase with which ``pulses`` (first fired first, or none) realize e^{i gamma} q.

    The pulse quaternions, composed, must match +-q within ``tol.tol_recon``
    (quaternion distance), else ``SynthesisFailure``.  SU(2) factors
    reproduce the quaternion only up to sign; the sign of the quaternion dot
    product resolves the +-pi ambiguity in gamma without touching matrices.
    """
    c = Quaternion(1.0, 0.0, 0.0, 0.0)
    for theta, phi in pulses:
        c = quaternion_multiply(_pulse_quaternion(theta, phi), c)
    sign = 1.0 if c.w * q.w + c.x * q.x + c.y * q.y + c.z * q.z >= 0 else -1.0
    miss = math.dist((c.w, c.x, c.y, c.z), (sign * q.w, sign * q.x, sign * q.y, sign * q.z))
    if miss > tol.tol_recon:
        raise SynthesisFailure(f"pulses miss the target rotation by {miss:.3e}")
    return wrap_angle(gamma + np.pi if sign < 0 else gamma)


def synthesize_run(u, tol=DEFAULT_TOL):
    """C pulses (0, 1 or 2 ``(theta, phi)`` pairs, first fired first) and phase gamma.

    ``e^{i gamma}`` times the pulses, composed, equals the 2x2 unitary ``u``.
    A rotation by less than ``tol.tol_recon`` (modulo 2 pi) is the identity
    and emits nothing; a rotation whose axis lies on the equator is one pulse
    of duration alpha; every other rotation is the equal-theta pulse pair.
    """
    q, gamma = quaternion_from_unitary(u, tol)
    aa = to_axis_angle(q)
    if aa.alpha <= tol.tol_recon or 2 * np.pi - aa.alpha <= tol.tol_recon:
        pulses = ()
    elif abs(np.cos(aa.beta)) < min(_EQUATOR_EPS, tol.tol_recon / 2.0):
        # One pulse misses q by about sin(alpha/2) |cos beta|, so the axis
        # must also lie within tol_recon / 2 of the equator to pass the check.
        pulses = ((aa.alpha, wrap_angle(np.pi / 2.0 - aa.phi_axis)),)
    else:
        pulses = _equal_pulses(aa)
    return pulses, _pulse_phase(pulses, q, gamma, tol)


def two_pulse_synthesis(u, tol=DEFAULT_TOL):
    """Exact two-pulse realization of an arbitrary single-qubit unitary.

    The paper's construction: always two equal pulses, also where
    ``synthesize_run`` would emit fewer; the identity (to within
    ``_AXIS_EPS``) is the degenerate pair theta = 0.
    """
    q, gamma = quaternion_from_unitary(u, tol)
    aa = to_axis_angle(q)
    if aa.alpha <= _AXIS_EPS or 2 * np.pi - aa.alpha <= _AXIS_EPS:
        return TwoPulse(0.0, 0.0, 0.0, 0.0, wrap_angle(gamma + np.pi if q.w < 0 else gamma))
    pulses = _equal_pulses(aa)
    (theta, phi1), (_, phi2) = pulses
    return TwoPulse(theta, phi1, theta, phi2, _pulse_phase(pulses, q, gamma, tol))
