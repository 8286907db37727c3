"""Single-qubit algebra: ZY angles, quaternions and two-pulse synthesis.

Every single-qubit unitary, stripped of its global phase, is a rotation of
the Bloch sphere and hence a unit quaternion.  Composing two equal-duration
pulses about equatorial axes covers the whole rotation group, so any
single-qubit gate becomes exactly two C(theta, phi) pulses plus a phase.
``synthesize_runs`` emits fewer where the rotation allows: none for the
identity, one for a rotation about an equatorial axis.

The helpers are elementwise: a ``(2, 2)`` unitary gives float fields, a
stack of shape ``(m, 2, 2)`` gives arrays of length ``m``, through the same
code.
"""

from dataclasses import dataclass

import numpy as np

from .circuit import c_matrix
from .exceptions import NotUnitary, SynthesisFailure
from .linalg import TOL_UNITARY, TOL_ZERO, check_unitary, unitarity_defect, wrap_angle

__all__ = [
    "TOL_RECON",
    "ZyAngles",
    "zy_decompose",
    "Quaternion",
    "AxisAngle",
    "TwoPulse",
    "quaternion_from_unitary",
    "quaternion_to_unitary",
    "quaternion_multiply",
    "to_axis_angle",
    "synthesize_run",
    "synthesize_runs",
    "two_pulse_synthesis",
]

# Quaternion distance within which composed pulses must reproduce a run.
TOL_RECON = 1e-8
# |cos beta| below which a rotation axis counts as equatorial (one pulse).
_EQUATOR_EPS = 1e-9


def _pick(cond, a, b):
    """``np.where`` that gives a numpy scalar, not a 0-d array, for scalar input."""
    return np.where(cond, a, b)[()]


def _reject(exc_type, bad, values, what):
    """Raise ``exc_type`` for the first row where ``bad`` holds, naming its value.

    The exception's ``row`` attribute is the index of that row.
    """
    rows = np.flatnonzero(bad)
    if rows.size:
        exc = exc_type(f"{what} {np.ravel(values)[rows[0]]:.3e}")
        exc.row = int(rows[0])
        raise exc


@dataclass(frozen=True)
class ZyAngles:
    """U = e^{i alpha} RZ(beta) RY(gamma) RZ(delta), gamma in [0, pi]."""

    alpha: float
    beta: float
    gamma: float
    delta: float


def zy_decompose(u):
    u = np.asarray(u, dtype=complex)
    check_unitary(u, what="2x2 input")
    alpha = wrap_angle(np.angle(np.linalg.det(u)) / 2.0)
    su = u * np.exp(-1j * alpha)
    gamma = 2.0 * np.arctan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) < TOL_ZERO:
        # gamma = pi: only beta - delta is fixed.
        a = np.angle(su[1, 0])
        beta, delta = a, -a
    elif abs(su[1, 0]) < TOL_ZERO:
        # gamma = 0: only beta + delta is fixed.
        beta, delta = -2.0 * np.angle(su[0, 0]), 0.0
    else:
        beta = np.angle(su[1, 0]) - np.angle(su[0, 0])
        delta = -np.angle(su[1, 0]) - np.angle(su[0, 0])
    # Wrapping beta or delta by 2pi flips the sign of its RZ; compensate an
    # odd number of flips through alpha so reconstruction stays exact.
    flips = 0
    wrapped = []
    for raw in (beta, delta):
        w = wrap_angle(raw)
        flips += round((raw - w) / (2 * np.pi))
        wrapped.append(w)
    if flips % 2:
        alpha = wrap_angle(alpha + np.pi)
    return ZyAngles(alpha, wrapped[0], float(gamma), wrapped[1])


@dataclass(frozen=True)
class Quaternion:
    """Unit quaternion q = w + x i + y j + z k representing a rotation.

    Fields are floats, or equal-shape arrays for a batch of rotations.
    """

    w: float
    x: float
    y: float
    z: float

    def norm(self):
        return np.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def normalized(self):
        n = self.norm()
        return Quaternion(self.w / n, self.x / n, self.y / n, self.z / n)


@dataclass(frozen=True)
class AxisAngle:
    """Rotation by ``alpha`` about the unit ``axis``.

    The axis is also carried in spherical form,
    ``axis = (cos(phi_axis) sin(beta), sin(phi_axis) sin(beta), cos(beta))``.
    Fields are floats, or arrays for a batch, like ``Quaternion``'s.
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
    "no pulse emitted", so a one-pulse run has theta2 = 0.  Fields are
    floats, or arrays for the runs of ``synthesize_runs``; ``reconstruct``
    takes floats.
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


def quaternion_from_unitary(u):
    """Split U, a 2x2 unitary or a stack of them, into unit quaternions and global phases.

    The phase is arg(det U)/2 on the principal branch; the remaining
    special-unitary part maps through U' = wI - i(x sx + y sy + z sz).
    Raises ``NotUnitary`` for the first matrix off unitarity by more than
    ``TOL_UNITARY``.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape[-2:] != (2, 2):
        raise NotUnitary(f"expected 2x2 matrices, got shape {u.shape}")
    defect = unitarity_defect(u)
    _reject(NotUnitary, ~(defect <= TOL_UNITARY), defect,
            f"not unitary to tolerance {TOL_UNITARY:g}: defect")
    phase = wrap_angle(np.angle(np.linalg.det(u)) / 2.0)
    su = u * np.exp(-1j * np.asarray(phase))[..., None, None]
    q = Quaternion(
        w=su[..., 0, 0].real,
        x=-su[..., 0, 1].imag,
        y=-su[..., 0, 1].real,
        z=-su[..., 0, 0].imag,
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
    vec_norm = np.hypot(np.hypot(q.x, q.y), q.z)
    ident = vec_norm <= TOL_ZERO
    safe_norm = _pick(ident, 1.0, vec_norm)
    axis = (
        _pick(ident, 0.0, q.x / safe_norm),
        _pick(ident, 0.0, q.y / safe_norm),
        _pick(ident, 1.0, q.z / safe_norm),
    )
    alpha = _pick(ident, 0.0, 2.0 * np.arctan2(vec_norm, q.w) % (2 * np.pi))
    # arccos(axis_z) would lose half its digits near the poles.
    beta = _pick(ident, 0.0, np.arctan2(np.hypot(q.x, q.y), q.z))
    phi_axis = _pick(ident, 0.0, np.arctan2(axis[1], axis[0]))
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
    # P = 0 only for the identity, whose rows the caller masks out.
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.clip((p * p + q * q) / (2.0 * p), 0.0, 1.0)
        # Near s = 1 (axis close to z) arcsin(sqrt(s)) loses half the
        # significant digits; 1 - s has the stable closed form
        # sin^2(alpha/2) sin^2(beta) / (2P).
        one_minus_s = (np.sin(aa.alpha / 2.0) * np.sin(aa.beta)) ** 2 / (2.0 * p)
    theta = _pick(
        s < 0.5,
        2.0 * np.arcsin(np.sqrt(s)),
        np.pi - 2.0 * np.arcsin(np.sqrt(np.clip(one_minus_s, 0.0, 1.0))),
    )
    phi_mean = np.pi / 2.0 - aa.phi_axis
    # The equatorial component of the composed rotation must point along the
    # target axis, not against it.
    lhs = np.sin(theta) * np.cos(delta / 2.0)
    rhs = np.sin(aa.alpha / 2.0) * np.sin(aa.beta)
    phi_mean = _pick(lhs * rhs < 0, phi_mean + np.pi, phi_mean)
    return theta, delta, phi_mean


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
    """Global phase with which ``pulses`` (first fired first) realize e^{i gamma} q.

    A pulse with theta = 0 is the identity, so one call checks runs of 0, 1
    and 2 pulses together.  The pulse quaternions, composed, must match +-q
    within ``tol`` (quaternion distance), else ``SynthesisFailure``; ``tol``
    must be positive, else ``ValueError``.
    SU(2) factors reproduce the quaternion only up to sign; the sign of the
    quaternion dot product resolves the +-pi ambiguity in gamma without
    touching matrices.
    """
    if not tol > 0:  # also rejects nan
        raise ValueError(f"tol must be positive, got {tol}")
    c = Quaternion(1.0, 0.0, 0.0, 0.0)
    for theta, phi in pulses:
        c = quaternion_multiply(_pulse_quaternion(theta, phi), c)
    sign = _pick(c.w * q.w + c.x * q.x + c.y * q.y + c.z * q.z >= 0, 1.0, -1.0)
    miss = np.sqrt(
        (c.w - sign * q.w) ** 2 + (c.x - sign * q.x) ** 2
        + (c.y - sign * q.y) ** 2 + (c.z - sign * q.z) ** 2
    )
    _reject(SynthesisFailure, ~(miss <= tol), miss,
            "pulses miss the target rotation by")
    return wrap_angle(_pick(sign < 0, gamma + np.pi, gamma))


def synthesize_runs(us, tol=TOL_RECON):
    """Pulse counts and pulses for a stack ``us`` of fused 2x2 runs, shape ``(m, 2, 2)``.

    Returns ``(counts, pulses)``: ``counts[i]`` is 0, 1 or 2, and ``pulses``
    is a ``TwoPulse`` of length-m arrays with
    ``e^{i gamma} C(theta2, phi2) C(theta1, phi1) = us[i]``, where the
    pulses beyond ``counts[i]`` have theta = phi = 0.  A rotation by less
    than ``tol`` (modulo 2 pi) is the identity and emits nothing;
    a rotation whose axis lies on the equator is one pulse of duration
    alpha; every other rotation is the equal-theta pulse pair.  Every run
    passes the unitarity and the acceptance check; a miss raises
    ``NotUnitary`` or ``SynthesisFailure`` whose ``row`` is the first
    failing run.
    """
    q, gamma = quaternion_from_unitary(us)
    aa = to_axis_angle(q)
    identity = (aa.alpha <= tol) | (2 * np.pi - aa.alpha <= tol)
    # One pulse misses q by about sin(alpha/2) |cos beta|, so the axis
    # must also lie within tol / 2 of the equator to pass the check.
    one = ~identity & (np.abs(np.cos(aa.beta)) < min(_EQUATOR_EPS, tol / 2.0))
    counts = np.select([identity, one], [0, 1], 2)
    (theta, phi1), (_, phi2) = _equal_pulses(aa)
    theta1 = np.select([identity, one], [0.0, aa.alpha], theta)
    phi1 = np.select([identity, one], [0.0, wrap_angle(np.pi / 2.0 - aa.phi_axis)], phi1)
    theta2 = np.where(counts == 2, theta, 0.0)
    phi2 = np.where(counts == 2, phi2, 0.0)
    gamma = _pulse_phase(((theta1, phi1), (theta2, phi2)), q, gamma, tol)
    return counts, TwoPulse(theta1, phi1, theta2, phi2, gamma)


def synthesize_run(u, tol=TOL_RECON):
    """C pulses (0, 1 or 2 ``(theta, phi)`` pairs, first fired first) and phase gamma.

    ``e^{i gamma}`` times the pulses, composed, equals the 2x2 unitary ``u``:
    the one-run case of ``synthesize_runs``.
    """
    counts, tp = synthesize_runs(np.asarray(u)[None], tol)
    pulses = ((tp.theta1[0], tp.phi1[0]), (tp.theta2[0], tp.phi2[0]))
    return pulses[: counts[0]], tp.gamma[0]


def two_pulse_synthesis(u, tol=TOL_RECON):
    """Exact two-pulse realization of an arbitrary single-qubit unitary.

    The paper's construction: always two equal pulses, also where
    ``synthesize_run`` would emit fewer; the identity (to within
    ``TOL_ZERO``) is the degenerate pair theta = 0.
    """
    q, gamma = quaternion_from_unitary(u)
    aa = to_axis_angle(q)
    identity = aa.alpha <= TOL_ZERO or 2 * np.pi - aa.alpha <= TOL_ZERO
    pulses = ((0.0, 0.0), (0.0, 0.0)) if identity else _equal_pulses(aa)
    (theta, phi1), (_, phi2) = pulses
    return TwoPulse(theta, phi1, theta, phi2, _pulse_phase(pulses, q, gamma, tol))
