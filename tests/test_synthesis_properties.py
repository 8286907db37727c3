"""Property tests of batched run synthesis on structured and near-degenerate runs.

Each example is a batch of 2x2 runs: identities and +-I, X/Y/H and
equatorial rotations, Z rotations, axes a hair off the equator or the pole,
rotation angles near 0, pi and 2 pi, and Haar samples.  The batch must give,
row by row, what ``synthesize_run`` gives for that run alone, and every row
must reconstruct its run.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from atomqc.circuit import c_matrix
from atomqc.linalg import haar_unitary
from atomqc.quaternion import TOL_RECON, synthesize_run, synthesize_runs

PI = np.pi
SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _rotation(alpha, beta, phi, gamma):
    """e^{i gamma} times the rotation by alpha about the axis at polar beta, azimuth phi."""
    axis = (np.sin(beta) * np.cos(phi), np.sin(beta) * np.sin(phi), np.cos(beta))
    n_sigma = sum(a * s for a, s in zip(axis, SIGMA))
    return np.exp(1j * gamma) * (np.cos(alpha / 2) * np.eye(2) - 1j * np.sin(alpha / 2) * n_sigma)


def _near(centres):
    """A centre, or a centre moved by +-1e-15..1e-9."""
    tiny = st.builds(lambda s, e: s * 10.0**e, st.sampled_from([-1.0, 1.0]), st.floats(-15, -9))
    return st.builds(lambda c, d: c + d, st.sampled_from(centres), st.one_of(st.just(0.0), tiny))


angle = st.floats(-PI, PI)
alphas = st.one_of(st.floats(0, 2 * PI), _near([0.0, PI, 2 * PI]))
# The pole (0, pi), the equator (pi/2) and axes just off them, or anywhere.
betas = st.one_of(st.floats(0, PI), _near([0.0, PI / 2, PI]))
named = st.sampled_from([
    np.eye(2),
    -np.eye(2),
    SIGMA[0],
    SIGMA[1],
    (SIGMA[0] + SIGMA[2]) / np.sqrt(2),
    SIGMA[2],
])
phased_identity = angle.map(lambda g: np.exp(1j * g) * np.eye(2))
equatorial = st.builds(_rotation, alphas, st.just(PI / 2), angle, angle)
polar = st.builds(_rotation, alphas, st.sampled_from([0.0, PI]), angle, angle)
structured = st.builds(_rotation, alphas, betas, angle, angle)
haar = st.integers(0, 2**32 - 1).map(lambda seed: haar_unitary(2, np.random.default_rng(seed)))
runs = st.lists(
    st.one_of(named, phased_identity, equatorial, polar, structured, haar),
    min_size=1,
    max_size=12,
)
tolerances = st.sampled_from([TOL_RECON, 1e-10])


def _angle_gap(a, b):
    d = (a - b) % (2 * PI)
    return min(d, 2 * PI - d)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(runs, tolerances)
def test_batch_matches_each_run_alone(us, tol):
    us = np.array(us)
    counts, tp = synthesize_runs(us, tol)
    for i, u in enumerate(us):
        pulses, gamma = synthesize_run(u, tol)
        assert counts[i] == len(pulses)
        row = ((tp.theta1[i], tp.phi1[i]), (tp.theta2[i], tp.phi2[i]))
        for (theta, phi), (b_theta, b_phi) in zip(pulses, row):
            assert abs(theta - b_theta) <= 1e-12
            assert _angle_gap(phi, b_phi) <= 1e-12
        assert _angle_gap(gamma, tp.gamma[i]) <= 1e-12
        # Pulses beyond the count are theta = 0, the identity.
        recon = np.exp(1j * tp.gamma[i]) * c_matrix(*row[1]) @ c_matrix(*row[0])
        assert np.max(np.abs(recon - u)) < 1e-9
