"""Tests for the neutral-atom retargeting pass."""

import numpy as np
import pytest
from reference import synthesize_run

from atomqc import circuit as cir
from atomqc import quaternion, retarget
from atomqc.exceptions import NotUnitary, SynthesisFailure, UnsupportedGate
from atomqc.formats import emit_sequence
from atomqc.linalg import (
    haar_unitary,
    phase_distance,
    random_unitary,
)
from atomqc.qsd import qsd_compile
from atomqc.quaternion import TOL_RECON
from atomqc.retarget import retarget_circuit
from atomqc.simulate import circuit_unitary

RNG = np.random.default_rng(31)

NATIVE = {"C", "CZ", "CCZ"}


def _check_equivalent(before, after):
    assert phase_distance(circuit_unitary(after), circuit_unitary(before)) < 1e-8


def test_cnot_becomes_cz_sandwich():
    before = cir.Circuit(2, (cir.cnot(0, 1),))
    after = retarget_circuit(before)
    kinds = [g.kind for g in after.gates]
    assert kinds.count("CZ") == 1
    assert set(kinds) <= NATIVE
    _check_equivalent(before, after)


def test_toffoli_becomes_ccz_sandwich():
    before = cir.Circuit(3, (cir.toffoli(0, 1, 2),))
    after = retarget_circuit(before)
    kinds = [g.kind for g in after.gates]
    assert kinds.count("CCZ") == 1
    assert "CZ" not in kinds
    _check_equivalent(before, after)


def test_identity_run_dropped():
    before = cir.Circuit(1, (cir.h(0), cir.h(0)))
    after = retarget_circuit(before)
    assert len(after.gates) == 0
    _check_equivalent(before, after)


def test_x_is_single_pulse():
    # X rotates about an equatorial axis, so the one-pulse shortcut fires.
    before = cir.Circuit(1, (cir.x(0),))
    after = retarget_circuit(before)
    assert [g.kind for g in after.gates] == ["C"]
    _check_equivalent(before, after)


def test_run_fusion_two_pulses_max():
    gates = tuple(cir.rz(float(a), 0) for a in RNG.uniform(0, 6, 4))
    gates += (cir.h(0), cir.rx(0.3, 0))
    before = cir.Circuit(1, gates)
    after = retarget_circuit(before)
    assert len(after.gates) <= 2
    _check_equivalent(before, after)


def test_entangling_counts_preserved():
    u = random_unitary(3, seed=12)
    c = qsd_compile(u)
    before = cir.gate_counts(c)
    after = cir.gate_counts(retarget_circuit(c))
    assert after.get("CZ") == before.get("CNOT") + before.get("CZ")
    assert after.get("CCZ") == before.get("MCX") + before.get("CCZ")
    assert after.entangling_total == before.entangling_total


def test_existing_cz_ccz_pass_through():
    before = cir.Circuit(3, (cir.cz(0, 1), cir.ccz(0, 1, 2)))
    after = retarget_circuit(before)
    assert [g.kind for g in after.gates] == ["CZ", "CCZ"]


def test_pipeline_three_qubits():
    u = random_unitary(3, seed=3)
    after = retarget_circuit(qsd_compile(u))
    assert set(g.kind for g in after.gates) <= NATIVE
    assert phase_distance(circuit_unitary(after), u) < 1e-7


def test_runs_respect_entangling_boundaries():
    before = cir.Circuit(
        2, (cir.h(1), cir.cz(0, 1), cir.h(1))
    )  # this is a CNOT(0,1) spelled out
    after = retarget_circuit(before)
    # The two H runs sit on opposite sides of the CZ and cannot merge.
    cz_at = [i for i, g in enumerate(after.gates) if g.kind == "CZ"]
    assert len(cz_at) == 1
    assert any(i < cz_at[0] for i, g in enumerate(after.gates) if g.kind == "C")
    assert any(i > cz_at[0] for i, g in enumerate(after.gates) if g.kind == "C")
    _check_equivalent(before, after)


def test_global_phase_accumulates():
    gates = (cir.x(0), cir.phase(0.9, 0), cir.cnot(0, 1), cir.h(1))
    before = cir.Circuit(2, gates, global_phase=0.4)
    after = retarget_circuit(before)
    assert np.max(np.abs(circuit_unitary(after) - circuit_unitary(before))) < 1e-10


def test_unsupported_gate_rejected():
    c = cir.Circuit(4, (cir.mcx((0, 1, 2), 3),))
    with pytest.raises(UnsupportedGate):
        retarget_circuit(c)


def test_rewrite_memo_keys_on_polarities():
    # A Toffoli and an MCX with a |0> control on the same qubits are
    # different gates: the second must not reuse the first's rewrite.
    c = cir.Circuit(3, (cir.toffoli(0, 1, 2), cir.mcx((0, 1), 2, (1, 0))))
    with pytest.raises(UnsupportedGate):
        retarget_circuit(c)


def test_rewrite_memo_keeps_each_gate_output():
    # Repeated CNOTs share one rewrite, yet the circuit retargets to the
    # gates and SEQUENCE lines of each CNOT retargeted on its own.
    pair = (cir.cnot(0, 1), cir.cnot(1, 0))
    after = retarget_circuit(cir.Circuit(2, pair * 40))
    alone = [retarget_circuit(cir.Circuit(2, (g,))) for g in pair]
    assert after.gates == (alone[0].gates + alone[1].gates) * 40
    header = ["SEQUENCE 1", "QUBITS 2"]

    def body(c):
        lines = emit_sequence(c).splitlines()
        assert lines[:2] == header
        return [line for line in lines[2:] if not line.startswith("PHASE ")]

    assert body(after) == (body(alone[0]) + body(alone[1])) * 40


def _near_equator(cos_b):
    """Rotation by 1 rad about an axis with cos(beta) = ``cos_b``."""
    sin_b = np.sqrt(1.0 - cos_b**2)
    n_sigma = np.array(
        [[cos_b, sin_b * np.exp(-0.3j)], [sin_b * np.exp(0.3j), -cos_b]]
    )
    return np.cos(0.5) * np.eye(2) - 1j * np.sin(0.5) * n_sigma


def _pulse_miss(u, tol=TOL_RECON):
    """Pulse count of ``u`` and how far its pulses and phase land from it."""
    pulses, gamma = synthesize_run(u, tol)
    recon = np.exp(1j * gamma) * np.eye(2)
    for theta, phi in pulses:
        recon = cir.c_matrix(theta, phi) @ recon
    return len(pulses), np.max(np.abs(recon - u))


def test_synthesize_run_counts():
    pulses, _ = synthesize_run(np.eye(2, dtype=complex))
    assert pulses == ()
    # An axis 5e-10 off the equator: one pulse would miss q by ~2.4e-10,
    # more than a tol of 1e-10, so this run needs the pulse pair.
    cases = [(haar_unitary(2, RNG), TOL_RECON) for _ in range(50)]
    cases.append((_near_equator(5e-10), 1e-10))
    for u, tol in cases:
        count, miss = _pulse_miss(u, tol)
        assert count <= 2
        assert miss < 1e-9


def test_near_equator_axis_takes_exact_pulse_pair():
    # At the default tol one pulse would miss this run by ~2.4e-10; only an
    # axis within TOL_ZERO of the equator takes the one-pulse shortcut.
    count, miss = _pulse_miss(_near_equator(5e-10))
    assert count == 2
    assert miss < 1e-12


def test_tiny_rotation_is_kept():
    # A 1e-8 rotation is below tol but far above TOL_ZERO: dropping it would
    # leave the retargeted circuit 7e-9 away, outside the promised 1e-9.
    u = np.diag([1.0, np.exp(1e-8j)])
    after = retarget_circuit(cir.Circuit(1, (cir.u1q(u, 0),)))
    assert phase_distance(circuit_unitary(after), u) < 1e-9


def _run_pulses(u, q):
    pulses, _ = synthesize_run(u)
    return [cir.c_gate(theta, phi, q) for theta, phi in pulses]


def _assert_same_gates(got, expect):
    assert [(g.kind, g.qubits) for g in got] == [(e.kind, e.qubits) for e in expect]
    for g, e in zip(got, expect):
        assert g.params == pytest.approx(e.params, abs=1e-12)


def test_runs_interleaving():
    # Gates on other qubits must not break a run; touching gates must.
    before = cir.Circuit(
        2,
        (
            cir.h(0),        # run on q0 begins
            cir.x(1),        # run on q1 begins
            cir.rz(0.3, 0),  # still the q0 run
            cir.cnot(0, 1),  # H on q1 joins its run, CZ breaks both, H opens a q1 run
            cir.h(1),        # cancels that H: the new q1 run is the identity
        ),
    )
    after = retarget_circuit(before)
    h = cir.gate_local_matrix(cir.h(0))
    q0_run = cir.gate_local_matrix(cir.rz(0.3, 0)) @ h
    q1_run = h @ cir.gate_local_matrix(cir.x(1))
    expect = _run_pulses(q0_run, 0) + _run_pulses(q1_run, 1) + [cir.cz(0, 1)]
    assert len(expect) == 4  # q0 takes two pulses, q1 one
    _assert_same_gates(after.gates, expect)
    _check_equivalent(before, after)


def test_runs_empty_and_ordering():
    assert retarget_circuit(cir.Circuit(2, (cir.cz(0, 1),))).gates == (cir.cz(0, 1),)
    # Pulses sit where each run began, not where it was closed: the CZ closes
    # q0's run first, yet q1's run began first.
    h = cir.gate_local_matrix(cir.h(0))
    for tail in ((), (cir.cz(0, 1),)):
        before = cir.Circuit(2, (cir.h(1), cir.h(0), cir.rz(0.3, 1)) + tail)
        after = retarget_circuit(before)
        q1_run = cir.gate_local_matrix(cir.rz(0.3, 1)) @ h
        _assert_same_gates(after.gates, _run_pulses(q1_run, 1) + _run_pulses(h, 0) + list(tail))
        _check_equivalent(before, after)


def test_pulse_angles_in_range():
    # The pulse phase lands a hair below 0, and mod 2 pi once rounded it to 2 pi.
    after = retarget_circuit(cir.Circuit(1, (cir.rz(np.pi / 2, 0), cir.ry(np.pi / 2, 0))))
    assert after.gates and all(g.kind == "C" for g in after.gates)
    for g in after.gates:
        assert all(0.0 <= p < 2 * np.pi for p in g.params)


def test_one_synthesis_call_and_no_hadamard_gates(monkeypatch):
    # Every run of a circuit goes through one batched synthesis, and the
    # rewrite's Hadamards enter the runs as matrices, never as Gate objects.
    calls, kinds = [], []
    real_synth, real_init = retarget.synthesize_runs, cir.Gate.__post_init__

    def synth(us, tol):
        calls.append(len(us))
        return real_synth(us, tol)

    def init(g):
        kinds.append(g.kind)
        real_init(g)

    c = qsd_compile(random_unitary(3, seed=3))
    monkeypatch.setattr(retarget, "synthesize_runs", synth)
    monkeypatch.setattr(cir.Gate, "__post_init__", init)
    after = retarget_circuit(c)
    assert len(calls) == 1 and calls[0] > 1
    assert "H" not in kinds
    _check_equivalent(c, after)


def test_failing_run_is_named(monkeypatch):
    # Runs: q0 from gate 0 (X, one pulse), q0 from gate 2 (RZ, two pulses),
    # q1 from gate 3 (the CNOT's first H) and q1 after its CZ.
    c = cir.Circuit(2, (cir.x(0), cir.cz(0, 1), cir.rz(0.3, 0), cir.cnot(0, 1)))
    closed_form = quaternion._closed_form

    def bent(aa):
        theta, delta, phi_mean = closed_form(aa)
        return theta + 1e-6, delta, phi_mean

    monkeypatch.setattr(quaternion, "_closed_form", bent)
    with pytest.raises(SynthesisFailure,
                       match=r"run on qubit 0 from input gate 2: pulses miss .* by \d\.\d+e-\d+"):
        retarget_circuit(c)
    monkeypatch.undo()
    # X is exactly unitary; the U1 on qubit 1 is not.
    bad = cir.Gate("U1", (1,), matrix=np.diag([1.0, 1.1]))
    with pytest.raises(NotUnitary,
                       match=r"run on qubit 1 from input gate 1: not unitary .* defect \d"):
        retarget_circuit(cir.Circuit(2, (cir.x(0), bad)))


def test_tol_must_be_positive():
    c = cir.Circuit(1, (cir.h(0),))
    for tol in (0.0, -1e-8, float("nan")):
        with pytest.raises(ValueError, match="tol must be positive"):
            retarget_circuit(c, tol)
