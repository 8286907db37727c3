"""Tests for the neutral-atom retargeting pass."""

import numpy as np
import pytest

from atomqc import circuit as cir
from atomqc.exceptions import UnsupportedGate
from atomqc.linalg import haar_unitary, phase_distance, random_unitary
from atomqc.qsd import qsd_compile
from atomqc.retarget import retarget_circuit, synthesize_run
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


def test_synthesize_run_counts():
    pulses, _ = synthesize_run(np.eye(2, dtype=complex))
    assert pulses == ()
    for _ in range(50):
        u = haar_unitary(2, RNG)
        pulses, gamma = synthesize_run(u)
        assert len(pulses) <= 2
        recon = np.exp(1j * gamma) * np.eye(2)
        for kind, (theta, phi) in pulses:
            assert kind == "C"
            recon = cir.c_matrix(theta, phi) @ recon
        assert np.max(np.abs(recon - u)) < 1e-9
