"""Tests for the dense simulator and verification metrics."""

import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_compiler_inputs import FAMILIES

from atomqc import circuit as cir
from atomqc.circuit import c_matrix, rotation_matrix
from atomqc.exceptions import DimMismatch, QubitOutOfRange, SizeTooLarge
from atomqc.formats import parse_qasm
from atomqc.linalg import haar_unitary, random_unitary
from atomqc.qrd import qrd_compile
from atomqc.qsd import qsd_compile
from atomqc.retarget import retarget_circuit
from atomqc.simulate import (
    _MIN_BATCH,
    _build_blocks,
    apply_circuit,
    apply_gate,
    circuit_unitary,
    cnot_lower_bound,
    gate_matrix,
    verify,
)

CORPUS = pathlib.Path(__file__).parent / "qasm_corpus"
RNG = np.random.default_rng(99)

H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)


def test_h_embedding_big_endian():
    # Qubit 0 is the most significant bit of the basis index.
    assert np.allclose(gate_matrix(cir.h(0), 2), np.kron(H, np.eye(2)))
    assert np.allclose(gate_matrix(cir.h(1), 2), np.kron(np.eye(2), H))


def test_cnot_matrix():
    assert np.allclose(gate_matrix(cir.cnot(0, 1), 2), CNOT)


def test_cnot_reversed_control():
    # Control on the less significant qubit swaps |01> and |11>.
    m = gate_matrix(cir.cnot(1, 0), 2)
    expect = np.eye(4)[:, [0, 3, 2, 1]]
    assert np.allclose(m, expect)


def test_c_gate_example():
    assert np.allclose(c_matrix(np.pi, np.pi / 2), [[0, -1j], [-1j, 0]])


def test_c_gate_phi_zero_is_ry():
    theta = 1.234
    assert np.allclose(c_matrix(theta, 0.0), rotation_matrix("Y", theta))
    with pytest.raises(ValueError, match="unknown axis 'W'"):
        rotation_matrix("W", 0.1)


def test_polarity_and_diag_phase_semantics():
    g = cir.mcu((0,), 1, np.array([[0, 1], [1, 0]], dtype=complex), polarities=(0,))
    m = gate_matrix(g, 2)
    expect = np.eye(4)[:, [1, 0, 2, 3]]  # X fires when the control is |0>
    assert np.allclose(m, expect)
    d = cir.diag_phase((0, 1), (1, 0), 0.5)
    m = gate_matrix(d, 2)
    assert np.allclose(np.diag(m), [1, 1, np.exp(0.5j), 1])


def test_gate_matrix_out_of_range():
    with pytest.raises(QubitOutOfRange):
        gate_matrix(cir.h(3), 2)


def test_circuit_unitary_identities():
    assert np.allclose(circuit_unitary(cir.Circuit(2)), np.eye(4))
    c = cir.Circuit(1, (cir.h(0), cir.h(0)))
    assert np.max(np.abs(circuit_unitary(c) - np.eye(2))) < 1e-14


def test_h_conjugation_gives_cnot():
    c = cir.Circuit(2, (cir.h(1), cir.cz(0, 1), cir.h(1)))
    assert np.max(np.abs(circuit_unitary(c) - CNOT)) < 1e-12


def test_time_order_is_left_multiplication():
    c = cir.Circuit(1, (cir.x(0), cir.h(0)))
    x = gate_matrix(cir.x(0), 1)
    assert np.allclose(circuit_unitary(c), np.kron(1, H) @ x)


def test_global_phase_applied():
    c = cir.Circuit(1, (), global_phase=0.7)
    assert np.allclose(circuit_unitary(c), np.exp(0.7j) * np.eye(2))


def test_homomorphism_over_concatenation():
    gates = tuple(
        cir.ry(float(a), int(q)) for a, q in zip(RNG.uniform(0, 6, 6), RNG.integers(0, 3, 6))
    ) + (cir.cnot(0, 2), cir.cz(1, 2))
    c1 = cir.Circuit(3, gates[:4])
    c2 = cir.Circuit(3, gates[4:])
    whole = cir.Circuit(3, gates)
    assert np.max(np.abs(
        circuit_unitary(c2) @ circuit_unitary(c1) - circuit_unitary(whole)
    )) < 1e-12


def test_every_gate_matrix_unitary():
    gates = [
        cir.rx(0.3, 0), cir.ry(1.0, 1), cir.rz(2.2, 0), cir.h(0), cir.x(1),
        cir.c_gate(0.5, 1.1, 0), cir.phase(0.4, 1),
        cir.u1q(haar_unitary(2, RNG), 0),
        cir.cnot(0, 1), cir.cz(0, 1), cir.mcu((0,), 1, haar_unitary(2, RNG)),
        cir.toffoli(0, 1, 2), cir.ccz(0, 1, 2),
        cir.mcu((0, 1), 2, haar_unitary(2, RNG), (1, 0)),
        cir.diag_phase((0, 1, 2), (1, 1, 0), 1.3),
    ]
    for g in gates:
        m = gate_matrix(g, 3)
        assert np.max(np.abs(m.conj().T @ m - np.eye(8))) < 1e-13, g.kind


def test_size_cap():
    with pytest.raises(SizeTooLarge):
        circuit_unitary(cir.Circuit(13))


@pytest.mark.parametrize("n,expected", [(1, 0), (2, 3), (3, 14), (4, 61)])
def test_cnot_lower_bound(n, expected):
    assert cnot_lower_bound(n) == expected


def test_verify_report_and_sensitivity():
    c = cir.Circuit(2, (cir.h(1), cir.cz(0, 1), cir.h(1)))
    report = verify(c, CNOT, tol=1e-7)
    assert report.passed and report.distance < 1e-12
    assert report.lower_bound == 3
    corrupted = cir.Circuit(2, (cir.h(1), cir.cz(0, 1), cir.h(1), cir.rz(1e-3, 0)))
    report = verify(corrupted, CNOT, tol=1e-7)
    assert not report.passed
    assert report.distance > 1e-4



# An independent reference for the shared row-pair kernel: every gate's full
# matrix as I - P_c (x) I + P_c (x) B, built with np.kron from the gate's
# definition alone, with no atomqc matrix or kernel code.
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def _kron_all(n, factors):
    """Kronecker product over qubits 0..n-1, qubit 0 leftmost, of ``factors.get(q, I)``."""
    out = np.eye(1, dtype=complex)
    for q in range(n):
        out = np.kron(out, factors.get(q, np.eye(2)))
    return out


def _reference_block(g):
    """The 2x2 a gate applies to its last qubit, from the textbook definitions."""
    t = g.params[0] if g.params else 0.0
    c, s = np.cos(t / 2), np.sin(t / 2)
    if g.kind == "RX":
        return np.array([[c, -1j * s], [-1j * s, c]])
    if g.kind == "RY":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if g.kind == "RZ":
        return np.diag([np.exp(-1j * t / 2), np.exp(1j * t / 2)])
    if g.kind == "C":
        phi = g.params[1]
        return np.array([[c, -np.exp(1j * phi) * s], [np.exp(-1j * phi) * s, c]])
    if g.kind == "PHASE":
        return np.diag([1.0, np.exp(1j * t)])
    if g.kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    if g.kind in ("X", "CNOT", "MCX"):
        return X
    if g.kind in ("CZ", "CCZ"):
        return Z
    return g.matrix  # U1, MCU


def _reference_matrix(g, n):
    if g.kind == "DIAG_PHASE":
        # I + (e^{i gamma} - 1) P, with P the projector on the polarity pattern.
        proj = _kron_all(n, {q: np.diag([1 - p, p]) for q, p in zip(g.qubits, g.polarities)})
        return np.eye(2**n) + (np.exp(1j * g.params[0]) - 1) * proj
    controls = g.qubits[:-1]
    polarities = g.polarities or (1,) * len(controls)
    proj = {q: np.diag([1 - p, p]) for q, p in zip(controls, polarities)}
    p_c = _kron_all(n, proj)
    return np.eye(2**n) - p_c + _kron_all(n, {**proj, g.qubits[-1]: _reference_block(g)})


def _random_gates(n, rng):
    """One gate of every kind that fits on ``n`` qubits, on random qubits and polarities."""
    def qubits(k):
        return tuple(int(q) for q in rng.permutation(n)[:k])

    def bits(k):
        return tuple(int(b) for b in rng.integers(0, 2, k))

    angle = float(rng.uniform(-7, 7))
    gates = [
        cir.rx(angle, *qubits(1)), cir.ry(angle, *qubits(1)), cir.rz(angle, *qubits(1)),
        cir.h(*qubits(1)), cir.x(*qubits(1)), cir.phase(angle, *qubits(1)),
        cir.c_gate(angle, float(rng.uniform(-7, 7)), *qubits(1)),
        cir.u1q(haar_unitary(2, rng), *qubits(1)),
    ]
    for k in range(1, n + 1):
        gates.append(cir.diag_phase(qubits(k), bits(k), angle))
    for k in range(2, n + 1):
        qs = qubits(k)
        gates.append(cir.mcu(qs[:-1], qs[-1], haar_unitary(2, rng), bits(k - 1)))
        gates.append(cir.mcx(qs[:-1], qs[-1], bits(k - 1)))
    if n >= 2:
        gates += [cir.cnot(*qubits(2)), cir.cz(*qubits(2))]
    if n >= 3:
        gates.append(cir.ccz(*qubits(3)))
    return gates


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gate_matrix_matches_projector_reference(n):
    rng = np.random.default_rng(700 + n)
    for _ in range(4):
        for g in _random_gates(n, rng):
            err = np.max(np.abs(gate_matrix(g, n) - _reference_matrix(g, n)))
            assert err < 1e-14, (g.kind, g.qubits, g.polarities)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in CORPUS.glob("*.qasm") if not p.name.startswith("err_"))
)
def test_circuit_unitary_matches_projector_reference(name):
    c = parse_qasm((CORPUS / name).read_text())
    expect = np.exp(1j * c.global_phase) * np.eye(2**c.n_qubits, dtype=complex)
    for g in c.gates:
        expect = _reference_matrix(g, c.n_qubits) @ expect
    assert np.max(np.abs(circuit_unitary(c) - expect)) < 1e-12


# The fused simulator (runs folded to one 2x2, sign flips, swaps) against
# the unfused reference: ``apply_gate``'s general mix, one gate at a time.
FUSED_TOL = 1e-12


def _unfused(c, u=None):
    u = np.eye(2**c.n_qubits, dtype=complex) if u is None else u.copy()
    for g in c.gates:
        apply_gate(u, g, c.n_qubits)
    return u * np.exp(1j * c.global_phase)


def _fused_error(c):
    return np.max(np.abs(circuit_unitary(c) - _unfused(c)), initial=0.0)


def _pipeline_circuits(u):
    """QRD unlowered and lowered, QSD, and both lowered ones retargeted."""
    lowered = [qrd_compile(u), qsd_compile(u)]
    return [qrd_compile(u, lower=False)] + lowered + [retarget_circuit(c) for c in lowered]


@pytest.mark.parametrize(
    "name", sorted(p.name for p in CORPUS.glob("*.qasm") if not p.name.startswith("err_"))
)
def test_fused_matches_unfused_on_corpus(name):
    c = parse_qasm((CORPUS / name).read_text())
    assert _fused_error(c) <= FUSED_TOL
    assert _fused_error(retarget_circuit(c)) <= FUSED_TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_fused_matches_unfused_on_haar_pipelines(n):
    for c in _pipeline_circuits(random_unitary(n, seed=40 + n)):
        assert _fused_error(c) <= FUSED_TOL, (n, len(c))


def test_fused_matches_unfused_on_qsd_at_seven_qubits():
    # Three probe columns: the unfused reference on the full unitary takes seconds here.
    # QRD at n = 7 (295,736 lowered gates) is not run: its reference alone takes ~30 s.
    lowered = qsd_compile(random_unitary(7, seed=47))
    rng = np.random.default_rng(48)
    probes = rng.normal(size=(128, 3)) + 1j * rng.normal(size=(128, 3))
    for c in (lowered, retarget_circuit(lowered)):
        fused = apply_circuit(probes.copy(), c)
        assert np.max(np.abs(fused - _unfused(c, probes))) <= FUSED_TOL


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(derandomize=True, database=None, deadline=None, max_examples=6)
@given(data=st.data())
def test_fused_matches_unfused_on_structured_inputs(family, data):
    for c in _pipeline_circuits(data.draw(FAMILIES[family])):
        assert _fused_error(c) <= FUSED_TOL


def _edge_circuits():
    rng = np.random.default_rng(31)
    single = tuple(cir.u1q(haar_unitary(2, rng), q) for q in (0, 1, 2, 0, 0, 2))
    open_runs = (cir.h(0), cir.cz(0, 1), cir.rx(0.3, 1), cir.ry(0.4, 2), cir.c_gate(1.0, 2.0, 0))
    zero_controls = (
        cir.ry(0.7, 2),
        cir.mcu((0, 1), 2, haar_unitary(2, rng), (0, 1)),
        cir.mcu((2,), 0, haar_unitary(2, rng), (0,)),
        cir.diag_phase((1, 0, 2), (0, 0, 1), 0.9),
        cir.diag_phase((1,), (0,), -0.4),
        cir.mcx((2, 0), 1, (0, 0)),
        cir.rz(1.1, 1),
        cir.ccz(0, 1, 2),
        cir.toffoli(2, 1, 0),
    )
    cases = {
        "empty": cir.Circuit(3),
        "single_qubit_only": cir.Circuit(3, single),
        "runs_open_at_end": cir.Circuit(3, open_runs),
        "global_phase": cir.Circuit(3, single[:2] + (cir.cnot(0, 1),), global_phase=-2.1),
        "zero_polarity_controls": cir.Circuit(3, zero_controls, global_phase=0.5),
    }
    for n in (4, 5):
        cases.update({f"{name}_{n}q": c for name, c in _block_edge_circuits(n).items()})
    return cases


def _block_edge_circuits(n):
    """Circuits on n > 3 qubits, most long enough that ``apply_circuit`` cuts blocks.

    Blocks on two qubits (padded with the lowest unused one, before, between
    or after them) and on three; a CCZ, a Toffoli and a polarity-0 MCX that
    open a block; MCU, DIAG_PHASE and four-qubit rows between blocks.
    """
    rng = np.random.default_rng(33 + n)

    def u1(q):
        return cir.u1q(haar_unitary(2, rng), q)

    pairs = [(0, 1), (2, 3)] * 12 + [(2, 0), (1, 3)] * 12 + [(3, 0), (1, n - 1)] * 12
    two_qubit = tuple(g for a, b in pairs for g in (u1(a), cir.cz(a, b), u1(b), cir.cnot(b, a)))
    boundaries, between = [], []
    for _ in range(24):
        a, b, c, d = (int(q) for q in rng.permutation(n)[:4])
        boundaries += [u1(a), u1(b), cir.cz(a, b), cir.toffoli(a, b, c), u1(c),
                       cir.ccz(b, c, d), u1(d), cir.mcx((d, b), c, (0, 1)), cir.cnot(c, d),
                       cir.cz(a, c), cir.toffoli(d, a, b), cir.mcx((c,), a, (0,)), u1(b)]
        between += [u1(a), cir.cz(a, b), cir.cnot(b, c), u1(c), cir.toffoli(a, c, b),
                    cir.mcu((b,), a, haar_unitary(2, rng), (0,)), u1(a), cir.ccz(a, b, c),
                    cir.diag_phase((c, a, b), (1, 0, 1), 0.8), cir.cnot(a, c), u1(b),
                    cir.mcx((a, b, c), d, (1, 0, 1)), cir.cz(c, d),
                    cir.mcu((a, b, d), c, haar_unitary(2, rng)), cir.diag_phase((d,), (0,), -0.3),
                    cir.cz(b, d), cir.mcx((c, a), b, (1, 1)), u1(d)]
    return {
        "empty": cir.Circuit(n),
        "single_qubit_only": cir.Circuit(n, tuple(u1(int(q)) for q in rng.integers(0, n, 60))),
        "runs_open_at_end": cir.Circuit(n, two_qubit + tuple(u1(q) for q in range(n))),
        "two_qubit_blocks": cir.Circuit(n, two_qubit),
        "block_boundaries": cir.Circuit(n, tuple(boundaries)),
        "unlowered_rows_between": cir.Circuit(n, tuple(between)),
        "global_phase": cir.Circuit(n, tuple(boundaries[:200]), global_phase=2.6),
    }


@pytest.mark.parametrize("name", sorted(_edge_circuits()))
def test_fused_matches_unfused_on_edge_cases(name):
    c = _edge_circuits()[name]
    assert _fused_error(c) <= FUSED_TOL
    # Any column count: the kernels see only row pairs.
    rng = np.random.default_rng(32)
    for k in (1, 3, 9):
        probes = rng.normal(size=(2**c.n_qubits, k)) + 1j * rng.normal(size=(2**c.n_qubits, k))
        fused = apply_circuit(probes.copy(), c)
        assert np.max(np.abs(fused - _unfused(c, probes))) <= FUSED_TOL


@pytest.mark.parametrize("n", [4, 5])
def test_edge_cases_reach_the_block_path(n):
    # Each long edge case builds blocks, and its blocks have two or three qubits.
    for name, c in _block_edge_circuits(n).items():
        slots, runs, us = cir.collect_runs(c)
        tags, blocks, triples = _build_blocks(c, slots, runs, us)
        if name in ("empty", "single_qubit_only"):
            assert blocks is None and (tags == -1).all(), name
            continue
        assert len(blocks) >= 32, name
        widths = {bin(m).count("1") for m in _block_masks(c, slots, runs, tags)}
        assert widths <= {2, 3} and (name != "two_qubit_blocks" or 2 in widths), name


def _block_masks(c, slots, runs, tags):
    """The qubit mask of each built block, from the slots tagged into it."""
    masks, block = [], -1
    for s, t in zip(slots.tolist(), tags.tolist()):
        if t >= 0:
            masks.append(0)
            block = t
        if t == -1:
            continue
        qubits = [runs[s, 0]] if s >= 0 else [q for q in c.qubits[~s] if q >= 0]
        masks[block] |= sum(1 << int(q) for q in qubits)
    return masks


def test_a_long_block_is_cut():
    # 200 slots on qubits 0-2 of four: one greedy block, cut every 200 // _MIN_BATCH
    # slots, so that every build call serves at least _MIN_BATCH blocks.
    rng = np.random.default_rng(34)
    gates = []
    for _ in range(100):
        gates += [cir.u1q(haar_unitary(2, rng), int(rng.integers(3))), cir.ccz(0, 1, 2)]
    c = cir.Circuit(4, tuple(gates) + (cir.cz(2, 3),))
    slots, runs, us = cir.collect_runs(c)
    tags, blocks, triples = _build_blocks(c, slots, runs, us)
    cap = 200 // _MIN_BATCH
    assert len(blocks) == -(-200 // cap) and set(triples) == {(0, 1, 2)}
    assert tags.tolist()[:2 * cap + 1] == ([0] + [-2] * (cap - 1) + [1] + [-2] * (cap - 1) + [2])
    assert tags[-1] == -1  # the CZ on qubit 3 steps alone
    assert _fused_error(c) <= FUSED_TOL


def test_a_very_long_block_is_cut_in_memory_linear_in_its_slots():
    # 30,000 slots on qubits 0-2 of four, as where an idle ancilla leaves three
    # qubits busy: finding the cap must not take memory quadratic in the
    # block's length (a 30,000 x 30,000 table would be 7 GB).
    rng = np.random.default_rng(35)
    pairs = 15000
    gates = []
    for q in rng.integers(3, size=pairs).tolist():
        gates += [cir.u1q(haar_unitary(2, rng), q), cir.ccz(0, 1, 2)]
    c = cir.Circuit(4, tuple(gates) + (cir.cz(2, 3),))
    slots, runs, us = cir.collect_runs(c)
    tracemalloc.start()
    try:
        tags, blocks, triples = _build_blocks(c, slots, runs, us)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    cap = 2 * pairs // _MIN_BATCH
    assert len(blocks) == -(-2 * pairs // cap) and set(triples) == {(0, 1, 2)}
    assert (tags[:2 * pairs:cap] == np.arange(len(blocks))).all() and tags[-1] == -1
    probes = haar_unitary(16, rng)[:, :3].copy()
    assert np.abs(apply_circuit(probes.copy(), c) - _unfused(c, probes)).max() <= FUSED_TOL


def test_apply_circuit_rejects_a_strided_or_misshapen_input():
    c = cir.Circuit(2, (cir.h(0),))
    # A copy made by reshape would take the writes and leave the input as it was.
    with pytest.raises(ValueError):
        apply_circuit(np.zeros((3, 4), dtype=complex).T, c)
    with pytest.raises(DimMismatch):
        apply_circuit(np.zeros((8, 1), dtype=complex), c)


@pytest.mark.parametrize("dtype", [float, np.complex64, np.int64])
def test_simulator_rejects_an_input_that_is_not_complex128(dtype):
    # A real or narrower array would drop imaginary parts or round, in place.
    c = cir.Circuit(2, (cir.rz(0.5, 0), cir.cnot(0, 1)), global_phase=0.3)
    for apply in (lambda u: apply_circuit(u, c), lambda u: apply_gate(u, cir.rz(0.5, 0), 2)):
        u = np.eye(4, dtype=dtype)
        with pytest.raises(ValueError, match="complex128"):
            apply(u)
        assert np.array_equal(u, np.eye(4)) and u.dtype == dtype
