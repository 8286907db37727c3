"""Acceptance suite: the end-to-end contracts the package promises.

Each test here corresponds to one numbered criterion.  These are heavier
than the unit tests (Haar sweeps, fuzzing, wall-time fits); run them with
``pytest tests/test_acceptance.py`` when validating a release.
"""

import math
import time

import numpy as np
import pytest

from atomqc import circuit as cir
from atomqc.barenco import lower_circuit
from atomqc.exceptions import (
    AtomqcError,
    MatrixFormatError,
    NotUnitary,
    QasmSyntaxError,
    SequenceSyntaxError,
    SynthesisFailure,
    UnsupportedGate,
)
from atomqc.formats import emit_sequence, parse_qasm, parse_sequence, read_matrix
from atomqc.linalg import haar_unitary, phase_distance, random_unitary
from atomqc.circuit import rotation_matrix
from atomqc.qrd import gcb_code, qrd_compile
from atomqc.qsd import qsd_compile
from atomqc.retarget import retarget_circuit
from atomqc.simulate import circuit_unitary, gate_matrix

NATIVE = {"C", "CZ", "CCZ"}
N_SAMPLES = 20


def _cnot_lower_bound(n):
    return math.ceil((4**n - 3 * n - 1) / 4)


# ---------------------------------------------------------------------------
# Criterion 1: round-trip exactness for both compilers, with and without
# retargeting, over Haar samples at n = 1..6.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["qrd", "qsd"])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_criterion_1_round_trip(method, n):
    compiler = qrd_compile if method == "qrd" else qsd_compile
    for seed in range(N_SAMPLES):
        u = random_unitary(n, seed=seed)
        c = compiler(u)
        assert phase_distance(circuit_unitary(c), u) < 1e-7
        r = retarget_circuit(c)
        assert phase_distance(circuit_unitary(r), u) < 1e-6


# ---------------------------------------------------------------------------
# Criterion 2: QSD CNOT count law and lower bound.
# ---------------------------------------------------------------------------


def test_criterion_2_qsd_count_law():
    expected = {1: 0}
    for n in range(2, 5):
        expected[n] = 4 * expected[n - 1] + 3 * 2 ** (n - 1)
    assert (expected[2], expected[3], expected[4]) == (6, 36, 168)
    for n in range(1, 5):
        for seed in range(3):
            c = qsd_compile(random_unitary(n, seed=seed))
            count = cir.gate_counts(c).get("CNOT")
            assert count == expected[n]
            assert count >= _cnot_lower_bound(n)
            if n >= 2:
                # The bound is not attained: a strict gap remains.
                assert count > _cnot_lower_bound(n)


# ---------------------------------------------------------------------------
# Criterion 3: QSD beats QRD on entangling count, and counts grow
# monotonically (the exponential curve shape).
# ---------------------------------------------------------------------------


def test_criterion_3_curve_ordering():
    qsd_means = {}
    qrd_means = {}
    for n in range(3, 7):
        qsd_counts = []
        qrd_counts = []
        for seed in range(10):
            u = random_unitary(n, seed=seed + 100)
            qsd_counts.append(cir.gate_counts(qsd_compile(u)).entangling_total)
            qrd_counts.append(cir.gate_counts(qrd_compile(u)).entangling_total)
        qsd_means[n] = np.mean(qsd_counts)
        qrd_means[n] = np.mean(qrd_counts)
        assert qsd_means[n] < qrd_means[n]
    for n in range(3, 6):
        assert qsd_means[n + 1] > qsd_means[n]
        assert qrd_means[n + 1] > qrd_means[n]


# ---------------------------------------------------------------------------
# Criterion 4: retarget gate-set purity, 1:1 entangling replacement, and
# at most two C pulses per single-qubit run.
# ---------------------------------------------------------------------------


def _max_run_length(c):
    longest = 0
    runs = {}
    for g in c.gates:
        if g.kind == "C":
            runs[g.qubits[0]] = runs.get(g.qubits[0], 0) + 1
            longest = max(longest, runs[g.qubits[0]])
        else:
            for q in g.qubits:
                runs[q] = 0
    return longest


def test_criterion_4_retarget_purity():
    for n, seed in [(2, 0), (3, 1), (3, 2), (4, 3)]:
        for method in (qrd_compile, qsd_compile):
            c = method(random_unitary(n, seed=seed))
            before = cir.gate_counts(c)
            r = retarget_circuit(c)
            after = cir.gate_counts(r)
            assert set(g.kind for g in r.gates) <= NATIVE
            assert after.get("CZ") == before.get("CNOT") + before.get("CZ")
            assert after.get("CCZ") == before.get("MCX") + before.get("CCZ")
            assert _max_run_length(r) <= 2


# ---------------------------------------------------------------------------
# Criterion 5: two-pulse synthesis robustness on Haar samples and on the
# degenerate rotation-axis grids.
# ---------------------------------------------------------------------------


def test_criterion_5_two_pulse_robustness():
    from atomqc.quaternion import two_pulse_synthesis

    rng = np.random.default_rng(0)
    failures = 0
    worst = 0.0
    for _ in range(10_000):
        u = haar_unitary(2, rng)
        try:
            tp = two_pulse_synthesis(u)
        except SynthesisFailure:
            failures += 1
            continue
        worst = max(worst, phase_distance(tp.reconstruct(), u))
    for axis in "ZXY":
        for a in np.linspace(0.0, 2 * np.pi, 1000, endpoint=False):
            m = rotation_matrix(axis, float(a))
            try:
                tp = two_pulse_synthesis(m)
            except SynthesisFailure:
                failures += 1
                continue
            worst = max(worst, phase_distance(tp.reconstruct(), m))
    assert failures == 0
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# Criterion 6: GCB codes are Gray-adjacent permutations up to n = 12, and
# the elimination stage respects the N(N-1)/2 two-level operation bound.
# ---------------------------------------------------------------------------


def test_criterion_6_gcb_properties():
    for n in range(1, 13):
        codes = [gcb_code(i) for i in range(2**n)]
        assert sorted(codes) == list(range(2**n))
        for a, b in zip(codes, codes[1:]):
            assert bin(a ^ b).count("1") == 1


def test_criterion_6_two_level_op_bound():
    for n in range(1, 5):
        dim = 2**n
        for seed in range(3):
            c = qrd_compile(random_unitary(n, seed=seed), lower=False, drop_controls=False)
            ops = [g for g in c.gates if g.kind != "DIAG_PHASE"]
            assert len(ops) <= dim * (dim - 1) // 2


# ---------------------------------------------------------------------------
# Criterion 7: Barenco lowerings reproduce their multi-controlled targets
# and leave borrowed qubits untouched.
# ---------------------------------------------------------------------------


def test_criterion_7_barenco_fragments():
    rng = np.random.default_rng(77)
    cases = [(m, n) for m in range(1, 5) for n in range(m + 1, 7)]
    for m, n in cases:
        u = haar_unitary(2, rng)
        controls = tuple(range(m))
        frag = lower_circuit(cir.Circuit(n, (cir.mcu(controls, m, u),)))
        expect = gate_matrix(cir.mcu(controls, m, u), n)
        assert phase_distance(circuit_unitary(frag), expect) < 1e-8


def test_criterion_7_ladder_idle_invariance():
    # The fragment must equal C^m X tensor identity, so every borrow basis
    # state (columns of the full matrix) is provably untouched.
    # The ladder needs m - 2 borrowable qubits, so m = 4 requires width 7.
    for m, n in [(3, 5), (4, 7)]:
        controls = tuple(range(m))
        # lower_circuit borrows the idle qubits m + 1 .. n - 1.
        frag = lower_circuit(cir.Circuit(n, (cir.mcx(controls, m),)))
        expect = gate_matrix(cir.mcx(controls, m), n)
        assert np.max(np.abs(circuit_unitary(frag) - expect)) < 1e-12


# ---------------------------------------------------------------------------
# Criterion 8: compile wall time grows exponentially in n (log-linear fit
# quality only; absolute times are not asserted).
# ---------------------------------------------------------------------------


def test_criterion_8_exponential_wall():
    ns = list(range(2, 8))
    times = []
    for n in ns:
        best = math.inf
        for seed in range(2):
            u = random_unitary(n, seed=seed)
            start = time.perf_counter()
            qsd_compile(u)
            best = min(best, time.perf_counter() - start)
        times.append(best)
    logs = np.log(times)
    slope, intercept = np.polyfit(ns, logs, 1)
    fitted = slope * np.asarray(ns) + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    assert slope > 0
    assert r2 > 0.9


# ---------------------------------------------------------------------------
# Criterion 9: IO bit-exactness and parser robustness under fuzzing.
# ---------------------------------------------------------------------------


def test_criterion_9_sequence_byte_exact():
    for n, seed in [(1, 0), (2, 1), (3, 2)]:
        c = retarget_circuit(qsd_compile(random_unitary(n, seed=seed)))
        text = emit_sequence(c)
        assert emit_sequence(parse_sequence(text)) == text


def test_criterion_9_corpus_diagnostics_stable():
    import pathlib

    corpus = pathlib.Path(__file__).parent / "qasm_corpus"
    files = sorted(corpus.glob("*.qasm"))
    assert len(files) >= 15
    for path in files:
        text = path.read_text()
        if path.name.startswith("err_"):
            with pytest.raises((QasmSyntaxError, UnsupportedGate)) as first:
                parse_qasm(text)
            with pytest.raises((QasmSyntaxError, UnsupportedGate)) as second:
                parse_qasm(text)
            assert str(first.value) == str(second.value)
        else:
            parse_qasm(text)


def test_criterion_9_fuzz_parsers_do_not_crash():
    rng = np.random.default_rng(1234)
    qasm_alphabet = np.array(
        list("OPENQASM2.0;qregch[]x(),*/+-pi u3\n\"incbarmesure")
    )
    seq_alphabet = np.array(list("SEQUENCE1 QUBITSCPHAZ023.#-e\n"))
    mat_alphabet = np.array(list("0123456789+-.ei \n"))
    expected = (
        QasmSyntaxError,
        SequenceSyntaxError,
        MatrixFormatError,
        UnsupportedGate,
        NotUnitary,
        AtomqcError,
    )
    total = 1_000_000
    per_parser = total // 3
    for alphabet, parser in (
        (qasm_alphabet, parse_qasm),
        (seq_alphabet, parse_sequence),
        (mat_alphabet, read_matrix),
    ):
        lengths = rng.integers(0, 40, size=per_parser)
        # Draw all the random characters in one shot; per-sample RNG calls
        # dominate the runtime otherwise.
        blob = rng.choice(alphabet, size=int(lengths.sum()))
        offset = 0
        for length in lengths:
            text = "".join(blob[offset : offset + length])
            offset += int(length)
            try:
                parser(text)
            except expected:
                pass
    # Mutated valid files must also fail cleanly, never crash.
    import pathlib

    corpus = pathlib.Path(__file__).parent / "qasm_corpus"
    seeds = [p.read_text() for p in sorted(corpus.glob("*.qasm"))]
    for _ in range(total - 3 * per_parser + 2000):
        base = seeds[int(rng.integers(len(seeds)))]
        pos = int(rng.integers(len(base)))
        ch = chr(int(rng.integers(32, 127)))
        mutated = base[:pos] + ch + base[pos + 1 :]
        try:
            parse_qasm(mutated)
        except expected:
            pass
