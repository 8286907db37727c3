"""The benchmark's checker, and a self-test proving it rejects broken outputs.

``check(item, out)`` returns the list of checks an item's outputs fail; an
empty list means the item is correct.  The native program is checked twice:
through the program's own ``verify`` distance, and through an independent
simulation of the emitted SEQUENCE text written here from the format's
definition, against the Haar unitary the benchmark generated.

``python3 perfbench/run.py --self-test`` runs the self-test alone; every
measurement run starts with it too.
"""

from dataclasses import replace

import numpy as np

from atomqc.circuit import Circuit, Gate
from atomqc.formats import emit_sequence, parse_sequence
from atomqc.linalg import phase_distance
from atomqc.simulate import circuit_unitary, verify
from workloads import Item, compile_path, haar, no_span

COMPILED_BOUND = 1e-12  # compiled circuit vs input, inclusive
NATIVE_BOUND = 1e-9  # native program vs input, exclusive
NATIVE_KINDS = frozenset({"C", "CZ", "CCZ"})
PROBE_COLUMNS = 4


def qsd_cnots(n):
    """CNOT count law of QSD: c_1 = 0, c_n = 4 c_{n-1} + 3 * 2^(n-1)."""
    c = 0
    for k in range(2, n + 1):
        c = 4 * c + 3 * 2 ** (k - 1)
    return c


def count(circuit, kinds):
    return sum(g.kind in kinds for g in circuit.gates)


def _c_pulse(theta, phi):
    """C(theta, phi): rotation by theta about the equatorial axis (sin phi, cos phi, 0)."""
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -np.exp(1j * phi) * s], [np.exp(-1j * phi) * s, c]])


def sequence_distance(text, u, seed=0):
    """Phase-invariant distance of a SEQUENCE program from ``u``, by probing.

    Applies the program to ``PROBE_COLUMNS`` Haar-random orthonormal columns
    and scales the residual so that it estimates the Frobenius distance.  The
    global PHASE line is irrelevant to a phase-invariant distance.
    """
    n = int(np.log2(u.shape[0]))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2**n, PROBE_COLUMNS)) + 1j * rng.standard_normal((2**n, PROBE_COLUMNS))
    probes = np.linalg.qr(z)[0]
    state = probes.reshape((2,) * n + (PROBE_COLUMNS,)).copy()
    for line in text.splitlines():
        f = line.split("#", 1)[0].split()
        if not f or f[0] in ("SEQUENCE", "PHASE"):
            continue
        if f[0] == "QUBITS" and int(f[1]) != n:
            raise ValueError(f"program has {f[1]} qubits, the input {n}")
        if f[0] == "C":
            q = int(f[1])
            pulse = _c_pulse(float(f[2]), float(f[3]))
            state = np.moveaxis(np.tensordot(pulse, state, ([1], [q])), 0, q)
        elif f[0] in ("CZ", "CCZ"):
            qs = {int(x) for x in f[1:]}
            state[tuple(1 if a in qs else slice(None) for a in range(n))] *= -1
        elif f[0] != "QUBITS":
            raise ValueError(f"not a native SEQUENCE instruction: {line!r}")
    got = state.reshape(2**n, PROBE_COLUMNS)
    want = u @ probes
    overlap = np.vdot(got, want)
    gamma = np.angle(overlap) if overlap != 0 else 0.0
    return float(np.linalg.norm(np.exp(1j * gamma) * got - want) * np.sqrt(2**n / PROBE_COLUMNS))


def check(item, out, span=no_span):
    """Names of the checks that ``out`` fails for ``item`` (empty: correct).

    In traced runs ``span`` times the checker's simulation of the compiled
    circuit (``simulate.reference``) and its SEQUENCE parse
    (``formats.parse_sequence``).
    """
    failed = []
    kinds = {g.kind for g in out.native.gates}
    if not kinds <= NATIVE_KINDS:
        failed.append(f"non-native gates {sorted(kinds - NATIVE_KINDS)}")
    ent_in = count(out.compiled, {"CNOT", "MCX", "CZ", "CCZ"})
    ent_out = count(out.native, {"CZ", "CCZ"})
    if ent_in != ent_out:
        failed.append(f"entangling gates {ent_in} in, {ent_out} out")
    if item.method == "qsd" and count(out.compiled, {"CNOT"}) != qsd_cnots(item.n):
        failed.append(f"QSD CNOTs {count(out.compiled, {'CNOT'})} != {qsd_cnots(item.n)}")
    if item.method != "qasm":
        with span("simulate.reference"):
            compiled_u = circuit_unitary(out.compiled)
        d = phase_distance(compiled_u, item.u)
        if not d <= COMPILED_BOUND:
            failed.append(f"compiled distance {d:.3e}")
    if not out.distance < NATIVE_BOUND:
        failed.append(f"verify distance {out.distance:.3e}")
    d = sequence_distance(out.text, item.u)
    if not d < NATIVE_BOUND:
        failed.append(f"SEQUENCE distance {d:.3e} from the Haar input")
    again = out.text2
    if again is None:
        with span("formats.parse_sequence"):
            parsed = parse_sequence(out.text)
        again = emit_sequence(parsed)
    if again != out.text:
        failed.append("SEQUENCE emit -> parse -> emit not byte-identical")
    return failed


def _rebuild(item, out, native, text=None):
    """Outputs after a mutation of the native circuit, re-emitted and re-verified."""
    return replace(out, native=native, text=emit_sequence(native) if text is None else text,
                   distance=verify(native, item.u).distance)


def self_test():
    """Check that the checker fails a dropped gate, a non-native gate and a bent pulse.

    Returns a list of problems (empty when the checker behaves).
    """
    item = Item("qsd", 2, haar(2, 0, 0))
    out = compile_path(item)
    problems = []
    if check(item, out):
        problems.append(f"correct output rejected: {check(item, out)}")
    gates = list(out.native.gates)
    first_c = next(i for i, g in enumerate(gates) if g.kind == "C")
    first_cz = next(i for i, g in enumerate(gates) if g.kind == "CZ")
    theta, phi = gates[first_c].params
    bent = gates[:first_c] + [replace(gates[first_c], params=(theta + 1e-6, phi))] + gates[first_c + 1:]

    def native(gate_list):
        return Circuit(out.native.n_qubits, tuple(gate_list), out.native.global_phase)

    mutants = {
        "dropped C pulse": _rebuild(item, out, native(gates[:first_c] + gates[first_c + 1:])),
        "dropped CZ": _rebuild(item, out, native(gates[:first_cz] + gates[first_cz + 1:])),
        # RZ(0) leaves the unitary alone, so only the gate-set check can see it;
        # the SEQUENCE text stays that of the correct program.
        "non-native gate": _rebuild(item, out, native(gates + [Gate("RZ", (0,), (0.0,))]),
                                    out.text),
        "perturbed pulse angle": _rebuild(item, out, native(bent)),
        "perturbed SEQUENCE text only": replace(out, text=emit_sequence(native(bent))),
    }
    for name, mutant in mutants.items():
        if not check(item, mutant):
            problems.append(f"checker accepted a {name}")
    return problems

