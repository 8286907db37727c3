"""Workload inputs and the user path one item takes through atomqc.

Every item goes from an input (a unitary, or an OpenQASM file) to a native
SEQUENCE pulse program that the program itself verified.  Each call into the
package is wrapped in a span named ``<module>.<stage>``.  The path runs in
two forms that must produce the same outputs:

* unsplit: the calls a user makes (``qrd_compile(u)``);
* split (traced runs): QRD as ``qrd_compile(u, lower=False)`` then
  ``barenco.lower_circuit``, so that each module has its own span.

Inputs come only from the workload seed; Haar sampling is done here, not by
the package, so a change to the package cannot change the inputs.
"""

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from atomqc.barenco import lower_circuit
from atomqc.formats import emit_sequence, parse_qasm, parse_sequence, render_qasm
from atomqc.qrd import qrd_compile
from atomqc.qsd import qsd_compile
from atomqc.retarget import retarget_circuit
from atomqc.simulate import circuit_unitary, verify


def haar(n_qubits, *seed_words):
    """Haar-random unitary: QR of a complex Ginibre matrix, phases fixed."""
    dim = 2**n_qubits
    rng = np.random.default_rng(list(seed_words))
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


@dataclass
class Item:
    method: str  # "qsd", "qrd", or "qasm" (a parsed OpenQASM file)
    n: int
    u: np.ndarray  # the Haar unitary the item must reproduce
    path: Path = None  # OpenQASM input file (qasm items only)
    side_u: np.ndarray = None  # Haar n=5 input for QRD timed beside qsd-n6


@dataclass
class Outputs:
    compiled: object  # compiled circuit, or the circuit parsed from OpenQASM
    native: object  # retargeted {C, CZ, CCZ} circuit
    text: str  # emitted SEQUENCE program
    distance: float  # the program's own verify() distance
    text2: str = None  # SEQUENCE re-emitted after parse_sequence (qasm items only)
    unlowered: object = None  # qrd_compile(u, lower=False) (traced qrd items only)
    qasm_bytes: int = 0


class Spans:
    """Seconds spent per span name, summed over calls.

    ``before`` runs ahead of each span; the time it takes is kept apart in
    ``paused`` so that an item's time can leave it out.
    """

    def __init__(self, before=None):
        self.seconds = defaultdict(float)
        self.paused = 0.0
        self.before = before

    @contextlib.contextmanager
    def __call__(self, name):
        if self.before is not None:
            start = time.perf_counter()
            self.before()
            self.paused += time.perf_counter() - start
        start = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - start


def no_span(_name):
    return contextlib.nullcontext()


def compile_path(item, span=no_span, split=False):
    """compile -> retarget_circuit -> emit_sequence -> verify(native, u)."""
    unlowered = None
    if item.method == "qsd":
        with span("qsd.compile"):
            c = qsd_compile(item.u)
    elif not split:
        with span("qrd.compile"):
            c = qrd_compile(item.u)
    else:
        with span("qrd.eliminate"):
            unlowered = qrd_compile(item.u, lower=False)
        with span("barenco.lower"):
            c = lower_circuit(unlowered)
    with span("retarget.retarget"):
        r = retarget_circuit(c)
    with span("formats.emit_sequence"):
        text = emit_sequence(r)
    with span("simulate.verify"):
        report = verify(r, item.u)
    return Outputs(c, r, text, report.distance, unlowered=unlowered)


def qasm_path(item, span=no_span, split=False):
    """What ``atomqc retarget`` does, plus a SEQUENCE parse and re-emit.

    read -> parse_qasm -> retarget_circuit -> emit_sequence -> parse_sequence
    -> emit_sequence -> verify(parsed program, simulated parsed input).
    No module call splits further, so ``split`` changes nothing.
    """
    source = item.path.read_text(encoding="utf-8")
    with span("formats.parse_qasm"):
        c = parse_qasm(source)
    with span("retarget.retarget"):
        r = retarget_circuit(c)
    with span("formats.emit_sequence"):
        text = emit_sequence(r)
    with span("formats.parse_sequence"):
        parsed = parse_sequence(text)
    with span("formats.emit_sequence"):
        text2 = emit_sequence(parsed)
    with span("simulate.reference"):
        reference = circuit_unitary(c)
    with span("simulate.verify"):
        report = verify(parsed, reference)
    return Outputs(c, r, text, report.distance, text2=text2, qasm_bytes=len(source.encode()))


def qrd_counts(unlowered, lowered):
    mcus = [g for g in unlowered.gates if g.kind == "MCU"]
    return {"qrd.mcu_gates": len(mcus),
            "qrd.controls_kept": sum(len(g.qubits) - 1 for g in mcus),
            "barenco.gates_out": len(lowered.gates)}


def qsd_counts(c):
    return {"qsd.gates_out": len(c.gates),
            "qsd.cnots": sum(g.kind == "CNOT" for g in c.gates)}


def _split_qrd(u, span):
    with span("qrd.eliminate"):
        unlowered = qrd_compile(u, lower=False)
    with span("barenco.lower"):
        lowered = lower_circuit(unlowered)
    return qrd_counts(unlowered, lowered)


def _qsd(u, span):
    with span("qsd.compile"):
        c = qsd_compile(u)
    return qsd_counts(c)


def _parse_rendered(out, span):
    text = render_qasm(out.compiled)
    with span("formats.parse_qasm"):
        parse_qasm(text)
    return {"formats.qasm_bytes": len(text.encode())}


# Traced runs only: layers a workload's path does not run are timed on the
# item's own input, outside the item and outside trace.coverage.  Beside
# qsd-n6 the QRD side input is a Haar n=5 unitary, since QRD at n=6 costs
# about 13 s.  Each returns the side calls' counts.

def _side_qsd_n6(item, out, span):
    return {**_split_qrd(item.side_u, span), **_parse_rendered(out, span)}


def _side_qrd_n5(item, out, span):
    return {**_qsd(item.u, span), **_parse_rendered(out, span)}


def _side_small(item, out, span):
    return _parse_rendered(out, span)


def _side_qasm(item, out, span):
    return {**_qsd(item.u, span), **_split_qrd(item.u, span)}


@dataclass
class Workload:
    """``make(seed, workdir)`` builds the item pool; items cycle through it.

    ``count_items`` is the fixed prefix of items over which the generated-code
    sizes (entangling gates, C pulses) are averaged, so that they repeat
    exactly for a seed whatever the number of items the run completes.
    ``side(item, out, span)`` times, in traced runs, the layers the path
    does not run.  ``round_items`` is the number of consecutive items over
    which the untraced run takes a median (the pool size is a multiple of
    it), or None: the whole run is one round.
    """

    make: object
    path: object
    count_items: int
    side: object
    round_items: int


def _qsd_n6(seed, workdir, size=24):
    return [Item("qsd", 6, haar(6, seed, i), side_u=haar(5, seed, i, 1)) for i in range(size)]


def _qrd_n5(seed, workdir, size=24):
    return [Item("qrd", 5, haar(5, seed, i)) for i in range(size)]


def _small_stream(seed, workdir, blocks=200):
    """Blocks of six items, methods alternating qsd/qrd.

    Each block holds one n=2 and two n=3 items per method; the seed picks
    which slot of each method gets n=2.  The block keeps the mix of sizes
    fixed, so per-item gate counts do not depend on how many items a run
    completes, and the median item falls inside the n=3 QSD mode instead of
    between two modes.
    """
    rng = np.random.default_rng([seed, 1])
    items = []
    for b in range(blocks):
        small = {"qsd": rng.integers(3), "qrd": rng.integers(3)}
        for slot in range(6):
            method = ("qsd", "qrd")[slot % 2]
            n = 2 if slot // 2 == small[method] else 3
            items.append(Item(method, n, haar(n, seed, b, slot)))
    return items


def _qasm_files(seed, workdir, size=3):
    """OpenQASM texts of QRD-compiled Haar n=5 unitaries, written to files."""
    items = []
    for i in range(size):
        u = haar(5, seed, i, 2)
        path = Path(workdir) / f"item{i}.qasm"
        path.write_text(render_qasm(qrd_compile(u)), encoding="utf-8")
        items.append(Item("qasm", 5, u, path))
    return items


WORKLOADS = {
    "qsd-n6": Workload(_qsd_n6, compile_path, 3, _side_qsd_n6, None),
    "qrd-n5": Workload(_qrd_n5, compile_path, 3, _side_qrd_n5, None),
    "small-n2n3": Workload(_small_stream, compile_path, 60, _side_small, 60),
    "qasm-retarget": Workload(_qasm_files, qasm_path, 3, _side_qasm, None),
}
