"""Print sha256 digests of what the compilers emit, to show a refactor keeps it.

Four digests, one line each:

* ``gates``: every circuit's width and, per gate, kind, qubits, parameters
  as float hex, polarities and matrix bytes;
* ``phases``: every circuit's global phase as float hex;
* ``sequence``: every emitted SEQUENCE text less its ``PHASE`` line, which
  ``phases`` already covers;
* ``diagnostics``: what ``parse_qasm`` makes of 350,000 seeded texts: the
  exception's type, message, line and column, or the gates of the circuit.

Inputs: Haar unitaries (``random_unitary``) on n = 1..5 qubits, seeds 0-9,
through QRD (lowered, unlowered, and lowered without control dropping) and
QSD; each lowered circuit also goes through retarget and SEQUENCE output.
QSD also compiles seed 0 at n = 6 and 7, where its deepest ladders (5 and 6
controls) occur, with and without retarget, and QRD seed 0 at n = 6, the
largest lowered and native circuits (67,414 and 88,491 gates).
Every OpenQASM file of ``tests/qasm_corpus`` that parses is parsed, rendered
back to QASM (the ``// global phase`` comment becomes the reparsed circuit's
phase), and retargeted.  The ``diagnostics`` texts are 200,000 strings over
the parser fuzz alphabet of ``tests/test_acceptance.py`` (seed 1234),
100,000 corpus files with one character replaced, inserted or deleted, and
50,000 ``rx(<expr>)`` statements over an angle-expression alphabet.

Run it on two checkouts and compare the lines:

    python tools/same_output.py
"""

import hashlib
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from atomqc import circuit as cir
from atomqc.exceptions import AtomqcError, QasmSyntaxError
from atomqc.formats import emit_sequence, parse_qasm, render_qasm
from atomqc.linalg import random_unitary
from atomqc.qrd import qrd_compile
from atomqc.qsd import qsd_compile
from atomqc.retarget import retarget_circuit

COMPILERS = {
    "qrd": qrd_compile,
    "qrd-unlowered": lambda u: qrd_compile(u, lower=False),
    "qrd-all-controls": lambda u: qrd_compile(u, drop_controls=False),
    "qsd": qsd_compile,
}
_PHASE_COMMENT = "// global phase: "


def _rendered(c):
    """``c`` rendered as QASM and parsed back, with the comment's phase as its own."""
    text = render_qasm(c)
    phase = 0.0
    if text.startswith(_PHASE_COMMENT):
        head, text = text.split("\n", 1)
        phase = float(head[len(_PHASE_COMMENT):])
    back = parse_qasm(text)
    return cir.Circuit(back.n_qubits, back.gates, phase)


def outputs():
    """Yield ``(label, circuit, sequence text or None)`` for every input, in a fixed order."""
    for n in range(1, 6):
        for seed in range(10):
            u = random_unitary(n, seed)
            for name, compile_ in COMPILERS.items():
                c = compile_(u)
                yield f"{name} n={n} seed={seed}", c, None
                if name != "qrd-unlowered":
                    native = retarget_circuit(c)
                    yield f"{name} n={n} seed={seed} native", native, emit_sequence(native)
    for n in (6, 7):
        c = qsd_compile(random_unitary(n, 0))
        yield f"qsd n={n} seed=0", c, None
        native = retarget_circuit(c)
        yield f"qsd n={n} seed=0 native", native, emit_sequence(native)
    c = qrd_compile(random_unitary(6, 0))
    yield "qrd n=6 seed=0", c, None
    native = retarget_circuit(c)
    yield "qrd n=6 seed=0 native", native, emit_sequence(native)
    for path in sorted((ROOT / "tests" / "qasm_corpus").glob("*.qasm")):
        try:
            c = parse_qasm(path.read_text(encoding="utf-8"))
        except AtomqcError:
            continue
        yield path.name, c, None
        yield f"{path.name} rendered", _rendered(c), None
        native = retarget_circuit(c)
        yield f"{path.name} native", native, emit_sequence(native)


def parse_inputs():
    """Yield the ``diagnostics`` texts, in a fixed order; none holds a ``\\r``."""
    rng = np.random.default_rng(1234)
    alphabet = np.array(list("OPENQASM2.0;qregch[]x(),*/+-pi u3\n\"incbarmesure"))
    lengths = rng.integers(0, 40, size=200_000)
    blob = "".join(rng.choice(alphabet, size=int(lengths.sum())))
    ends = np.cumsum(lengths).tolist()
    for start, end in zip([0, *ends], ends):
        yield blob[start:end]
    corpus = [p.read_text(encoding="utf-8")
              for p in sorted((ROOT / "tests" / "qasm_corpus").glob("*.qasm"))]
    m = 100_000
    picks = rng.integers(len(corpus), size=m).tolist()
    where = rng.random(m).tolist()
    edits = rng.integers(3, size=m).tolist()
    chars = rng.integers(32, 127, size=m).tolist()
    for pick, at, edit, ch in zip(picks, where, edits, chars):
        base = corpus[pick]
        pos = int(at * len(base))
        # 0 replaces the character at ``pos``, 1 inserts before it, 2 deletes it.
        yield base[:pos] + ("" if edit == 2 else chr(ch)) + base[pos + (edit != 1):]
    expr_alphabet = np.array(list("1e308*/+-()pi.9 "))
    lengths = rng.integers(1, 16, size=50_000)
    blob = "".join(rng.choice(expr_alphabet, size=int(lengths.sum())))
    ends = np.cumsum(lengths).tolist()
    for start, end in zip([0, *ends], ends):
        yield f"qreg q[1];\nrx({blob[start:end]}) q[0];\n"


def _diagnostic(text):
    """The gate bytes of ``parse_qasm(text)``, or its error's type, message, line and column."""
    try:
        return _gate_bytes(parse_qasm(text))
    except AtomqcError as exc:
        where = (exc.line, exc.col) if isinstance(exc, QasmSyntaxError) else ()
        return f"{type(exc).__name__}|{exc}|{where}".encode()


def _gate_bytes(c):
    parts = [f"{c.n_qubits}".encode()]
    for g in c.gates:
        params = ",".join(float(p).hex() for p in g.params)
        parts.append(f"{g.kind}|{g.qubits}|{params}|{g.polarities}|".encode())
        if g.matrix is not None:
            parts.append(g.matrix.tobytes())
    return b"".join(parts)


def main():
    digests = {name: hashlib.sha256() for name in ("gates", "phases", "sequence", "diagnostics")}
    for label, c, text in outputs():
        digests["gates"].update(label.encode() + _gate_bytes(c))
        digests["phases"].update(f"{label}|{float(c.global_phase).hex()}".encode())
        if text is not None:
            body = "".join(line for line in text.splitlines(True) if not line.startswith("PHASE "))
            digests["sequence"].update(label.encode() + body.encode())
    for text in parse_inputs():
        digests["diagnostics"].update(_diagnostic(text) + b"\0")
    for name, digest in digests.items():
        print(f"{name} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
