"""Print sha256 digests of what the compilers emit, to show a refactor keeps it.

Three digests, one line each:

* ``gates``: every circuit's width and, per gate, kind, qubits, parameters
  as float hex, polarities and matrix bytes;
* ``phases``: every circuit's global phase as float hex;
* ``sequence``: every emitted SEQUENCE text less its ``PHASE`` line, which
  ``phases`` already covers.

Inputs: Haar unitaries (``random_unitary``) on n = 1..5 qubits, seeds 0-9,
through QRD (lowered, unlowered, and lowered without control dropping) and
QSD; each lowered circuit also goes through retarget and SEQUENCE output.
Every OpenQASM file of ``tests/qasm_corpus`` that parses is parsed, rendered
back to QASM (the ``// global phase`` comment becomes the reparsed circuit's
phase), and retargeted.

Run it on two checkouts and compare the lines:

    python tools/same_output.py
"""

import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from atomqc import circuit as cir
from atomqc.exceptions import AtomqcError
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
    for path in sorted((ROOT / "tests" / "qasm_corpus").glob("*.qasm")):
        try:
            c = parse_qasm(path.read_text(encoding="utf-8"))
        except AtomqcError:
            continue
        yield path.name, c, None
        yield f"{path.name} rendered", _rendered(c), None
        native = retarget_circuit(c)
        yield f"{path.name} native", native, emit_sequence(native)


def _gate_bytes(c):
    parts = [f"{c.n_qubits}".encode()]
    for g in c.gates:
        params = ",".join(float(p).hex() for p in g.params)
        parts.append(f"{g.kind}|{g.qubits}|{params}|{g.polarities}|".encode())
        if g.matrix is not None:
            parts.append(g.matrix.tobytes())
    return b"".join(parts)


def main():
    digests = {name: hashlib.sha256() for name in ("gates", "phases", "sequence")}
    for label, c, text in outputs():
        digests["gates"].update(label.encode() + _gate_bytes(c))
        digests["phases"].update(f"{label}|{float(c.global_phase).hex()}".encode())
        if text is not None:
            body = "".join(line for line in text.splitlines(True) if not line.startswith("PHASE "))
            digests["sequence"].update(label.encode() + body.encode())
    for name, digest in digests.items():
        print(f"{name} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
