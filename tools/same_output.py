"""Print sha256 digests of what the compilers emit, to show a refactor keeps it.

Four digests, one line each:

* ``gates``: every circuit's width and, per gate, kind, qubits, parameters
  as float hex, polarities and matrix bytes;
* ``phases``: every circuit's global phase as float hex;
* ``sequence``: every emitted SEQUENCE text less its ``PHASE`` line, which
  ``phases`` already covers;
* ``diagnostics``: what ``parse_qasm`` makes of 350,000 seeded texts, and
  ``parse_sequence`` and ``read_matrix`` of 200,000 more: the exception's
  type, message, line and column, or the gates and phase of the circuit, or
  the matrix bytes.

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
50,000 ``rx(<expr>)`` statements over an angle-expression alphabet.  The
SEQUENCE texts are 80,000 seeded token strings (a third each bare, after
a ``SEQUENCE 1`` header, and after it and ``QUBITS 3``), 20,000 single
``C``/``CZ``/``CCZ`` instructions on 3 qubits with qubits drawn from -1..4,
and 40,000 emitted SEQUENCE texts (QRD and QSD, n = 1, 2, seeds 0-2, and
QSD n = 3, seed 0, all retargeted) with one character replaced, inserted or
deleted; the matrix texts are 60,000 ``write_matrix`` texts of
Haar unitaries on 1..3 qubits, edited the same way.  Every text is ASCII.

Run it on two checkouts and compare the lines:

    python tools/same_output.py
"""

import os

# One BLAS/OpenMP thread, set before numpy is imported, as perfbench/run.py
# does: a BLAS sum split over threads can round differently, so the
# digests would depend on the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from atomqc import circuit as cir
from atomqc.exceptions import AtomqcError, MatrixFormatError, QasmSyntaxError, SequenceSyntaxError
from atomqc.formats import (emit_sequence, parse_qasm, parse_sequence, read_matrix, render_qasm,
                            write_matrix)
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


def _edits(rng, texts, m):
    """``m`` of ``texts`` with one ASCII character replaced, inserted or deleted."""
    picks = rng.integers(len(texts), size=m).tolist()
    where = rng.random(m).tolist()
    edits = rng.integers(3, size=m).tolist()
    chars = rng.choice(np.array(list("\n\t" + "".join(map(chr, range(32, 127))))), size=m)
    for pick, at, edit, ch in zip(picks, where, edits, chars.tolist()):
        base = texts[pick]
        pos = int(at * len(base))
        # 0 replaces the character at ``pos``, 1 inserts before it, 2 deletes it.
        yield base[:pos] + ("" if edit == 2 else ch) + base[pos + (edit != 1):]


def sequence_inputs():
    """Yield the SEQUENCE ``diagnostics`` texts, in a fixed order."""
    rng = np.random.default_rng(4321)
    tokens = np.array(["SEQUENCE", "QUBITS", "PHASE", "C", "CZ", "CCZ", "CNOT", "0", "1", "2",
                       "3", "-1", "0.5", "-2.5e-3", "1e309", "nan", "1_0", " ", " ", "\t", "\n",
                       "\n", "\n", "\r\n", "#", "x"])
    heads = ("", "SEQUENCE 1\n", "SEQUENCE 1\nQUBITS 3\n")
    lengths = rng.integers(0, 24, size=80_000).tolist()
    headed = rng.integers(len(heads), size=80_000).tolist()
    for length, head in zip(lengths, headed):
        yield heads[head] + "".join(rng.choice(tokens, size=length))
    # Instructions whose qubits may repeat or leave the width, where the
    # qubit checks speak.
    qubits = rng.integers(-1, 5, size=(20_000, 3)).tolist()
    picks = rng.integers(3, size=20_000).tolist()
    for (a, b, c), pick in zip(qubits, picks):
        yield "SEQUENCE 1\nQUBITS 3\n" + (f"C {a} 0.5 1", f"CZ {a} {b}", f"CCZ {a} {b} {c}")[pick]
    # QRD's n = 3 texts (418 lines) would take most of the time.
    cases = [(compile_, n, seed) for compile_ in (qrd_compile, qsd_compile)
             for n in (1, 2) for seed in range(3)] + [(qsd_compile, 3, 0)]
    texts = [emit_sequence(retarget_circuit(compile_(random_unitary(n, seed))))
             for compile_, n, seed in cases]
    yield from _edits(rng, texts, 40_000)


def matrix_inputs():
    """Yield the matrix ``diagnostics`` texts, in a fixed order."""
    rng = np.random.default_rng(2143)
    texts = [write_matrix(random_unitary(n, seed)) for n in (1, 2, 3) for seed in range(3)]
    yield from _edits(rng, texts, 60_000)


def _diagnostic(parse, text):
    """What ``parse(text)`` gives as bytes, or its error's type, message, line and column."""
    try:
        out = parse(text)
    except AtomqcError as exc:
        if isinstance(exc, QasmSyntaxError):
            where = (exc.line, exc.col)
        elif isinstance(exc, (SequenceSyntaxError, MatrixFormatError)):
            where = (exc.line,)
        else:
            where = ()
        return f"{type(exc).__name__}|{exc}|{where}".encode()
    if isinstance(out, np.ndarray):
        return out.tobytes()
    return _gate_bytes(out) + float(out.global_phase).hex().encode()


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
    # A huge but finite matrix entry overflows in the unitarity check's matmul,
    # which then rejects the matrix as not unitary.
    with np.errstate(over="ignore", invalid="ignore"):
        for parse, texts in ((parse_qasm, parse_inputs()), (parse_sequence, sequence_inputs()),
                             (read_matrix, matrix_inputs())):
            for text in texts:
                digests["diagnostics"].update(_diagnostic(parse, text) + b"\0")
    for name, digest in digests.items():
        print(f"{name} {digest.hexdigest()}")


if __name__ == "__main__":
    main()
