"""Command-line frontend.

Subcommands: ``compile`` (matrix file to circuit), ``retarget`` (QASM to
SEQUENCE), ``verify`` (circuit vs matrix), ``bench`` (count/time sweep over
Haar samples).  Exit codes are a stable contract: 0 ok, 1 I/O, 2 invalid
input matrix, 3 verification failure, 4 parse error.
"""

import argparse
import os
import sys
import time

from .exceptions import (
    AtomqcError,
    DimMismatch,
    MatrixFormatError,
    NotPowerOfTwo,
    NotUnitary,
    QasmSyntaxError,
    SequenceSyntaxError,
    UnsupportedGate,
)
from .formats import emit_sequence, parse_qasm, parse_sequence, read_matrix, render_qasm
from .linalg import DEFAULT_TOL, MAX_QUBITS, Tolerances, random_unitary
from .qrd import qrd_compile
from .qsd import qsd_compile
from .retarget import retarget_circuit
from .simulate import circuit_unitary, verify

EXIT_OK = 0
EXIT_IO = 1
EXIT_BAD_MATRIX = 2
EXIT_VERIFY = 3
EXIT_PARSE = 4

CSV_HEADER = (
    "method,n,seed,cnot_or_cz_count,single_qubit_count,"
    "c_pulse_count,lower_bound,distance,wall_time_s"
)


def report_text(report, method, wall_time):
    """Human-readable verdict block for a ``verify`` report."""
    lines = [
        f"qubits:          {report.n_qubits}",
        f"method:          {method}",
        f"entangling:      {report.counts.entangling_total}",
        f"single-qubit:    {report.counts.single_qubit_total}",
        f"cnot lower bound:{report.lower_bound:>6}",
        f"distance:        {report.distance:.3e}",
        f"wall time [s]:   {wall_time:.4f}",
        f"verdict:         {'PASS' if report.passed else 'FAIL'}",
    ]
    return "\n".join(lines)


def csv_row(report, method_tag, seed, retargeted, wall_time):
    """One ``bench`` row, in the column order of ``CSV_HEADER``."""
    counts = report.counts
    ent = counts.get("CZ") if retargeted else counts.get("CNOT")
    return (
        f"{method_tag},{report.n_qubits},{seed},{ent},"
        f"{counts.single_qubit_total},{counts.get('C')},"
        f"{report.lower_bound},{report.distance:.3e},{wall_time:.6f}"
    )


def _max_qubits(default=8):
    env = os.environ.get("ATOMQC_MAX_QUBITS")
    if env is None:
        return default
    try:
        value = int(env)
    except ValueError:
        print(f"error: ATOMQC_MAX_QUBITS must be an integer, got {env!r}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    return min(max(value, 1), MAX_QUBITS)


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _write_text(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _load_matrix(path, tol):
    try:
        return read_matrix(_read_text(path), tol)
    except NotUnitary as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_MATRIX)
    except MatrixFormatError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_BAD_MATRIX)


def _haar_matrix(spec, seed, max_qubits):
    """Sample the unitary named by the specifier ``haar:<n>``."""
    try:
        n = int(spec.split(":", 1)[1])
    except ValueError:
        print(f"error: bad matrix specifier {spec!r}; expected haar:<n>", file=sys.stderr)
        raise SystemExit(EXIT_BAD_MATRIX)
    return random_unitary(n, seed, max_qubits)


def _compile_one(u, method, retarget, tol, max_qubits):
    compiler = qrd_compile if method == "qrd" else qsd_compile
    start = time.perf_counter()
    c = compiler(u, tol=tol, max_qubits=max_qubits)
    if retarget:
        c = retarget_circuit(c, tol)
    wall = time.perf_counter() - start
    return c, wall


def cmd_compile(args):
    tol = Tolerances(tol_recon=args.tol) if args.tol else DEFAULT_TOL
    max_qubits = _max_qubits()
    if args.matrix.startswith("haar:"):
        u = _haar_matrix(args.matrix, args.seed, max_qubits)
    else:
        u = _load_matrix(args.matrix, tol)
    try:
        c, wall = _compile_one(u, args.method, args.retarget, tol, max_qubits)
    except (NotUnitary, NotPowerOfTwo) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MATRIX
    report = verify(c, u, tol=args.verify_tol)
    text = emit_sequence(c) if args.retarget else render_qasm(c)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    method = f"{args.method} + retarget" if args.retarget else args.method
    print(report_text(report, method, wall), file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_retarget(args):
    text = _read_text(args.qasm)
    try:
        c = parse_qasm(text)
    except (QasmSyntaxError, UnsupportedGate) as exc:
        print(f"error: {args.qasm}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    start = time.perf_counter()
    try:
        r = retarget_circuit(c)
    except UnsupportedGate as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    wall = time.perf_counter() - start
    out_text = emit_sequence(r)
    if args.out:
        _write_text(args.out, out_text)
    else:
        sys.stdout.write(out_text)
    if c.n_qubits <= MAX_QUBITS:
        report = verify(r, circuit_unitary(c), tol=args.tol)
        print(report_text(report, "retarget", wall), file=sys.stderr)
        return EXIT_OK if report.passed else EXIT_VERIFY
    print(f"warning: {c.n_qubits} qubits exceeds the simulation cap; "
          "verification skipped", file=sys.stderr)
    return EXIT_OK


def _parse_circuit_file(path):
    text = _read_text(path)
    head = text.lstrip().split(None, 1)
    try:
        if head and head[0] == "SEQUENCE":
            return parse_sequence(text)
        return parse_qasm(text)
    except (QasmSyntaxError, SequenceSyntaxError, UnsupportedGate) as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)


def cmd_verify(args):
    c = _parse_circuit_file(args.circuit)
    if args.matrix.startswith("haar:"):
        print(f"error: verify needs a matrix file, got {args.matrix!r}", file=sys.stderr)
        return EXIT_BAD_MATRIX
    u = _load_matrix(args.matrix, DEFAULT_TOL)
    try:
        report = verify(c, u, tol=args.tol)
    except DimMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_MATRIX
    print(report_text(report, "", 0.0))
    if not report.passed:
        print(f"verification failed: distance {report.distance:.3e} >= {args.tol:g}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_bench(args):
    cap = _max_qubits()
    if not 1 <= args.n_min <= args.n_max <= cap:
        print(f"error: need 1 <= n-min <= n-max <= {cap}", file=sys.stderr)
        return EXIT_IO
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    rows = []
    for method_tag in methods:
        method, _, suffix = method_tag.partition("+")
        retarget = suffix == "retarget"
        if method not in ("qrd", "qsd") or (suffix and not retarget):
            print(f"error: unknown method {method_tag!r}", file=sys.stderr)
            return EXIT_IO
        for n in range(args.n_min, args.n_max + 1):
            for seed in range(args.samples):
                u = random_unitary(n, seed, cap)
                c, wall = _compile_one(u, method, retarget, DEFAULT_TOL, cap)
                row = csv_row(verify(c, u), method_tag, seed, retarget, wall)
                rows.append((method_tag, n, seed, row))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    csv = "\n".join([CSV_HEADER] + [r[3] for r in rows]) + "\n"
    if args.out:
        _write_text(args.out, csv)
    else:
        sys.stdout.write(csv)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="atomqc",
        description="Compile unitary matrices to neutral-atom pulse sequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a unitary matrix file to a circuit")
    p.add_argument("matrix", help="matrix file path, or haar:<n> for a random unitary")
    p.add_argument("--method", choices=("qrd", "qsd"), default="qsd")
    p.add_argument("--retarget", action="store_true",
                   help="emit a SEQUENCE file over {C, CZ, CCZ} instead of QASM")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=None,
                   help="reconstruction tolerance override")
    p.add_argument("--verify-tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("retarget", help="retarget an OpenQASM file to SEQUENCE")
    p.add_argument("qasm")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_retarget)

    p = sub.add_parser("verify", help="check a circuit file against a matrix file")
    p.add_argument("circuit", help="QASM or SEQUENCE file (sniffed by header)")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=1e-7)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="count/time sweep over Haar-random unitaries")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--methods", default="qrd,qsd",
                   help="comma list of qrd, qsd, qrd+retarget, qsd+retarget")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_IO
    except AtomqcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
