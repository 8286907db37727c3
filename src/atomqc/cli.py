"""Command-line frontend.

Subcommands: ``compile`` (matrix file to circuit), ``retarget`` (QASM to
SEQUENCE), ``verify`` (circuit vs matrix), ``bench`` (count/time sweep over
Haar samples).  Exit codes are a stable contract: 0 ok, 1 I/O or usage
error, 2 invalid input matrix, 3 verification failure, 4 parse error.
"""

import argparse
import os
import re
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
from .formats import emit_sequence, parse_circuit, parse_qasm, read_matrix, render_qasm
from .linalg import MAX_QUBITS, random_unitary
from .qrd import qrd_compile
from .qsd import qsd_compile
from .quaternion import TOL_RECON
from .retarget import retarget_circuit
from .simulate import VERIFY_TOL, circuit_unitary, verify

EXIT_OK = 0
EXIT_IO = 1
EXIT_BAD_MATRIX = 2
EXIT_VERIFY = 3
EXIT_PARSE = 4

# The exit code of each error type, read by ``main`` and ``_parse_file``;
# any other ``AtomqcError`` exits ``EXIT_IO``.
EXIT_CODES = {
    **dict.fromkeys((MatrixFormatError, NotUnitary, NotPowerOfTwo, DimMismatch), EXIT_BAD_MATRIX),
    **dict.fromkeys((QasmSyntaxError, SequenceSyntaxError, UnsupportedGate), EXIT_PARSE),
}

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


def _fail(code, message):
    """Print ``error: <message>`` to stderr and exit with ``code``."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


def _exit_code(exc):
    return next((code for kind, code in EXIT_CODES.items() if isinstance(exc, kind)), EXIT_IO)


def _max_qubits(default=8):
    env = os.environ.get("ATOMQC_MAX_QUBITS")
    if env is None:
        return default
    if not re.fullmatch(r"[+-]?[0-9]+", env):  # int() also reads other digits and "1_0"
        _fail(EXIT_IO, f"ATOMQC_MAX_QUBITS must be an integer, got {env!r}")
    return min(max(int(env), 1), MAX_QUBITS)


def _positive(name, value):
    """``value`` if it is a number above zero; otherwise exit with an error."""
    if not value > 0:  # also rejects nan
        _fail(EXIT_IO, f"{name} must be positive, got {value}")
    return value


def _read_text(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        _fail(EXIT_IO, f"cannot read {path}: {exc}")


def _write_text(path, text):
    """Write ``text`` to the file at ``path``, or to stdout when ``path`` is empty."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        _fail(EXIT_IO, f"cannot write {path}: {exc}")


def _parse_file(path, parse):
    """``parse`` of the file at ``path``; an error in ``EXIT_CODES`` names the path."""
    try:
        return parse(_read_text(path))
    except tuple(EXIT_CODES) as exc:
        _fail(_exit_code(exc), f"{path}: {exc}")


def _haar_matrix(spec, seed, max_qubits):
    """Sample the unitary named by the specifier ``haar:<n>``, n >= 1."""
    if seed < 0:
        _fail(EXIT_IO, f"--seed must be non-negative, got {seed}")
    digits = spec.split(":", 1)[1]
    if not re.fullmatch(r"[0-9]+", digits) or int(digits) < 1:  # ASCII digits, no sign or "_"
        _fail(EXIT_BAD_MATRIX, f"bad matrix specifier {spec!r}; expected haar:<n>, n >= 1")
    return random_unitary(int(digits), seed, max_qubits)


def _compile_one(u, method, retarget, tol, max_qubits):
    compiler = qrd_compile if method == "qrd" else qsd_compile
    start = time.perf_counter()
    c = compiler(u, max_qubits=max_qubits)
    if retarget:
        c = retarget_circuit(c, tol)
    return c, time.perf_counter() - start


def cmd_compile(args):
    tol = _positive("--tol", args.tol)
    verify_tol = _positive("--verify-tol", args.verify_tol)
    max_qubits = _max_qubits()
    if args.matrix.startswith("haar:"):
        u = _haar_matrix(args.matrix, args.seed, max_qubits)
    else:
        u = _parse_file(args.matrix, read_matrix)
    c, wall = _compile_one(u, args.method, args.retarget, tol, max_qubits)
    report = verify(c, u, tol=verify_tol)
    _write_text(args.out, emit_sequence(c) if args.retarget else render_qasm(c))
    method = f"{args.method} + retarget" if args.retarget else args.method
    print(report_text(report, method, wall), file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_VERIFY


def cmd_retarget(args):
    _positive("--tol", args.tol)
    c = _parse_file(args.qasm, parse_qasm)
    start = time.perf_counter()
    r = retarget_circuit(c)
    wall = time.perf_counter() - start
    _write_text(args.out, emit_sequence(r))
    if c.n_qubits <= MAX_QUBITS:
        report = verify(r, circuit_unitary(c), tol=args.tol)
        print(report_text(report, "retarget", wall), file=sys.stderr)
        return EXIT_OK if report.passed else EXIT_VERIFY
    print(f"warning: {c.n_qubits} qubits exceeds the simulation cap; "
          "verification skipped", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args):
    _positive("--tol", args.tol)
    c = _parse_file(args.circuit, parse_circuit)
    if args.matrix.startswith("haar:"):
        _fail(EXIT_BAD_MATRIX, f"verify needs a matrix file, got {args.matrix!r}")
    report = verify(c, _parse_file(args.matrix, read_matrix), tol=args.tol)
    print(report_text(report, "", 0.0))
    if not report.passed:
        print(f"verification failed: distance {report.distance:.3e} >= {args.tol:g}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_bench(args):
    cap = _max_qubits()
    if not 1 <= args.n_min <= args.n_max <= cap:
        _fail(EXIT_IO, f"need 1 <= n-min <= n-max <= {cap}")
    _positive("--samples", args.samples)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        _fail(EXIT_IO, f"no method in --methods {args.methods!r}")
    rows = []
    for method_tag in methods:
        method, _, suffix = method_tag.partition("+")
        retarget = suffix == "retarget"
        if method not in ("qrd", "qsd") or (suffix and not retarget):
            _fail(EXIT_IO, f"unknown method {method_tag!r}")
        for n in range(args.n_min, args.n_max + 1):
            for seed in range(args.samples):
                u = random_unitary(n, seed, cap)
                c, wall = _compile_one(u, method, retarget, TOL_RECON, cap)
                row = csv_row(verify(c, u), method_tag, seed, retarget, wall)
                rows.append((method_tag, n, seed, row))
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    _write_text(args.out, "\n".join([CSV_HEADER] + [r[3] for r in rows]) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1: argparse's own 2 means an invalid input matrix here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
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
    p.add_argument("--tol", type=float, default=TOL_RECON,
                   help="reconstruction tolerance override")
    p.add_argument("--verify-tol", type=float, default=VERIFY_TOL)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("retarget", help="retarget an OpenQASM file to SEQUENCE")
    p.add_argument("qasm")
    p.add_argument("--out", metavar="PATH")
    p.add_argument("--tol", type=float, default=VERIFY_TOL)
    p.set_defaults(func=cmd_retarget)

    p = sub.add_parser("verify", help="check a circuit file against a matrix file")
    p.add_argument("circuit", help="QASM or SEQUENCE file (sniffed by header)")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=VERIFY_TOL)
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
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except AtomqcError as exc:
            _fail(_exit_code(exc), exc)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
