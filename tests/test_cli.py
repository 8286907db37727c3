"""End-to-end tests of the command-line interface.

These call ``atomqc.cli.main`` in-process with argv lists, which keeps the
suite fast while still exercising the argument parsing, exit codes, and
file IO paths.
"""

import pathlib
import warnings

import numpy as np
import pytest
from test_formats import UNICODE_BLANKS

from atomqc import circuit as cir
from atomqc.cli import (
    CSV_HEADER,
    EXIT_BAD_MATRIX,
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    csv_row,
    main,
)
from atomqc.formats import parse_sequence, read_matrix, write_matrix
from atomqc.linalg import phase_distance, random_unitary
from atomqc.simulate import circuit_unitary, verify

CORPUS = pathlib.Path(__file__).parent / "qasm_corpus"


def _write_unitary(tmp_path, n, seed=0, name="u.mat"):
    path = tmp_path / name
    u = random_unitary(n, seed=seed)
    path.write_text(write_matrix(u))
    return path, u


# ---------------------------------------------------------------------------
# compile
# ---------------------------------------------------------------------------


def test_compile_writes_qasm(tmp_path, capsys):
    path, _ = _write_unitary(tmp_path, 2)
    out = tmp_path / "c.qasm"
    assert main(["compile", str(path), "--out", str(out)]) == EXIT_OK
    assert out.read_text().splitlines()[0].startswith(("OPENQASM", "//"))
    report = capsys.readouterr().err
    assert "distance" in report


def test_compile_stdout_by_default(tmp_path, capsys):
    path, _ = _write_unitary(tmp_path, 1)
    assert main(["compile", str(path)]) == EXIT_OK
    captured = capsys.readouterr()
    assert "qreg q[1];" in captured.out


def test_compile_retarget_emits_sequence(tmp_path, capsys):
    path, u = _write_unitary(tmp_path, 2, seed=3)
    out = tmp_path / "c.seq"
    assert main(["compile", str(path), "--retarget", "--out", str(out)]) == EXIT_OK
    c = parse_sequence(out.read_text())
    assert phase_distance(circuit_unitary(c), u) < 1e-7


def test_compile_haar_specifier(tmp_path, capsys):
    out = tmp_path / "c.qasm"
    assert main(["compile", "haar:3", "--method", "qrd", "--seed", "7",
                 "--out", str(out)]) == EXIT_OK
    text1 = out.read_text()
    assert main(["compile", "haar:3", "--method", "qrd", "--seed", "7",
                 "--out", str(out)]) == EXIT_OK
    assert out.read_text() == text1  # deterministic in the seed


def test_compile_identity_is_empty_program(tmp_path, capsys):
    path = tmp_path / "eye.mat"
    path.write_text(write_matrix(np.eye(4)))
    assert main(["compile", str(path), "--retarget"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines() == ["SEQUENCE 1", "QUBITS 2"]


def test_compile_missing_file(tmp_path, capsys):
    assert main(["compile", str(tmp_path / "nope.mat")]) == EXIT_IO


def test_compile_non_unitary(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_text(write_matrix(np.eye(2) * 1.5))
    assert main(["compile", str(path)]) == EXIT_BAD_MATRIX


def test_compile_malformed_matrix(tmp_path, capsys):
    path = tmp_path / "bad.mat"
    path.write_text("2\n1+0i\n0+0i 1+0i\n")
    assert main(["compile", str(path)]) == EXIT_BAD_MATRIX


def test_compile_respects_env_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("ATOMQC_MAX_QUBITS", "2")
    path, _ = _write_unitary(tmp_path, 3)
    assert main(["compile", str(path)]) == EXIT_IO
    monkeypatch.setenv("ATOMQC_MAX_QUBITS", "not-a-number")
    assert main(["compile", str(path)]) == EXIT_IO


def test_width_cap_has_one_message(tmp_path, capsys, monkeypatch):
    # A sampled width above the cap reads like a file's: "<n> qubits exceeds limit <cap>".
    monkeypatch.delenv("ATOMQC_MAX_QUBITS", raising=False)
    sampled = main(["compile", "haar:9"])
    sampled_err = capsys.readouterr().err
    monkeypatch.setenv("ATOMQC_MAX_QUBITS", "2")
    path, _ = _write_unitary(tmp_path, 3)
    read = main(["compile", str(path)])
    read_err = capsys.readouterr().err
    assert sampled == read == EXIT_IO
    assert sampled_err == "error: 9 qubits exceeds limit 8\n"
    assert read_err == "error: 3 qubits exceeds limit 2\n"


# ---------------------------------------------------------------------------
# retarget
# ---------------------------------------------------------------------------


def test_retarget_bell(tmp_path, capsys):
    out = tmp_path / "bell.seq"
    assert main(["retarget", str(CORPUS / "bell.qasm"), "--out", str(out)]) == EXIT_OK
    c = parse_sequence(out.read_text())
    kinds = [g.kind for g in c.gates]
    assert kinds.count("CZ") == 1
    assert set(kinds) <= {"C", "CZ"}


def test_retarget_crlf_bell(tmp_path, capsys):
    path = tmp_path / "bell_crlf.qasm"
    path.write_bytes((CORPUS / "bell.qasm").read_bytes().replace(b"\n", b"\r\n"))
    assert main(["retarget", str(path)]) == EXIT_OK
    crlf = capsys.readouterr().out
    assert main(["retarget", str(CORPUS / "bell.qasm")]) == EXIT_OK
    assert crlf == capsys.readouterr().out


def test_retarget_toffoli_keeps_ccz(tmp_path, capsys):
    assert main(["retarget", str(CORPUS / "toffoli.qasm")]) == EXIT_OK
    out = capsys.readouterr().out
    assert sum(1 for ln in out.splitlines() if ln.startswith("CCZ")) == 1
    assert not any(ln.startswith("CZ ") for ln in out.splitlines())


def test_retarget_parse_error_exit_code(capsys):
    assert main(["retarget", str(CORPUS / "err_measure.qasm")]) == EXIT_PARSE
    assert main(["retarget", str(CORPUS / "err_syntax.qasm")]) == EXIT_PARSE


def test_retarget_missing_file(tmp_path, capsys):
    assert main(["retarget", str(tmp_path / "nope.qasm")]) == EXIT_IO


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_qasm_against_matrix(tmp_path, capsys):
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    bell = cnot @ np.kron(h, np.eye(2))
    mat = tmp_path / "bell.mat"
    mat.write_text(write_matrix(bell))
    assert main(["verify", str(CORPUS / "bell.qasm"), str(mat)]) == EXIT_OK
    assert "distance" in capsys.readouterr().out


def test_verify_mismatch(tmp_path, capsys):
    path, _ = _write_unitary(tmp_path, 2, seed=11)
    assert main(["verify", str(CORPUS / "bell.qasm"), str(path)]) == EXIT_VERIFY


def test_verify_dim_mismatch(tmp_path, capsys):
    path, _ = _write_unitary(tmp_path, 3)
    assert main(["verify", str(CORPUS / "bell.qasm"), str(path)]) == EXIT_BAD_MATRIX


def test_verify_sequence_input(tmp_path, capsys):
    path, u = _write_unitary(tmp_path, 2, seed=4)
    seq = tmp_path / "c.seq"
    assert main(["compile", str(path), "--retarget", "--out", str(seq)]) == EXIT_OK
    assert main(["verify", str(seq), str(path)]) == EXIT_OK


def test_verify_sequence_with_leading_comment(tmp_path, capsys):
    # The format is sniffed from the first word outside comments.
    seq = tmp_path / "c.seq"
    seq.write_text("# pulses\n\nSEQUENCE 1\nQUBITS 1\nC 0 0.5 1\n")
    mat = tmp_path / "u.mat"
    mat.write_text(write_matrix(cir.c_matrix(0.5, 1.0)))
    assert main(["verify", str(seq), str(mat)]) == EXIT_OK
    assert "PASS" in capsys.readouterr().out


def test_verify_bad_sequence(tmp_path, capsys):
    seq = tmp_path / "bad.seq"
    seq.write_text("SEQUENCE 1\nQUBITS 2\nBOGUS 0\n")
    path, _ = _write_unitary(tmp_path, 2)
    assert main(["verify", str(seq), str(path)]) == EXIT_PARSE


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_csv_shape(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--n-min", "1", "--n-max", "2", "--samples", "2",
                 "--methods", "qsd", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == ("method,n,seed,cnot_or_cz_count,single_qubit_count,"
                        "c_pulse_count,lower_bound,distance,wall_time_s")
    assert len(lines) == 1 + 2 * 2


def test_bench_deterministic_counts(tmp_path, capsys):
    args = ["bench", "--n-min", "2", "--n-max", "2", "--samples", "1",
            "--methods", "qrd,qsd+retarget"]
    assert main(args) == EXIT_OK
    first = capsys.readouterr().out
    assert main(args) == EXIT_OK
    second = capsys.readouterr().out

    def strip_time(text):
        return [ln.rsplit(",", 1)[0] for ln in text.splitlines()]

    assert strip_time(first) == strip_time(second)
    assert any(ln.startswith("qsd+retarget,") for ln in first.splitlines())


def test_bench_rejects_bad_method(capsys):
    assert main(["bench", "--n-min", "1", "--n-max", "1",
                 "--methods", "magic"]) == EXIT_IO


def test_bench_rejects_bad_range(capsys):
    assert main(["bench", "--n-min", "3", "--n-max", "2"]) == EXIT_IO


def test_report_csv_row():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
    c = cir.Circuit(2, (cir.h(1), cir.cz(0, 1), cir.h(1)))
    row = csv_row(verify(c, cnot), "qsd", seed=3, retargeted=False, wall_time=0.5)
    fields = row.split(",")
    assert fields[0] == "qsd" and fields[1] == "2" and fields[2] == "3"
    assert len(fields) == len(CSV_HEADER.split(","))


# ---------------------------------------------------------------------------
# exit-code contract on bad input: a code and a message, never a traceback
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("argv", [["--help"], ["compile", "--help"]])
def test_help_exits_zero(capsys, argv):
    assert main(argv) == EXIT_OK
    assert "usage: atomqc" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, env, code, message",
    [
        (["compile", "haar:abc"], {}, EXIT_BAD_MATRIX, "expected haar:<n>"),
        (["compile", "haar:2"], {"ATOMQC_MAX_QUBITS": "foo"}, EXIT_IO,
         "ATOMQC_MAX_QUBITS must be an integer"),
        (["compile", "{tmp}/eye3.mat"], {}, EXIT_BAD_MATRIX, "not a power of two"),
        (["compile", "{tmp}/eye1.mat"], {}, EXIT_BAD_MATRIX, "not a power of two"),
        (["verify", "{corpus}/bell.qasm", "haar:2"], {}, EXIT_BAD_MATRIX,
         "verify needs a matrix file"),
        (["verify", "{tmp}/nan.seq", "{tmp}/eye4.mat"], {}, EXIT_PARSE, "must be finite"),
        (["compile", "haar:2", "--tol", "-1"], {}, EXIT_IO, "--tol must be positive"),
        (["compile", "haar:2", "--tol", "0"], {}, EXIT_IO, "--tol must be positive"),
        (["compile", "haar:2", "--verify-tol", "0"], {}, EXIT_IO,
         "--verify-tol must be positive"),
        (["compile", "haar:2", "--verify-tol=-1e-7"], {}, EXIT_IO,
         "--verify-tol must be positive"),
        (["retarget", "{corpus}/bell.qasm", "--tol", "0"], {}, EXIT_IO,
         "--tol must be positive"),
        (["verify", "{corpus}/bell.qasm", "{tmp}/eye4.mat", "--tol", "nan"], {}, EXIT_IO,
         "--tol must be positive"),
        (["bench", "--n-min", "1", "--n-max", "1", "--methods", ","], {}, EXIT_IO,
         "no method in --methods"),
        (["bench", "--n-min", "1", "--n-max", "1", "--samples", "0"], {}, EXIT_IO,
         "--samples must be positive"),
        (["compile"], {}, EXIT_IO, "error: the following arguments are required: matrix"),
        (["compile", "haar:2", "--bogus"], {}, EXIT_IO, "error: unrecognized arguments: --bogus"),
        (["bogus"], {}, EXIT_IO, "error: argument command: invalid choice"),
        (["compile", "haar:2", "--verify-tol", "-1e-7"], {}, EXIT_IO, "--verify-tol"),
        (["retarget", "{corpus}/err_div_zero.qasm"], {}, EXIT_PARSE,
         "division by zero in angle expression (line 3, col 5)"),
        (["verify", "{corpus}/err_div_zero.qasm", "{tmp}/eye4.mat"], {}, EXIT_PARSE,
         "division by zero in angle expression (line 3, col 5)"),
        (["retarget", "{corpus}/err_inf_angle.qasm"], {}, EXIT_PARSE,
         "angle must be finite, got inf (line 3, col 4)"),
        (["verify", "{corpus}/err_inf_angle.qasm", "{tmp}/eye4.mat"], {}, EXIT_PARSE,
         "angle must be finite, got inf (line 3, col 4)"),
        (["verify", "{tmp}/qubits_twice.seq", "{tmp}/eye4.mat"], {}, EXIT_PARSE,
         "QUBITS appears more than once (line 4)"),
        (["retarget", "{tmp}/overflow.qasm"], {}, EXIT_PARSE,
         "angle must be finite, got inf (line 3, col 7)"),
        (["retarget", "{tmp}/repeat.qasm"], {}, EXIT_PARSE,
         "repeat.qasm: cx repeats a qubit operand (line 3, col 9)"),
        (["compile", "haar:0"], {}, EXIT_BAD_MATRIX, "expected haar:<n>, n >= 1"),
        (["compile", "haar:-1"], {}, EXIT_BAD_MATRIX, "expected haar:<n>, n >= 1"),
        (["compile", "haar:2", "--seed", "-1"], {}, EXIT_IO,
         "error: --seed must be non-negative, got -1"),
        (["retarget", "{tmp}/s_pi.qasm"], {}, EXIT_PARSE,
         "s_pi.qasm: s takes 0 parameter(s), got 1 (line 3, col 1)"),
        (["verify", "{tmp}/s_pi.qasm", "{tmp}/eye2.mat"], {}, EXIT_PARSE,
         "s_pi.qasm: s takes 0 parameter(s), got 1 (line 3, col 1)"),
        (["retarget", "{tmp}/number_reg.qasm"], {}, EXIT_PARSE,
         "number_reg.qasm: expected register name, got '5' (line 1, col 6)"),
        (["compile", "haar:\u0662"], {}, EXIT_BAD_MATRIX, "expected haar:<n>, n >= 1"),
        (["compile", "haar:0_2"], {}, EXIT_BAD_MATRIX, "expected haar:<n>, n >= 1"),
        (["compile", "haar: 2"], {}, EXIT_BAD_MATRIX, "expected haar:<n>, n >= 1"),
        (["compile", "haar:+2"], {}, EXIT_BAD_MATRIX, "expected haar:<n>, n >= 1"),
        (["compile", "haar:2"], {"ATOMQC_MAX_QUBITS": "\u0663"}, EXIT_IO,
         "error: ATOMQC_MAX_QUBITS must be an integer, got '\u0663'"),
        (["compile", "haar:2"], {"ATOMQC_MAX_QUBITS": "-1"}, EXIT_IO,
         "error: 2 qubits exceeds limit 1"),
        (["verify", "{tmp}/fs.seq", "{tmp}/eye2.mat"], {}, EXIT_PARSE,
         "SEQUENCE takes 1 argument(s), got 2 (line 1)"),
        (["verify", "{tmp}/ls.seq", "{tmp}/eye2.mat"], {}, EXIT_PARSE,
         "SEQUENCE takes 1 argument(s), got 2 (line 1)"),
        (["compile", "{tmp}/fs.mat"], {}, EXIT_BAD_MATRIX,
         "bad dimension line '2\\x1c1+0i 0+0i'"),
        (["compile", "{tmp}/ls.mat"], {}, EXIT_BAD_MATRIX,
         "bad dimension line '1\\u20281+0i'"),
    ],
)
def test_bad_input_exit_codes(tmp_path, capsys, monkeypatch, argv, env, code, message):
    (tmp_path / "eye1.mat").write_text(write_matrix(np.eye(1)))
    (tmp_path / "eye3.mat").write_text(write_matrix(np.eye(3)))
    (tmp_path / "eye4.mat").write_text(write_matrix(np.eye(4)))
    (tmp_path / "nan.seq").write_text("SEQUENCE 1\nQUBITS 2\nC 0 nan inf\n")
    (tmp_path / "qubits_twice.seq").write_text("SEQUENCE 1\nQUBITS 3\nCZ 0 2\nQUBITS 2\n")
    (tmp_path / "overflow.qasm").write_text("OPENQASM 2.0;\nqreg q[1];\nrx(1/(1e308*10)) q[0];\n")
    (tmp_path / "repeat.qasm").write_text("OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[0];\n")
    (tmp_path / "eye2.mat").write_text(write_matrix(np.eye(2)))
    (tmp_path / "s_pi.qasm").write_text("OPENQASM 2.0;\nqreg q[1];\ns(pi) q[0];\n")
    (tmp_path / "number_reg.qasm").write_text("qreg 5[2]; qreg q[1]; h q[0];\n")
    # A file separator (\x1c) or a line separator (U+2028) does not end a line.
    (tmp_path / "fs.seq").write_text("SEQUENCE 1\x1cQUBITS 1\n")
    (tmp_path / "ls.seq").write_text("SEQUENCE 1\u2028QUBITS 1\nC 0 0.5 0\n", encoding="utf-8")
    (tmp_path / "fs.mat").write_text("2\x1c1+0i 0+0i\n0+0i 1+0i\n")
    (tmp_path / "ls.mat").write_text("1\u20281+0i\n", encoding="utf-8")
    monkeypatch.delenv("ATOMQC_MAX_QUBITS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [arg.format(tmp=tmp_path, corpus=CORPUS) for arg in argv]
    assert main(argv) == code
    assert message in capsys.readouterr().err


# One row per exit-code table entry and per failure site: the code and every
# byte of stderr.  ``{tmp}`` and ``{corpus}`` stand for the two directories.
@pytest.mark.parametrize(
    "argv, env, code, stderr",
    [
        (["compile", "{tmp}/malformed.mat"], {}, EXIT_BAD_MATRIX,
         "error: {tmp}/malformed.mat: row 0 has 1 entries, expected 2 (line 2)\n"),
        (["compile", "{tmp}/scaled.mat"], {}, EXIT_BAD_MATRIX,
         "error: {tmp}/scaled.mat: input matrix is not unitary to tolerance 1e-10\n"),
        (["compile", "{tmp}/eye3.mat"], {}, EXIT_BAD_MATRIX,
         "error: dimension 3 is not a power of two >= 2\n"),
        (["verify", "{corpus}/bell.qasm", "{tmp}/u3q.mat"], {}, EXIT_BAD_MATRIX,
         "error: shapes (4, 4) vs (8, 8)\n"),
        (["retarget", "{corpus}/err_syntax.qasm"], {}, EXIT_PARSE,
         "error: {corpus}/err_syntax.qasm: expected ';', got 'h' (line 3, col 1)\n"),
        (["verify", "{corpus}/err_undeclared.qasm", "{tmp}/u2q.mat"], {}, EXIT_PARSE,
         "error: {corpus}/err_undeclared.qasm: register 'r' not declared (line 3, col 3)\n"),
        (["verify", "{tmp}/bogus.seq", "{tmp}/u2q.mat"], {}, EXIT_PARSE,
         "error: {tmp}/bogus.seq: unknown instruction 'BOGUS' (line 3)\n"),
        (["retarget", "{corpus}/err_measure.qasm"], {}, EXIT_PARSE,
         "error: {corpus}/err_measure.qasm: 'measure' is not supported (line 3)\n"),
        (["compile", "haar:9"], {}, EXIT_IO, "error: 9 qubits exceeds limit 8\n"),
        (["compile", "haar:2"], {"ATOMQC_MAX_QUBITS": "foo"}, EXIT_IO,
         "error: ATOMQC_MAX_QUBITS must be an integer, got 'foo'\n"),
        (["compile", "haar:2", "--tol", "-1"], {}, EXIT_IO,
         "error: --tol must be positive, got -1.0\n"),
        (["compile", "{tmp}/nope.mat"], {}, EXIT_IO,
         "error: cannot read {tmp}/nope.mat: [Errno 2] No such file or directory: "
         "'{tmp}/nope.mat'\n"),
        (["compile", "haar:1", "--out", "{tmp}"], {}, EXIT_IO,
         "error: cannot write {tmp}: [Errno 21] Is a directory: '{tmp}'\n"),
        (["retarget", "{corpus}/bell.qasm", "--out", "{tmp}"], {}, EXIT_IO,
         "error: cannot write {tmp}: [Errno 21] Is a directory: '{tmp}'\n"),
        (["bench", "--n-min", "1", "--n-max", "1", "--samples", "1", "--methods", "qsd",
          "--out", "{tmp}"], {}, EXIT_IO,
         "error: cannot write {tmp}: [Errno 21] Is a directory: '{tmp}'\n"),
        (["compile", "haar:2", "--seed", "-1"], {}, EXIT_IO,
         "error: --seed must be non-negative, got -1\n"),
        (["compile", "haar:abc"], {}, EXIT_BAD_MATRIX,
         "error: bad matrix specifier 'haar:abc'; expected haar:<n>, n >= 1\n"),
        (["verify", "{corpus}/bell.qasm", "haar:2"], {}, EXIT_BAD_MATRIX,
         "error: verify needs a matrix file, got 'haar:2'\n"),
        (["verify", "{corpus}/bell.qasm", "{tmp}/u2q.mat"], {}, EXIT_VERIFY,
         "verification failed: distance 2.510e+00 >= 1e-07\n"),
        (["bench", "--n-min", "3", "--n-max", "2"], {}, EXIT_IO,
         "error: need 1 <= n-min <= n-max <= 8\n"),
        (["bench", "--n-min", "1", "--n-max", "9"], {"ATOMQC_MAX_QUBITS": "3"}, EXIT_IO,
         "error: need 1 <= n-min <= n-max <= 3\n"),
        (["bench", "--n-min", "1", "--n-max", "1", "--methods", ","], {}, EXIT_IO,
         "error: no method in --methods ','\n"),
        (["bench", "--n-min", "1", "--n-max", "1", "--methods", "magic"], {}, EXIT_IO,
         "error: unknown method 'magic'\n"),
        (["compile"], {}, EXIT_IO,
         "usage: atomqc compile [-h] [--method {{qrd,qsd}}] [--retarget] [--out PATH]\n"
         "                      [--seed SEED] [--tol TOL] [--verify-tol VERIFY_TOL]\n"
         "                      matrix\n"
         "atomqc compile: error: the following arguments are required: matrix\n"),
    ],
)
def test_error_lines_pinned(tmp_path, capsys, monkeypatch, argv, env, code, stderr):
    (tmp_path / "malformed.mat").write_text("2\n1+0i\n0+0i 1+0i\n")
    (tmp_path / "scaled.mat").write_text(write_matrix(np.eye(2) * 1.5))
    (tmp_path / "eye3.mat").write_text(write_matrix(np.eye(3)))
    (tmp_path / "u2q.mat").write_text(write_matrix(random_unitary(2, seed=11)))
    (tmp_path / "u3q.mat").write_text(write_matrix(random_unitary(3, seed=0)))
    (tmp_path / "bogus.seq").write_text("SEQUENCE 1\nQUBITS 2\nBOGUS 0\n")
    monkeypatch.delenv("ATOMQC_MAX_QUBITS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [arg.format(tmp=tmp_path, corpus=CORPUS) for arg in argv]
    assert main(argv) == code
    assert capsys.readouterr().err == stderr.format(tmp=tmp_path, corpus=CORPUS)


def test_non_finite_matrix_entry_exit_code(tmp_path, capsys):
    # Rejected with its file line before the unitarity check, so no numpy
    # warning reaches stderr either.
    path = tmp_path / "inf.mat"
    path.write_text("2\n1e999+0i 0+0i\n0+0i 1+0i\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compile", str(path)]) == EXIT_BAD_MATRIX
    assert capsys.readouterr().err == (
        f"error: {path}: entry '1e999+0i' at row 0, column 0 is not finite (line 2)\n")


def test_empty_out_writes_stdout(tmp_path, capsys):
    assert main(["retarget", str(CORPUS / "bell.qasm"), "--out", ""]) == EXIT_OK
    assert capsys.readouterr().out.startswith("SEQUENCE 1\n")



def test_non_ascii_numbers_exit_codes(tmp_path, capsys):
    mat = tmp_path / "digits.mat"
    mat.write_text("\u0661\n\u0661+0i\n", encoding="utf-8")
    assert main(["compile", str(mat)]) == EXIT_BAD_MATRIX
    assert capsys.readouterr().err == f"error: {mat}: bad dimension line '\u0661'\n"
    seq = tmp_path / "underscore.seq"
    seq.write_text("SEQUENCE 1\nQUBITS 1\nC 0 1_0 0\n")
    assert main(["verify", str(seq), str(mat)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: {seq}: C arguments must be ASCII numbers without '_' (line 3)\n")


@pytest.mark.parametrize("parse, text, message", UNICODE_BLANKS)
def test_unicode_blanks_exit_codes(tmp_path, capsys, parse, text, message):
    path = tmp_path / "blanks.txt"
    path.write_text(text, encoding="utf-8")
    (tmp_path / "eye4.mat").write_text(write_matrix(np.eye(4)))
    if parse is read_matrix:
        assert main(["compile", str(path)]) == EXIT_BAD_MATRIX
    else:
        assert main(["verify", str(path), str(tmp_path / "eye4.mat")]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
