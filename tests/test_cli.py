"""End-to-end tests of the command-line interface.

These call ``atomqc.cli.main`` in-process with argv lists, which keeps the
suite fast while still exercising the argument parsing, exit codes, and
file IO paths.
"""

import pathlib

import numpy as np
import pytest

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
from atomqc.formats import parse_sequence, write_matrix
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
    ],
)
def test_bad_input_exit_codes(tmp_path, capsys, monkeypatch, argv, env, code, message):
    (tmp_path / "eye1.mat").write_text(write_matrix(np.eye(1)))
    (tmp_path / "eye3.mat").write_text(write_matrix(np.eye(3)))
    (tmp_path / "eye4.mat").write_text(write_matrix(np.eye(4)))
    (tmp_path / "nan.seq").write_text("SEQUENCE 1\nQUBITS 2\nC 0 nan inf\n")
    monkeypatch.delenv("ATOMQC_MAX_QUBITS", raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    argv = [arg.format(tmp=tmp_path, corpus=CORPUS) for arg in argv]
    assert main(argv) == code
    assert message in capsys.readouterr().err
