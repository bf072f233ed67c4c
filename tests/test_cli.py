"""End-to-end command-line behavior: output formats, exit codes,
determinism."""

import ast
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import bianchisurf
from bianchisurf.census import enumerate_surfaces, xi
from bianchisurf.cli import EXIT_BROKEN_PIPE, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_area_output(capsys):
    rc, out, _ = run(capsys, "area", "3", "0", "-2")
    assert rc == EXIT_OK
    assert out == "2/3 · π ≈ 2.094395102393195\n"


def test_area_r_flag_does_not_change_value(capsys):
    rc, out, _ = run(capsys, "area", "15", "5", "-5", "--r", "3")
    rc2, out2, _ = run(capsys, "area", "15", "5", "-5")
    assert rc == rc2 == EXIT_OK
    assert out == out2


def test_check_outputs(capsys):
    rc, out, _ = run(capsys, "check", "39")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["admissible"] is False
    assert payload["h"] == 4
    assert payload["invariants"] == [4]
    rc, out, _ = run(capsys, "check", "3")
    assert json.loads(out)["admissible"] is True


def test_census_summary_json(capsys):
    rc, out, _ = run(capsys, "census", "3", "2.2")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload == {"d": 3, "X": "2.2", "xi": 5}


def test_census_csv_round_trip(capsys):
    rc, out, _ = run(capsys, "census", "3", "2.2", "--format", "csv")
    assert rc == EXIT_OK
    rows = list(csv.DictReader(io.StringIO(out)))
    records = enumerate_surfaces(3, "2.2")
    assert len(rows) == len(records) == 5
    for row, rec in zip(rows, records):
        assert int(row["m"]) == rec.m
        assert int(row["c"]) == rec.c
        assert int(row["r"]) == rec.r
        assert int(row["d0"]) == rec.d0
        assert int(row["D"]) == rec.D
        assert int(row["q_num"]) == rec.q.numerator
        assert int(row["q_den"]) == rec.q.denominator
        assert row["area_decimal"] == rec.area().decimal(15)


def test_census_records_json(capsys):
    rc, out, _ = run(capsys, "census", "3", "2.2", "--records")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["xi"] == xi(3, "2.2") == len(payload["records"])
    assert payload["records"][0]["q_num"] == 1
    assert payload["records"][0]["q_den"] == 3


def test_census_deterministic(capsys):
    _, out1, _ = run(capsys, "census", "15", "9.7", "--format", "csv")
    _, out2, _ = run(capsys, "census", "15", "9.7", "--format", "csv")
    assert out1 == out2


def test_infeasible_census_exit_code(capsys):
    # 4.5e10 candidates are past the budget of 2^34
    rc, out, err = run(capsys, "census", "3", "10000000000")
    assert rc == EXIT_DOMAIN
    assert out == "" and err.startswith("error:") and "budget" in err


def test_lemma_past_factorization_limit_exit_code(capsys):
    # progression lengths past the C ssize_t range are refused too, not crashed
    # on, and a threshold of 300000 digits before the envelope walk
    lemmas = (("3", "1", "0", "1000000000000"), ("3", "1", "0", "1e25"), ("15", "15", "4", "1e400"), ("3", "1", "0", "1e300000"))
    for args in lemmas:
        rc, out, err = run(capsys, "lemma-count", *args)
        assert rc == EXIT_DOMAIN
        assert out == "" and err.startswith("error:") and "factorization limit" in err


def test_lemma_count_unsupported_modulus_exit_code(capsys):
    # refused for any threshold, including X <= 1, where the count is empty
    for X in ("1", "100"):
        rc, out, err = run(capsys, "lemma-count", "5", "1", "0", X)
        assert rc == EXIT_DOMAIN
        assert out == "" and "unsupported character modulus 5" in err


def test_lemma_count_output(capsys):
    rc, out, _ = run(capsys, "lemma-count", "3", "3", "0", "10")
    assert rc == EXIT_OK
    assert out == "5\n"


def test_constant_output(capsys):
    rc, out, _ = run(capsys, "constant", "3", "--digits", "6")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["d"] == 3
    assert payload["truncation_prime"] == 2 * 10**6 + 1
    assert float(payload["C"]) > 1.5


def test_constant_rejects_digits_below_one(capsys):
    for digits in ("0", "-3"):
        rc, out, err = run(capsys, "constant", "3", "--digits", digits)
        assert rc == EXIT_DOMAIN
        assert out == ""
        assert err.startswith("error:")


def test_fit_csv_header(capsys):
    rc, out, _ = run(capsys, "fit", "3", "--points", "20,40")
    assert rc == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "X,xi,ratio,l_main,rel_deviation"
    assert len(lines) == 3


def test_verify_order_json(capsys):
    rc, out, _ = run(capsys, "verify", "order", "3", "1", "-1")
    assert rc == EXIT_OK
    payload = json.loads(out)
    assert payload["circle"] == {"a": 9, "b": -2, "c0": 0}
    assert payload["reduced_discriminant"] == 4
    assert payload["local_data"][0]["p"] == 2
    assert (
        payload["local_data"][0]["symbol_closed"]
        == payload["local_data"][0]["symbol_bruteforce"]
        == -1
    )


def test_verify_scope_runs(capsys):
    rc, out, _ = run(capsys, "verify", "classgroups")
    assert rc == EXIT_OK
    assert "classgroups: pass" in out


def test_exit_codes(capsys):
    rc, _, err = run(capsys, "frobnicate")
    assert rc == EXIT_USAGE and "unknown subcommand" in err
    rc, _, err = run(capsys, "area", "3", "1", "1")  # degenerate circle
    assert rc == EXIT_DOMAIN and "error:" in err
    rc, _, err = run(capsys, "census", "3", "-1")
    assert rc == EXIT_DOMAIN
    rc, _, err = run(capsys, "census", "3", "abc")
    assert rc == EXIT_DOMAIN
    rc, _, err = run(capsys, "census", "39", "2.0")  # inadmissible d
    assert rc == EXIT_DOMAIN
    rc, _, err = run(capsys, "verify", "order", "3")  # wrong arity
    assert rc == EXIT_USAGE
    rc, _, err = run(capsys, "verify", "counts", "classgroups")
    assert rc == EXIT_USAGE
    # every malformed command line is a usage error, never the domain error 2
    for argv in (
        ("census", "3"),  # missing X
        ("area", "3", "x", "1"),  # m not an integer
        ("census", "3", "2.2", "--format", "xml"),  # no such format
        ("lemma-count", "3", "1", "0"),  # missing X
        ("census", "3", "2.2", "extra"),  # an argument too many
        ("verify", "bogus"),  # no such scope
        ("verify", "order", "3", "x", "1"),  # m not an integer
        (),  # no subcommand
    ):
        rc, out, err = run(capsys, *argv)
        assert rc == EXIT_USAGE, argv
        assert out == "" and err.startswith("usage: bianchisurf") and "error:" in err


def test_reader_closing_the_pipe_exits_141_quietly():
    # about 900 KB of records, far past a pipe's buffer, so the writer meets
    # the closed pipe; the reader takes one line, as `| head -1` does
    env = {**os.environ, "PYTHONPATH": str(Path(bianchisurf.__file__).parents[1])}
    argv = [sys.executable, "-m", "bianchisurf.cli", "census", "3", "3000", "--records"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
    assert err == b""


def test_area_refuses_d4(capsys):
    # d = 4 serves the counting constant only; the area formula needs d = 3 mod 4
    rc, out, err = run(capsys, "area", "4", "1", "0")
    assert rc == EXIT_DOMAIN
    assert out == "" and err.startswith("error:")


def test_fast_constants_suite_passes_with_table_notes(capsys, constants_bundle):
    # --fast shrinks only the sweep: the constants suite keeps its truncation prime
    rc, out, _ = run(capsys, "verify", "constants", "--fast")
    assert rc == EXIT_OK
    assert "constants: pass" in out
    for d, r in constants_bundle.items():
        bound = r.l_main_bound + r.l_census_bound
        note = (
            f"  note: d={d}: l_main {r.l_main:.15f}, l_census_form {r.l_census_form:.15f}, "
            f"gap {r.chain_gap:.2e}, bound {bound:.2e}\n"
        )
        assert note in out
    assert out.count("  note: d=") == len(constants_bundle) == 6


def test_library_has_no_assert_statements():
    """`python -O` strips assert statements, so every consistency check in
    the package must raise explicitly."""
    modules = list(Path(bianchisurf.__file__).parent.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path.name
