"""Command-line interface: outputs, exit codes, determinism."""

import json
import shlex
from pathlib import Path

import pytest

from qrwp.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "z0*z0s")
    assert code == EXIT_OK
    assert out.strip() == "1 - z1^2 xi"


def test_star(capsys):
    code, out, _ = run(capsys, "star", "z1")
    assert code == EXIT_OK
    assert out.strip() == "z1 xi"


def test_degree(capsys):
    code, out, _ = run(capsys, "degree", "--k", "2", "--l", "3", "z0^3 xi")
    assert code == EXIT_OK
    assert "degree: 0" in out
    assert "coinvariant: yes" in out


def test_degree_json(capsys):
    code, out, _ = run(capsys, "degree", "--k", "2", "--l", "3", "--format", "json", "z0^3 xi + z0")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "qrwp-report/1"
    assert payload["degrees"] == [0, 2]
    assert payload["homogeneous"] is False
    assert payload["coinvariant"] is False
    assert payload["coinvariant_part"] == "z0^3 xi"


def test_generators(capsys):
    code, out, _ = run(capsys, "generators", "--k", "1", "--l", "1")
    assert code == EXIT_OK
    assert "b = z0 z1 xi" in out
    assert "c- = z0^2 xi" in out


def test_verify_relations(capsys):
    code, out, _ = run(capsys, "verify-relations", "--parity", "even", "--l", "3")
    assert code == EXIT_OK
    assert "4/4 relations pass" in out


def test_verify_relations_json(capsys):
    code, out, _ = run(capsys, "verify-relations", "--parity", "odd", "--l", "2", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["all_pass"] is True
    assert len(payload["relations"]) == 11
    assert payload["relations"][0]["id"] == "odd.1"


def test_factorize(capsys):
    code, out, _ = run(capsys, "factorize", "--k", "2", "--l", "3", "z0^3 xi")
    assert code == EXIT_OK
    assert out.strip() == "z0^3 xi = c+"


def test_factorize_rejects_non_words(capsys):
    code, _, err = run(capsys, "factorize", "--k", "2", "--l", "3", "z0 + z1")
    assert code == EXIT_PRECONDITION
    assert "basis word" in err


def test_ktheory(capsys):
    code, out, _ = run(capsys, "ktheory", "--parity", "odd", "--l", "2", "--N", "64")
    assert code == EXIT_OK
    assert "index map: [2, 2]" in out
    assert "K0 = Z2 (+) Z^2" in out
    assert "K1 = 0" in out


def test_rep_check(capsys):
    code, out, _ = run(capsys, "rep-check", "--parity", "even", "--l", "1", "--N", "64")
    assert code == EXIT_OK
    assert "all pass: yes" in out
    # small q (exact zeros in the product factors) and a large truncation
    for extra in (("--q", "0.02"), ("--N", "4096")):
        code, out, _ = run(capsys, "rep-check", "--parity", "odd", "--l", "3", *extra)
        assert code == EXIT_OK, extra
        assert "all pass: yes" in out


def test_rep_check_rejects_an_empty_interior(capsys):
    # the checks read the N - 2l interior columns; with none every residual is 0.0
    for n in ("4", "10"):
        code, out, err = run(capsys, "rep-check", "--parity", "odd", "--l", "5", "--N", n)
        assert code == EXIT_PRECONDITION, n
        assert "N >= 11" in err and not out
    code, out, _ = run(capsys, "rep-check", "--parity", "odd", "--l", "5", "--N", "11")
    assert code == EXIT_OK
    assert "all pass: yes" in out


def test_rep_check_names_the_smallest_q(capsys):
    # the relation scalar q^-4l of odd.3 must fit in a double: q^-16 overflows
    # below q = 5.4247e-20, q^-20 below q = 3.87e-16
    for l, q_min in (("4", "5.43e-20"), ("5", "3.87e-16")):
        code, out, err = run(capsys, "rep-check", "--parity", "odd", "--l", l, "--q", "1e-20", "--N", "64")
        assert code == EXIT_PRECONDITION, l
        assert f"l={l} needs q >= {q_min}" in err and not out
        code, out, _ = run(capsys, "rep-check", "--parity", "odd", "--l", l, "--q", q_min, "--N", "64")
        assert code == EXIT_OK, l
        assert "all pass: yes" in out


def test_ktheory_names_the_truncation_it_needs(capsys):
    code, out, err = run(capsys, "ktheory", "--parity", "odd", "--l", "5", "--N", "8")
    assert code == EXIT_PRECONDITION
    assert "l=5 needs N >= 20" in err and not out


def _readme_commands():
    """(argv, note) for every qrwp line of README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    for line in block.splitlines():
        if line.startswith("qrwp "):
            cmd, _, note = line.partition("#")
            argv = shlex.split(cmd)[1:]
            yield pytest.param(argv, note.strip(), id=" ".join(argv))


@pytest.mark.parametrize("argv, note", list(_readme_commands()))
def test_readme_command_line(capsys, monkeypatch, argv, note):
    for name in ("QRWP_Q", "QRWP_N", "QRWP_TOL"):
        monkeypatch.delenv(name, raising=False)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    if note.startswith("-> "):
        assert ", ".join(out.splitlines()) == note[3:]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "z9 +")
    assert code == EXIT_PARSE
    assert "parse error" in err


def test_precondition_exit_codes(capsys):
    code, _, err = run(capsys, "generators", "--k", "2", "--l", "4")
    assert code == EXIT_PRECONDITION
    assert "coprime" in err
    code, _, _ = run(capsys, "rep-check", "--parity", "even", "--l", "2", "--N", "32")
    assert code == EXIT_PRECONDITION
    code, _, _ = run(capsys, "normalize", "z0", "--q", "1.5")
    assert code == EXIT_PRECONDITION


def test_check_failure_exit_code(capsys):
    # an absurdly small tolerance forces the numeric residual checks to fail
    code, out, _ = run(capsys, "rep-check", "--parity", "odd", "--l", "2", "--N", "64", "--tol", "1e-30")
    assert code == EXIT_CHECK_FAILED
    assert "all pass: NO" in out


def test_env_overrides(capsys, monkeypatch):
    monkeypatch.setenv("QRWP_N", "64")
    code, out, _ = run(capsys, "rep-check", "--parity", "even", "--l", "1", "--format", "json")
    assert code == EXIT_OK
    assert json.loads(out)["N"] == 64
    # flags take precedence over the environment
    code, out, _ = run(capsys, "rep-check", "--parity", "even", "--l", "1", "--N", "48", "--format", "json")
    assert json.loads(out)["N"] == 48
    monkeypatch.setenv("QRWP_Q", "nonsense")
    code, _, err = run(capsys, "rep-check", "--parity", "even", "--l", "1")
    assert code == EXIT_PRECONDITION
    assert "QRWP_Q" in err


def test_report_all_deterministic(capsys):
    code1, out1, _ = run(capsys, "report-all", "--lmax", "2", "--N", "64")
    code2, out2, _ = run(capsys, "report-all", "--lmax", "2", "--N", "64")
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    assert "overall: PASS" in out1


def test_report_all_json_schema(capsys):
    code, out, _ = run(capsys, "report-all", "--lmax", "1", "--N", "64", "--format", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["schema"] == "qrwp-report/1"
    assert {s["parity"] for s in payload["sections"]} == {"even", "odd"}
    for section in payload["sections"]:
        assert section["relations"]["all_pass"] is True
        assert section["ktheory"]["kgroups_match"] is True
        assert section["pass"] is True
