"""Command-line interface: outputs, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qrwp import Weights, fockrep, qpow, qwrp, sigma3
from qrwp.cli import COMMANDS, EXIT_CHECK_FAILED, EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, _parse, build_parser, main
from qrwp.qwrp import RelationSide
from qrwp.sigma3 import AlgebraElement, NormalMonomial

from helpers import faithfulness_probe


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


def test_verify_relations_k(capsys):
    argv = ("verify-relations", "--parity", "odd", "--l", "5", "--format", "json")
    assert run(capsys, *argv, "--k", "1") == run(capsys, *argv)
    code, out, _ = run(capsys, "verify-relations", "--parity", "odd", "--l", "20", "--k", "9", "--format", "json")
    payload = json.loads(out)
    assert (code, payload["k"], payload["l"], payload["all_pass"]) == (EXIT_OK, 9, 20, True)
    code, out, _ = run(capsys, "verify-relations", "--parity", "even", "--l", "5", "--k", "-4")
    assert (code, out.splitlines()[-1]) == (EXIT_OK, "4/4 relations pass")


@pytest.mark.parametrize("argv, message", [
    (("--parity", "odd", "--l", "3", "--k", "4"), "error: k = 4 is even, but the odd family needs odd k"),
    (("--parity", "even", "--l", "3", "--k", "-1"), "error: k = -1 is odd, but the even family needs even k"),
    (("--parity", "odd", "--l", "4", "--k", "6"), "error: weights (6, 4) are not coprime"),
    (("--parity", "even", "--l", "4", "--k", "2"), "error: the even family requires odd l"),
])
def test_verify_relations_refuses_a_k_outside_the_family(capsys, argv, message):
    assert run(capsys, "verify-relations", *argv) == (EXIT_PRECONDITION, "", message + "\n")


@pytest.mark.parametrize("parity, l, digest", [
    ("odd", "14", "6357bea2cdc421c21e074b839db364ac65a327a31e1e85aeca70155055ebe118"),
    ("even", "25", "cf5dae0efa44e67a1db1f06a110f7125f9ee7685f9d32eda0ab29665cb3b4caf"),
])
def test_verify_relations_json_is_byte_stable(capsys, parity, l, digest):
    # sha256 of the whole stdout, trailing newline included; the text does
    # not depend on PYTHONHASHSEED
    code, out, _ = run(capsys, "verify-relations", "--parity", parity, "--l", l, "--format", "json")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_text_mode_renders_no_normal_form(capsys, monkeypatch):
    argvs = (("verify-relations", "--parity", "odd", "--l", "5"), ("report-all", "--lmax", "3"))
    expected = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in expected] == [EXIT_OK, EXIT_OK]

    def refuse(self):
        raise AssertionError("a normal form was rendered")

    monkeypatch.setattr(AlgebraElement, "__str__", refuse)
    assert [run(capsys, *argv) for argv in argvs] == expected


def test_text_mode_builds_no_gaussian_row(capsys, monkeypatch):
    # a verdict compares factored forms and only JSON expands a normal form,
    # so text mode builds no row, also where the expansion would not fit
    calls = []
    rows = sigma3._gaussian_rows
    monkeypatch.setattr(sigma3, "_gaussian_rows", lambda n: calls.append(n) or rows(n))
    for argv in (("verify-relations", "--parity", "odd", "--l", "1000"), ("report-all", "--lmax", "40")):
        assert run(capsys, *argv)[0] == EXIT_OK
        assert calls == [], argv
    for argv in (("verify-relations", "--parity", "odd", "--l", "5"), ("report-all", "--lmax", "3")):
        assert run(capsys, *argv, "--format", "json")[0] == EXIT_OK
        assert calls, argv
        calls.clear()


def test_json_renders_a_passing_relation_once(capsys, monkeypatch):
    # one rendering per passing relation, two per failing one
    rendered = []
    text = AlgebraElement.__str__
    monkeypatch.setattr(AlgebraElement, "__str__", lambda self: rendered.append(self) or text(self))
    code, _, _ = run(capsys, "verify-relations", "--parity", "odd", "--l", "5", "--format", "json")
    assert (code, len(rendered)) == (EXIT_OK, 11)
    # c = z1 gives c c* = a, not 1 - a
    broken = qwrp.GeneratorSet(weights=Weights(2, 1), a=AlgebraElement.monomial(0, 2, 1),
                               c=AlgebraElement.monomial(0, 1, 0))
    monkeypatch.setattr(qwrp, "generators", lambda w: broken)
    rendered.clear()
    code, out, _ = run(capsys, "verify-relations", "--parity", "even", "--l", "1", "--format", "json")
    passes = [rel["pass"] for rel in json.loads(out)["relations"]]
    assert code == EXIT_CHECK_FAILED and 0 < sum(passes) < len(passes)
    assert len(rendered) == sum(passes) + 2 * passes.count(False)


def test_factorize(capsys):
    code, out, _ = run(capsys, "factorize", "--k", "2", "--l", "3", "z0^3 xi")
    assert code == EXIT_OK
    assert out.strip() == "z0^3 xi = c+"


def test_factorize_rejects_non_words(capsys):
    code, _, err = run(capsys, "factorize", "--k", "2", "--l", "3", "z0 + z1")
    assert code == EXIT_PRECONDITION
    assert "basis word" in err


def test_factorize_names_the_starred_word_it_was_given(capsys):
    # the involution factors z0s^2 through its conjugate z0^2; the error names the input
    code, out, err = run(capsys, "factorize", "--k", "1", "--l", "2", "z0s^2")
    assert code == EXIT_PRECONDITION
    assert not out
    assert "monomial z0s^2 is not coinvariant" in err


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


def test_rep_check_accepts_every_truncation(capsys, monkeypatch):
    # no verdict reads N, so N <= 2l is accepted; a failing relation is then
    # measured on all N columns instead of the N - 2l interior ones
    for argv in (("rep-check", "--parity", "odd", "--l", "5", "--N", "4"), ("report-all", "--lmax", "3", "--N", "4")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, ""), argv
        assert out.endswith("all pass: yes\n" if argv[0] == "rep-check" else "overall: PASS\n"), argv
    generator_form = fockrep.generator_form

    def mutated(parity, l, gen):
        form = generator_form(parity, l, gen)
        return form._replace(h=form.h + 1) if gen == "b" else form

    monkeypatch.setattr(fockrep, "generator_form", mutated)
    code, out, _ = run(capsys, "rep-check", "--parity", "odd", "--l", "5", "--N", "4")
    assert code == EXIT_CHECK_FAILED
    assert "all pass: NO" in out
    for r in range(1, 6):
        failed = {line.split()[2].rstrip(":") for line in out.splitlines() if line.startswith(f"FAIL r={r} ")}
        assert failed == {f"odd.{i}" for i in range(4, 10)}, r


def test_rep_check_accepts_every_q(capsys):
    # relation verdicts are exact and a side with a or b in it is 0 in the
    # one-dimensional representation, so no relation scalar q^-4l is evaluated
    for l in ("4", "5"):
        for q in ("1e-20", "1e-300", "5e-324"):
            code, out, err = run(capsys, "rep-check", "--parity", "odd", "--l", l, "--q", q, "--N", "64")
            assert code == EXIT_OK, (l, q, err)
            assert "all pass: yes" in out


@pytest.mark.parametrize("argv", [
    "rep-check --parity odd --l 40 --q 0.999999 --N 512",
    "rep-check --parity even --l 61 --q 0.999999999 --N 512",
    "ktheory --parity odd --l 12 --q 0.9999999999999999",
    "ktheory --parity odd --l 25 --q 0.99999999 --N 512",
    "ktheory --parity odd --l 40 --q 0.999999999",
    "ktheory --parity odd --l 1 --tol 1e-300",
    "ktheory --parity odd --l 1 --tol 5e-324",
    "ktheory --parity odd --l 1 --tol 1e-17",
    "ktheory --parity even --l 3 --tol 1e-17",
])
def test_kernels_and_lifts_are_exact(capsys, argv):
    # near q = 1, c* c underflows to 0.0 on columns where it does not vanish,
    # and a tolerance below rounding is below any float quotient c / |c|; the
    # kernels and the lift are read off integer exponents instead
    code, out, _ = run(capsys, *shlex.split(argv))
    assert code == EXIT_OK
    assert "all pass: yes" in out
    if argv.startswith("rep-check"):
        assert "kernel conditions exact: yes" in out
    else:
        words = argv.split()
        l, step = int(words[words.index("--l") + 1]), 1 if "even" in words else 2
        assert f"index map: {[step] * l} (stable under doubling: yes)" in out
        assert "coisometry max interior deviation: 0.000e+00" in out


def test_report_all_accepts_every_q(capsys):
    # faithfulness is read off the weight forms, so no rank tolerance sets a floor
    for q in ("2.01e-8", "1e-12"):
        code, out, _ = run(capsys, "report-all", "--lmax", "1", "--N", "64", "--q", q)
        assert code == EXIT_OK, q
        assert "overall: PASS" in out
    # the numeric probe, kept as the test oracle, still reports a repeated
    # (m, p) profile as dependent
    words = [NormalMonomial(m, p, (m - p) % 3 - 1) for m in range(4) for p in range(3)]
    assert not faithfulness_probe(words + [NormalMonomial(1, 1, 1)], 2.02e-8, 128, tol=1e-8)


def test_report_all_fails_a_wrong_ambient_form(capsys, monkeypatch):
    # dropping z1's weight q^{p(n+1)} merges the profiles within each z0 block
    monkeypatch.setattr(fockrep, "ambient_form",
                        lambda mono: fockrep.WeightForm(mono.m, 0, tuple(range(-1, -mono.m - 1, -1))))
    code, out, _ = run(capsys, "report-all", "--lmax", "1", "--N", "64")
    assert code == EXIT_CHECK_FAILED
    assert "FAIL ambient faithfulness probe: 12 words not independent at N=128" in out


@pytest.mark.parametrize("mutate", [
    lambda word: word._replace(scalar=word.scalar * qpow(1)),
    lambda word: word._replace(letters=word.letters[:-1] + ((word.letters[-1][0], word.letters[-1][1] + 1),)),
], ids=["wrong-scalar", "wrong-word"])
def test_report_all_fails_a_wrong_factorization(capsys, monkeypatch, mutate):
    factorize = qwrp.factorize
    monkeypatch.setattr(qwrp, "factorize", lambda w, mono: mutate(factorize(w, mono)))
    code, out, _ = run(capsys, "report-all", "--lmax", "1", "--N", "64")
    assert code == EXIT_CHECK_FAILED
    assert out.startswith("FAIL even l=1: relations 4/4, ") and "\nFAIL odd l=1: relations 11/11, " in out
    assert out.endswith("PASS ambient faithfulness probe: 12 words independent at N=128\noverall: FAIL\n")
    code, out, _ = run(capsys, "report-all", "--lmax", "1", "--N", "64", "--format", "json")
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(out)
    assert payload["all_pass"] is False
    for section in payload["sections"]:
        assert section["factorization"]["sound"] is False
        assert section["factorization"]["complete"] is False
        assert section["factorization"]["pass"] is False
        assert section["pass"] is False
        assert section["relations"]["all_pass"] and section["representations"]["all_pass"]


@pytest.mark.parametrize("command, tol", [("rep-check", "nan"), ("ktheory", "nan"), ("rep-check", "inf")])
def test_tolerance_must_be_finite_and_positive(capsys, command, tol):
    code, out, err = run(capsys, command, "--parity", "odd", "--l", "2", "--tol", tol)
    assert code == EXIT_PRECONDITION
    assert "tolerance must be finite and positive" in err and not out


@pytest.mark.parametrize("argv, message", [
    (("report-all", "--lmax", "0"), "lmax must be at least 1"),
    (("report-all", "--lmax", "-3"), "lmax must be at least 1"),
    (("rep-check", "--parity", "odd", "--l", "0"), "l must be a positive integer"),
    (("ktheory", "--parity", "odd", "--l", "0"), "l must be a positive integer"),
    (("ktheory", "--parity", "odd", "--l", "-2"), "l must be a positive integer"),
    # every family command names l <= 0 with one message, in both families
    (("verify-relations", "--parity", "even", "--l", "0"), "l must be a positive integer"),
    (("verify-relations", "--parity", "odd", "--l", "0"), "l must be a positive integer"),
    (("verify-relations", "--parity", "even", "--l", "-3"), "l must be a positive integer"),
    (("rep-check", "--parity", "even", "--l", "0"), "l must be a positive integer"),
    (("ktheory", "--parity", "even", "--l", "0"), "l must be a positive integer"),
    (("report-all", "--lmax", "0", "--format", "json"), "lmax must be at least 1"),
    # a weight pair is not a family label: its l keeps the weight message
    (("generators", "--k", "1", "--l", "0"), "weight l must be a positive integer"),
    (("degree", "--k", "1", "--l", "0", "z0"), "weight l must be a positive integer"),
])
def test_family_sizes_must_be_positive(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_PRECONDITION
    assert err == f"error: {message}\n" and not out


@pytest.mark.parametrize("command", ["verify-relations", "rep-check", "ktheory"])
def test_even_family_with_even_l_names_the_family(capsys, command):
    code, out, err = run(capsys, command, "--parity", "even", "--l", "2")
    assert (code, out) == (EXIT_PRECONDITION, "")
    assert err == "error: the even family requires odd l\n"


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_commands():
    """(argv, note) for every qrwp line of README's "Command line" block."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
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


def test_readme_library_quick_start(capsys):
    # the two python blocks run in one namespace, as a reader would type them
    section = README.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    blocks = [chunk.removeprefix("python\n") for chunk in section.split("```")[1::2]]
    assert len(blocks) == 2
    namespace = {}
    exec(blocks[0], namespace)
    assert capsys.readouterr().out.splitlines() == ["True", "(('b', 0), ('a', 0), ('c', 1)) 1", "Z2 (+) Z^2"]
    assert namespace["delta"].entries == (2, 2)
    # in the second block a comment is the line's value, or the error it raises
    *lines, last = blocks[1].splitlines()
    for line in lines:
        code, _, note = (part.strip() for part in line.partition("#"))
        if note:
            assert repr(eval(code, namespace)) == note, line
        else:
            exec(code, namespace)
    assert (namespace["k"], namespace["l"]) == (1, 2)
    code, _, note = (part.strip() for part in last.partition("#"))
    error, _, message = note.partition(": ")
    assert error == "ValueError"
    with pytest.raises(ValueError) as raised:
        eval(code, namespace)
    assert str(raised.value) == message


NAMES = [name for name, *_ in COMMANDS]


VALID_ARGVS = [
    ["normalize", "z0 z0s"],
    ["normalize", "--", "-z0"],
    ["star", "z0", "--format", "json"],
    ["degree", "--k", "-3", "--l", "2", "z0^3 xi"],
    ["generators", "--l", "1", "--k", "1", "--format=text"],
    ["verify-relations", "--parity", "odd", "--l", "5", "--k", "2"],
    ["factorize", "--k", "1", "--l", "1", "z0^2 xi"],
    ["rep-check", "--parity", "even", "--l", "3", "--q=0.5", "--N", "32"],
    ["ktheory", "--parity", "odd", "--l", "1", "--tol", "1e-9"],
    ["report-all"],
    ["report-all", "--lm", "1", "--fo", "json"],
    ["report-all", "--lmax", "1", "--lmax", "2", "--q", "0.3", "--q", "0.4"],
]


@pytest.mark.parametrize("argv", VALID_ARGVS, ids=" ".join)
def test_named_command_parses_as_the_full_parser(argv):
    assert _parse(list(argv)) == build_parser().parse_args(argv)


def test_a_named_command_builds_one_parser(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert {argv[0] for argv in VALID_ARGVS} == set(NAMES)
    for argv in VALID_ARGVS:
        built.clear()
        _parse(list(argv))
        assert built == [f"qrwp {argv[0]}"], argv
    full = ["qrwp", *(f"qrwp {name}" for name in NAMES)]
    for argv, first in (([], []), (["-h"], []), (["report-all", "-h"], []), (["bogus"], []),
                        (["report-all", "--lmax", "1", "extra"], ["qrwp report-all"])):
        built.clear()
        with pytest.raises(SystemExit):
            _parse(list(argv))
        # leftover arguments are read again by the full parser, for its error
        assert built == first + full, argv
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["-h"],
    *([name, "-h"] for name in NAMES),
    [],
    ["bogus"],
    ["--foo", "report-all"],
    ["report-all", "--foo"],
    ["report-all", "--lmax", "1", "extra"],
    ["report-all", "--lmax"],
    ["report-all", "--lm"],
    ["normalize"],
    ["star", "z0", "extra"],
    ["verify-relations", "--l", "5"],
    ["degree", "--k", "1", "--l", "2", "z0", "--format", "xml"],
], ids=lambda argv: " ".join(argv) or "no argument")
def test_help_and_usage_errors_match_the_full_parser(capsys, monkeypatch, argv):
    # main builds only the named command's parser when argv names one; its
    # help and errors must read as they do from the parser with every command built
    monkeypatch.setenv("COLUMNS", "80")
    outcomes = []
    for call in (lambda: main(list(argv)), lambda: build_parser().parse_args(argv)):
        with pytest.raises(SystemExit) as exited:
            call()
        outcomes.append((exited.value.code, *capsys.readouterr()))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == (0 if "-h" in argv else 2)
    if argv == ["-h"]:   # the description is the docstring without its paragraph on parsing
        assert "Exit codes: 0" in outcomes[0][1] and "Parsing" not in outcomes[0][1]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "normalize", "z9 +")
    assert code == EXIT_PARSE
    assert "parse error" in err
    # input is ASCII only: non-ASCII digits are not digits
    for text in ("z0^\u0663", "z0^\u00b2"):
        code, out, err = run(capsys, "normalize", text)
        assert (code, out) == (EXIT_PARSE, "")
        assert "parse error" in err and "position 3" in err


def test_precondition_exit_codes(capsys):
    code, _, err = run(capsys, "generators", "--k", "2", "--l", "4")
    assert code == EXIT_PRECONDITION
    assert "weights (2, 4) are not coprime" in err
    code, _, _ = run(capsys, "rep-check", "--parity", "even", "--l", "2", "--N", "32")
    assert code == EXIT_PRECONDITION
    code, _, _ = run(capsys, "normalize", "z0", "--q", "1.5")
    assert code == EXIT_PRECONDITION


def test_long_literal_is_a_parse_error(capsys):
    # more digits than int() reads: exit 2 with the range message, not exit 3
    code, out, err = run(capsys, "normalize", "z0^" + "1" * 5000)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("parse error: exponent 111") and err.endswith("exceeds the supported range (at position 3)\n")


def test_coefficient_too_long_to_print_is_a_parse_error(capsys):
    # a value with more digits than int-to-text conversion writes: exit 2
    # with the digit count, not exit 3, and nothing on stdout
    message = "parse error: coefficient of {} digits exceeds the supported length of 4300\n"
    for argv, digits in ((("normalize", "2^20000"), 6021), (("star", "z0 - 2^20000 z1"), 6021),
                         (("normalize", "10^4300"), 4301), (("degree", "--k", "1", "--l", "2", "3 - 2^20000"), 6021),
                         (("normalize", "2^20000", "--format", "json"), 6021)):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_PARSE, "", message.format(digits)), argv
    # 4300 digits print, and a long coefficient outside the coinvariant part is not rendered
    code, out, _ = run(capsys, "normalize", "10^4300 - 1")
    assert (code, out) == (EXIT_OK, "9" * 4300 + "\n")
    code, out, _ = run(capsys, "degree", "--k", "1", "--l", "2", "2^20000 z1")
    assert (code, out) == (EXIT_OK, "degree: 2\ncoinvariant: no\n")


def test_power_with_a_coefficient_too_long_is_refused_before_it_is_computed(capsys, monkeypatch):
    # a single term c q^a w raised to e has the coefficient c^e: past a
    # million digits the power is refused, without computing it, with its
    # exact digit count (10^20 - 1 puts e log10 c just below an integer)
    message = "parse error: coefficient of {} digits exceeds the supported length of 4300\n"

    power = AlgebraElement.__pow__

    def short_powers_only(x, n):
        assert n <= 10, "the long power was computed"
        return power(x, n)

    monkeypatch.setattr(AlgebraElement, "__pow__", short_powers_only)
    for expr, digits in (("(10^10)^1000000", 10 ** 7 + 1), ("z1 - (-99999999999999999999 q^2 z0)^50001", 1000020)):
        code, out, err = run(capsys, "normalize", expr)
        assert (code, out, err) == (EXIT_PARSE, "", message.format(digits)), expr
    monkeypatch.undo()
    # below a million digits the power is computed, and only printing it is refused
    code, out, _ = run(capsys, "normalize", "2^20000 - 2^20000")
    assert (code, out) == (EXIT_OK, "0\n")


def test_check_failure_exit_code(capsys, monkeypatch):
    # a tolerance below rounding is no failure: the relation verdicts are exact
    argv = ("rep-check", "--parity", "odd", "--l", "2", "--N", "64")
    code, out, _ = run(capsys, *argv, "--tol", "1e-30")
    assert code == EXIT_OK
    assert "all pass: yes" in out
    # b with one more power of q^{x/2} breaks every relation in which the b's
    # do not cancel
    generator_form = fockrep.generator_form

    def mutated(parity, l, gen):
        form = generator_form(parity, l, gen)
        return form._replace(h=form.h + 1) if gen == "b" else form

    monkeypatch.setattr(fockrep, "generator_form", mutated)
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_CHECK_FAILED
    assert "all pass: NO" in out
    failed = {line.split()[2].rstrip(":") for line in out.splitlines() if line.startswith("FAIL r=")}
    assert failed == {f"odd.{i}" for i in range(4, 10)}


def _twenty_cs(monkeypatch):
    # odd.10's left side c c* read as twenty c's: u^20 != 1 on the circle
    relations_for = fockrep.relations_for
    twenty = RelationSide(0, (("gen", "c", False),) * 20)
    monkeypatch.setattr(fockrep, "relations_for", lambda parity, l: tuple(
        rel._replace(lhs=twenty) if rel.rid == "odd.10" else rel for rel in relations_for(parity, l)))


def _flat_ambient_form(monkeypatch):
    # j(g) loses its q-power and its half-factors, so no generator intertwines
    monkeypatch.setattr(fockrep, "ambient_form", lambda mono: fockrep.WeightForm(mono.m, 0, ()))


@pytest.mark.parametrize("mutate, field", [
    (None, None),
    (_twenty_cs, "scalar_representation_residual"),
    (_flat_ambient_form, "intertwiner_residual"),
])
def test_exact_rep_verdicts_print_as_zero_or_one(capsys, monkeypatch, mutate, field):
    # the circle and intertwiner verdicts are exact: 0.0 when they hold and
    # 1.0 when not, in text and in JSON
    argv = ("rep-check", "--parity", "odd", "--l", "2", "--N", "64")
    if mutate:
        mutate(monkeypatch)
    expected = {"scalar_representation_residual": 0.0, "intertwiner_residual": 0.0}
    if field:
        expected[field] = 1.0
    code, out, _ = run(capsys, *argv)
    assert code == (EXIT_CHECK_FAILED if field else EXIT_OK)
    assert f"scalar representation residual: {expected['scalar_representation_residual']:.3e}\n" in out
    assert f"intertwiner residual: {expected['intertwiner_residual']:.3e}\n" in out
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == (EXIT_CHECK_FAILED if field else EXIT_OK)
    payload = json.loads(out)
    for name, value in expected.items():
        assert type(payload[name]) is float and payload[name] == value, name
        assert f'"{name}": {value}' in out, name


def test_lift_verdict_reads_no_tolerance(capsys, monkeypatch):
    # c's last half-factor moved by -1: the lift is no longer the bare shift,
    # and a tolerance above its deviation 1.0 does not hide that
    generator_form = fockrep.generator_form

    def mutated(parity, l, gen):
        form = generator_form(parity, l, gen)
        return form._replace(factors=form.factors[:-1] + (form.factors[-1] - 1,)) if gen == "c" else form

    monkeypatch.setattr(fockrep, "generator_form", mutated)
    code, out, _ = run(capsys, "ktheory", "--parity", "odd", "--l", "2", "--tol", "2")
    assert code == EXIT_CHECK_FAILED
    assert "coisometry max interior deviation: 1.000e+00" in out and "all pass: NO" in out


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


def test_closed_stdout_exits_1_without_traceback():
    # about 130 kB of JSON, more than a pipe holds, so the writer is still
    # printing when the reader closes the pipe, as with `| head -c 100`
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    cmd = [sys.executable, "-m", "qrwp.cli", "verify-relations", "--parity", "odd", "--l", "12", "--format", "json"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(100).startswith(b'{"all_pass"')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err
