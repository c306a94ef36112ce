"""Command-line entry point for reproducible verification runs.

Exit codes: 0 all checks pass, 2 expression parse error, 3 precondition
violation (bad weights or parameters), 4 check failure.  Defaults
q=0.5, N=256, tolerance=1e-10 may be overridden by the environment
variables QRWP_Q, QRWP_N, QRWP_TOL and, with higher priority, by flags.

Parsing reads a well-formed command line from the table COMMANDS,
with no parser: the command, then its positional and its exact option
strings, each followed by a value that does not start with "-" and that
converts as argparse converts it.  Every other argv (help, no argument,
an unknown command, an abbreviation, --opt=value, a value such as -3,
"--", leftover arguments) goes to the full argparse parser of
build_parser, which gives the same namespace or prints its help or
usage error.  Only then is argparse imported.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections import namedtuple
from types import SimpleNamespace

from . import fockrep, ktheory, qwrp
from .grading import Weights, coinvariant_part, element_degrees, is_coinvariant
from .parser import ExpressionError, _too_long, lower_text, render
from .sigma3 import AlgebraElement, NormalMonomial

SCHEMA = "qrwp-report/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CHECK_FAILED = 4


class RunConfig(namedtuple("RunConfig", "q dim tolerance fmt")):
    __slots__ = ()

    def __new__(cls, q: float, dim: int, tolerance: float, fmt: str):
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if dim < 4:
            raise ValueError("N must be at least 4")
        if not 0.0 < tolerance < math.inf:
            raise ValueError("tolerance must be finite and positive")
        return tuple.__new__(cls, (q, dim, tolerance, fmt))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so both keep the checks
        return cls(*iterable)


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name} has invalid value {raw!r}") from exc


def _config(args) -> RunConfig:
    q = args.q if args.q is not None else _env_default("QRWP_Q", float, 0.5)
    dim = args.N if args.N is not None else _env_default("QRWP_N", int, 256)
    tol = args.tol if args.tol is not None else _env_default("QRWP_TOL", float, 1e-10)
    return RunConfig(q=q, dim=dim, tolerance=tol, fmt=args.format)


def _emit(payload: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _render(element: AlgebraElement) -> str:
    """render(element); a coefficient of more than MAX_DIGITS digits, which
    lower_text would not read back, is refused (exit 2) at any int limit."""
    error = _too_long(element)
    if error is not None:
        raise error
    return render(element)


# -- command handlers -----------------------------------------------------


def _cmd_normal_form(args, cfg: RunConfig) -> int:
    element = lower_text(args.expr)
    text = _render(element.star() if args.command == "star" else element)
    _emit({"schema": SCHEMA, "command": args.command, "input": args.expr, "normal_form": text}, cfg.fmt, [text])
    return EXIT_OK


def _cmd_degree(args, cfg: RunConfig) -> int:
    w = Weights(args.k, args.l)
    element = lower_text(args.expr)
    degrees = element_degrees(w, element)
    coinv = is_coinvariant(w, element)
    payload = {
        "schema": SCHEMA,
        "command": "degree",
        "k": w.k,
        "l": w.l,
        "input": args.expr,
        "degrees": degrees,
        "homogeneous": len(degrees) <= 1,
        "coinvariant": coinv,
        "coinvariant_part": _render(coinvariant_part(w, element)),
    }
    if not degrees:
        lines = ["degree: 0 (zero element)"]
    elif len(degrees) == 1:
        lines = [f"degree: {degrees[0]}"]
    else:
        lines = [f"inhomogeneous, degrees: {', '.join(map(str, degrees))}"]
    lines.append(f"coinvariant: {'yes' if coinv else 'no'}")
    _emit(payload, cfg.fmt, lines)
    return EXIT_OK


def _cmd_generators(args, cfg: RunConfig) -> int:
    w = Weights(args.k, args.l)
    gens = qwrp.generators(w)
    cname = qwrp.c_name(w.parity)
    family = f"(l={w.l}; {cname[-1]})"  # (l; +) has c+, (l; -) has c-
    entries = {"a": str(gens.a), cname: str(gens.c)}
    if gens.b is not None:
        entries["b"] = str(gens.b)
    payload = {
        "schema": SCHEMA,
        "command": "generators",
        "k": w.k,
        "l": w.l,
        "parity": w.parity,
        "family": family,
        "generators": entries,
    }
    lines = [f"parity: {w.parity} (family {family})"]
    for name in ("a", "b", cname):
        if name in entries:
            lines.append(f"{name} = {entries[name]}")
    _emit(payload, cfg.fmt, lines)
    return EXIT_OK


def _cmd_verify_relations(args, cfg: RunConfig) -> int:
    w = Weights.canonical(args.parity, args.l)
    if args.k is not None:
        w = Weights(args.k, args.l)
        if w.parity != args.parity:
            raise ValueError(f"k = {args.k} is {w.parity}, but the {args.parity} family needs {args.parity} k")
    report = qwrp.verify_relations(w)
    # text mode prints no normal form, so it expands none
    payload = {"schema": SCHEMA, "command": "verify-relations", **report.as_dict()} if cfg.fmt == "json" else {}
    lines = []
    for res in report.results:
        lines.append(f"{'PASS' if res.passed else 'FAIL'} {res.rid}: {res.statement}")
    lines.append(f"{sum(r.passed for r in report.results)}/{len(report.results)} relations pass")
    _emit(payload, cfg.fmt, lines)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_factorize(args, cfg: RunConfig) -> int:
    w = Weights(args.k, args.l)
    element = lower_text(args.monomial)
    try:
        mono = element.sole_monomial()
    except ValueError as exc:
        raise ValueError("factorize expects a single basis word with coefficient 1") from exc
    word = qwrp.factorize_with_conjugates(w, mono)
    payload = {
        "schema": SCHEMA,
        "command": "factorize",
        "k": w.k,
        "l": w.l,
        "monomial": str(mono),
        "word": [{"generator": name, "exponent": e} for name, e in word.letters],
        "starred": word.starred,
        "scalar": str(word.scalar),
    }
    _emit(payload, cfg.fmt, [f"{mono} = {qwrp.word_text(word, w.parity)}"])
    return EXIT_OK


def _cmd_rep_check(args, cfg: RunConfig) -> int:
    report = fockrep.rep_report(args.parity, args.l, cfg.q, cfg.dim, cfg.tolerance)
    payload = {"schema": SCHEMA, "command": "rep-check", **report.as_dict()}
    lines = []
    for e in report.residuals:
        lines.append(f"{'PASS' if e.passed else 'FAIL'} r={e.r} {e.rid}: residual {e.residual:.3e}")
    lines.append(f"kernel conditions exact: {'yes' if report.kernel_exact else 'NO'}")
    lines.append(f"scalar representation residual: {payload['scalar_representation_residual']:.3e}")
    lines.append(f"intertwiner residual: {payload['intertwiner_residual']:.3e}")
    lines.append(f"all pass: {'yes' if report.all_pass else 'NO'}")
    _emit(payload, cfg.fmt, lines)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_ktheory(args, cfg: RunConfig) -> int:
    report = ktheory.ktheory_report(args.parity, args.l, cfg.q, cfg.dim, cfg.tolerance)
    payload = {"schema": SCHEMA, "command": "ktheory", **report.as_dict()}
    lines = [
        f"index map: {list(report.delta.entries)} (stable under doubling: yes)",
        f"coisometry max interior deviation: {payload['coisometry_max_deviation']:.3e}",
        f"smith diagonal: {list(report.smith_diagonal)}",
        f"K0 = {report.kgroups.k0} (expected {report.expected.k0})",
        f"K1 = {report.kgroups.k1} (expected {report.expected.k1})",
        f"cokernel map bijection: {'yes' if report.cokernel_map_ok else 'NO'}",
        f"pullback compactness proxy: {'yes' if report.pullback['all_pass'] else 'NO'}",
        f"all pass: {'yes' if report.all_pass else 'NO'}",
    ]
    _emit(payload, cfg.fmt, lines)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _factorize_section(w: Weights) -> dict:
    """Compact factorization sweep for the assembled report."""
    monos, sound, complete = qwrp.factorization_sweep(w, 2 * w.l, 4, 4)
    return {"k": w.k, "l": w.l, "monomials": len(monos), "sound": sound,
            "complete": complete, "pass": sound and complete}


def _faithfulness_section() -> dict:
    """Fixed 12-word linear-independence check of the ambient representation."""
    words = [NormalMonomial(m, p, (m - p) % 3 - 1) for m in range(4) for p in range(3)]
    ok = fockrep.words_independent(words, 128)
    return {"N": 128, "words": [str(w) for w in words], "independent": ok, "pass": ok}


def _cmd_report_all(args, cfg: RunConfig) -> int:
    if args.lmax < 1:
        raise ValueError("lmax must be at least 1")
    sections = []
    lines = []
    faithfulness = _faithfulness_section()
    ok = faithfulness["pass"]
    combos = [("even", l) for l in range(1, args.lmax + 1) if l % 2 == 1]
    combos += [("odd", l) for l in range(1, args.lmax + 1)]
    for parity, l in combos:
        w = Weights.canonical(parity, l)
        relations = qwrp.verify_relations(w)
        reps = fockrep.rep_report(parity, l, cfg.q, cfg.dim, cfg.tolerance)
        kth = ktheory.ktheory_report(parity, l, cfg.q, min(cfg.dim, 128), cfg.tolerance)
        fact = _factorize_section(w)
        section_ok = relations.all_pass and reps.all_pass and kth.all_pass and fact["pass"]
        ok = ok and section_ok
        if cfg.fmt == "json":  # text mode prints no section, so it expands no normal form
            sections.append(
                {
                    "parity": parity,
                    "l": l,
                    "relations": relations.as_dict(),
                    "representations": reps.as_dict(),
                    "ktheory": kth.as_dict(),
                    "factorization": fact,
                    "pass": section_ok,
                }
            )
        lines.append(
            f"{'PASS' if section_ok else 'FAIL'} {parity} l={l}: "
            f"relations {sum(r.passed for r in relations.results)}/{len(relations.results)}, "
            f"rep residual {max(e.residual for e in reps.residuals):.3e}, "
            f"index map {list(kth.delta.entries)}, K0 {kth.kgroups.k0}, K1 {kth.kgroups.k1}, "
            f"factorization {fact['monomials']} words"
        )
    lines.append(
        f"{'PASS' if faithfulness['pass'] else 'FAIL'} ambient faithfulness probe: {len(faithfulness['words'])} "
        f"words {'' if faithfulness['pass'] else 'not '}independent at N={faithfulness['N']}"
    )
    lines.append(f"overall: {'PASS' if ok else 'FAIL'}")
    payload = {
        "schema": SCHEMA,
        "command": "report-all",
        "config": {"q": cfg.q, "N": cfg.dim, "tolerance": cfg.tolerance, "lmax": args.lmax},
        "faithfulness": faithfulness,
        "sections": sections,
        "all_pass": ok,
    }
    _emit(payload, cfg.fmt, lines)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# -- argument wiring --------------------------------------------------------

# An argument: its option string, or the name of the command's one
# positional; int, float, str or a tuple of choices; its default, or
# _REQUIRED; its help.  Its dest is the name without dashes, as in argparse.
_REQUIRED = object()
_K = ("--k", int, _REQUIRED, None)
_L = ("--l", int, _REQUIRED, None)
_PARITY = ("--parity", ("even", "odd"), _REQUIRED, None)
_EXPR = ("expr", str, _REQUIRED, None)
_COMMON = (
    ("--q", float, None, "deformation parameter in (0,1)"),
    ("--N", int, None, "truncation size"),
    ("--tol", float, None, "numerical tolerance"),
    ("--format", ("text", "json"), "text", None),
)

# (name, help, handler, arguments before the common ones), in help order
COMMANDS = (
    ("normalize", "normal form of an expression", _cmd_normal_form, (_EXPR,)),
    ("star", "involution of an expression", _cmd_normal_form, (_EXPR,)),
    ("degree", "grading degree and coinvariance", _cmd_degree, (_K, _L, _EXPR)),
    ("generators", "coinvariant generators for a weight pair", _cmd_generators, (_K, _L)),
    ("verify-relations", "exact relation verification", _cmd_verify_relations,
     (_PARITY, _L, ("--k", int, None, "of the family's parity, coprime with l (default: 2 even, 1 odd)"))),
    ("factorize", "factor a coinvariant basis word", _cmd_factorize, (_K, _L, ("monomial", str, _REQUIRED, None))),
    ("rep-check", "representation residual checks", _cmd_rep_check, (_PARITY, _L)),
    ("ktheory", "index map, K-groups, pullback checks", _cmd_ktheory, (_PARITY, _L)),
    ("report-all", "assembled report over all families", _cmd_report_all, (("--lmax", int, 5, None),)),
)


def _fill(p, name: str, handler, arguments: tuple) -> None:
    """Give the argparse parser p the arguments of the command name, then the common ones."""
    for flag, kind, default, help_text in arguments + _COMMON:
        if flag[0] != "-":
            p.add_argument(flag)
            continue
        choices = kind if isinstance(kind, tuple) else None
        required = default is _REQUIRED
        p.add_argument(flag, type=None if choices else kind, choices=choices, required=required,
                       default=None if required else default, help=help_text)
    p.set_defaults(command=name, handler=handler)


def build_parser():
    """The full qrwp argparse parser: one subparser for each command.  It
    reads every argv that _read declines, so help and usage errors list
    every command."""
    import argparse  # only help, errors and uncommon spellings need it

    # --help shows the first two paragraphs of the docstring, not the one on parsing
    ap = argparse.ArgumentParser(prog="qrwp", description=__doc__ and "\n\n".join(__doc__.split("\n\n")[:2]))
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in COMMANDS:
        _fill(sub.add_parser(name, help=help_text), name, handler, arguments)
    return ap


def _read(argv: list[str]) -> SimpleNamespace | None:
    """The attributes build_parser().parse_args(argv) sets, read from the
    table, or None when argv is not in the one form read here: a command
    name, then its positional and its exact option strings, each option
    followed by a value that does not start with "-" and that converts
    with the option's type or lies in its choices, every required one
    present.  A repeated option keeps its last value.  Never prints."""
    for name, _, handler, arguments in COMMANDS:
        if argv and argv[0] == name:
            break
    else:
        return None
    kinds, values = {}, {"command": name, "handler": handler}
    for flag, kind, default, _ in arguments + _COMMON:
        kinds[flag] = kind
        values[flag.lstrip("-")] = default
    positional = arguments[-1][0]  # a command's positional comes last, if it has one
    rest = iter(argv[1:])
    for token in rest:
        if token[:1] == "-":
            flag, value = token, next(rest, "-")
        elif positional[0] != "-" and values[positional] is _REQUIRED:  # the positional, once
            flag, value = positional, token
        else:
            return None
        kind = kinds.get(flag)
        if kind is None or value[:1] == "-":
            return None
        try:  # tuple.index raises ValueError for a value not among the choices
            values[flag.lstrip("-")] = kind(value) if callable(kind) else kind[kind.index(value)]
        except ValueError:
            return None
    if _REQUIRED in values.values():
        return None
    return SimpleNamespace(**values)


def _parse(argv: list[str]):
    """The parsed arguments, as build_parser().parse_args(argv) gives them:
    read from the table when _read takes argv, else by the full parser,
    which prints help and usage errors and exits."""
    return _read(argv) or build_parser().parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
    try:
        cfg = _config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        code = args.handler(args, cfg)
        sys.stdout.flush()
        return code
    except ExpressionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:
        # the reader closed stdout early (`| head`): send the unflushed rest
        # to devnull so the interpreter's final flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
