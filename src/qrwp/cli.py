"""Command-line entry point for reproducible verification runs.

Exit codes: 0 all checks pass, 2 expression parse error, 3 precondition
violation (bad weights or parameters), 4 check failure.  Defaults
q=0.5, N=256, tolerance=1e-10 may be overridden by the environment
variables QRWP_Q, QRWP_N, QRWP_TOL and, with higher priority, by flags.

Parsing builds one of two parsers.  When the first argument names a
command and no -h or --help follows, main builds that command's parser
alone, with prog "qrwp <command>" as its subparser has, and reads the
rest of the arguments with it.  Help, no argument, an unknown command
and leftover arguments go to the full parser of build_parser, one
subparser per command, so its help and usage errors list every command.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple

from . import fockrep, ktheory, qwrp
from .grading import Weights, coinvariant_part, element_degrees, is_coinvariant
from .parser import MAX_DIGITS, ExpressionError, LoweringError, lower_text, render
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


def _config(args: argparse.Namespace) -> RunConfig:
    q = args.q if args.q is not None else _env_default("QRWP_Q", float, 0.5)
    dim = args.N if getattr(args, "N", None) is not None else _env_default("QRWP_N", int, 256)
    tol = args.tol if args.tol is not None else _env_default("QRWP_TOL", float, 1e-10)
    return RunConfig(q=q, dim=dim, tolerance=tol, fmt=args.format)


def _emit(payload: dict, fmt: str, text_lines: list[str]) -> None:
    if fmt == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _render(element: AlgebraElement) -> str:
    """render(element), or a LoweringError (exit 2) that names the digit
    count when a coefficient has more than MAX_DIGITS digits, which
    int-to-text conversion refuses."""
    bound = 10 ** MAX_DIGITS
    for _, coef in element.terms():
        for _, c in coef.items_sorted():
            c = abs(c)
            if c >= bound:
                digits = int(c.bit_length() * math.log10(2)) + 1  # the digit count or one more
                digits -= c < 10 ** (digits - 1)
                raise LoweringError(f"coefficient of {digits} digits exceeds the supported length of {MAX_DIGITS}")
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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--q", type=float, default=None, help="deformation parameter in (0,1)")
    p.add_argument("--N", type=int, default=None, help="truncation size")
    p.add_argument("--tol", type=float, default=None, help="numerical tolerance")
    p.add_argument("--format", choices=("text", "json"), default="text")


def _expr(p: argparse.ArgumentParser) -> None:
    p.add_argument("expr")


def _weights(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)


def _weights_expr(p: argparse.ArgumentParser) -> None:
    _weights(p)
    p.add_argument("expr")


def _weights_monomial(p: argparse.ArgumentParser) -> None:
    _weights(p)
    p.add_argument("monomial")


def _family(p: argparse.ArgumentParser) -> None:
    p.add_argument("--parity", choices=("even", "odd"), required=True)
    p.add_argument("--l", type=int, required=True)


def _family_k(p: argparse.ArgumentParser) -> None:
    _family(p)
    p.add_argument("--k", type=int, default=None, help="of the family's parity, coprime with l (default: 2 even, 1 odd)")


def _lmax(p: argparse.ArgumentParser) -> None:
    p.add_argument("--lmax", type=int, default=5)


# (name, help, handler, adds the command's own arguments), in help order
COMMANDS = (
    ("normalize", "normal form of an expression", _cmd_normal_form, _expr),
    ("star", "involution of an expression", _cmd_normal_form, _expr),
    ("degree", "grading degree and coinvariance", _cmd_degree, _weights_expr),
    ("generators", "coinvariant generators for a weight pair", _cmd_generators, _weights),
    ("verify-relations", "exact relation verification", _cmd_verify_relations, _family_k),
    ("factorize", "factor a coinvariant basis word", _cmd_factorize, _weights_monomial),
    ("rep-check", "representation residual checks", _cmd_rep_check, _family),
    ("ktheory", "index map, K-groups, pullback checks", _cmd_ktheory, _family),
    ("report-all", "assembled report over all families", _cmd_report_all, _lmax),
)


def _fill(p: argparse.ArgumentParser, name: str, handler, add_arguments) -> None:
    """Give p the arguments of the command name, then the common ones."""
    add_arguments(p)
    _add_common(p)
    p.set_defaults(command=name, handler=handler)


def build_parser() -> argparse.ArgumentParser:
    """The full qrwp parser: one subparser for each command.  main parses
    with it for help, no argument, an unknown command and leftover
    arguments, so help and usage errors list every command."""
    # --help shows the first two paragraphs of the docstring, not the one on parsing
    ap = argparse.ArgumentParser(prog="qrwp", description=__doc__ and "\n\n".join(__doc__.split("\n\n")[:2]))
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, handler, add_arguments in COMMANDS:
        _fill(sub.add_parser(name, help=help_text), name, handler, add_arguments)
    return ap


def _parse(argv: list[str]) -> argparse.Namespace:
    """The parsed arguments, as build_parser().parse_args(argv) gives them.

    A named command without -h or --help is read by its own parser alone,
    built as its subparser is (prog "qrwp <name>"), so its errors are the
    subparser's; any other argv, or leftover arguments, go to the full
    parser.
    """
    if argv and "-h" not in argv and "--help" not in argv:
        for name, _, handler, add_arguments in COMMANDS:
            if name == argv[0]:
                p = argparse.ArgumentParser(prog=f"qrwp {name}")
                _fill(p, name, handler, add_arguments)
                args, rest = p.parse_known_args(argv[1:])
                if not rest:
                    return args
                break
    return build_parser().parse_args(argv)


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
