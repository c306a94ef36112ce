"""Command-line entry point for reproducible verification runs.

Exit codes: 0 all checks pass, 2 expression parse error, 3 precondition
violation (bad weights or parameters), 4 check failure.  Defaults
q=0.5, N=256, tolerance=1e-10 may be overridden by the environment
variables QRWP_Q, QRWP_N, QRWP_TOL and, with higher priority, by flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import fockrep, ktheory, qwrp
from .grading import Weights, coinvariant_part, element_degrees, is_coinvariant
from .parser import ExpressionError, lower_text, render

SCHEMA = "qrwp-report/1"

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_CHECK_FAILED = 4


@dataclass(frozen=True)
class RunConfig:
    q: float
    dim: int
    tolerance: float
    fmt: str

    def __post_init__(self):
        if not 0.0 < self.q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if self.dim < 4:
            raise ValueError("N must be at least 4")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


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


# -- command handlers -----------------------------------------------------


def _emit_normal_form(args, cfg: RunConfig, element) -> int:
    text = render(element)
    _emit({"schema": SCHEMA, "command": args.command, "input": args.expr, "normal_form": text}, cfg.fmt, [text])
    return EXIT_OK


def _cmd_normalize(args, cfg: RunConfig) -> int:
    return _emit_normal_form(args, cfg, lower_text(args.expr))


def _cmd_star(args, cfg: RunConfig) -> int:
    return _emit_normal_form(args, cfg, lower_text(args.expr).star())


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
        "coinvariant_part": render(coinvariant_part(w, element)),
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
    report = qwrp.verify_relations(w)
    payload = {"schema": SCHEMA, "command": "verify-relations", **report.as_dict()}
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
    lines.append(f"scalar representation residual: {report.scalar_residual:.3e}")
    lines.append(f"intertwiner residual: {report.intertwiner_residual:.3e}")
    lines.append(f"all pass: {'yes' if report.all_pass else 'NO'}")
    _emit(payload, cfg.fmt, lines)
    return EXIT_OK if report.all_pass else EXIT_CHECK_FAILED


def _cmd_ktheory(args, cfg: RunConfig) -> int:
    report = ktheory.ktheory_report(args.parity, args.l, cfg.q, cfg.dim, cfg.tolerance)
    payload = {"schema": SCHEMA, "command": "ktheory", **report.as_dict()}
    lines = [
        f"index map: {list(report.delta.entries)} (stable under doubling: {'yes' if report.stable else 'NO'})",
        f"coisometry max interior deviation: {report.coisometry_max_deviation:.3e}",
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
    from .sigma3 import AlgebraElement

    m_max, p_max, r_max = 2 * w.l, 4, 4
    monos = qwrp.degree_zero_monomials(w, m_max, p_max, r_max)
    gens = qwrp.generators(w)
    sound = True
    for mono in monos:
        word = qwrp.factorize(w, mono)
        if qwrp.word_element(gens, word) * word.scalar != AlgebraElement.monomial(mono.m, mono.p, mono.r):
            sound = False
            break
    complete = sound and qwrp.enumerate_word_monomials(w, m_max, p_max, r_max) == set(monos)
    return {"k": w.k, "l": w.l, "monomials": len(monos), "sound": sound,
            "complete": complete, "pass": sound and complete}


def _faithfulness_section(q: float) -> dict:
    """Fixed 12-word linear-independence probe of the ambient representation."""
    from .sigma3 import NormalMonomial

    words = [NormalMonomial(m, p, (m - p) % 3 - 1) for m in range(4) for p in range(3)]
    ok = fockrep.faithfulness_probe(words, q, 128, tol=1e-8)
    return {"N": 128, "words": [str(w) for w in words], "independent": ok, "pass": ok}


def _cmd_report_all(args, cfg: RunConfig) -> int:
    sections = []
    lines = []
    faithfulness = _faithfulness_section(cfg.q)
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
        f"{'PASS' if faithfulness['pass'] else 'FAIL'} ambient faithfulness probe: "
        f"{len(faithfulness['words'])} words independent at N={faithfulness['N']}"
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


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qrwp", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("normalize", help="normal form of an expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("star", help="involution of an expression")
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(handler=_cmd_star)

    p = sub.add_parser("degree", help="grading degree and coinvariance")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("expr")
    _add_common(p)
    p.set_defaults(handler=_cmd_degree)

    p = sub.add_parser("generators", help="coinvariant generators for a weight pair")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_generators)

    p = sub.add_parser("verify-relations", help="exact relation verification")
    p.add_argument("--parity", choices=("even", "odd"), required=True)
    p.add_argument("--l", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_verify_relations)

    p = sub.add_parser("factorize", help="factor a coinvariant basis word")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("monomial")
    _add_common(p)
    p.set_defaults(handler=_cmd_factorize)

    p = sub.add_parser("rep-check", help="representation residual checks")
    p.add_argument("--parity", choices=("even", "odd"), required=True)
    p.add_argument("--l", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_rep_check)

    p = sub.add_parser("ktheory", help="index map, K-groups, pullback checks")
    p.add_argument("--parity", choices=("even", "odd"), required=True)
    p.add_argument("--l", type=int, required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_ktheory)

    p = sub.add_parser("report-all", help="assembled report over all families")
    p.add_argument("--lmax", type=int, default=5)
    _add_common(p)
    p.set_defaults(handler=_cmd_report_all)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    try:
        return args.handler(args, cfg)
    except ExpressionError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
