"""The four benchmark workloads.

Each workload has three parts:

    inputs(seed)           plain data made from the seed, without the package;
    run(inputs)            the package calls that are timed;
    verdicts(inputs, out)  one pass/fail verdict per check id, plus the exact
                           values that are compared with reference.json.

The package is imported inside ``run`` and ``verdicts`` only, so the
parent process can size and count a workload without numpy.  Module
attributes are looked up at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

TOL = 1e-10
REFERENCE = Path(__file__).with_name("reference.json")

# q, N and tol are passed explicitly so QRWP_* variables cannot change them.
REPORT_ARGS = ("report-all", "--lmax", "2", "--q", "0.5", "--N", "256", "--tol", "1e-10", "--format", "json")
EXACT_FAMILIES = (("odd", 14), ("even", 25))
BATCH_SIZE = 1000
BATCH_WEIGHTS = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (1, 3))
SWEEP_L, SWEEP_N, SWEEP_QS = 2, 160, (0.02, 0.5, 0.97)


@dataclass
class Checks:
    """Verdicts by check id; ids read ``scope/category/detail``."""

    verdicts: dict = field(default_factory=dict)
    exact: dict = field(default_factory=dict)
    margins: list = field(default_factory=list)
    output_bytes: int = 0

    def add(self, cid: str, ok, exact=None) -> None:
        self.verdicts[cid] = bool(ok)
        if exact is not None:
            self.exact[cid] = json.loads(json.dumps(exact))

    def residual(self, cid: str, value: float, flagged_pass=True) -> None:
        """A float residual passes when it is below TOL, whatever its bits."""
        self.margins.append(value / TOL)
        self.add(cid, flagged_pass and value < TOL)


def category(cid: str) -> str:
    return cid.split("/")[1]


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- shared report readers ---------------------------------------------------


def _relations(c: Checks, scope: str, report: dict) -> None:
    for rel in report["relations"]:
        c.add(f"{scope}/relation/{rel['id']}", rel["pass"],
              exact=_digest(f"{rel['lhs_normal_form']} = {rel['rhs_normal_form']}"))


def _representations(c: Checks, scope: str, rep: dict) -> None:
    for e in rep["relation_residuals"]:
        c.residual(f"{scope}/residual/r{e['r']}/{e['id']}", e["residual"], e["pass"])
    c.add(f"{scope}/fockrep/kernel", rep["kernel_conditions_exact"])
    c.residual(f"{scope}/fockrep/scalar", rep["scalar_representation_residual"])
    c.residual(f"{scope}/fockrep/intertwiner", rep["intertwiner_residual"])


def _ktheory(c: Checks, scope: str, k: dict) -> None:
    pb = k["pullback"]
    c.add(f"{scope}/ktheory/index_map", True, exact=k["index_map"])
    c.add(f"{scope}/ktheory/stable", k["index_map_stable"])
    c.add(f"{scope}/ktheory/coisometry", k["coisometry_max_deviation"] < TOL)
    c.add(f"{scope}/ktheory/smith", True, exact=k["smith_diagonal"])
    c.add(f"{scope}/ktheory/kgroups", k["kgroups_match"], exact=[k["k0"], k["k1"]])
    c.add(f"{scope}/ktheory/cokernel", k["cokernel_map_ok"])
    c.add(f"{scope}/ktheory/pullback",
          pb["all_pass"]
          and all(e["tail_max"] < TOL for e in pb["per_r"])
          and all(e["tail_max"] < 2 * TOL for e in pb["pairwise"]))


# -- report_all: the command users run ---------------------------------------


def report_all_run(args):
    from qrwp import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(args))
    return code, buf.getvalue()


def report_all_verdicts(args, out) -> Checks:
    code, text = out
    c = Checks(output_bytes=len(text.encode()))
    c.add("report/cli/exit", code == 0)
    payload = json.loads(text)
    c.add("report/fockrep/faithfulness", payload["faithfulness"]["pass"])
    for sec in payload["sections"]:
        scope = f"{sec['parity']}.l{sec['l']}"
        _relations(c, scope, sec["relations"])
        _representations(c, scope, sec["representations"])
        _ktheory(c, scope, sec["ktheory"])
        fact = sec["factorization"]
        c.add(f"{scope}/factorization/sweep", fact["pass"] and fact["sound"] and fact["complete"],
              exact=fact["monomials"])
    return c


# -- exact_relations: large Gaussian-binomial coefficients -------------------


def _factorize_sweep(w):
    """The report-all factorization section, through the public qwrp API."""
    import qrwp
    from qrwp import qwrp

    m_max, p_max, r_max = 2 * w.l, 4, 4
    monos = qwrp.degree_zero_monomials(w, m_max, p_max, r_max)
    gens = qwrp.generators(w)
    words, sound = [], True
    for mono in monos:
        word = qwrp.factorize(w, mono)
        words.append(word)
        rebuilt = qwrp.word_element(gens, word) * word.scalar
        sound = sound and rebuilt == qrwp.AlgebraElement.monomial(mono.m, mono.p, mono.r)
    complete = qwrp.enumerate_word_monomials(w, m_max, p_max, r_max) == set(monos)
    return monos, words, sound, complete


def exact_relations_run(families):
    import qrwp
    from qrwp import qwrp

    out = []
    for parity, l in families:
        w = qrwp.Weights.canonical(parity, l)
        out.append((parity, l, qwrp.verify_relations(w), _factorize_sweep(w)))
    return out


def exact_relations_verdicts(families, out) -> Checks:
    c = Checks()
    for parity, l, report, (monos, words, sound, complete) in out:
        scope = f"{parity}.l{l}"
        _relations(c, scope, report.as_dict())
        c.add(f"{scope}/factorization/sound", sound)
        c.add(f"{scope}/factorization/complete", complete)
        listing = [[str(m), [list(x) for x in w.letters], w.starred, str(w.scalar)]
                   for m, w in zip(monos, words)]
        c.add(f"{scope}/factorization/words", True, exact=_digest(json.dumps(listing)))
    return c


# -- normalize_batch: many tiny values ----------------------------------------

_ATOMS = ("z0", "z0s", "z1", "z1s", "xi", "xis")


def _factor(rng: random.Random) -> tuple[str, int]:
    name = rng.choice(_ATOMS)
    e = rng.choice((1, 1, 1, 2, 3))
    if name in ("xi", "xis") and rng.random() < 0.3:
        e = -e  # only the central unitary may carry a negative power
    return name, e


def _term(rng: random.Random, sign: int) -> tuple[str, tuple]:
    """Text of one term and its structure (sign, integer, q exponent, factors)."""
    factors = tuple(_factor(rng) for _ in range(rng.randint(1, 4)))
    parts = [name if e == 1 else f"{name}^{e}" for name, e in factors]
    coeff, q_exp = 1, 0
    lead = rng.random()
    if lead < 0.3:
        coeff = rng.randint(2, 5)
        parts.insert(0, str(coeff))
    elif lead < 0.5:
        q_exp = rng.randint(-3, 3)
        parts.insert(0, f"q^{q_exp}")
    return " ".join(parts), (sign, coeff, q_exp, factors)


def normalize_inputs(seed: int) -> list:
    """BATCH_SIZE items (text, (k, l), structure, oracle).  The structure is
    the tuple of terms (sign, integer, q exponent, ((name, power), ...)) the
    text spells; oracle is (m, n, conjugate_first) for the closed-form words
    z0^m z0s^n and z0s^n z0^m, else None."""
    rng = random.Random(seed)
    items = []
    for _ in range(BATCH_SIZE):
        weights = rng.choice(BATCH_WEIGHTS)
        if rng.random() < 0.15:
            m, n, first = rng.randint(1, 5), rng.randint(1, 5), rng.random() < 0.5
            factors = (("z0s", n), ("z0", m)) if first else (("z0", m), ("z0s", n))
            text = " ".join(f"{name}^{e}" for name, e in factors)
            items.append((text, weights, ((1, 1, 0, factors),), (m, n, first)))
            continue
        text, term = _term(rng, 1)
        terms = [term]
        for _ in range(rng.randint(0, 2)):
            op = rng.choice((" + ", " - "))
            more, term = _term(rng, -1 if op == " - " else 1)
            text += op + more
            terms.append(term)
        items.append((text, weights, tuple(terms), None))
    return items


def normalize_ids(items) -> list[str]:
    ids = []
    for i, (_, _, _, oracle) in enumerate(items):
        ids += [f"expr{i}/normalize/structure", f"expr{i}/normalize/roundtrip",
                f"expr{i}/normalize/involution", f"expr{i}/normalize/degrees"]
        if oracle is not None:
            ids.append(f"expr{i}/normalize/oracle")
    return ids


def _from_structure(terms):
    """The element a structure denotes, built with the element arithmetic
    and generator constants alone, without the parser."""
    import qrwp

    gens = {"z0": qrwp.Z0, "z0s": qrwp.Z0S, "z1": qrwp.Z1, "z1s": qrwp.Z1S,
            "xi": qrwp.XI, "xis": qrwp.XIS}
    total = qrwp.AlgebraElement.zero()
    for sign, coeff, q_exp, factors in terms:
        x = qrwp.AlgebraElement.scalar(sign * coeff) * qrwp.AlgebraElement.scalar(qrwp.qpow(q_exp))
        for name, e in factors:
            x = x * (gens[name] ** e if e >= 0 else gens[name].try_inverse() ** -e)
        total = total + x
    return total


def normalize_run(items):
    import qrwp
    from qrwp import parser

    out = []
    for text, (k, l), _, _ in items:
        x = parser.lower_text(text)
        out.append((x, parser.render(x), qrwp.star(x), qrwp.element_degrees(qrwp.Weights(k, l), x)))
    return out


def normalize_verdicts(items, out) -> Checks:
    import qrwp
    from qrwp import parser

    c = Checks()
    for i, ((_, (k, l), terms, oracle), (x, text, x_star, degrees)) in enumerate(zip(items, out)):
        c.add(f"expr{i}/normalize/structure", x == _from_structure(terms))
        c.add(f"expr{i}/normalize/roundtrip", parser.lower_text(text) == x)
        c.add(f"expr{i}/normalize/involution", qrwp.star(x_star) == x)
        direct = sorted({k * mono.m + (mono.p - 2 * mono.r) * l for mono, _ in x.terms()})
        c.add(f"expr{i}/normalize/degrees", degrees == direct)
        if oracle is not None:
            c.add(f"expr{i}/normalize/oracle", x == qrwp.powers_oracle(*oracle))
    return c


# -- numeric_sweep: K-theory and q away from 1/2 -------------------------------


def numeric_sweep_run(qs):
    from qrwp import fockrep, ktheory

    return [(q, fockrep.rep_report("odd", SWEEP_L, q, SWEEP_N, TOL),
             ktheory.ktheory_report("odd", SWEEP_L, q, SWEEP_N, TOL)) for q in qs]


def numeric_sweep_verdicts(qs, out) -> Checks:
    c = Checks()
    for q, rep, kth in out:
        scope = f"q{q}"
        _representations(c, scope, rep.as_dict())
        _ktheory(c, scope, kth.as_dict())
    return c


# -- registry ------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run: Callable
    verdicts: Callable
    # The calibration loop of the same kind of code (child.CALIBRATIONS):
    # the host's slower state slows pure-Python object code and dense
    # numpy linear algebra by different factors.
    calibration: str


# Why each workload exists: BENCHMARK.json and README.md.
WORKLOADS = {
    "report_all": Workload(lambda seed: REPORT_ARGS, report_all_run, report_all_verdicts, "numpy"),
    "exact_relations": Workload(lambda seed: EXACT_FAMILIES, exact_relations_run, exact_relations_verdicts,
                                "python"),
    "normalize_batch": Workload(normalize_inputs, normalize_run, normalize_verdicts, "python"),
    "numeric_sweep": Workload(lambda seed: SWEEP_QS, numeric_sweep_run, numeric_sweep_verdicts, "numpy"),
}


def expected(name: str, seed: int):
    """(check ids, reference exact values, expected failures) of one iteration."""
    if name == "normalize_batch":
        return normalize_ids(normalize_inputs(seed)), {}, []
    ref = json.loads(REFERENCE.read_text())[name]
    return ref["checks"], ref["exact"], ref["expected_failures"]


def failed_checks(checks: Checks, ids, ref_exact: dict) -> list[str]:
    """Ids whose verdict is missing or false, or whose exact value differs."""
    return [cid for cid in ids
            if not checks.verdicts.get(cid)
            or (cid in ref_exact and checks.exact.get(cid) != ref_exact[cid])]
