"""Quantum real weighted projective spaces as coinvariant subalgebras.

For a coprime weight pair the degree-zero part of the big algebra is
generated by

    even k = 2s:    a = z1^2 xi,  c+ = z0^l xi^s,
    odd  k = 2s-1:  a = z1^2 xi,  b = z0^l z1 xi^s,  c- = z0^2l xi^k.

This module builds those generators, verifies the defining relation set
of each family by exact normal-form computation, and factorizes any
degree-zero basis word through the generators (with the q-power scalar
that the reordering produces).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .grading import Weights, degree
from .qlaurent import LaurentPoly, power_text, qpow
from .sigma3 import AlgebraElement, NormalMonomial

# Relation sides are small data: a scalar q-power and a factor list.
# Factors:  ("gen", name, starred)  with name in {"a", "b", "c"}, or
#           ("prod", exps)          meaning prod_e (1 - q^{2e} a).
Factor = tuple


@dataclass(frozen=True, slots=True)
class RelationSide:
    q_exponent: int
    factors: tuple[Factor, ...]


@dataclass(frozen=True, slots=True)
class Relation:
    rid: str
    lhs: RelationSide
    rhs: RelationSide

    def statement(self, parity: str) -> str:
        return f"{_side_text(self.lhs, parity)} = {_side_text(self.rhs, parity)}"


def _gen(name: str, starred: bool = False) -> Factor:
    return ("gen", name, starred)


def _prod(exps: range) -> Factor:
    return ("prod", tuple(exps))


def _side(q_exponent: int, *factors: Factor) -> RelationSide:
    return RelationSide(q_exponent, factors)


def relations_for(parity: str, l: int) -> tuple[Relation, ...]:
    """The defining relation list of the parity-l family.

    Even: 4 relations; odd: 11 relations.  Products run over
    prod_{m=0}^{L-1}(1 - q^{2m} a) or prod_{m=1}^{L}(1 - q^{-2m} a).
    """
    if parity == "even":
        return (
            Relation("even.1", _side(0, _gen("a", True)), _side(0, _gen("a"))),
            Relation("even.2", _side(0, _gen("a"), _gen("c")), _side(-2 * l, _gen("c"), _gen("a"))),
            Relation("even.3", _side(0, _gen("c"), _gen("c", True)), _side(0, _prod(range(l)))),
            Relation("even.4", _side(0, _gen("c", True), _gen("c")), _side(0, _prod(range(-1, -l - 1, -1)))),
        )
    if parity == "odd":
        up = _prod(range(l))                       # prod_{m=0}^{l-1}(1 - q^{2m} a)
        down = _prod(range(-1, -l - 1, -1))        # prod_{m=1}^{l}(1 - q^{-2m} a)
        up2 = _prod(range(2 * l))
        down2 = _prod(range(-1, -2 * l - 1, -1))
        return (
            Relation("odd.1", _side(0, _gen("a", True)), _side(0, _gen("a"))),
            Relation("odd.2", _side(0, _gen("a"), _gen("b")), _side(-2 * l, _gen("b"), _gen("a"))),
            Relation("odd.3", _side(0, _gen("a"), _gen("c")), _side(-4 * l, _gen("c"), _gen("a"))),
            Relation("odd.4", _side(0, _gen("b"), _gen("b")), _side(3 * l, _gen("a"), _gen("c"))),
            Relation("odd.5", _side(0, _gen("b"), _gen("c")), _side(-2 * l, _gen("c"), _gen("b"))),
            Relation("odd.6", _side(0, _gen("b"), _gen("b", True)), _side(2 * l, _gen("a"), up)),
            Relation("odd.7", _side(0, _gen("b", True), _gen("b")), _side(0, _gen("a"), down)),
            Relation("odd.8", _side(0, _gen("b", True), _gen("c")), _side(-l, down, _gen("b"))),
            Relation("odd.9", _side(0, _gen("c"), _gen("b", True)), _side(l, _gen("b"), up)),
            Relation("odd.10", _side(0, _gen("c"), _gen("c", True)), _side(0, up2)),
            Relation("odd.11", _side(0, _gen("c", True), _gen("c")), _side(0, down2)),
        )
    raise ValueError(f"unknown parity {parity!r}")


def c_name(parity: str) -> str:
    """The family name of the generator c: c+ (even) or c- (odd)."""
    return "c+" if parity == "even" else "c-"


def _letter(name: str, parity: str, starred: bool) -> str:
    return (c_name(parity) if name == "c" else name) + ("*" if starred else "")


def _side_text(side: RelationSide, parity: str) -> str:
    parts = [power_text("q", side.q_exponent)]
    for f in side.factors:
        if f[0] == "gen":
            parts.append(_letter(f[1], parity, f[2]))
        else:
            terms = (" ".join(filter(None, (power_text("q", 2 * e), "a"))) for e in f[1])
            parts.append("".join(f"(1 - {term})" for term in terms))
    return " ".join(filter(None, parts)) or "1"


@dataclass(frozen=True, slots=True)
class GeneratorSet:
    """Coinvariant generators for one weight pair; b is None for even k."""

    weights: Weights
    a: AlgebraElement
    c: AlgebraElement
    b: AlgebraElement | None = None

    def named(self, name: str) -> AlgebraElement:
        if name == "a":
            return self.a
        if name == "c":
            return self.c
        if name == "b":
            if self.b is None:
                raise ValueError("generator b exists only in the odd family")
            return self.b
        raise KeyError(name)


def generators(w: Weights) -> GeneratorSet:
    """Generator set of the degree-zero subalgebra for the weight pair."""
    a = AlgebraElement.monomial(0, 2, 1)
    if w.parity == "even":
        c = AlgebraElement.monomial(w.l, 0, w.s)
        return GeneratorSet(weights=w, a=a, c=c)
    b = AlgebraElement.monomial(w.l, 1, w.s)
    c = AlgebraElement.monomial(2 * w.l, 0, w.k)
    return GeneratorSet(weights=w, a=a, c=c, b=b)


def eval_side(side: RelationSide, gens: GeneratorSet) -> AlgebraElement:
    """Substitute the generator expressions into one relation side and
    normalize the product."""
    out = AlgebraElement.scalar(qpow(side.q_exponent))
    for f in side.factors:
        if f[0] == "gen":
            g = gens.named(f[1])
            out = out * (g.star() if f[2] else g)
        else:
            for e in f[1]:
                out = out * (AlgebraElement.one() - gens.a * qpow(2 * e))
    return out


@dataclass(frozen=True, slots=True)
class RelationResult:
    rid: str
    statement: str
    passed: bool
    lhs: str
    rhs: str


@dataclass(frozen=True, slots=True)
class RelationReport:
    parity: str
    l: int
    k: int
    results: tuple[RelationResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(res.passed for res in self.results)

    def as_dict(self) -> dict:
        return {
            "parity": self.parity,
            "l": self.l,
            "k": self.k,
            "relations": [
                {
                    "id": res.rid,
                    "statement": res.statement,
                    "lhs_normal_form": res.lhs,
                    "rhs_normal_form": res.rhs,
                    "pass": res.passed,
                }
                for res in self.results
            ],
            "all_pass": self.all_pass,
        }


def verify_relations(w: Weights) -> RelationReport:
    """Check every defining relation of the family by exact equality of
    normal forms; a failing relation is reported, not raised."""
    gens = generators(w)
    results = []
    for rel in relations_for(w.parity, w.l):
        lhs = eval_side(rel.lhs, gens)
        rhs = eval_side(rel.rhs, gens)
        results.append(
            RelationResult(
                rid=rel.rid,
                statement=rel.statement(w.parity),
                passed=lhs == rhs,
                lhs=str(lhs),
                rhs=str(rhs),
            )
        )
    return RelationReport(parity=w.parity, l=w.l, k=w.k, results=tuple(results))


@dataclass(frozen=True, slots=True)
class GeneratorWord:
    """A product of generator powers, in word order, with the q-power
    scalar relating it to the factorized monomial:

        monomial = scalar * normal_form(word).

    When starred is set the letters refer to the starred generators
    (the conjugate family)."""

    letters: tuple[tuple[str, int], ...]
    scalar: LaurentPoly
    starred: bool = False


def word_text(word: GeneratorWord, parity: str) -> str:
    """Render a generator word with the family name of c (c+ or c-)."""
    letters = (power_text(_letter(name, parity, word.starred), e) for name, e in word.letters)
    body = " ".join(filter(None, letters)) or "1"
    e = word.scalar.as_q_power()
    if e == 0:
        return body
    scalar_txt = f"({word.scalar})" if e is None else power_text("q", e)
    return f"{scalar_txt} * {body}"


def word_element(gens: GeneratorSet, word: GeneratorWord) -> AlgebraElement:
    """Normal form of the generator word (starred letters conjugated)."""
    out = AlgebraElement.one()
    for name, e in word.letters:
        g = gens.named(name)
        if word.starred:
            g = g.star()
        out = out * g ** e
    return out


def factorize(w: Weights, mono: NormalMonomial) -> GeneratorWord:
    """Factor a degree-zero basis word (m >= 0 family) through the
    generators.

    Even family:  z0^{nl} z1^{2e} xi^{sn+e} = c+^n a^e exactly.
    Odd family:   with n = m/l and t minimal such that r - sn + t >= 0,
    the word is b^{n-2t} a^{r-sn+t} c-^t up to a q-power, which is
    computed by normalizing the word and comparing (never assumed 1).
    """
    if mono.m < 0:
        raise ValueError("factorize handles the z0 family; use the involution for z0* words")
    if degree(w, mono) != 0:
        raise ValueError(f"monomial {mono} is not coinvariant for weights ({w.k}, {w.l})")
    l, s = w.l, w.s
    if mono.m % l != 0:
        raise ValueError(f"monomial {mono} lies outside the coinvariant basis family")
    n = mono.m // l
    if w.parity == "even":
        if mono.p % 2 != 0:
            raise ValueError("even-family coinvariants have even z1 exponent")
        e = mono.p // 2
        if mono.r != s * n + e or e < 0:
            raise ValueError(f"monomial {mono} lies outside the coinvariant basis family")
        letters = (("c", n), ("a", e))
    else:
        t = max(0, s * n - mono.r)
        alpha = mono.r - s * n + t
        beta = n - 2 * t
        if beta < 0 or alpha < 0:
            raise ValueError(f"monomial {mono} lies outside the coinvariant basis family")
        letters = (("b", beta), ("a", alpha), ("c", t))
    word = GeneratorWord(letters=letters, scalar=qpow(0))
    normalized = word_element(generators(w), word)
    wmono, coef = normalized.sole_term()
    if wmono != mono:
        raise RuntimeError(f"factorization of {mono} reconstructed {wmono}")
    e_mu = coef.as_q_power()
    if e_mu is None:
        raise RuntimeError(f"factorization scalar {coef} is not a pure q-power")
    return GeneratorWord(letters=letters, scalar=qpow(-e_mu))


def factorize_with_conjugates(w: Weights, mono: NormalMonomial) -> GeneratorWord:
    """Factorize either basis family; z0* words go through the involution:
    if  star(mono') = q^{-pm} mono  and  mono' = lam * word,  then
    mono = q^{pm} lam * star(word)."""
    if mono.m >= 0:
        return factorize(w, mono)
    conj = NormalMonomial(-mono.m, mono.p, mono.p - mono.r)
    base = factorize(w, conj)
    letters = tuple(reversed(base.letters))
    scalar = base.scalar * qpow(mono.p * mono.m)
    return GeneratorWord(letters=letters, scalar=scalar, starred=True)


def degree_zero_monomials(w: Weights, m_max: int, p_max: int, r_max: int) -> list[NormalMonomial]:
    """All degree-zero basis words with 0 <= m <= m_max, 0 <= p <= p_max,
    |r| <= r_max, in canonical order."""
    out = []
    for m in range(m_max + 1):
        for p in range(p_max + 1):
            for r in range(-r_max, r_max + 1):
                mono = NormalMonomial(m, p, r)
                if degree(w, mono) == 0:
                    out.append(mono)
    return out


def enumerate_word_monomials(w: Weights, m_max: int, p_max: int, r_max: int) -> set[NormalMonomial]:
    """Brute-force route: normalize every generator word of bounded
    exponent and collect the basis words that land in the box.  Each
    word must normalize to a single term with a pure q-power scalar."""
    gens = generators(w)
    l = w.l
    found: set[NormalMonomial] = set()
    if w.parity == "even":
        ranges = itertools.product(range(m_max // l + 1), range(p_max // 2 + 1))
        words = [(("c", n), ("a", e)) for n, e in ranges]
    else:
        ranges = itertools.product(
            range(m_max // l + 1), range(p_max // 2 + 1), range(m_max // (2 * l) + 1)
        )
        words = [(("b", beta), ("a", alpha), ("c", gamma)) for beta, alpha, gamma in ranges]
    for letters in words:
        elem = word_element(gens, GeneratorWord(letters=letters, scalar=qpow(0)))
        mono, coef = elem.sole_term()
        if coef.as_q_power() is None:
            raise RuntimeError(f"word {letters} did not normalize to a q-power multiple of a basis word")
        if 0 <= mono.m <= m_max and mono.p <= p_max and abs(mono.r) <= r_max:
            found.add(mono)
    return found
