"""Quantum real weighted projective spaces as coinvariant subalgebras.

For a coprime weight pair the degree-zero part of the big algebra is
generated by

    even k = 2s:    a = z1^2 xi,  c+ = z0^l xi^s,
    odd  k = 2s-1:  a = z1^2 xi,  b = z0^l z1 xi^s,  c- = z0^2l xi^k.

This module builds those generators (once per weight pair), verifies
the defining relation set of each family by comparing the factored
forms of the two sides (sigma3._form_product), and factorizes
any degree-zero basis word through the generators (with the q-power
scalar that the reordering produces).  The factorization sweep over a
box normalizes every generator word of the box once, through engine
products (word_element), into one table; both of its verdicts, and the
brute-force enumeration that stays the independent oracle, read it.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .grading import Weights, degree
from .qlaurent import ONE, LaurentPoly, power_text, qpow
from .sigma3 import AlgebraElement, NormalMonomial, _expand, _form_product

# Relation sides are small data: a scalar q-power and a factor list.
# Factors:  ("gen", name, starred)  with name in {"a", "b", "c"}, or
#           ("prod", exps)          meaning prod_e (1 - q^{2e} a).
Factor = tuple


class RelationSide(NamedTuple):
    q_exponent: int
    factors: tuple[Factor, ...]


class Relation(NamedTuple):
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


@functools.lru_cache(maxsize=128)
def relations_for(parity: str, l: int) -> tuple[Relation, ...]:
    """The defining relation list of the parity-l family.

    Even: 4 relations; odd: 11 relations.  Products run over
    prod_{m=0}^{L-1}(1 - q^{2m} a) or prod_{m=1}^{L}(1 - q^{-2m} a).
    The list is immutable, so it is built once per (parity, l) and shared.
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


class GeneratorSet(NamedTuple):
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


@functools.lru_cache(maxsize=128, typed=True)
def generators(w: Weights) -> GeneratorSet:
    """Generator set of the degree-zero subalgebra for the weight pair.
    The set is immutable, so it is built once per weight pair and shared;
    the cache is typed, so a plain tuple equal to a pair is not one."""
    a = AlgebraElement.monomial(0, 2, 1)
    if w.parity == "even":
        c = AlgebraElement.monomial(w.l, 0, w.s)
        return GeneratorSet(weights=w, a=a, c=c)
    b = AlgebraElement.monomial(w.l, 1, w.s)
    c = AlgebraElement.monomial(2 * w.l, 0, w.k)
    return GeneratorSet(weights=w, a=a, c=c, b=b)


def _letter_forms(gens: GeneratorSet) -> dict:
    """The factored form of each generator letter, keyed (name, starred):
    a generator is one word, and so is its star, q^{pm} (-m, p, p - r)
    (AlgebraElement.star), so neither has a run."""
    forms = {}
    for name, g in (("a", gens.a), ("b", gens.b), ("c", gens.c)):
        if g is not None:
            for starred, x in ((False, g), (True, g.star())):
                word, coef = x.sole_term()
                forms[name, starred] = (coef.as_q_power(), word, ())
    return forms


def _side_form(side: RelationSide, letters: dict) -> tuple:
    """The factored form of one relation side, from _letter_forms."""
    out = (side.q_exponent, (0, 0, 0), ())
    for f in side.factors:
        out = _form_product(out, letters[f[1], f[2]] if f[0] == "gen" else (0, (0, 0, 0), tuple(sorted(f[1]))))
    return out


class RelationResult(NamedTuple):
    """A verdict and the two factored forms it compared; lhs and rhs
    expand a side's normal form on each read."""

    rid: str
    statement: str
    passed: bool
    lhs_form: tuple
    rhs_form: tuple

    @property
    def lhs(self) -> AlgebraElement:
        return _expand(self.lhs_form)

    @property
    def rhs(self) -> AlgebraElement:
        return _expand(self.rhs_form)


class RelationReport(NamedTuple):
    parity: str
    l: int
    k: int
    results: tuple[RelationResult, ...]

    @property
    def all_pass(self) -> bool:
        return all(res.passed for res in self.results)

    def as_dict(self) -> dict:
        """The report with both sides' normal forms expanded and rendered.
        Equal forms have one canonical text, so a passing relation expands once."""
        return {
            "parity": self.parity,
            "l": self.l,
            "k": self.k,
            "relations": [
                {
                    "id": res.rid,
                    "statement": res.statement,
                    "lhs_normal_form": (lhs := str(res.lhs)),
                    "rhs_normal_form": lhs if res.passed else str(res.rhs),
                    "pass": res.passed,
                }
                for res in self.results
            ],
            "all_pass": self.all_pass,
        }


def verify_relations(w: Weights) -> RelationReport:
    """Check every defining relation of the family: a relation holds
    exactly when its two sides have equal factored forms
    (sigma3._form_product says why).  A failing relation is reported,
    not raised.  The report keeps both sides' factored forms and expands
    no normal form; RelationResult.lhs/rhs and as_dict expand on reading."""
    letters = _letter_forms(generators(w))
    results = []
    for rel in relations_for(w.parity, w.l):
        lhs = _side_form(rel.lhs, letters)
        rhs = _side_form(rel.rhs, letters)
        results.append(RelationResult(rel.rid, rel.statement(w.parity), lhs == rhs, lhs, rhs))
    return RelationReport(parity=w.parity, l=w.l, k=w.k, results=tuple(results))


class GeneratorWord(NamedTuple):
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
    """Normal form of the generator word (starred letters conjugated),
    the engine product of its nonzero powers; with none, 1."""
    out = None
    for name, e in word.letters:
        if e:
            g = gens.named(name)
            if word.starred:
                g = g.star()
            g = g ** e
            out = g if out is None else out * g
    return AlgebraElement.one() if out is None else out


def _require_coinvariant(w: Weights, mono: NormalMonomial) -> None:
    if degree(w, mono) != 0:
        raise ValueError(f"monomial {mono} is not coinvariant for weights ({w.k}, {w.l})")


def factorize(w: Weights, mono: NormalMonomial) -> GeneratorWord:
    """Factor a degree-zero basis word (m >= 0 family) through the
    generators.

    Even family:  z0^{nl} z1^{2e} xi^{sn+e} = c+^n a^e exactly.
    Odd family:   with n = m/l and t minimal such that r - sn + t >= 0,
    the word is b^{n-2t} a^{r-sn+t} c-^t up to a q-power, which is
    read from the word's factored form (never assumed 1).

    Degree zero is the only condition: k m + (p - 2r) l = 0 with
    gcd(k, l) = 1 forces l | m, and with n = m/l, 2r = k n + p.  In the
    even family (k = 2s) this is p = 2(r - sn), so p is even and
    e = r - sn = p/2 >= 0.  In the odd family (k = 2s - 1) it is
    r - sn = (p - n)/2, so alpha = max((p - n)/2, 0) and
    beta = n - 2t = min(n, p), both >= 0.
    """
    if mono.m < 0:
        raise ValueError("factorize handles the z0 family; use the involution for z0* words")
    _require_coinvariant(w, mono)
    s = w.s
    n = mono.m // w.l
    if w.parity == "even":
        letters = (("c", n), ("a", mono.p // 2))
    else:
        t = max(0, s * n - mono.r)
        letters = (("b", n - 2 * t), ("a", mono.r - s * n + t), ("c", t))
    gens = generators(w)
    form = (0, (0, 0, 0), ())
    for name, e in letters:
        m, p, r = gens.named(name).sole_monomial()
        # g^e = q^{-pm e(e-1)/2} (em, ep, er): each factor pays q^{-pm} per earlier one
        form = _form_product(form, (-p * m * (e * (e - 1) // 2), (e * m, e * p, e * r), ()))
    # every letter has m >= 0, so no z0 parts meet and the form has no run
    e_mu, word, _ = form
    if word != mono:
        raise RuntimeError(f"factorization of {mono} reconstructed {NormalMonomial(*word)}")
    return GeneratorWord(letters=letters, scalar=qpow(-e_mu))


def factorize_with_conjugates(w: Weights, mono: NormalMonomial) -> GeneratorWord:
    """Factorize either basis family; z0* words go through the involution:
    if  star(mono') = q^{-pm} mono  and  mono' = lam * word,  then
    mono = q^{pm} lam * star(word)."""
    if mono.m >= 0:
        return factorize(w, mono)
    # the involution keeps the degree up to sign; name the word as given
    _require_coinvariant(w, mono)
    conj = NormalMonomial(-mono.m, mono.p, mono.p - mono.r)
    base = factorize(w, conj)
    letters = tuple(reversed(base.letters))
    scalar = base.scalar * qpow(mono.p * mono.m)
    return GeneratorWord(letters=letters, scalar=scalar, starred=True)


def degree_zero_monomials(w: Weights, m_max: int, p_max: int, r_max: int) -> list[NormalMonomial]:
    """All degree-zero basis words with 0 <= m <= m_max, 0 <= p <= p_max,
    |r| <= r_max, in canonical order.

    Degree zero means k m + (p - 2r) l = 0, so each (m, p) admits at most
    the one r with 2 l r = k m + p l."""
    out = []
    for m in range(m_max + 1):
        for p in range(p_max + 1):
            r, rem = divmod(w.k * m + p * w.l, 2 * w.l)
            if rem == 0 and abs(r) <= r_max:
                out.append(NormalMonomial(m, p, r))
    return out


def _word_table(w: Weights, m_max: int, p_max: int) -> dict:
    """Every generator word of exponents bounded by the box, normalized
    once through engine products (word_element), in enumeration order:
    {letters: (word, e)} with word_element(letters) = q^e word.  e is
    None when the one coefficient is not a q-power, and the entry is None
    when the normal form is not one term; the readers decide what that
    means."""
    gens = generators(w)
    l = w.l
    if w.parity == "even":
        ranges = itertools.product(range(m_max // l + 1), range(p_max // 2 + 1))
        words = [(("c", n), ("a", e)) for n, e in ranges]
    else:
        ranges = itertools.product(
            range(m_max // l + 1), range(p_max // 2 + 1), range(m_max // (2 * l) + 1)
        )
        words = [(("b", beta), ("a", alpha), ("c", gamma)) for beta, alpha, gamma in ranges]
    table = {}
    for letters in words:
        elem = word_element(gens, GeneratorWord(letters=letters, scalar=ONE))
        if len(elem) == 1:
            mono, coef = elem.sole_term()
            table[letters] = (mono, coef.as_q_power())
        else:
            table[letters] = None
    return table


def _box_monomials(table: dict, m_max: int, p_max: int, r_max: int) -> set[NormalMonomial]:
    """The basis words of the box that the table's words land on.  Each
    word must normalize to a single term with a pure q-power scalar."""
    found: set[NormalMonomial] = set()
    for letters, entry in table.items():
        if entry is None:
            raise ValueError("element is not a single term")
        mono, e = entry
        if e is None:
            raise RuntimeError(f"word {letters} did not normalize to a q-power multiple of a basis word")
        if 0 <= mono.m <= m_max and mono.p <= p_max and abs(mono.r) <= r_max:
            found.add(mono)
    return found


def enumerate_word_monomials(w: Weights, m_max: int, p_max: int, r_max: int) -> set[NormalMonomial]:
    """Brute-force route: normalize every generator word of bounded
    exponent and collect the basis words that land in the box.  Each
    word must normalize to a single term with a pure q-power scalar."""
    return _box_monomials(_word_table(w, m_max, p_max), m_max, p_max, r_max)


def factorization_sweep(w: Weights, m_max: int, p_max: int,
                        r_max: int) -> tuple[list[NormalMonomial], bool, bool]:
    """Factor every degree-zero basis word of the box, (monomials, sound,
    complete).  sound: each word's factorization times its scalar
    normalizes back to the word.  complete: sound, and the generator words
    of the box land on exactly those words (enumerate_word_monomials).
    One engine-normalized table of the box's generator words
    (_word_table) serves both verdicts: every word that factorize returns
    for a box word is one of its words, and a word that is not (or is
    starred, or has no q-power entry) is normalized by word_element."""
    monos = degree_zero_monomials(w, m_max, p_max, r_max)
    gens = generators(w)
    table = _word_table(w, m_max, p_max)

    def rebuilds(mono: NormalMonomial) -> bool:
        word = factorize(w, mono)
        entry = None if word.starred else table.get(word.letters)
        if entry is None or entry[1] is None:
            return word_element(gens, word) * word.scalar == AlgebraElement.monomial(mono.m, mono.p, mono.r)
        found, e = entry
        return found == mono and word.scalar.as_q_power() == -e

    sound = all(rebuilds(mono) for mono in monos)
    complete = sound and _box_monomials(table, m_max, p_max, r_max) == set(monos)
    return monos, sound, complete
