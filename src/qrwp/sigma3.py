"""Normal-form arithmetic in a q-deformed coordinate *-algebra.

The algebra is generated by z0, z1 and a central unitary xi subject to

    z0 z1  = q z1 z0,
    z0 z0* = z0* z0 + (q^-2 - 1) z1^2 xi,
    z0 z0* + z1^2 xi = 1,
    z1*    = z1 xi.

Since z1* is expressible in the generators, a linear basis is given by
the ordered words  z0^m z1^p xi^r  and  z0*^m z1^p xi^r  (m, p >= 0,
r in Z).  A single signed integer m encodes the z0/z0* dichotomy.
Products of basis words reduce to this basis via the closed forms for
z0^a z0*^b and z0*^a z0^b, which are polynomials in the self-adjoint
element A = z1^2 xi satisfying z0 A = q^2 A z0 and z0* A = q^-2 A z0*.

AlgebraElement.__mul__ takes the terms pair by pair.  When the z0 parts
of two words do not meet (either is 0, or both have one sign) their
product is the one word (m1 + m2, p1 + p2, r1 + r2) times q^(-p1 m2),
the cost of moving z1^p1 past z0^m2, and its coefficient is built
inline in one pass (qlaurent._times).  Only a z0/z0* meet is expanded:
_mono_product expands the two words' factored product, so a meet goes
through the same composer (_form_product) as the relation sides, and its
bounded cache holds meet expansions alone.  A word's text is built once
and then looked up (_word_text), and a one-term coefficient renders
without a sort.

A product of generator powers and q-powers never needs the engine: it
is one factored form q^E z0^m z1^p xi^r prod_P (1 - q^{2e} A), composed
with integers by _form_product and expanded by _expand, which wraps the
q-binomial rows of each run (_gaussian_rows, a few lengths cached).  qwrp
decides its relations by comparing such forms and expands one only where
a normal form is read; the parser folds each product term it reads into
one and expands it once.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import neg
from typing import Mapping

from .qlaurent import ONE, ZERO, LaurentPoly, _binary_power, _term_text, _times, power_text, qpow, sum_text


class NormalMonomial(namedtuple("NormalMonomial", "m p r")):
    """One basis word, the immutable tuple (m, p, r).

    m >= 0 encodes z0^m, m < 0 encodes z0*^(-m); p is the z1 power
    (always nonnegative) and r the xi power (any integer).  Hashing,
    equality and ordering are the tuple's: the hash is hash((m, p, r)),
    words sort in (m, p, r) order, and a word compares equal to the
    plain tuple (m, p, r).
    """

    __slots__ = ()

    def __new__(cls, m: int, p: int, r: int):
        if p < 0:
            raise ValueError("z1 exponent must be nonnegative")
        return tuple.__new__(cls, (m, p, r))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so both keep the p >= 0 check
        return cls(*iterable)

    def __str__(self) -> str:
        return _word_text(self)[1:] or "1"


IDENTITY_MONOMIAL = NormalMonomial(0, 0, 0)
# a word without the p >= 0 check, for products and images whose p is known to be >= 0
_word = tuple.__new__


@lru_cache(maxsize=4096)
def _word_text(word: NormalMonomial) -> str:
    """The letters of a word after a space, as they follow a coefficient;
    "" for the identity.  Built once per word, then looked up."""
    m, p, r = word
    parts = (power_text("z0" if m > 0 else "z0s", abs(m)), power_text("z1", p), power_text("xi", r))
    return "".join(" " + part for part in parts if part)


# The rows of a length n hold about n^3/6 terms, and a relation set reads
# two or three lengths, so a few rows are kept, not every length ever read.
_ROWS_CACHED = 16


@lru_cache(maxsize=_ROWS_CACHED)
def _gaussian_rows(n: int) -> tuple[dict[int, int], ...]:
    """The bodies (-1)^k [n k]_{q^2}, k = 0..n: each the dict
    {2i: (-1)^k g_i} of the Gaussian binomial [n k]_x = sum_i g_i x^i,
    whose coefficients are all positive, so the dict is canonical.

    Rows k <= n/2 follow from the previous one as
    G_k = G_{k-1} (1 - x^{n-k+1}) / (1 - x^k); the rest are mirrors,
    [n k] = [n n-k], shared when n is even and negated when it is odd.
    By the q-binomial theorem the run prod_{e=e0}^{e0+n-1} (1 - q^{2e} A)
    is sum_k (-1)^k q^{2k e0 + k(k-1)} [n k]_{q^2} A^k, so every run of
    length n wraps the same bodies, each at its own lowest exponent.
    """
    gauss = [1]
    rows = [{0: 1}]
    for k in range(1, n // 2 + 1):
        m = n - k + 1
        # times (1 - x^m), then exactly divided by (1 - x^k) as a running sum
        pad = [0] * m
        gauss = [g - h for g, h in zip(gauss + pad, pad + gauss)]
        for r in range(k):
            gauss[r::k] = accumulate(gauss[r::k])
        del gauss[len(gauss) - k:]
        rows.append(dict(zip(range(0, 2 * len(gauss), 2), map(neg, gauss) if k & 1 else gauss)))
    for k in range(len(rows), n + 1):
        mirror = rows[n - k]
        rows.append({e: -g for e, g in mirror.items()} if n & 1 else mirror)
    return tuple(rows)


@lru_cache(maxsize=262144)
def _mono_product(w1: NormalMonomial, w2: NormalMonomial):
    """The (word, coefficient) terms of w1 w2 for words whose z0 parts meet,
    expanded from their factored product; the only pairs cached here."""
    return tuple(_expand(_form_product((0, w1, ()), (0, w2, ())))._terms.items())


def _term_product(w1: NormalMonomial, c1: LaurentPoly, w2: NormalMonomial, c2: LaurentPoly):
    """The terms of (c1 w1)(c2 w2): distinct words, nonzero coefficients.

    When the z0 parts do not meet (m1 == 0, m2 == 0 or one sign) this is
    the one word (m1 + m2, p1 + p2, r1 + r2) with the coefficient
    c1 c2 q^(-p1 m2); a meet is expanded by _mono_product.
    """
    m1, p1, r1 = w1
    m2, p2, r2 = w2
    if not m1 or not m2 or (m1 > 0) == (m2 > 0):
        return ((_word(NormalMonomial, (m1 + m2, p1 + p2, r1 + r2)), _times(c1, c2, -p1 * m2)),)
    c12 = _times(c1, c2)
    return [(mono, _times(c12, coef)) for mono, coef in _mono_product(w1, w2)]


class AlgebraElement:
    """A finite combination of basis words with LaurentPoly coefficients.

    Canonical: zero coefficients are never stored; equality is equality
    of the underlying mappings.  Instances are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[NormalMonomial, LaurentPoly] | None = None):
        data: dict[NormalMonomial, LaurentPoly] = {}
        if terms:
            for mono, coef in terms.items():
                if not isinstance(coef, LaurentPoly):
                    coef = LaurentPoly({0: coef})
                if not coef.is_zero():
                    data[mono] = coef
        self._terms = data

    @classmethod
    def _canonical(cls, data: dict[NormalMonomial, LaurentPoly]) -> "AlgebraElement":
        """Wrap a dict of words to nonzero LaurentPoly coefficients without a copy.

        Z[q, q^-1] has no zero divisors, so products, negation and q-shifts
        of nonzero coefficients are nonzero; only a sum can cancel, and
        the callers that add delete such a word where it happens.
        """
        out = cls.__new__(cls)
        out._terms = data
        return out

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "AlgebraElement":
        return cls()

    @classmethod
    def one(cls) -> "AlgebraElement":
        return cls({IDENTITY_MONOMIAL: ONE})

    @classmethod
    def monomial(cls, m: int, p: int, r: int, coeff: LaurentPoly | int = 1) -> "AlgebraElement":
        return cls({NormalMonomial(m, p, r): coeff if isinstance(coeff, LaurentPoly) else LaurentPoly({0: coeff})})

    @classmethod
    def scalar(cls, value: LaurentPoly | int) -> "AlgebraElement":
        # the common arguments first: a plain int (_coerce_element), then a LaurentPoly
        if type(value) is int:
            value = LaurentPoly._canonical({0: value} if value else {})
        elif not isinstance(value, LaurentPoly):
            value = LaurentPoly({0: value})
        return cls._canonical({IDENTITY_MONOMIAL: value} if value else {})

    # -- inspection --------------------------------------------------

    def terms(self) -> list[tuple[NormalMonomial, LaurentPoly]]:
        """(monomial, coefficient) pairs in the canonical (m, p, r) order.

        The words are distinct, so sorting the pairs never compares coefficients."""
        return sorted(self._terms.items())

    def coefficient(self, mono: NormalMonomial) -> LaurentPoly:
        return self._terms.get(mono, ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def sole_term(self) -> tuple[NormalMonomial, LaurentPoly]:
        if len(self._terms) != 1:
            raise ValueError("element is not a single term")
        return next(iter(self._terms.items()))

    def sole_monomial(self) -> NormalMonomial:
        mono, coef = self.sole_term()
        if not coef.is_one():
            raise ValueError("element is not a bare basis word")
        return mono

    # -- linear structure --------------------------------------------

    def __add__(self, other) -> "AlgebraElement":
        other = _coerce_element(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        _add_into(out, other._terms)
        return AlgebraElement._canonical(out)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._canonical({mono: -coef for mono, coef in self._terms.items()})

    def __sub__(self, other) -> "AlgebraElement":
        other = _coerce_element(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "AlgebraElement":
        other = _coerce_element(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    # -- multiplicative structure ------------------------------------

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, LaurentPoly)):
            if not other:
                return AlgebraElement.zero()
            c = other if isinstance(other, LaurentPoly) else LaurentPoly({0: other})
            return AlgebraElement._canonical({mono: coef * c for mono, coef in self._terms.items()})
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        left, right = self._terms, other._terms
        if len(left) == 1 == len(right):
            # the terms of one pair are distinct words with nonzero coefficients
            (w1, c1), = left.items()
            (w2, c2), = right.items()
            return AlgebraElement._canonical(dict(_term_product(w1, c1, w2, c2)))
        out: dict[NormalMonomial, LaurentPoly] = {}
        for w1, c1 in left.items():
            for w2, c2 in right.items():
                for mono, c in _term_product(w1, c1, w2, c2):
                    if mono in out:
                        c = out[mono] + c
                        if not c:
                            del out[mono]
                            continue
                    out[mono] = c
        return AlgebraElement._canonical(out)

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, LaurentPoly)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "AlgebraElement":
        """x ** n.  A one-word base (or zero) squares
        (qlaurent._binary_power), since its square is one word again.  A
        longer base is multiplied in n - 1 times: a product costs about
        the product of the two sizes, so squaring a large power costs far
        more than multiplying it by the small base."""
        if not isinstance(n, int) or n < 0:
            raise ValueError("algebra elements support nonnegative integer powers only")
        if n == 0:
            return AlgebraElement.one()
        if len(self._terms) <= 1:
            return _binary_power(self, n)
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    def star(self) -> "AlgebraElement":
        """The involution.  On a basis word:
        (z0^m z1^p xi^r)* = q^{pm} z0*^m z1^p xi^{p-r}, uniformly in signed m.
        """
        # distinct words have distinct images, so no two terms meet; p is
        # unchanged, so an image word needs no p >= 0 check
        return AlgebraElement._canonical({
            _word(NormalMonomial, (-m, p, p - r)):
                LaurentPoly._canonical(coef._coeffs, coef._low + p * m) if p and m else coef
            for (m, p, r), coef in self._terms.items()})

    def try_inverse(self) -> "AlgebraElement":
        """Inverse of a unit, i.e. a single term +-q^e xi^r."""
        mono, coef = self.sole_term()
        if mono.m != 0 or mono.p != 0:
            raise ValueError(f"{self} is not invertible")
        return AlgebraElement({NormalMonomial(0, 0, -mono.r): coef.inverse()})

    # -- comparison / rendering ----------------------------------------

    def __eq__(self, other) -> bool:
        other = _coerce_element(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        pieces = []
        for mono in sorted(self._terms):
            coef = self._terms[mono]
            word = _word_text(mono)
            body = coef._coeffs
            if len(body) > 1:
                pieces.append(f" + ({coef}){word}")
                continue
            c, e = body[0], coef._low   # one term c q^e, read without a sort
            if word and not e and (c == 1 or c == -1):
                # a coefficient of 1 stays implicit before a word, not on its own
                pieces.append((" + " if c > 0 else " - ") + word[1:])
            else:
                pieces.append(_term_text(e, c) + word)
        return sum_text(pieces)

    def __repr__(self) -> str:
        return f"<AlgebraElement {self}>"


def _add_into(out: dict, terms: Mapping[NormalMonomial, LaurentPoly]) -> None:
    """Add terms into the word-to-coefficient dict out in place, deleting
    each word whose coefficients cancel."""
    for mono, coef in terms.items():
        if mono in out:
            coef = out[mono] + coef
            if not coef:
                del out[mono]
                continue
        out[mono] = coef


def _coerce_element(x):
    if isinstance(x, AlgebraElement):
        return x
    if isinstance(x, (int, LaurentPoly)):
        return AlgebraElement.scalar(x)
    return None


# Generators as ready-made elements.
Z0 = AlgebraElement.monomial(1, 0, 0)
Z0S = AlgebraElement.monomial(-1, 0, 0)
Z1 = AlgebraElement.monomial(0, 1, 0)
Z1S = AlgebraElement.monomial(0, 1, 1)   # z1* = z1 xi
XI = AlgebraElement.monomial(0, 0, 1)
XIS = AlgebraElement.monomial(0, 0, -1)


# -- factored forms -------------------------------------------------------
#
# A factored form (E, (m, p, r), P) stands for
#     q^E z0^m z1^p xi^r prod_{e in P} (1 - q^{2e} A),   A = z1^2 xi,
# with P a sorted tuple (a multiset).  Every product of generator powers
# and q-powers is one: each relation side and generator word of qwrp, and
# each product term the parser reads.  _form_product composes two forms
# with integers alone, and _expand builds the normal form of one.


def _form_product(x: tuple, y: tuple) -> tuple:
    """The factored form of x y.

    The runs of x move right past y's word: A z0^m = q^{-2m} z0^m A for
    signed m, while z1 and xi commute with A, so e -> e - m2.  The words
    multiply with the cost q^(-p1 m2) of moving z1^p1 past z0^m2, as in
    _term_product.  A z0/z0* meet leaves the word (m1 + m2, p, r) and
    one more run: z0^a z0*^b gives {0..w-1} and z0*^a z0^b gives
    {-w..-1}, w = min(a, b); when that run stands left of the leftover
    z0^d (d = m1 + m2 of the other sign), it moves past it by -d.

    Equal forms are equal elements, and the converse holds, so a relation
    holds exactly when its two sides have equal forms.  Expand a form as
    q^E w f(A), f(A) = prod_{e in P} (1 - q^{2e} A) = sum_k c_k A^k: each
    c_k is nonzero (at q = 1 it is (-1)^k binomial(|P|, k)) and c_0 = 1,
    so the normal form's terms are c_k q^E (m, p + 2k, r + k), and its
    term of least z1 power is q^E (m, p, r): the normal form determines
    E, the word and then f.  Z[q, q^-1][A] is a unique factorization
    domain; each 1 - q^{2e} A is primitive of degree 1, hence irreducible;
    the units are +-q^j, and +-q^j (1 - q^{2e'} A) has constant term
    +-q^j, so it equals 1 - q^{2e} A only when j = 0 and e = e'.  So f
    determines the multiset P, and equal normal forms have equal
    (E, word, sorted P).
    """
    e1, (m1, p1, r1), run1 = x
    e2, (m2, p2, r2), run2 = y
    d = m1 + m2
    runs = [*(e - m2 for e in run1), *run2] if m2 else [*run1, *run2]
    if m1 and m2 and (m1 > 0) != (m2 > 0):
        w = min(abs(m1), abs(m2))
        if m1 > 0:  # z0^a z0*^b: {0..w-1}, left of z0*^-d when d < 0
            lo = -min(d, 0)
        else:       # z0*^a z0^b: {-w..-1}, left of z0^d when d > 0
            lo = -w - max(d, 0)
        runs.extend(range(lo, lo + w))
    return e1 + e2 - p1 * m2, (d, p1 + p2, r1 + r2), tuple(sorted(runs))


def _expand(x: tuple, c: int = 1) -> AlgebraElement:
    """The normal form of c times a factored form, for an integer c.

    The multiset P splits into runs of consecutive exponents.  The
    coefficient of A^k in a run is its row body from _gaussian_rows at
    q^{2k first + k(k-1)}, so a form with one run costs one word and one
    wrapped body per power of A, shared with the cached row when c == 1
    and scaled once otherwise, and a form without one builds one term.
    """
    if not c:
        return AlgebraElement.zero()
    e, (m, p, r), factors = x
    if not factors:
        return AlgebraElement._canonical({_word(NormalMonomial, (m, p, r)): LaurentPoly._canonical({0: c}, e)})
    runs: list[list[int]] = []   # [first, last] of each run
    for f in factors:
        for run in runs:
            if run[1] == f - 1:
                run[1] = f
                break
        else:
            runs.append([f, f])
    out = None
    for first, last in runs:
        part = AlgebraElement._canonical({
            _word(NormalMonomial, (m, p + 2 * k, r + k)): LaurentPoly._canonical(
                body if c == 1 else {i: c * g for i, g in body.items()}, e + k * (2 * first + k - 1))
            for k, body in enumerate(_gaussian_rows(last - first + 1))})
        out = part if out is None else out * part
        e, m, p, r, c = 0, 0, 0, 0, 1   # the first run carries the word and the scalar
    return out


def star(x: AlgebraElement) -> AlgebraElement:
    return x.star()


def powers_oracle(m: int, n: int, conjugate_first: bool = False) -> AlgebraElement:
    """Closed form of z0^m z0*^n (or z0*^n z0^m when conjugate_first).

    Built directly from the displayed product formulas, independently of
    the general multiplication routine, so it can serve as an oracle:

        z0^m z0*^n  =  z0^{m-n} prod_{j=0}^{n-1} (1 - q^{2j} A)        (m >= n)
                    =  prod_{j=0}^{m-1} (1 - q^{2j} A) z0*^{n-m}        (n >  m)
        z0*^n z0^m  =  z0*^{n-m} prod_{i=1}^{m} (1 - q^{-2i} A)         (n >= m)
                    =  prod_{i=1}^{n} (1 - q^{-2i} A) z0^{m-n}          (m >  n)

    with A = z1^2 xi, so A^j contributes (0, 2j, j) to the word.
    """
    if m < 0 or n < 0:
        raise ValueError("powers must be nonnegative")
    w = min(m, n)
    # expand the commutative product in A directly
    coeffs: dict[int, LaurentPoly] = {0: ONE}
    for idx in range(w):
        factor_exp = 2 * idx if not conjugate_first else -2 * (idx + 1)
        nxt: dict[int, LaurentPoly] = {}
        for j, c in coeffs.items():
            nxt[j] = nxt.get(j, ZERO) + c
            nxt[j + 1] = nxt.get(j + 1, ZERO) - c * qpow(factor_exp)
        coeffs = nxt
    d = m - n
    terms: dict[NormalMonomial, LaurentPoly] = {}
    for j, c in coeffs.items():
        if not conjugate_first:
            # leftover z0^d on the left (d >= 0) or z0s^{-d} under the polynomial (d < 0)
            shift = 0 if d >= 0 else -2 * j * d
        else:
            # leftover z0s^{-d} on the left (d <= 0) or z0^{d} under the polynomial (d > 0)
            shift = 0 if d <= 0 else -2 * j * d
        terms[NormalMonomial(d, 2 * j, j)] = c * qpow(shift)
    return AlgebraElement(terms)
