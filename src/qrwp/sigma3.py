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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

from .qlaurent import ONE, ZERO, LaurentPoly, coefficient_text, power_text, qpow, signed_sum


@dataclass(frozen=True, order=True, slots=True)
class NormalMonomial:
    """One basis word.

    m >= 0 encodes z0^m, m < 0 encodes z0*^(-m); p is the z1 power
    (always nonnegative) and r the xi power (any integer).
    """

    m: int
    p: int
    r: int

    def __post_init__(self):
        if self.p < 0:
            raise ValueError("z1 exponent must be nonnegative")

    def is_identity(self) -> bool:
        return self.m == 0 and self.p == 0 and self.r == 0

    def __str__(self) -> str:
        parts = (power_text("z0" if self.m > 0 else "z0s", abs(self.m)),
                 power_text("z1", self.p), power_text("xi", self.r))
        return " ".join(filter(None, parts)) or "1"


IDENTITY_MONOMIAL = NormalMonomial(0, 0, 0)


def _one_minus_qa_product(exponents: Iterable[int]) -> dict[int, LaurentPoly]:
    """Expand prod_e (1 - q^{2e} A) as {A-power: coefficient}."""
    poly: dict[int, LaurentPoly] = {0: ONE}
    for e in exponents:
        nxt: dict[int, LaurentPoly] = {}
        for j, c in poly.items():
            nxt[j] = nxt.get(j, ZERO) + c
            nxt[j + 1] = nxt.get(j + 1, ZERO) - c * qpow(2 * e)
        poly = {j: c for j, c in nxt.items() if not c.is_zero()}
    return poly


@lru_cache(maxsize=262144)
def _mono_product(m1: int, p1: int, r1: int, m2: int, p2: int, r2: int):
    """Normal form of (m1,p1,r1)*(m2,p2,r2) as a tuple of (monomial, coeff).

    Steps: move z1^p1 past the z0-part of the right word (cost q^{-p1*m2},
    valid for both families thanks to the signed encoding), resolve the
    adjacent z0/z0* powers by the closed forms, then move the resulting
    A-powers into normal position.
    """
    cost = -p1 * m2
    p = p1 + p2
    r = r1 + r2
    d = m1 + m2
    if m1 == 0 or m2 == 0 or (m1 > 0) == (m2 > 0):
        return ((NormalMonomial(d, p, r), qpow(cost)),)
    terms = []
    if m1 > 0:
        # z0^a z0s^b -> [z0^d] prod_{j=0}^{w-1}(1 - q^{2j} A) [z0s^{-d}]
        w = min(m1, -m2)
        poly = _one_minus_qa_product(range(w))
        for j, coef in sorted(poly.items()):
            # when d < 0 the A-polynomial sits left of z0s^{-d}: A^j z0s^k = q^{2jk} z0s^k A^j
            shift = cost if d >= 0 else cost - 2 * j * d
            terms.append((NormalMonomial(d, p + 2 * j, r + j), coef * qpow(shift)))
    else:
        # z0s^a z0^b -> [z0s^{-d}] prod_{i=1}^{w}(1 - q^{-2i} A) [z0^d]
        w = min(-m1, m2)
        poly = _one_minus_qa_product(range(-1, -w - 1, -1))
        for j, coef in sorted(poly.items()):
            # when d > 0 the A-polynomial sits left of z0^d: A^j z0^k = q^{-2jk} z0^k A^j
            shift = cost if d <= 0 else cost - 2 * j * d
            terms.append((NormalMonomial(d, p + 2 * j, r + j), coef * qpow(shift)))
    return tuple(terms)


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
        return cls({IDENTITY_MONOMIAL: value if isinstance(value, LaurentPoly) else LaurentPoly({0: value})})

    # -- inspection --------------------------------------------------

    def terms(self) -> list[tuple[NormalMonomial, LaurentPoly]]:
        """(monomial, coefficient) pairs in the canonical (m, p, r) order."""
        return sorted(self._terms.items(), key=lambda kv: (kv[0].m, kv[0].p, kv[0].r))

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
        for mono, coef in other._terms.items():
            out[mono] = out.get(mono, ZERO) + coef
        return AlgebraElement(out)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement({mono: -coef for mono, coef in self._terms.items()})

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
            c = other if isinstance(other, LaurentPoly) else LaurentPoly({0: other})
            return AlgebraElement({mono: coef * c for mono, coef in self._terms.items()})
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        out: dict[NormalMonomial, LaurentPoly] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                c12 = c1 * c2
                for mono, coef in _mono_product(w1.m, w1.p, w1.r, w2.m, w2.p, w2.r):
                    out[mono] = out.get(mono, ZERO) + c12 * coef
        return AlgebraElement(out)

    def __rmul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, LaurentPoly)):
            return self * other
        return NotImplemented

    def __pow__(self, n: int) -> "AlgebraElement":
        if not isinstance(n, int) or n < 0:
            raise ValueError("algebra elements support nonnegative integer powers only")
        result = AlgebraElement.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def star(self) -> "AlgebraElement":
        """The involution.  On a basis word:
        (z0^m z1^p xi^r)* = q^{pm} z0*^m z1^p xi^{p-r}, uniformly in signed m.
        """
        out: dict[NormalMonomial, LaurentPoly] = {}
        for mono, coef in self._terms.items():
            sm = NormalMonomial(-mono.m, mono.p, mono.p - mono.r)
            out[sm] = out.get(sm, ZERO) + coef * qpow(mono.p * mono.m)
        return AlgebraElement(out)

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
        return signed_sum([_term_text(mono, coef) for mono, coef in self.terms()])

    def __repr__(self) -> str:
        return f"<AlgebraElement {self}>"


def _term_text(mono: NormalMonomial, coef: LaurentPoly) -> tuple[bool, str]:
    items = coef.items_sorted()
    if len(items) > 1:
        coef_txt, neg = f"({coef})", False
    else:
        (e, c), = items
        neg = c < 0
        # a coefficient of 1 stays implicit before a word, not on its own
        bare = abs(c) == 1 and e == 0 and not mono.is_identity()
        coef_txt = "" if bare else coefficient_text(abs(c), e)
    mono_txt = "" if mono.is_identity() else str(mono)
    if coef_txt and mono_txt:
        return neg, f"{coef_txt} {mono_txt}"
    return neg, coef_txt or mono_txt


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


def basis_monomial(m: int, p: int, r: int) -> AlgebraElement:
    return AlgebraElement.monomial(m, p, r)


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
