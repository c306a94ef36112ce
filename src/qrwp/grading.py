"""Integer grading induced by a weighted circle coaction.

A coprime weight pair (k, l) assigns z0 the degree k, z1 the degree l
and xi the degree -2l, so the basis word z0^m z1^p xi^r (signed m) is
homogeneous of degree k*m + (p - 2r)*l.  An element is coinvariant for
the coaction exactly when every term has degree zero.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .sigma3 import AlgebraElement, NormalMonomial


class Weights(namedtuple("Weights", "k l")):
    """A coprime integer weight pair; parity of k picks the quotient family.
    An immutable named tuple, checked on every construction path."""

    __slots__ = ()

    def __new__(cls, k: int, l: int):
        if l < 1:
            raise ValueError("weight l must be a positive integer")
        if gcd(abs(k), l) != 1:
            raise ValueError(f"weights ({k}, {l}) are not coprime")
        return tuple.__new__(cls, (k, l))

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so both keep the checks
        return cls(*iterable)

    @property
    def parity(self) -> str:
        return "even" if self.k % 2 == 0 else "odd"

    @property
    def s(self) -> int:
        """Half-weight: k = 2s (even) or k = 2s - 1 (odd)."""
        return self.k // 2 if self.k % 2 == 0 else (self.k + 1) // 2

    @classmethod
    def canonical(cls, parity: str, l: int) -> "Weights":
        """The standard representative of a parity class: k=2 or k=1.  This
        is the one check of a family label (parity, l): the representation
        and K-theory checks call it too, so every family command names a
        bad l the same way, and the even family asks for odd l rather
        than saying that (2, l) is not coprime."""
        if parity not in ("even", "odd"):
            raise ValueError(f"unknown parity {parity!r}")
        if l < 1:
            raise ValueError("l must be a positive integer")
        if parity == "even" and l % 2 == 0:
            raise ValueError("the even family requires odd l")
        return cls(2 if parity == "even" else 1, l)


def degree(w: Weights, mono: NormalMonomial) -> int:
    """Grading degree k*m + (p - 2r)*l; the signed m makes each z0*
    letter count -k, as forced by the coaction being a *-map."""
    return w.k * mono.m + (mono.p - 2 * mono.r) * w.l


def element_degrees(w: Weights, x: AlgebraElement) -> list[int]:
    """Sorted distinct degrees occurring among the terms of x."""
    k, l = w
    return sorted({k * m + (p - 2 * r) * l for m, p, r in x._terms})


def coinvariant_part(w: Weights, x: AlgebraElement) -> AlgebraElement:
    """Projection of x onto its degree-zero terms."""
    return AlgebraElement({mono: coef for mono, coef in x._terms.items() if degree(w, mono) == 0})


def is_coinvariant(w: Weights, x: AlgebraElement) -> bool:
    return coinvariant_part(w, x) == x
