"""Exact arithmetic in the ring of integer Laurent polynomials in q.

Every scalar in the coordinate-algebra computations lives in this ring:
the deformation parameter q is kept symbolic, coefficients are Python
integers (arbitrary precision), and equality is exact.  Numeric values
are produced only at the very end, by evaluating at a chosen q in (0,1).

A value is its lowest power q^low times a body, a sparse dict of
nonzero coefficients keyed by exponent - low.  Multiplying by q^e moves
low and shares the body, so the many q-shifts of the normal-form
arithmetic copy nothing, and the q-binomial rows that sigma3 caches are
shared by every coefficient built from them.  The body stays sparse:
1 + q^1000000 has two entries, not a million.
"""

from __future__ import annotations

from typing import Mapping


class LaurentPoly:
    """A finitely supported integer combination of powers q^e, e in Z.

    A value is stored as its lowest exponent _low and a body _coeffs,
    the sparse dict from e - _low to the nonzero coefficient of q^e.
    Instances are immutable and canonical: the body holds no zero and
    always has the key 0, and zero is the empty body at _low = 0, so two
    values are equal exactly when (_low, _coeffs) agree.  A q-shift moves
    _low and shares the body.
    """

    __slots__ = ("_low", "_coeffs")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = int(c)
                if c:
                    data[int(e)] = c
        low = min(data, default=0)
        self._low = low
        self._coeffs = {e - low: c for e, c in data.items()} if low else data

    @classmethod
    def _canonical(cls, body: dict[int, int], low: int = 0) -> "LaurentPoly":
        """Wrap a canonical body (the key 0 present, or empty at low 0)
        without a copy."""
        out = cls.__new__(cls)
        out._low = low
        out._coeffs = body
        return out

    # -- inspection --------------------------------------------------

    def items_sorted(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, ascending exponent."""
        low = self._low
        return [(low + e, c) for e, c in sorted(self._coeffs.items())]

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent - self._low, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_one(self) -> bool:
        return self._low == 0 and self._coeffs == {0: 1}

    def as_q_power(self) -> int | None:
        """The exponent e if this value is exactly q^e, else None."""
        if len(self._coeffs) != 1:
            return None
        return self._low if self._coeffs[0] == 1 else None

    def as_unit(self) -> tuple[int, int] | None:
        """(sign, exponent) if this value is +-q^e, else None."""
        if len(self._coeffs) != 1:
            return None
        c = self._coeffs[0]
        return (c, self._low) if c in (1, -1) else None

    # -- ring operations ---------------------------------------------

    @staticmethod
    def _coerce(x) -> "LaurentPoly | None":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, int):
            return LaurentPoly({0: x})
        return None

    def __add__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        x, y = (self, other) if self._low <= other._low else (other, self)
        out = dict(x._coeffs)
        shift = y._low - x._low
        for e, c in y._coeffs.items():
            e += shift
            c += out.get(e, 0)
            if c:
                out[e] = c
            else:  # c was nonzero, so e was in out
                del out[e]
        if 0 in out:
            return LaurentPoly._canonical(out, x._low)
        # the lowest term cancelled: rebase on the new lowest
        if not out:
            return ZERO
        low = min(out)
        return LaurentPoly._canonical({e - low: c for e, c in out.items()}, x._low + low)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._canonical({e: -c for e, c in self._coeffs.items()}, self._low)

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return _times(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        return ONE if n == 0 else _binary_power(self, n)

    def inverse(self) -> "LaurentPoly":
        """Multiplicative inverse; defined only for the units +-q^e."""
        unit = self.as_unit()
        if unit is None:
            raise ValueError(f"{self} is not invertible in Z[q, q^-1]")
        sign, e = unit
        return LaurentPoly._canonical({0: sign}, -e)

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # bodies are shared by q-shifts, so the same body is often met again
        return self._low == other._low and (self._coeffs is other._coeffs or self._coeffs == other._coeffs)

    def __hash__(self) -> int:
        return hash((self._low, frozenset(self._coeffs.items())))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- numeric evaluation ------------------------------------------

    def evaluate(self, q: float) -> float:
        """Numeric value at q in (0,1); terms summed by ascending exponent."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must lie in the open interval (0, 1), got {q}")
        total = 0.0
        for e, c in self.items_sorted():
            total += c * q ** e
        return total

    # -- rendering ---------------------------------------------------

    def signed_terms(self) -> list[str]:
        """Each term, ascending exponent, as a signed piece of a sum:
        " + 3", " - q^-2", " + 2q"; sum_text joins them."""
        low = self._low
        return [_term_text(low + e, c) for e, c in sorted(self._coeffs.items())]

    def __str__(self) -> str:
        return sum_text(self.signed_terms())

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items_sorted())!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def _binary_power(x, n: int):
    """x ** n for n >= 1 by square-and-multiply: n.bit_length() - 1
    squarings and popcount(n) - 1 further products, none by one."""
    while not n & 1:
        x = x * x
        n >>= 1
    result = x
    n >>= 1
    while n:
        x = x * x
        if n & 1:
            result = result * x
        n >>= 1
    return result


def _times(x: LaurentPoly, y: LaurentPoly, shift: int = 0) -> LaurentPoly:
    """x * y * q^shift, built in one pass over the bodies.

    Times a single term c q^e, a factor keeps its body when c == 1 and
    only its _low moves, by e + shift; any other c scales a copy of the
    body once.  Two longer factors multiply body by body: their lowest
    terms meet only each other at key 0, and nonzero ints have nonzero
    products, so the result needs no rebase, and it drops what cancels.
    """
    a, b = x._coeffs, y._coeffs
    if not (a and b):
        return ZERO
    low = x._low + y._low + shift
    if len(b) != 1:
        if len(a) != 1:
            out: dict[int, int] = {}
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    out[e] = out.get(e, 0) + c1 * c2
            return LaurentPoly._canonical({e: c for e, c in out.items() if c}, low)
        x, a, b = y, b, a
    c = b[0]
    if c != 1:
        a = {e: c1 * c for e, c1 in a.items()}
    elif low == x._low:
        return x
    return LaurentPoly._canonical(a, low)


_UNIT_BODY = {0: 1}


def qpow(e: int) -> LaurentPoly:
    """The monomial q^e; every one shares the body {0: 1}."""
    return LaurentPoly._canonical(_UNIT_BODY, e)


# -- rendering shared by every text form of the package ------------------


def _term_text(e: int, c: int) -> str:
    """The nonzero term c q^e as a signed piece of a sum: " + 3",
    " - q^-2", " + 2q"."""
    sign = " + "
    if c < 0:
        sign, c = " - ", -c
    if e == 0:
        return f"{sign}{c}"
    if c == 1:
        return f"{sign}q" if e == 1 else f"{sign}q^{e}"
    return f"{sign}{c}q" if e == 1 else f"{sign}{c}q^{e}"


def power_text(name: str, e: int) -> str:
    """name^e as text: "" for e = 0, name for e = 1."""
    if e == 0:
        return ""
    return name if e == 1 else f"{name}^{e}"


def sum_text(pieces: list[str]) -> str:
    """Join signed pieces " + a", " - b" as "a - b + ..." or "-a + ..."; "0" when empty."""
    text = "".join(pieces)
    if not text:
        return "0"
    return text[3:] if text[1] == "+" else f"-{text[3:]}"
