"""Exact arithmetic in the ring of integer Laurent polynomials in q.

Every scalar in the coordinate-algebra computations lives in this ring:
the deformation parameter q is kept symbolic, coefficients are Python
integers (arbitrary precision), and equality is exact.  Numeric values
are produced only at the very end, by evaluating at a chosen q in (0,1).
"""

from __future__ import annotations

from typing import Iterable, Mapping


class LaurentPoly:
    """A finitely supported integer combination of powers q^e, e in Z.

    Instances are immutable and canonical: zero coefficients are never
    stored, so two values are equal exactly when their coefficient
    mappings agree.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        data: dict[int, int] = {}
        if coeffs:
            for e, c in coeffs.items():
                c = int(c)
                if c:
                    data[int(e)] = c
        self._coeffs = data

    # -- inspection --------------------------------------------------

    def items_sorted(self) -> list[tuple[int, int]]:
        """(exponent, coefficient) pairs, ascending exponent."""
        return sorted(self._coeffs.items())

    def coefficient(self, exponent: int) -> int:
        return self._coeffs.get(exponent, 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_one(self) -> bool:
        return self._coeffs == {0: 1}

    def as_q_power(self) -> int | None:
        """The exponent e if this value is exactly q^e, else None."""
        if len(self._coeffs) != 1:
            return None
        (e, c), = self._coeffs.items()
        return e if c == 1 else None

    def as_unit(self) -> tuple[int, int] | None:
        """(sign, exponent) if this value is +-q^e, else None."""
        if len(self._coeffs) != 1:
            return None
        (e, c), = self._coeffs.items()
        return (c, e) if c in (1, -1) else None

    # -- ring operations ---------------------------------------------

    @staticmethod
    def _coerce(x) -> "LaurentPoly | None":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, int):
            return LaurentPoly({0: x})
        return None

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        """Multiplicative inverse; defined only for the units +-q^e."""
        unit = self.as_unit()
        if unit is None:
            raise ValueError(f"{self} is not invertible in Z[q, q^-1]")
        sign, e = unit
        return LaurentPoly({-e: sign})

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

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

    def __str__(self) -> str:
        return signed_sum([(c < 0, coefficient_text(abs(c), e)) for e, c in self.items_sorted()])

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items_sorted())!r})"


ZERO = LaurentPoly()
ONE = LaurentPoly({0: 1})


def qpow(e: int) -> LaurentPoly:
    """The monomial q^e."""
    return LaurentPoly({int(e): 1})


# -- rendering shared by every text form of the package ------------------


def power_text(name: str, e: int) -> str:
    """name^e as text: "" for e = 0, name for e = 1."""
    if e == 0:
        return ""
    return name if e == 1 else f"{name}^{e}"


def coefficient_text(mag: int, e: int) -> str:
    """The positive coefficient mag * q^e as text: "3", "q^-2", "2q"."""
    qpart = power_text("q", e)
    return qpart if mag == 1 and qpart else f"{mag}{qpart}"


def signed_sum(terms: Iterable[tuple[bool, str]]) -> str:
    """Join (negative, text) pairs as "a - b + c" or "-a + ..."; "0" when empty."""
    pieces: list[str] = []
    for neg, text in terms:
        if pieces:
            pieces.append(f"- {text}" if neg else f"+ {text}")
        else:
            pieces.append(f"-{text}" if neg else text)
    return " ".join(pieces) or "0"
