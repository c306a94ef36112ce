"""Textual expression language for algebra elements.

Grammar (whitespace-insensitive, ASCII only):

    expr     ::= term (("+" | "-") term)*
    term     ::= ("-" | "+")* primary (("*")? primary)*
    primary  ::= atom ("^" signed_int)?
    atom     ::= INT | NAME | "(" expr ")"
    NAME     ::= "q" | "z0" | "z0s" | "z1" | "z1s" | "xi" | "xis"
    signed_int ::= ("-" | "+")? INT

"^" binds tighter than juxtaposition, which binds tighter than "+"/"-";
"*" between factors is optional.  The starred names are sugar and are
eliminated on lowering: z1s becomes z1 xi and xis becomes xi^-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .qlaurent import qpow
from .sigma3 import XI, XIS, Z0, Z0S, Z1, Z1S, AlgebraElement

NAMES = ("q", "z0", "z0s", "z1", "z1s", "xi", "xis")
MAX_EXPONENT = 10**6


class ExpressionError(ValueError):
    """Base class for expression-language failures."""


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LoweringError(ExpressionError):
    pass


@dataclass(frozen=True, slots=True)
class Sym:
    name: str


@dataclass(frozen=True, slots=True)
class IntLit:
    value: int


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Expr"
    exponent: int


@dataclass(frozen=True, slots=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Mul:
    factors: tuple["Expr", ...]


@dataclass(frozen=True, slots=True)
class Add:
    terms: tuple["Expr", ...]


Expr = Union[Sym, IntLit, Pow, Neg, Mul, Add]


# -- tokenizer ----------------------------------------------------------

_PUNCT = {"^": "CARET", "*": "STAR", "+": "PLUS", "-": "MINUS", "(": "LPAREN", ")": "RPAREN"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append((_PUNCT[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            name = text[i:j]
            if name not in NAMES:
                raise ParseError(f"unknown name {name!r}", i)
            tokens.append(("NAME", name, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        return self.advance()

    def parse_expr(self) -> Expr:
        terms = [self.parse_term()]
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.advance()
            term = self.parse_term()
            terms.append(Neg(term) if op[0] == "MINUS" else term)
        return terms[0] if len(terms) == 1 else Add(tuple(terms))

    def parse_term(self) -> Expr:
        negate = False
        while self.peek()[0] in ("PLUS", "MINUS"):
            if self.advance()[0] == "MINUS":
                negate = not negate
        factors = [self.parse_primary()]
        while True:
            kind = self.peek()[0]
            if kind == "STAR":
                self.advance()
                factors.append(self.parse_primary())
            elif kind in ("INT", "NAME", "LPAREN"):
                factors.append(self.parse_primary())
            else:
                break
        node: Expr = factors[0] if len(factors) == 1 else Mul(tuple(factors))
        return Neg(node) if negate else node

    def parse_primary(self) -> Expr:
        atom = self.parse_atom()
        if self.peek()[0] == "CARET":
            self.advance()
            sign = 1
            if self.peek()[0] in ("PLUS", "MINUS"):
                if self.advance()[0] == "MINUS":
                    sign = -1
            tok = self.expect("INT")
            exponent = sign * int(tok[1])
            if abs(exponent) > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} exceeds the supported range", tok[2])
            return Pow(atom, exponent)
        return atom

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok[0] == "INT":
            self.advance()
            return IntLit(int(tok[1]))
        if tok[0] == "NAME":
            self.advance()
            return Sym(tok[1])
        if tok[0] == "LPAREN":
            self.advance()
            inner = self.parse_expr()
            self.expect("RPAREN")
            return inner
        raise ParseError(f"expected a value, found {tok[1]!r}" if tok[1] else "unexpected end of input", tok[2])


def parse(text: str) -> Expr:
    parser = _Parser(text)
    expr = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "END":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return expr


# -- lowering -------------------------------------------------------------

_GENERATORS = {
    "z0": Z0,
    "z0s": Z0S,
    "z1": Z1,
    "z1s": Z1S,   # z1* = z1 xi
    "xi": XI,
    "xis": XIS,   # xi^-1
}


def lower(expr: Expr) -> AlgebraElement:
    """Evaluate the syntax tree to a normal-form element."""
    if isinstance(expr, Sym):
        if expr.name == "q":
            return AlgebraElement.scalar(qpow(1))
        return _GENERATORS[expr.name]
    if isinstance(expr, IntLit):
        return AlgebraElement.scalar(expr.value)
    if isinstance(expr, Neg):
        return -lower(expr.operand)
    if isinstance(expr, Add):
        out = AlgebraElement.zero()
        for term in expr.terms:
            out = out + lower(term)
        return out
    if isinstance(expr, Mul):
        out = AlgebraElement.one()
        for factor in expr.factors:
            out = out * lower(factor)
        return out
    if isinstance(expr, Pow):
        if isinstance(expr.base, Sym) and expr.base.name == "q":
            return AlgebraElement.scalar(qpow(expr.exponent))
        base = lower(expr.base)
        if expr.exponent >= 0:
            return base ** expr.exponent
        try:
            inv = base.try_inverse()
        except ValueError as exc:
            raise LoweringError(f"cannot raise a non-invertible element to the power {expr.exponent}") from exc
        return inv ** (-expr.exponent)
    raise TypeError(f"not an expression node: {expr!r}")


def lower_text(text: str) -> AlgebraElement:
    return lower(parse(text))


def render(element: AlgebraElement) -> str:
    """Canonical text form: terms in (m, p, r) order, coefficients in
    ascending q-exponent order.  parse(render(x)) lowers back to x."""
    return str(element)

