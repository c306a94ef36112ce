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

lower_text parses and evaluates in one pass; no syntax tree is built.
Errors come in reading order: the tokenizer rejects unknown names and
characters first, then a non-invertible base under a negative power
raises LoweringError where it is read, ahead of any later ParseError
("z1^-1 )" reports the power).  A costly sub-expression in front of a
trailing syntax error is evaluated before that error is raised.
"""

from __future__ import annotations

import re

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


# -- tokenizer ----------------------------------------------------------

_PUNCT = {"^": "CARET", "*": "STAR", "+": "PLUS", "-": "MINUS", "(": "LPAREN", ")": "RPAREN"}

# ASCII classes only: str.isdigit/isalpha would admit "٣" or "²"
_TOKEN = re.compile(r"(?P<SPACE>[ \t\n\r\f\v]+)|(?P<INT>[0-9]+)|(?P<NAME>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<PUNCT>[-^*+()])|(?P<BAD>.)", re.DOTALL)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, value, i = match.lastgroup, match.group(), match.start()
        if kind == "SPACE":
            continue
        if kind == "PUNCT":
            kind = _PUNCT[value]
        elif kind == "NAME" and value not in NAMES:
            raise ParseError(f"unknown name {value!r}", i)
        elif kind == "BAD":
            raise ParseError(f"unexpected character {value!r}", i)
        tokens.append((kind, value, i))
    tokens.append(("END", "", len(text)))
    return tokens


_GENERATORS = {
    "z0": Z0,
    "z0s": Z0S,
    "z1": Z1,
    "z1s": Z1S,   # z1* = z1 xi
    "xi": XI,
    "xis": XIS,   # xi^-1
}


class _Parser:
    """Recursive descent that evaluates while it reads: each rule
    returns the normal-form element of the text it consumed."""

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

    def parse_expr(self) -> AlgebraElement:
        value = self.parse_term()
        while self.peek()[0] in ("PLUS", "MINUS"):
            op = self.advance()
            term = self.parse_term()
            value = value - term if op[0] == "MINUS" else value + term
        return value

    def parse_term(self) -> AlgebraElement:
        negate = False
        while self.peek()[0] in ("PLUS", "MINUS"):
            if self.advance()[0] == "MINUS":
                negate = not negate
        value = self.parse_primary()
        while True:
            kind = self.peek()[0]
            if kind == "STAR":
                self.advance()
            elif kind not in ("INT", "NAME", "LPAREN"):
                break
            value = value * self.parse_primary()
        return -value if negate else value

    def parse_primary(self) -> AlgebraElement:
        base = self.parse_atom()
        if self.peek()[0] != "CARET":
            return base
        self.advance()
        sign = 1
        if self.peek()[0] in ("PLUS", "MINUS"):
            if self.advance()[0] == "MINUS":
                sign = -1
        tok = self.expect("INT")
        exponent = sign * int(tok[1])
        if abs(exponent) > MAX_EXPONENT:
            raise ParseError(f"exponent {exponent} exceeds the supported range", tok[2])
        if exponent >= 0:
            return base ** exponent
        try:
            inv = base.try_inverse()
        except ValueError as exc:
            raise LoweringError(f"cannot raise a non-invertible element to the power {exponent}") from exc
        return inv ** -exponent

    def parse_atom(self) -> AlgebraElement:
        tok = self.peek()
        if tok[0] == "INT":
            self.advance()
            return AlgebraElement.scalar(int(tok[1]))
        if tok[0] == "NAME":
            self.advance()
            # q is built when read, so a replaced qpow takes effect
            return AlgebraElement.scalar(qpow(1)) if tok[1] == "q" else _GENERATORS[tok[1]]
        if tok[0] == "LPAREN":
            self.advance()
            inner = self.parse_expr()
            self.expect("RPAREN")
            return inner
        raise ParseError(f"expected a value, found {tok[1]!r}" if tok[1] else "unexpected end of input", tok[2])


def lower_text(text: str) -> AlgebraElement:
    """Parse text and evaluate it to a normal-form element in one pass."""
    parser = _Parser(text)
    value = parser.parse_expr()
    tok = parser.peek()
    if tok[0] != "END":
        raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
    return value


def render(element: AlgebraElement) -> str:
    """Canonical text form: terms in (m, p, r) order, coefficients in
    ascending q-exponent order.  lower_text(render(x)) == x."""
    return str(element)

