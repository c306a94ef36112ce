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
One regex findall splits the text into token strings, and the descent
reads them by index; a position is worked out only for an error.  A
power of a named generator is looked up in a bounded cache keyed by
(name, exponent), so every "z0^2" read shares one product.

An integer literal of more than MAX_DIGITS digits, leading zeros aside,
is a ParseError at its token rather than a conversion error, and an
exponent longer than MAX_EXPONENT is out of range without being read.
A power of one term c q^a w whose coefficient c^e would have more than
MAX_EXPONENT digits is a LoweringError before it is computed.

Errors come in reading order: the tokenizer rejects unknown names and
characters first, then a non-invertible base under a negative power
raises LoweringError where it is read, ahead of any later ParseError
("z1^-1 )" reports the power).  A costly sub-expression in front of a
trailing syntax error is evaluated before that error is raised.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

from .qlaurent import qpow
from .sigma3 import XI, XIS, Z0, Z0S, Z1, Z1S, AlgebraElement

NAMES = ("q", "z0", "z0s", "z1", "z1s", "xi", "xis")
MAX_EXPONENT = 10**6
_EXPONENT_DIGITS = len(str(MAX_EXPONENT))
MAX_DIGITS = 4300   # the longest integer literal read, leading zeros aside: int() refuses more by default


class ExpressionError(ValueError):
    """Base class for expression-language failures."""


class ParseError(ExpressionError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class LoweringError(ExpressionError):
    pass


# -- tokenizer ----------------------------------------------------------

# ASCII classes only: str.isdigit/isalpha would admit "٣" or "²".  Every
# character but ASCII whitespace belongs to a token, so one the grammar
# does not know is a one-character token of its own.
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9_]*|[^ \t\n\r\f\v]")
_WORDS = frozenset(NAMES + tuple("^*+-()"))   # every valid token but an integer
_SIGNS = ("+", "-")
_TERM_ENDS = frozenset(("+", "-", ")", "^", ""))   # tokens that cannot start a factor


def _tokenize(text: str) -> list[str]:
    """The token texts of text in one findall, then "" for the end.

    A token's kind is read off its text: once the tokens are checked,
    one that str.isdigit accepts is an integer and any other is a name
    or a punctuation character.  Positions are not kept; _position
    finds one again when an error needs it.
    """
    tokens = _TOKEN.findall(text)
    unknown = [tok for tok in set(tokens).difference(_WORDS) if not "0" <= tok[0] <= "9"]
    if unknown:
        i = min(map(tokens.index, unknown))
        tok = tokens[i]
        what = "unknown name" if tok.isascii() and tok[0].isalpha() else "unexpected character"
        raise ParseError(f"{what} {tok!r}", _position(text, i))
    tokens.append("")
    return tokens


def _position(text: str, i: int) -> int:
    """Where token i of text starts; the end token sits at len(text)."""
    starts = [match.start() for match in _TOKEN.finditer(text)]
    return starts[i] if i < len(starts) else len(text)


_GENERATORS = {
    "z0": Z0,
    "z0s": Z0S,
    "z1": Z1,
    "z1s": Z1S,   # z1* = z1 xi
    "xi": XI,
    "xis": XIS,   # xi^-1
}


def _power(base: AlgebraElement, exponent: int) -> AlgebraElement:
    if exponent >= 0:
        if len(base) == 1:
            # one term c q^a w: the power's coefficient is exactly c^e, so
            # one longer than MAX_EXPONENT digits is refused before it is built
            (_, c), *more = base.sole_term()[1].items_sorted()
            c = abs(c)
            if not more and exponent * math.log10(c) >= MAX_EXPONENT - 1:
                digits = _power_digits(c, exponent)
                if digits > MAX_EXPONENT:
                    raise LoweringError(f"coefficient of {digits} digits exceeds the supported length of {MAX_DIGITS}")
        return base ** exponent
    try:
        inv = base.try_inverse()
    except ValueError as exc:
        raise LoweringError(f"cannot raise a non-invertible element to the power {exponent}") from exc
    return inv ** -exponent


def _power_digits(c: int, e: int) -> int:
    """The decimal digits of c^e, for c >= 2 and e >= 1, without
    computing the power: 1 + floor(e log10 c).

    e log10 c is read to 40 places from the top 160 bits of c (converting
    all of a long c to decimal would take time quadratic in its length).
    When it lies that close to an integer m, as for c = 10^j or 10^j - 1,
    c^e >= 10^m decides exactly, compared in lowest terms.
    """
    from decimal import Context   # only a power of a million digits or more gets here

    ctx = Context(prec=40 + len(str(e * c.bit_length())))
    shift = max(c.bit_length() - 160, 0)
    log = ctx.multiply(e, ctx.add(ctx.log10(c >> shift), ctx.multiply(shift, ctx.log10(2))))
    slack = ctx.scaleb(1, -37)   # well above the rounding and truncation errors
    m = int(ctx.add(log, slack))
    if m == int(ctx.subtract(log, slack)):
        return m + 1
    g = math.gcd(e, m)
    return m + 1 if c ** (e // g) >= 10 ** (m // g) else m


@lru_cache(maxsize=256)
def _generator_power(name: str, exponent: int) -> AlgebraElement:
    """A named generator to a power, computed once and then looked up.
    Elements are immutable, so every reader may share the result; a
    LoweringError is not cached and is raised again on every read."""
    return _power(_GENERATORS[name], exponent)


# -- recursive descent --------------------------------------------------
#
# Each rule takes the text, its tokens and the index of its first token,
# and returns the normal-form element of what it read with the index of
# the next token.  The text is only read to place an error.


def _expr(text: str, tokens: list[str], i: int) -> tuple[AlgebraElement, int]:
    value, i = _term(text, tokens, i)
    while (tok := tokens[i]) in _SIGNS:
        term, i = _term(text, tokens, i + 1)
        value = value - term if tok == "-" else value + term
    return value, i


def _term(text: str, tokens: list[str], i: int) -> tuple[AlgebraElement, int]:
    negate = False
    while (tok := tokens[i]) in _SIGNS:
        negate ^= tok == "-"
        i += 1
    value, i = _primary(text, tokens, i)
    while (tok := tokens[i]) not in _TERM_ENDS:
        factor, i = _primary(text, tokens, i + 1 if tok == "*" else i)
        value = value * factor
    return (-value if negate else value), i


def _primary(text: str, tokens: list[str], i: int) -> tuple[AlgebraElement, int]:
    tok = tokens[i]
    if tok in _GENERATORS:
        base = _GENERATORS[tok]
    elif tok == "q":
        # q is built when read, so a replaced qpow takes effect
        base = AlgebraElement.scalar(qpow(1))
    elif tok.isdigit():
        digits = tok
        if len(digits) > MAX_DIGITS:
            digits = digits.lstrip("0") or "0"
            if len(digits) > MAX_DIGITS:
                raise ParseError(f"integer literal of {len(digits)} digits exceeds the supported length "
                                 f"of {MAX_DIGITS}", _position(text, i))
        base = AlgebraElement.scalar(int(digits))
    elif tok == "(":
        base, i = _expr(text, tokens, i + 1)
        if tokens[i] != ")":
            raise ParseError(f"expected RPAREN, found {tokens[i]!r}", _position(text, i))
    else:
        raise ParseError(f"expected a value, found {tok!r}" if tok else "unexpected end of input",
                         _position(text, i))
    i += 1
    if tokens[i] != "^":
        return base, i
    sign = tokens[i + 1]
    i += 2 if sign in _SIGNS else 1
    digits = tokens[i]
    if not digits.isdigit():
        raise ParseError(f"expected INT, found {digits!r}", _position(text, i))
    if len(digits) > _EXPONENT_DIGITS:
        digits = digits.lstrip("0") or "0"
        if len(digits) > _EXPONENT_DIGITS:  # out of range, and maybe too long for int()
            raise ParseError(f"exponent {'-' if sign == '-' else ''}{digits} exceeds the supported range",
                             _position(text, i))
    exponent = -int(digits) if sign == "-" else int(digits)
    if abs(exponent) > MAX_EXPONENT:
        raise ParseError(f"exponent {exponent} exceeds the supported range", _position(text, i))
    if tok in _GENERATORS:
        return _generator_power(tok, exponent), i + 1
    return _power(base, exponent), i + 1


def lower_text(text: str) -> AlgebraElement:
    """Parse text and evaluate it to a normal-form element in one pass."""
    tokens = _tokenize(text)
    value, i = _expr(text, tokens, 0)
    if tokens[i]:
        raise ParseError(f"unexpected trailing input {tokens[i]!r}", _position(text, i))
    return value


def render(element: AlgebraElement) -> str:
    """Canonical text form: terms in (m, p, r) order, coefficients in
    ascending q-exponent order.  lower_text(render(x)) == x."""
    return str(element)

