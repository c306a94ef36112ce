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
one-digit power without spaces (z1^2, xi^-1, q^-3; not z0^-1) is one
token, read with one table lookup.  No error moves: such a token always
parses, it is not formed when a "^" follows, and an exponent error
quotes its name.  A
term folds its generator powers, integer literals and q-powers, as they
are read, into one running factored form c q^E z0^m z1^p xi^r
prod_P (1 - q^{2e} A) with integer arithmetic (sigma3._form_product),
and builds its element once, when it ends; only a parenthesised factor
is multiplied as an element.  The terms of a sum are added into one
dict in place.

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

from .qlaurent import LaurentPoly, qpow
from .sigma3 import AlgebraElement, NormalMonomial, _add_into, _expand, _form_product, _word

NAMES = ("q", "z0", "z0s", "z1", "z1s", "xi", "xis")
MAX_EXPONENT = 10**6
_EXPONENT_DIGITS = len(str(MAX_EXPONENT))
MAX_DIGITS = 4300   # the longest integer literal read, leading zeros aside: int() refuses more by default
_TOO_LONG = 10**MAX_DIGITS   # the least integer of more than MAX_DIGITS digits


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
# does not know is a one-character token of its own.  A one-digit power
# that always parses is one token when no digit and no "^" follows it.
_TOKEN = re.compile(r"(?:z[01]s?\^|(?:xis?|q)\^-?)[0-9](?![0-9]|[ \t\n\r\f\v]*\^)"
                    r"|[0-9]+|[A-Za-z][A-Za-z0-9_]*|[^ \t\n\r\f\v]")
_SIGNS = ("+", "-")
_TERM_ENDS = frozenset(("+", "-", ")", "^", ""))   # tokens that cannot start a factor


# The word (m, p, r) = z0^m z1^p xi^r of each named generator, and of
# each one-token power of one: a negative one only of xi or xis
_LETTERS = {
    "z0": (1, 0, 0),
    "z0s": (-1, 0, 0),
    "z1": (0, 1, 0),
    "z1s": (0, 1, 1),   # z1* = z1 xi
    "xi": (0, 0, 1),
    "xis": (0, 0, -1),  # xi^-1
}
_POWERS = [f"{sign}{d}" for sign in ("", "-") for d in range(10)]   # "-0" too
_LETTERS.update({f"{name}^{e}": tuple(int(e) * n for n in word) for name, word in list(_LETTERS.items())
                 for e in (_POWERS if name.startswith("x") else _POWERS[:10])})
_QPOWERS = {"q": 1, **{f"q^{e}": int(e) for e in _POWERS}}   # the exponent of each q token
_WORDS = frozenset(NAMES + tuple("^*+-()")).union(_LETTERS, _QPOWERS)   # every valid token but an integer
_KNOWN = _WORDS.union("0123456789")   # the tokens of a text that needs no search for an unknown one


def _tokenize(text: str) -> list[str]:
    """The token texts of text in one findall, then "" for the end.

    A token's kind is read off its text: once the tokens are checked,
    one that str.isdigit accepts is an integer and any other is a name,
    a one-token power or a punctuation character.  Only a text with a
    token outside _KNOWN is searched for an unknown one.  Positions are
    not kept; _position finds one again when an error needs it.
    """
    tokens = _TOKEN.findall(text)
    if not _KNOWN.issuperset(tokens):
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


def _non_invertible(exponent: int) -> LoweringError:
    return LoweringError(f"cannot raise a non-invertible element to the power {exponent}")


def _check_power_digits(c: int, exponent: int) -> None:
    """Refuse c^exponent, for c >= 0, when it would have more than
    MAX_EXPONENT digits, before computing it."""
    if c > 1 and exponent * math.log10(c) >= MAX_EXPONENT - 1:
        digits = _power_digits(c, exponent)
        if digits > MAX_EXPONENT:
            raise _length_error(digits)


def _length_error(digits: int) -> LoweringError:
    return LoweringError(f"coefficient of {digits} digits exceeds the supported length of {MAX_DIGITS}")


def _too_long(element: AlgebraElement) -> LoweringError | None:
    """The error for the first coefficient of element, in term order, of
    more than MAX_DIGITS digits, or None if it has none."""
    for _, coef in element.terms():
        for _, c in coef.items_sorted():
            c = abs(c)
            if c >= _TOO_LONG:
                digits = int(c.bit_length() * math.log10(2)) + 1  # the digit count or one more
                return _length_error(digits - (c < 10 ** (digits - 1)))
    return None


def _power(base: AlgebraElement, exponent: int) -> AlgebraElement:
    if exponent >= 0:
        if len(base) == 1:
            # one term c q^a w: the power's coefficient is exactly c^e
            (_, c), *more = base.sole_term()[1].items_sorted()
            if not more:
                _check_power_digits(abs(c), exponent)
        return base ** exponent
    try:
        inv = base.try_inverse()
    except ValueError as exc:
        raise _non_invertible(exponent) from exc
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


# -- recursive descent --------------------------------------------------
#
# Each rule takes the text, its tokens and the index of its first token,
# and returns the normal-form element of what it read (_exponent: the
# exponent) with the index of the next token.  The text is only read to
# place an error.


def _expr(text: str, tokens: list[str], i: int) -> tuple[AlgebraElement, int]:
    out, i = _term(text, tokens, i)
    # _term builds a new dict for every term, one no element holds, so the
    # later terms are added into the first one's in place, without a copy
    while (tok := tokens[i]) in _SIGNS:
        terms, i = _term(text, tokens, i + 1, tok == "-")
        _add_into(out, terms)
    return AlgebraElement._canonical(out), i


def _term(text: str, tokens: list[str], i: int, negate: bool = False) -> tuple[dict, int]:
    """A product of factors, folded into one running factored form; the
    term's new word-to-coefficient dict.

    A generator power, an integer literal or a q-power is folded with
    integers into c q^e z0^m z1^p xi^r prod_P (1 - q^{2f} A)
    (sigma3._form_product): c and q^e are central, a word that meets no
    z0/z0* power adds its exponents and pays q^(-p m2), and a meet adds a
    run to P.  The form is expanded once, when the term ends.  Only a
    parenthesised factor, or a power of one, is multiplied as an element:
    the form read before it is expanded and multiplied in first.  A term
    of one word, with no run and no element factor, is its one
    coefficient c q^e, built without _expand.
    """
    while (tok := tokens[i]) in _SIGNS:
        negate ^= tok == "-"
        i += 1
    c, e = (-1 if negate else 1), 0   # the central scalar c q^e of the whole term
    m = p = r = 0                     # the word and runs read since the last element factor
    runs = ()
    value = None                      # the product up to the last element factor
    while True:
        if word := _LETTERS.get(tok):
            m2, p2, r2 = word
            i += 1
            if tokens[i] == "^":   # only after a bare name
                exponent, i = _exponent(text, tokens, i)
                if exponent < 0 and (m2 or p2):
                    raise _non_invertible(exponent)
                m2, p2, r2 = m2 * exponent, p2 * exponent, r2 * exponent
            if m2 and (runs or (m and (m > 0) != (m2 > 0))):
                e, (m, p, r), runs = _form_product((e, (m, p, r), runs), (0, (m2, p2, r2), ()))
            else:
                e -= p * m2
                m, p, r = m + m2, p + p2, r + r2
        elif (exponent := _QPOWERS.get(tok)) is not None:
            # q is built when read, so a replaced qpow takes effect
            base = qpow(1)
            i += 1
            if tokens[i] == "^":   # only after a bare q
                exponent, i = _exponent(text, tokens, i)
            unit = base.as_unit()
            if unit is None:
                value, m, p, r, runs = _times_element(value, (m, p, r), runs,
                                                      AlgebraElement.scalar(base), exponent)
            else:
                sign, a = unit
                e += a * exponent
                if sign < 0 and exponent & 1:
                    c = -c
        elif tok.isdigit():
            digits = tok
            if len(digits) > MAX_DIGITS:
                digits = digits.lstrip("0") or "0"
                if len(digits) > MAX_DIGITS:
                    raise ParseError(f"integer literal of {len(digits)} digits exceeds the supported length "
                                     f"of {MAX_DIGITS}", _position(text, i))
            n = int(digits)
            i += 1
            if tokens[i] == "^":
                exponent, i = _exponent(text, tokens, i)
                if exponent < 0:
                    if n != 1:
                        raise _non_invertible(exponent)
                else:
                    _check_power_digits(n, exponent)
                    n **= exponent
            c *= n
        elif tok == "(":
            base, i = _expr(text, tokens, i + 1)
            if tokens[i] != ")":
                raise ParseError(f"expected RPAREN, found {tokens[i]!r}", _position(text, i))
            exponent, i = _exponent(text, tokens, i + 1) if tokens[i + 1] == "^" else (None, i + 1)
            value, m, p, r, runs = _times_element(value, (m, p, r), runs, base, exponent)
        else:
            raise ParseError(f"expected a value, found {tok!r}" if tok else "unexpected end of input",
                             _position(text, i))
        tok = tokens[i]
        if tok in _TERM_ENDS:
            break
        if tok == "*":
            i += 1
            tok = tokens[i]
    if value is None and not runs:
        return ({_word(NormalMonomial, (m, p, r)): LaurentPoly._canonical({0: c}, e)} if c else {}), i
    form = _expand((e, (m, p, r), runs), c)
    return (form if value is None else value * form)._terms, i


def _times_element(value, word, runs, base, exponent):
    """value, times the word and runs read since the last element factor
    (skipped when they are the bare word 1), times base^exponent; then
    the empty word and runs that the term goes on with.  The term's
    scalar c q^e is applied when it ends."""
    if runs or word != (0, 0, 0):
        form = _expand((0, word, runs))
        value = form if value is None else value * form
    if exponent is not None:
        base = _power(base, exponent)
    return (base if value is None else value * base), 0, 0, 0, ()


def _exponent(text: str, tokens: list[str], i: int) -> tuple[int, int]:
    """The exponent after the "^" at token i, and the index of the next
    token."""
    sign = tokens[i + 1]
    i += 2 if sign in _SIGNS else 1
    digits = tokens[i]
    if not digits.isdigit():
        raise ParseError(f"expected INT, found {digits.partition('^')[0] or digits!r}", _position(text, i))
    if len(digits) > _EXPONENT_DIGITS:
        digits = digits.lstrip("0") or "0"
        if len(digits) > _EXPONENT_DIGITS:  # out of range, and maybe too long for int()
            raise ParseError(f"exponent {'-' if sign == '-' else ''}{digits} exceeds the supported range",
                             _position(text, i))
    exponent = -int(digits) if sign == "-" else int(digits)
    if abs(exponent) > MAX_EXPONENT:
        raise ParseError(f"exponent {exponent} exceeds the supported range", _position(text, i))
    return exponent, i + 1


def lower_text(text: str) -> AlgebraElement:
    """Parse text and evaluate it to a normal-form element in one pass."""
    tokens = _tokenize(text)
    value, i = _expr(text, tokens, 0)
    if tokens[i]:
        raise ParseError(f"unexpected trailing input {tokens[i]!r}", _position(text, i))
    return value


def render(element: AlgebraElement) -> str:
    """Canonical text form: terms in (m, p, r) order, coefficients in
    ascending q-exponent order.  lower_text(render(x)) == x.  A coefficient
    that int-to-text conversion refuses, by default one of more than
    MAX_DIGITS digits, is a LoweringError that gives its digit count."""
    try:
        return str(element)
    except ValueError:
        error = _too_long(element)  # only a failure pays for the scan
        if error is None:
            raise
        raise error from None

