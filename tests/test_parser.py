"""Expression language: grammar, lowering, round trips."""

import sys

import pytest

from qrwp import (
    XI,
    XIS,
    Z0,
    Z0S,
    Z1,
    Z1S,
    AlgebraElement,
    ParseError,
    lower_text,
    qpow,
    render,
)
from qrwp import parser
from qrwp.parser import ExpressionError, LoweringError

from helpers import make_rng, random_element, reference_text


def test_lowering_examples():
    assert lower_text("z0*z0s") == AlgebraElement.one() - AlgebraElement.monomial(0, 2, 1)
    assert lower_text("xi*xis") == AlgebraElement.one()
    assert lower_text("q^-2 * z1^2 * xi") == AlgebraElement.monomial(0, 2, 1, qpow(-2))
    assert lower_text("z0^2") == Z0 * Z0


def test_sugar_elimination():
    assert lower_text("z1s") == Z1 * XI
    assert lower_text("xis") == AlgebraElement.monomial(0, 0, -1)


def test_star_optional_and_whitespace_insensitive():
    assert lower_text("z0 z1") == lower_text("z0*z1") == lower_text("  z0   *  z1 ")
    assert lower_text("q^-2z1^2xi") == lower_text("q^-2 * z1^2 * xi")


def test_precedence():
    # ^ binds tighter than juxtaposition binds tighter than +
    assert lower_text("z1^2 xi") == AlgebraElement.monomial(0, 2, 1)
    assert lower_text("z1 + z0 z1") == Z1 + Z0 * Z1
    assert lower_text("2 z1^2") == 2 * (Z1 * Z1)
    assert lower_text("(z1 + z0) z1") == (Z1 + Z0) * Z1


def test_unary_minus():
    assert lower_text("-z0 + 2") == AlgebraElement.scalar(2) - Z0
    assert lower_text("--z0") == Z0
    assert lower_text("2 - - 3") == AlgebraElement.scalar(5)


def test_integer_atoms_and_powers():
    assert lower_text("2^3") == AlgebraElement.scalar(8)
    assert lower_text("q^+2") == AlgebraElement.scalar(qpow(2))
    assert lower_text("xi^-3") == AlgebraElement.monomial(0, 0, -3)
    assert lower_text("(q^2 xi)^-1") == AlgebraElement.monomial(0, 0, -1, qpow(-2))


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        lower_text("z0 + @")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        lower_text("z9")
    assert err.value.position == 0
    for bad in ("z0^", "(z0", "z0 +", "", "z0 ^ z1"):
        with pytest.raises(ParseError):
            lower_text(bad)


@pytest.mark.parametrize("text, position", [
    ("z0^\u0663", 3),       # ARABIC-INDIC DIGIT THREE
    ("z0^\u00b2", 3),       # SUPERSCRIPT TWO
    ("z0\u00e9", 2),        # a name stops at its last ASCII letter or digit
    ("z0\u00a0z1", 2),      # NO-BREAK SPACE
])
def test_non_ascii_input_is_rejected(text, position):
    with pytest.raises(ParseError) as err:
        lower_text(text)
    assert err.value.position == position


def test_exponent_overflow_rejected():
    with pytest.raises(ParseError):
        lower_text("z0^10000000")
    with pytest.raises(ParseError):
        lower_text("q^-99999999")


def test_lowering_errors():
    with pytest.raises(LoweringError):
        lower_text("z1^-1")
    with pytest.raises(LoweringError):
        lower_text("(z0 z0s)^-2")
    with pytest.raises(LoweringError):
        lower_text("2^-1")


def test_round_trip_randomized():
    rng = make_rng(50)
    values = [random_element(rng) for _ in range(500)]
    # multi-digit and negative coefficients with exponents -1, 0 and 1
    values += [random_element(rng, max_exp=1, max_coeff=150) for _ in range(300)]
    for x in values:
        assert render(x) == reference_text(x), repr(x)
        assert lower_text(render(x)) == x, render(x)


def test_round_trip_corner_cases():
    for x in (
        AlgebraElement.zero(),
        AlgebraElement.one(),
        -AlgebraElement.one(),
        AlgebraElement.scalar(qpow(-2) - 1),
        AlgebraElement.monomial(-2, 1, -3, -qpow(4)),
        AlgebraElement.monomial(0, 0, 5) - AlgebraElement.monomial(3, 0, 0) * qpow(-1),
        AlgebraElement.monomial(1, 0, 0, -1) + AlgebraElement.monomial(0, 1, 0, 10) - qpow(1),
        AlgebraElement.monomial(-1, 2, 1, qpow(1) - 1) + AlgebraElement.scalar(-qpow(-1) + 17),
    ):
        assert render(x) == reference_text(x), repr(x)
        assert lower_text(render(x)) == x, render(x)


def test_render_refuses_a_coefficient_too_long_to_print():
    # int-to-text conversion refuses more than 4300 digits by default: render
    # raises a LoweringError with the digit count of the first such
    # coefficient, words in (m, p, r) order and q-powers ascending
    message = "coefficient of {} digits exceeds the supported length of 4300"
    for text, digits in (("2^23007", 6926), ("z0 + 2^23007 z1 - 10^4300 z0s", 4301),
                         ("2^23007 q z0 + 10^4300 q^-1 z0", 4301), ("-(10^4300) xi", 4301)):
        with pytest.raises(LoweringError) as raised:
            render(lower_text(text))
        assert str(raised.value) == message.format(digits), text
    assert render(lower_text("10^4300 - 1")) == "9" * 4300
    if hasattr(sys, "set_int_max_str_digits"):   # a raised limit prints it
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert render(lower_text("-(10^4300) xi")) == f"-{10 ** 4300} xi"
        finally:
            sys.set_int_max_str_digits(limit)


def test_errors_reported_in_reading_order():
    # evaluation happens while reading, so a non-invertible power raises
    # before a syntax error that follows it
    for text in ("z1^-1 )", "2^-3-z0-"):
        with pytest.raises(LoweringError):
            lower_text(text)
    # a syntax error in front of the power is still the one reported
    with pytest.raises(ParseError) as err:
        lower_text(") z1^-1")
    assert err.value.position == 0
    # the tokenizer reads the whole text first
    with pytest.raises(ParseError):
        lower_text("z1^-1 @")


# (class, message, position) of each failure, pinned so that a change in how
# text is read keeps every error as it was; LoweringError has no position
@pytest.mark.parametrize("text, cls, message, position", [
    ("", ParseError, "unexpected end of input (at position 0)", 0),
    ("   ", ParseError, "unexpected end of input (at position 3)", 3),
    ("z0 + ", ParseError, "unexpected end of input (at position 5)", 5),
    ("z0 ^ z1", ParseError, "expected INT, found 'z1' (at position 5)", 5),
    ("(z0", ParseError, "expected RPAREN, found '' (at position 3)", 3),
    (")", ParseError, "expected a value, found ')' (at position 0)", 0),
    ("z0^", ParseError, "expected INT, found '' (at position 3)", 3),
    ("z0 + @", ParseError, "unexpected character '@' (at position 5)", 5),
    ("z9", ParseError, "unknown name 'z9' (at position 0)", 0),
    ("z0\u00e9", ParseError, "unexpected character '\u00e9' (at position 2)", 2),
    ("z0^10000000", ParseError, "exponent 10000000 exceeds the supported range (at position 3)", 3),
    ("q^-99999999", ParseError, "exponent -99999999 exceeds the supported range (at position 3)", 3),
    ("z1^-1 )", LoweringError, "cannot raise a non-invertible element to the power -1", None),
    ("z1^-1 @", ParseError, "unexpected character '@' (at position 6)", 6),
    (") z1^-1", ParseError, "expected a value, found ')' (at position 0)", 0),
    ("2^-1", LoweringError, "cannot raise a non-invertible element to the power -1", None),
    # the same around one-digit powers, which are one token when written without spaces
    ("z0^2^3", ParseError, "unexpected trailing input '^' (at position 4)", 4),
    ("z0^2 ^3", ParseError, "unexpected trailing input '^' (at position 5)", 5),
    ("xi^-1^2", ParseError, "unexpected trailing input '^' (at position 5)", 5),
    ("2 ^ z1^2", ParseError, "expected INT, found 'z1' (at position 4)", 4),
    ("z0^z1^2", ParseError, "expected INT, found 'z1' (at position 3)", 3),
    ("(z0)^xi^-1", ParseError, "expected INT, found 'xi' (at position 5)", 5),
    ("q^q^2", ParseError, "expected INT, found 'q' (at position 2)", 2),
    ("3^q^2", ParseError, "expected INT, found 'q' (at position 2)", 2),
    ("z0^^2", ParseError, "expected INT, found '^' (at position 3)", 3),
    ("z0^-1", LoweringError, "cannot raise a non-invertible element to the power -1", None),
    ("z0^2x", ParseError, "unknown name 'x' (at position 4)", 4),
    ("z0^2_", ParseError, "unexpected character '_' (at position 4)", 4),
    ("12 z9", ParseError, "unknown name 'z9' (at position 3)", 3),   # a multi-digit integer: the slow check
])
def test_error_table(text, cls, message, position):
    with pytest.raises(ExpressionError) as err:
        lower_text(text)
    assert type(err.value) is cls
    assert str(err.value) == message
    assert getattr(err.value, "position", None) == position


@pytest.mark.parametrize("name, generator", [
    ("z0", Z0), ("z0s", Z0S), ("z1", Z1), ("z1s", Z1S), ("xi", XI), ("xis", XIS)])
def test_generator_powers_match_the_algebra(name, generator):
    for e in [*range(-4, 9), 1000]:
        text = f"{name}^{e}"
        try:
            expected = generator ** e if e >= 0 else generator.try_inverse() ** -e
        except ValueError:
            # raised on every read, not only the first
            for _ in range(2):
                with pytest.raises(LoweringError):
                    lower_text(text)
            continue
        assert lower_text(text) == expected == lower_text(text), text


def test_q_is_built_when_read(monkeypatch):
    calls = []

    def traced_qpow(e):
        calls.append(e)
        return qpow(e)

    monkeypatch.setattr(parser, "qpow", traced_qpow)
    for _ in range(2):
        assert lower_text("q^2") == AlgebraElement.scalar(qpow(2))
    assert calls == [1, 1]


def test_a_replaced_qpow_is_read_once_per_q_and_folded(monkeypatch):
    calls = []

    def constant_qpow(e):
        calls.append(e)
        return qpow(0)

    monkeypatch.setattr(parser, "qpow", constant_qpow)
    assert lower_text("q^2 z0 z1") == lower_text("z0 z1")
    calls.clear()
    assert lower_text("3 q z0 q^-2") == 3 * Z0
    assert calls == [1, 1]


def test_a_negative_unit_qpow_keeps_its_sign(monkeypatch):
    monkeypatch.setattr(parser, "qpow", lambda e: -qpow(e))
    minus_q = AlgebraElement.scalar(-qpow(1))
    for text, expected in (("q^3 z0 q^2", minus_q ** 5 * Z0), ("q^-1 z1 q^0", minus_q.try_inverse() * Z1),
                           ("q z1 q", minus_q ** 2 * Z1)):
        assert lower_text(text) == expected, text


def test_a_non_unit_qpow_is_multiplied_as_an_element(monkeypatch):
    monkeypatch.setattr(parser, "qpow", lambda e: qpow(e) + 1)
    q = AlgebraElement.scalar(qpow(1) + 1)
    assert lower_text("2 z1 q z0 q^2 z0s") == 2 * Z1 * q * Z0 * q ** 2 * Z0S
    with pytest.raises(LoweringError):
        lower_text("z0 q^-1")


Q = AlgebraElement.scalar(qpow(1))
QI = AlgebraElement.scalar(qpow(-1))
_ENGINE = {"z0": Z0, "z0s": Z0S, "z1": Z1, "z1s": Z1S, "xi": XI, "xis": XIS}


def _engine_power(g: AlgebraElement, e: int) -> AlgebraElement:
    return g ** e if e >= 0 else g.try_inverse() ** -e


@pytest.mark.parametrize("text, expected", [
    # one meet, in both orders, with no leftover and with a leftover of either sign
    ("z0 z0s", Z0 * Z0S),
    ("z0s z0", Z0S * Z0),
    ("z0^3 z1 z0s^2", Z0 ** 3 * Z1 * Z0S ** 2),
    ("z0^2 z0s^3 xi", Z0 ** 2 * Z0S ** 3 * XI),
    ("z1^2 z0s^3 z0^2", Z1 ** 2 * Z0S ** 3 * Z0 ** 2),
    ("z0s^2 z0^3 z1s", Z0S ** 2 * Z0 ** 3 * Z1S),
    # several meets in one term, runs moving past later words
    ("z0 z0s z0 z0s", Z0 * Z0S * Z0 * Z0S),
    ("z0^2 z0s^3 z0^4 z0s", Z0 ** 2 * Z0S ** 3 * Z0 ** 4 * Z0S),
    ("z0s^2 z1 z0^3 xi^-1 z0s^4 z0^2 z1s", Z0S ** 2 * Z1 * Z0 ** 3 * XIS * Z0S ** 4 * Z0 ** 2 * Z1S),
    ("z0 z0s^2 z0^3 z0s z0s z0", Z0 * Z0S ** 2 * Z0 ** 3 * Z0S * Z0S * Z0),
    # xi^-k, q^+-k, the literals 0 and 1, leading "- -"
    ("xi^-2 z0 xis^3 z0s", XIS ** 2 * Z0 * XIS ** 3 * Z0S),
    ("q^-2 z0 q^3 z0s q", QI ** 2 * Z0 * Q ** 3 * Z0S * Q),
    ("q^+2 z0s^0 q^0 z1", Q ** 2 * Z1),
    ("0 z0 z0s", AlgebraElement.zero()),
    ("1 z0s z0 1^-3", Z0S * Z0),
    ("- - 2 z0 z0s", 2 * Z0 * Z0S),
    ("z0 - - z0s z0 + - -3 z1", Z0 + Z0S * Z0 + 3 * Z1),
    ("-+- 2^3 q^-1 z0^2 - 5^0 z0s", 8 * QI * Z0 ** 2 - Z0S),
    # parenthesised and powered factors between folded runs
    ("z0^2 (z0s + z1) z0s^3 z0", Z0 ** 2 * (Z0S + Z1) * Z0S ** 3 * Z0),
    ("2 z0 z0s (z0 + q)^2 z0s^2 z0 z1", 2 * Z0 * Z0S * (Z0 + Q) ** 2 * Z0S ** 2 * Z0 * Z1),
    ("q (z1) z0 (xi)^-2 z0s", Q * Z1 * Z0 * XIS ** 2 * Z0S),
    ("- (2) (q^-1) (z0s^2) (z1) (z0^3) (xi^-1)", -2 * QI * Z0S ** 2 * Z1 * Z0 ** 3 * XIS),
    ("-(z0 z0s)^2 q^2 (1) 3", -3 * (Z0 * Z0S) ** 2 * Q ** 2),
    # one-digit powers as one token, or not: -0, a second digit, a name right after
    ("q^-0 xi^-0 z0^23 z1^2z0s", Z0 ** 23 * Z1 ** 2 * Z0S),
])
def test_folded_terms_match_engine_products(text, expected):
    assert lower_text(text) == expected


def _random_factor(rng, depth: int) -> tuple[str, AlgebraElement]:
    """The text of one factor and its element, built by engine products of
    the generator constants, try_inverse and AlgebraElement.scalar alone."""
    kind = rng.random()
    if kind < 0.15:
        e = rng.randint(-3, 3)
        return rng.choice((f"q^{e}", f"q^{e:+d}")), _engine_power(Q, e)
    if kind < 0.25:
        n = rng.choice((0, 1, 1, 2, 3, 7))
        if rng.random() < 0.5:
            return str(n), AlgebraElement.scalar(n)
        e = rng.randint(0, 3) if n != 1 else rng.randint(-3, 3)
        return f"{n}^{e}", AlgebraElement.scalar(n ** max(e, 0))
    if kind < 0.35 and depth:
        text, value = _random_expr(rng, depth - 1)
        e = rng.randint(0, 2)
        return f"({text})^{e}", value ** e
    name = rng.choice(("z0", "z0s") * 3 + tuple(_ENGINE))
    e = rng.randint(-3, 3) if name in ("xi", "xis") else rng.randint(0, 4)
    if e == 1 and rng.random() < 0.5:
        return name, _ENGINE[name]
    return f"{name}^{e}", _engine_power(_ENGINE[name], e)


def _random_expr(rng, depth: int) -> tuple[str, AlgebraElement]:
    pieces, total = [], AlgebraElement.zero()
    for n in range(rng.randint(1, 3)):
        signs = rng.choice(("", "", "-", "- -", "+", "-+-"))
        factors = [_random_factor(rng, depth) for _ in range(rng.randint(1, 6))]
        value = AlgebraElement.one()
        for _, factor in factors:
            value = value * factor
        if signs.count("-") % 2:
            value = -value
        op = rng.choice((" + ", " - ")) if n else ""
        pieces.append(op + signs + rng.choice((" ", " * ")).join(text for text, _ in factors))
        total = total - value if op == " - " else total + value
    return "".join(pieces), total


def test_seeded_expressions_match_engine_products():
    rng = make_rng(34)
    for _ in range(400):
        text, expected = _random_expr(rng, 1)
        assert lower_text(text) == expected, text


def test_literals_too_long_for_int_are_parse_errors():
    # int() refuses more than 4300 digits: such a literal is a ParseError at
    # its token, an exponent with the range message it always had
    ones = "1" * 5000
    for text, message, position in (
            (f"z0 + z0^{ones}", f"exponent {ones} exceeds the supported range", 8),
            (f"q^-{ones}", f"exponent -{ones} exceeds the supported range", 3),
            (f"z0 - {ones} z1", "integer literal of 5000 digits exceeds the supported length of 4300", 5)):
        with pytest.raises(ParseError) as err:
            lower_text(text)
        assert (str(err.value), err.value.position) == (f"{message} (at position {position})", position)
    # leading zeros do not count, and 4300 digits are read
    zeros = "0" * 5000
    assert lower_text(f"{zeros}7 z0^{zeros}2") == lower_text("7 z0^2")
    assert lower_text("9" * 4300) == AlgebraElement.scalar(10 ** 4300 - 1)


# -- one-token powers: the spaced spelling is the oracle ------------------

_ONE_TOKEN_POWERS = [tok for tok in (*parser._LETTERS, *parser._QPOWERS) if "^" in tok]


def test_one_token_powers_cover_every_name_and_digit():
    # z0, z0s, z1 and z1s with d = 0..9; xi, xis and q with d = -9..9 and -0
    assert len(_ONE_TOKEN_POWERS) == 4 * 10 + 3 * 20
    for tok in _ONE_TOKEN_POWERS:
        assert parser._TOKEN.findall(tok) == [tok]


@pytest.mark.parametrize("tok", _ONE_TOKEN_POWERS)
def test_one_token_power_matches_its_spaced_spelling(tok):
    spaced = tok.replace("^", " ^ ")
    assert lower_text(tok) == lower_text(spaced), tok
    assert lower_text(f"2 z0 {tok} z0s") == lower_text(f"2 z0 {spaced} z0s"), tok


_PIECES = ("z0", "z0s", "z1", "z1s", "xi", "xis", "q", "z9", "x", "^", "^", "-", "+", "*", "(", ")",
           " ", "  ", "0", "1", "2", "9", "12", "_", "@", "²")


def _random_power(rng) -> str:
    base = rng.choice(("z0", "z0s", "z1", "z1s", "xi", "xis", "q", "2", "(z1)"))
    return f"{base}^{rng.choice(('', '-', '+'))}{rng.choice((0, 1, 2, 3, 9, 10, 23))}"


def test_seeded_compact_and_spaced_powers_agree():
    rng = make_rng(32)
    for _ in range(2000):
        text = "".join(_random_power(rng) if rng.random() < 0.4 else rng.choice(_PIECES)
                       for _ in range(rng.randint(1, 8)))
        outcomes = []
        for spelling in (text, text.replace("^", " ^ ")):
            try:
                outcomes.append(lower_text(spelling))
            except ExpressionError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], text
