"""Expression language: grammar, lowering, round trips."""

import pytest

from qrwp import (
    XI,
    Z0,
    Z1,
    AlgebraElement,
    ParseError,
    basis_monomial,
    lower_text,
    qpow,
    render,
)
from qrwp.parser import LoweringError

from helpers import make_rng, random_element, reference_text


def test_lowering_examples():
    assert lower_text("z0*z0s") == AlgebraElement.one() - basis_monomial(0, 2, 1)
    assert lower_text("xi*xis") == AlgebraElement.one()
    assert lower_text("q^-2 * z1^2 * xi") == AlgebraElement.monomial(0, 2, 1, qpow(-2))
    assert lower_text("z0^2") == Z0 * Z0


def test_sugar_elimination():
    assert lower_text("z1s") == Z1 * XI
    assert lower_text("xis") == basis_monomial(0, 0, -1)


def test_star_optional_and_whitespace_insensitive():
    assert lower_text("z0 z1") == lower_text("z0*z1") == lower_text("  z0   *  z1 ")
    assert lower_text("q^-2z1^2xi") == lower_text("q^-2 * z1^2 * xi")


def test_precedence():
    # ^ binds tighter than juxtaposition binds tighter than +
    assert lower_text("z1^2 xi") == basis_monomial(0, 2, 1)
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
    assert lower_text("xi^-3") == basis_monomial(0, 0, -3)
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
        basis_monomial(0, 0, 5) - basis_monomial(3, 0, 0) * qpow(-1),
        AlgebraElement.monomial(1, 0, 0, -1) + AlgebraElement.monomial(0, 1, 0, 10) - qpow(1),
        AlgebraElement.monomial(-1, 2, 1, qpow(1) - 1) + AlgebraElement.scalar(-qpow(-1) + 17),
    ):
        assert render(x) == reference_text(x), repr(x)
        assert lower_text(render(x)) == x, render(x)



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
