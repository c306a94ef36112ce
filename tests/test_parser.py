"""Expression language: grammar, lowering, round trips."""

import pytest

from qrwp import (
    XI,
    Z0,
    Z1,
    AlgebraElement,
    ParseError,
    basis_monomial,
    lower,
    lower_text,
    parse,
    qpow,
    render,
)
from qrwp.parser import LoweringError

from helpers import make_rng, random_element


def test_lowering_examples():
    assert lower_text("z0*z0s") == AlgebraElement.one() - basis_monomial(0, 2, 1)
    assert lower_text("xi*xis") == AlgebraElement.one()
    assert lower_text("q^-2 * z1^2 * xi") == AlgebraElement.monomial(0, 2, 1, qpow(-2))


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
        parse("z0 + @")
    assert err.value.position == 5
    with pytest.raises(ParseError) as err:
        parse("z9")
    assert err.value.position == 0
    for bad in ("z0^", "(z0", "z0 +", "", "z0 ^ z1"):
        with pytest.raises(ParseError):
            parse(bad)


def test_exponent_overflow_rejected():
    with pytest.raises(ParseError):
        parse("z0^10000000")
    with pytest.raises(ParseError):
        parse("q^-99999999")


def test_lowering_errors():
    with pytest.raises(LoweringError):
        lower_text("z1^-1")
    with pytest.raises(LoweringError):
        lower_text("(z0 z0s)^-2")
    with pytest.raises(LoweringError):
        lower_text("2^-1")


def test_round_trip_randomized():
    rng = make_rng(50)
    for _ in range(500):
        x = random_element(rng)
        assert lower_text(render(x)) == x, render(x)


def test_round_trip_corner_cases():
    for x in (
        AlgebraElement.zero(),
        AlgebraElement.one(),
        -AlgebraElement.one(),
        AlgebraElement.scalar(qpow(-2) - 1),
        AlgebraElement.monomial(-2, 1, -3, -qpow(4)),
        basis_monomial(0, 0, 5) - basis_monomial(3, 0, 0) * qpow(-1),
    ):
        assert lower_text(render(x)) == x, render(x)


def test_lower_of_manual_tree():
    tree = parse("z0^2")
    assert lower(tree) == Z0 * Z0
