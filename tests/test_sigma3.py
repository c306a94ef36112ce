"""Normal-form multiplication, involution, and the closed-form oracle."""

import itertools

import pytest

from qrwp import (
    XI,
    XIS,
    Z0,
    Z0S,
    Z1,
    Z1S,
    AlgebraElement,
    NormalMonomial,
    basis_monomial,
    powers_oracle,
    qpow,
)

from helpers import make_rng, random_basis_element, random_element, random_monomial

A = basis_monomial(0, 2, 1)  # the self-adjoint quasi-central element z1^2 xi
ONE_EL = AlgebraElement.one()


def iterated(m: int, n: int, conjugate_first: bool = False) -> AlgebraElement:
    first, second = (Z0, Z0S) if not conjugate_first else (Z0S, Z0)
    count_first, count_second = (m, n) if not conjugate_first else (n, m)
    out = ONE_EL
    for _ in range(count_first):
        out = out * first
    for _ in range(count_second):
        out = out * second
    return out


# -- defining relations ------------------------------------------------


def test_z1_z0_commutation():
    assert Z1 * Z0 == AlgebraElement.monomial(1, 1, 0, qpow(-1))


def test_z0_z0s_products():
    assert Z0 * Z0S == ONE_EL - A
    assert Z0S * Z0 == ONE_EL - A * qpow(-2)


def test_unit_law():
    rng = make_rng(10)
    for _ in range(20):
        x = random_element(rng)
        assert ONE_EL * x == x
        assert x * ONE_EL == x


def test_xi_unitary():
    assert XI * XI.star() == ONE_EL
    assert XI * XIS == ONE_EL


def test_xi_central_on_short_words():
    letters = (Z0, Z0S, Z1, Z1S, XI, XIS)
    for length in range(4):
        for word in itertools.product(letters, repeat=length):
            x = ONE_EL
            for g in word:
                x = x * g
            assert XI * x == x * XI


# -- involution ---------------------------------------------------------


def test_star_generators():
    assert Z0.star() == Z0S
    assert Z1.star() == Z1 * XI
    assert Z1.star() == Z1S


def test_star_mixed_word():
    # (z0 z1 xi)* = xi^-1 z1* z0* = xi^-1 (z1 xi) z0* = z1 z0* = q z0s z1,
    # worked out letter by letter with the two-generator rules
    assert (Z0 * Z1 * XI).star() == AlgebraElement.monomial(-1, 1, 0, qpow(1))


def test_star_is_involutive_and_antimultiplicative():
    rng = make_rng(11)
    for _ in range(200):
        x = random_element(rng)
        y = random_element(rng)
        assert x.star().star() == x
        assert (x * y).star() == y.star() * x.star()


# -- closed-form oracle ---------------------------------------------------


def test_oracle_matches_displayed_products():
    # m = n = 2: (1 - A)(1 - q^2 A)
    expected = (ONE_EL - A) * (ONE_EL - A * qpow(2))
    assert powers_oracle(2, 2) == expected
    # empty product
    assert powers_oracle(1, 0) == Z0
    assert powers_oracle(0, 1) == Z0S
    assert powers_oracle(0, 0) == ONE_EL
    # n > m keeps the leftover z0* on the right of the polynomial
    assert powers_oracle(1, 2) == (ONE_EL - A) * Z0S


def test_oracle_equals_iterated_multiplication():
    for m in range(7):
        for n in range(7):
            assert iterated(m, n) == powers_oracle(m, n), (m, n)
            assert iterated(m, n, True) == powers_oracle(m, n, conjugate_first=True), (m, n)


def test_oracle_rejects_negative_powers():
    with pytest.raises(ValueError):
        powers_oracle(-1, 2)


# -- algebra laws -----------------------------------------------------------


def test_associativity_randomized():
    rng = make_rng(12)
    for _ in range(500):
        x = random_basis_element(rng)
        y = random_basis_element(rng)
        z = random_basis_element(rng)
        assert (x * y) * z == x * (y * z)


def test_distributivity_randomized():
    rng = make_rng(13)
    for _ in range(100):
        x = random_element(rng)
        y = random_element(rng)
        z = random_element(rng)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


# -- canonical form -----------------------------------------------------------


def test_monomial_validation():
    with pytest.raises(ValueError):
        NormalMonomial(0, -1, 0)


def test_identity_monomial():
    assert NormalMonomial(0, 0, 0).is_identity()
    assert ONE_EL.sole_monomial() == NormalMonomial(0, 0, 0)


def test_zero_coefficients_are_dropped():
    x = Z0 - Z0
    assert x.is_zero()
    assert len(x) == 0
    assert AlgebraElement({NormalMonomial(1, 0, 0): qpow(1) - qpow(1)}).is_zero()


def test_rendering_is_ordered():
    x = basis_monomial(1, 1, 0) + basis_monomial(-1, 0, 2) + basis_monomial(0, 2, 1)
    assert str(x) == "z0s xi^2 + z1^2 xi + z0 z1"


def test_rendering_examples():
    assert str(Z0 * Z0S) == "1 - z1^2 xi"
    assert str(AlgebraElement.zero()) == "0"
    assert str(AlgebraElement.monomial(0, 2, 1, qpow(-2) - 1)) == "(q^-2 - 1) z1^2 xi"


def test_rendering_coefficient_corner_cases():
    assert str(ONE_EL) == "1"
    assert str(-ONE_EL) == "-1"
    assert str(AlgebraElement.scalar(qpow(1))) == "q"
    assert str(AlgebraElement.scalar(-qpow(1))) == "-q"
    assert str(AlgebraElement.scalar(qpow(2) - qpow(-1))) == "(-q^-1 + q^2)"
    assert str(-Z0) == "-z0"
    assert str(AlgebraElement.monomial(1, 0, 0, qpow(1))) == "q z0"
    assert str(AlgebraElement.monomial(1, 0, 0, -qpow(-1))) == "-q^-1 z0"
    assert str(AlgebraElement.monomial(1, 0, 0, -3)) == "-3 z0"
    assert str(AlgebraElement.monomial(2, 1, 0, 1 - qpow(1)) - Z0) == "-z0 + (1 - q) z0^2 z1"
    assert str(AlgebraElement.monomial(-1, 0, 0, -2 * qpow(1)) + 5) == "-2q z0s + 5"
    assert str(AlgebraElement.monomial(-3, 2, -1)) == "z0s^3 z1^2 xi^-1"


def test_power_operator():
    assert Z1 ** 3 == Z1 * Z1 * Z1
    assert (Z0 * Z0S) ** 2 == (ONE_EL - A) * (ONE_EL - A)
    with pytest.raises(ValueError):
        Z0 ** -1
