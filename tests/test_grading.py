"""Weighted circle grading: degrees, additivity, coinvariant projection."""

import pytest

from qrwp import (
    AlgebraElement,
    NormalMonomial,
    Weights,
    coinvariant_part,
    degree,
    element_degrees,
    is_coinvariant,
)

from helpers import make_rng, random_monomial


def test_weights_validation():
    with pytest.raises(ValueError, match="not coprime"):
        Weights(2, 4)
    with pytest.raises(ValueError):
        Weights(3, 0)      # l must be positive
    with pytest.raises(ValueError, match="the even family requires odd l"):
        Weights.canonical("even", 2)
    assert Weights.canonical("even", 3) == Weights(2, 3)
    assert Weights.canonical("odd", 4) == Weights(1, 4)


def test_parity_and_half_weight():
    assert Weights(2, 3).parity == "even"
    assert Weights(2, 3).s == 1
    assert Weights(4, 3).s == 2
    assert Weights(1, 2).parity == "odd"
    assert Weights(1, 2).s == 1
    assert Weights(3, 2).s == 2


def test_degree_examples():
    w = Weights(2, 3)
    assert degree(w, NormalMonomial(1, 0, 0)) == 2          # z0
    assert degree(w, NormalMonomial(3, 0, 1)) == 0          # z0^3 xi
    for weights in (w, Weights(1, 1), Weights(5, 4)):
        assert degree(weights, NormalMonomial(0, 2, 1)) == 0   # z1^2 xi always invariant
    # star letters carry the opposite degree
    assert degree(w, NormalMonomial(-1, 0, 0)) == -2
    assert degree(w, NormalMonomial(0, 0, 1)) == -6         # xi has degree -2l


def test_degree_is_additive_under_multiplication():
    rng = make_rng(20)
    for _ in range(300):
        w = Weights.canonical(rng.choice(["even", "odd"]), rng.choice([1, 3, 5]))
        m1 = random_monomial(rng)
        m2 = random_monomial(rng)
        product = AlgebraElement.monomial(m1.m, m1.p, m1.r) * AlgebraElement.monomial(m2.m, m2.p, m2.r)
        want = degree(w, m1) + degree(w, m2)
        assert not product.is_zero()
        for mono, _ in product.terms():
            assert degree(w, mono) == want


def test_star_negates_degree():
    rng = make_rng(21)
    w = Weights(3, 4)
    for _ in range(200):
        mono = random_monomial(rng)
        starred = AlgebraElement.monomial(mono.m, mono.p, mono.r).star()
        for smono, _ in starred.terms():
            assert degree(w, smono) == -degree(w, mono)


def test_coinvariants_form_a_subalgebra():
    w = Weights(1, 2)
    x = AlgebraElement.monomial(2, 1, 1)    # degree 2 + (1-2)*2 = 0
    y = AlgebraElement.monomial(0, 2, 1)
    assert is_coinvariant(w, x) and is_coinvariant(w, y)
    assert is_coinvariant(w, x * y)
    assert is_coinvariant(w, x * x - 3 * (y * x))


def test_coinvariant_part_examples():
    w = Weights(2, 3)
    x = AlgebraElement.monomial(0, 2, 1) + AlgebraElement.monomial(1, 0, 0)
    assert coinvariant_part(w, x) == AlgebraElement.monomial(0, 2, 1)
    assert coinvariant_part(w, AlgebraElement.one()) == AlgebraElement.one()
    assert coinvariant_part(w, AlgebraElement.monomial(1, 0, 0)).is_zero()
    assert not is_coinvariant(w, x)


def test_homogeneity_queries():
    w = Weights(2, 1)
    x = AlgebraElement.monomial(1, 0, 0) + AlgebraElement.monomial(0, 2, 0)
    assert element_degrees(w, x) == [2]
    y = x + AlgebraElement.one()
    assert element_degrees(w, y) == [0, 2]
    assert element_degrees(w, AlgebraElement.zero()) == []
