"""Ring axioms, evaluation, and rendering of the exact scalar ring."""

import math

import pytest

from qrwp import ONE, ZERO, LaurentPoly, lower_text, qpow

from helpers import count_products, make_rng, power_product_count, random_laurent, reference_text


def test_qpow_zero_is_one():
    assert qpow(0) == ONE
    assert qpow(0) == 1


def test_inverse_pair():
    assert qpow(3) * qpow(-3) == 1


def test_relation_coefficient():
    # the scalar multiplying z1^2 xi in the commutation defect of z0 with z0*
    coeff = qpow(-2) + qpow(0) * (-1)
    assert coeff == LaurentPoly({-2: 1, 0: -1})
    assert str(coeff) == "q^-2 - 1"


def test_eval_examples():
    assert ONE.evaluate(0.5) == 1.0
    assert (qpow(-2) - 1).evaluate(0.5) == 3.0  # 0.5**-2 - 1
    assert qpow(2).evaluate(0.5) == 0.25


def test_eval_rejects_bad_q():
    for q in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            ONE.evaluate(q)


def test_canonical_trimming():
    assert LaurentPoly({0: 1, 2: 0}) == LaurentPoly({0: 1})
    p = random_laurent(make_rng(1))
    assert p + (-p) == ZERO
    assert not (p - p)


def test_cancellation_stores_no_zero_coefficient():
    q = qpow(1)
    assert ((1 + q) - q)._coeffs == {0: 1}
    assert ((1 + q) + (-q))._coeffs == {0: 1}
    # the q terms cancel inside one product
    assert ((1 + q) * (1 - q))._coeffs == {0: 1, 2: -1}
    for x in ((1 + q) - (1 + q), (1 + q) * (1 - q) - (1 - q * q), q * 0, (1 - q) * ZERO):
        assert x._coeffs == {}
        assert x == ZERO and hash(x) == hash(ZERO)


def test_equality_is_mapping_equality():
    assert LaurentPoly({1: 2}) == LaurentPoly({1: 2})
    assert LaurentPoly({1: 2}) != LaurentPoly({1: 2, 0: 1})
    assert hash(LaurentPoly({1: 2})) == hash(LaurentPoly({1: 2}))


def test_ring_axioms_randomized():
    rng = make_rng(2)
    for _ in range(1000):
        a = random_laurent(rng)
        b = random_laurent(rng)
        c = random_laurent(rng)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_eval_is_ring_homomorphism():
    rng = make_rng(3)
    for _ in range(300):
        a = random_laurent(rng)
        b = random_laurent(rng)
        q = rng.uniform(0.2, 0.9)
        lhs = (a * b).evaluate(q)
        rhs = a.evaluate(q) * b.evaluate(q)
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose((a + b).evaluate(q), a.evaluate(q) + b.evaluate(q),
                            rel_tol=1e-12, abs_tol=1e-12)


def test_eval_sums_in_ascending_exponent_order():
    p = LaurentPoly({-2: 1, 0: 1, 3: 1})
    q = 0.5
    assert p.evaluate(q) == ((1 * q**-2) + 1) + q**3


def test_powers_and_units():
    assert qpow(2) ** 3 == qpow(6)
    assert qpow(2) ** -1 == qpow(-2)
    assert (-qpow(4)).inverse() == -qpow(-4)
    with pytest.raises(ValueError):
        (ONE + ONE).inverse()
    with pytest.raises(ValueError):
        (qpow(1) + 1).inverse()


def test_power_equals_left_to_right_product():
    rng = make_rng(4)
    for x in [ZERO] + [random_laurent(rng) for _ in range(50)]:
        product = ONE
        for n in range(10):
            assert x ** n == product, (x, n)
            product = product * x
    for u in (qpow(3), -qpow(-2), -ONE):
        product = ONE
        for n in range(10):
            assert u ** -n == product, (u, n)
            assert u ** -n * u ** n == ONE
            product = product * u.inverse()


def test_power_makes_no_wasted_products(monkeypatch):
    x = qpow(1) + 2
    calls = count_products(monkeypatch, LaurentPoly)
    for n in range(1, 10):
        for base, exponent in ((x, n), (-qpow(2), -n)):
            calls.clear()
            base ** exponent
            assert len(calls) == power_product_count(n), (base, exponent)


def test_unit_classification():
    assert qpow(5).as_q_power() == 5
    assert (2 * qpow(5)).as_q_power() is None
    assert (-qpow(5)).as_unit() == (-1, 5)
    assert (qpow(1) + 1).as_unit() is None


def test_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(qpow(1)) == "q"
    assert str(-qpow(2) + 1) == "1 - q^2"
    assert str(LaurentPoly({-2: -1, 0: 1})) == "-q^-2 + 1"
    assert str(LaurentPoly({-1: 3, 2: 2})) == "3q^-1 + 2q^2"
    assert str(-ONE) == "-1"
    assert str(-qpow(1)) == "-q"
    assert str(LaurentPoly({1: -2, 3: 1})) == "-2q + q^3"
    assert str(LaurentPoly({-1: 1, 0: -1, 1: 4})) == "q^-1 - 1 + 4q"
    # seeded values against the term-by-term reference, and back through the parser
    rng = make_rng(60)
    values = [ZERO, ONE, -ONE, qpow(-1), -qpow(-1), qpow(1), -qpow(1), LaurentPoly({0: 12, 1: -305})]
    values += [random_laurent(rng, max_exp=1, max_coeff=150) for _ in range(200)]
    values += [random_laurent(rng, max_exp=12, max_coeff=10 ** 6, max_terms=6) for _ in range(200)]
    for p in values:
        assert str(p) == reference_text(p), repr(p)
        assert lower_text(str(p)) == p, str(p)
