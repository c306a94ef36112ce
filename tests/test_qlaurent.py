"""Ring axioms, evaluation, and rendering of the exact scalar ring."""

import math

import pytest

from qrwp import ONE, ZERO, LaurentPoly, lower_text, qpow
from qrwp.sigma3 import NormalMonomial

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


def test_q_shift_shares_the_body():
    p = LaurentPoly({-3: 2, 0: -1, 5: 7})
    for shifted in (qpow(7) * p, p * qpow(7), p * qpow(-2) * qpow(9)):
        assert shifted == LaurentPoly({4: 2, 7: -1, 12: 7})
        assert shifted._coeffs is p._coeffs
    # a scale by c != 1 copies the body once
    assert (-qpow(7) * p)._coeffs == {e: -c for e, c in p._coeffs.items()}


def test_lowest_term_cancelling_rebases():
    q = qpow(1)
    x = (1 + q) - 1
    assert (x._low, x._coeffs) == (1, {0: 1})
    assert x == q and hash(x) == hash(q)
    y = (qpow(-4) + 3 * q + qpow(6)) - qpow(-4) - 3 * q
    assert (y._low, y._coeffs) == (6, {0: 1})
    # zero sits at _low = 0
    assert ((x - q)._low, (x - q)._coeffs) == (0, {})


def test_equality_and_hash_follow_the_exponent_mapping():
    rng = make_rng(7)
    for _ in range(500):
        p = random_laurent(rng, max_exp=20) * qpow(rng.randint(-50, 50))
        fresh = LaurentPoly(dict(p.items_sorted()))
        assert p == fresh and hash(p) == hash(fresh), repr(p)
        assert (p._low, p._coeffs) == (fresh._low, fresh._coeffs)
        assert p.is_zero() or 0 in p._coeffs
        assert p._coeffs or p._low == 0


def test_coefficients_spread_far_apart():
    # a sparse body: a dense one would need 6 * 10^8 slots here
    x = lower_text("(q^1000000 + q^-1000000)^300").sole_term()[1]
    assert x.items_sorted() == [(10 ** 6 * (2 * k - 300), math.comb(300, k)) for k in range(301)]
    # z1^n z0^n = q^(-n^2) z0^n z1^n
    y = lower_text("z1^1000000 z0^1000000 + q z0^1000000 z1^1000000")
    assert y.terms() == [(NormalMonomial(10 ** 6, 10 ** 6, 0), LaurentPoly({-10 ** 12: 1, 1: 1}))]


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
