"""Normal-form multiplication, involution, and the closed-form oracle."""

import itertools
from collections import Counter

import pytest

from qrwp import (
    XI,
    XIS,
    Z0,
    Z0S,
    Z1,
    Z1S,
    AlgebraElement,
    LaurentPoly,
    NormalMonomial,
    powers_oracle,
    qpow,
)
from qrwp import sigma3

from helpers import (
    count_products,
    make_rng,
    power_product_count,
    product_oracle,
    random_basis_element,
    random_element,
    random_monomial,
    random_nonzero_laurent,
    word_product_oracle,
)

A = AlgebraElement.monomial(0, 2, 1)  # the self-adjoint quasi-central element z1^2 xi
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
    # runs of 40 factors, as in the relations at l = 40: the closed form builds both
    # sides of even.3/4 and odd.6-odd.11, so only this oracle can catch it going wrong
    for m, n in ((40, 40), (41, 39), (39, 41)):
        assert Z0**m * Z0S**n == powers_oracle(m, n), (m, n)
        assert Z0S**n * Z0**m == powers_oracle(m, n, conjugate_first=True), (m, n)


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
    word = NormalMonomial(0, 1, 0)
    builds = (
        lambda: NormalMonomial(0, -1, 0),
        lambda: NormalMonomial(m=0, p=-1, r=0),
        lambda: NormalMonomial._make((0, -1, 0)),
        lambda: word._replace(p=-1),
        lambda: AlgebraElement.monomial(0, -1, 0),
        lambda: AlgebraElement.monomial(2, -3, 1),
    )
    for build in builds:
        with pytest.raises(ValueError):
            build()
    assert word._replace(r=2) == NormalMonomial(0, 1, 2)


def test_words_are_tuples():
    rng = make_rng(16)
    words = [random_monomial(rng) for _ in range(300)]
    for word in words:
        assert hash(word) == hash((word.m, word.p, word.r))
        assert word == (word.m, word.p, word.r)
    in_order = sorted(set(words), key=lambda w: (w.m, w.p, w.r))
    assert sorted(set(words)) == in_order
    x = AlgebraElement({word: qpow(i) for i, word in enumerate(words)})
    assert [mono for mono, _ in x.terms()] == in_order


def linear_factor_product(exponents) -> list:
    """prod_e (1 - q^{2e} A) multiplied out one linear factor at a time,
    as (A-power, coefficient) pairs in ascending power."""
    coeffs = [LaurentPoly({0: 1})]
    for e in exponents:
        shifted = [c * qpow(2 * e) for c in coeffs]
        coeffs = [a - b for a, b in zip(coeffs + [LaurentPoly()], [LaurentPoly()] + shifted)]
    return list(enumerate(coeffs))


def run_form(first: int, n: int) -> tuple:
    """The factored form of the run prod_{e=first}^{first+n-1} (1 - q^{2e} A)."""
    return 0, (0, 0, 0), tuple(range(first, first + n))


@pytest.mark.parametrize("n", range(13))
def test_run_product_matches_the_linear_factors(n):
    # n = 0 is the empty product; odd and even n put a row in the mirrored
    # half or one row on the middle of the Gaussian binomials; each run
    # starts at e0 or ends there
    for e0 in (0, -1, 3):
        for first in (e0, e0 - n + 1):
            terms = sigma3._expand(run_form(first, n)).terms()
            factors = linear_factor_product(range(first, first + n))
            expected = [(NormalMonomial(0, 2 * k, k), coef) for k, coef in factors]
            assert terms == expected, (first, n)
            assert all(coef for _, coef in terms)


def test_expand_scales_by_an_integer():
    rng = make_rng(28)
    for _ in range(200):
        runs = tuple(sorted(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))))
        form = (rng.randint(-3, 3), random_monomial(rng), runs)
        c = rng.randint(-3, 3)
        assert sigma3._expand(form, c) == sigma3._expand(form) * c, (form, c)


def test_a_run_reads_the_rows_of_its_length():
    # a run of one length elsewhere, such as the run {-31..-1} of a
    # z0*^31 z0^31 meet, reads the rows the run {0..30} built
    sigma3._expand(run_form(0, 31))
    rows = sigma3._gaussian_rows.cache_info()
    sigma3._expand(run_form(-31, 31))
    assert sigma3._gaussian_rows.cache_info().misses == rows.misses


@pytest.mark.parametrize("n", (1, 2, 7, 31))
def test_rising_and_falling_runs_share_their_bodies(n):
    # the runs of the two meets, z0^n z0*^n ({0..n-1}) and z0*^n z0^n
    # ({-n..-1}), and one further along wrap the same _gaussian_rows(n)
    rising = sigma3._expand(run_form(0, n)).terms()
    for e0 in (-n, 5):
        other = sigma3._expand(run_form(e0, n)).terms()
        assert all(a._coeffs is b._coeffs for (_, a), (_, b) in zip(rising, other, strict=True))


def test_mono_product_keeps_its_cache_counters():
    # the benchmark reads the hit and miss counts of this cache
    before = sigma3._mono_product.cache_info()
    Z0 * Z0S
    after = sigma3._mono_product.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1


def test_word_oracle_on_the_defining_relations():
    q = qpow(1)
    assert word_product_oracle((0, 1, 0), (1, 0, 0)) == AlgebraElement.monomial(1, 1, 0, q ** -1)
    assert word_product_oracle((1, 0, 0), (-1, 0, 0)) == ONE_EL - A
    assert word_product_oracle((-1, 0, 0), (1, 0, 0)) == ONE_EL - A * q ** -2
    assert word_product_oracle((0, 0, 2), (0, 1, -3)) == AlgebraElement.monomial(0, 1, -1)


def _pair_kind(w1, w2) -> str:
    if w1.m > 0 > w2.m:
        return "z0 z0s"
    if w1.m < 0 < w2.m:
        return "z0s z0"
    return "z0 z0" if w1.m > 0 and w2.m > 0 else "z0s z0s" if w1.m < 0 and w2.m < 0 else "no z0"


def test_products_match_the_word_oracle():
    # 1-4-term elements with multi-term coefficients and negative xi powers,
    # in both families, with and without a z0/z0* meet
    rng = make_rng(17)
    seen = Counter()
    for _ in range(300):
        x = random_element(rng, max_terms=4)
        y = random_element(rng, max_terms=4)
        xy = x * y
        assert xy == product_oracle(x, y), (x, y)
        assert all(type(mono) is NormalMonomial for mono in xy._terms)
        assert xy.star() == y.star() * x.star(), (x, y)
        seen.update(_pair_kind(w1, w2) for w1 in x._terms for w2 in y._terms)
        seen["one by one"] += len(x) == len(y) == 1
        seen["long coefficient"] += any(len(c._coeffs) > 1 for c in (*x._terms.values(), *y._terms.values()))
        seen["negative xi"] += any(w.r < 0 for w in (*x._terms, *y._terms))
    kinds = ("z0 z0s", "z0s z0", "z0 z0", "z0s z0s", "no z0", "one by one", "long coefficient", "negative xi")
    assert all(seen[kind] >= 10 for kind in kinds), seen
    # every meeting word pair of a small box, in both orders, with the
    # leftover z0 power m1 + m2 negative, zero and positive
    signs = Counter()
    for m1, m2 in itertools.product((*range(-4, 0), *range(1, 5)), repeat=2):
        if (m1 > 0) == (m2 > 0):
            continue
        signs[(m1 > 0, (m1 + m2 > 0) - (m1 + m2 < 0))] += 1
        for p1, p2, r1, r2 in itertools.product(range(3), range(3), (-1, 1), (-1, 1)):
            w1, w2 = NormalMonomial(m1, p1, r1), NormalMonomial(m2, p2, r2)
            xy = AlgebraElement.monomial(*w1) * AlgebraElement.monomial(*w2)
            assert xy == word_product_oracle(w1, w2), (w1, w2)
    assert len(signs) == 6, signs


def test_products_of_elements_associate():
    rng = make_rng(18)
    for _ in range(150):
        x, y, z = (random_element(rng, max_terms=3) for _ in range(3))
        assert (x * y) * z == x * (y * z), (x, y, z)


def test_a_product_without_a_meet_leaves_the_cache_alone():
    # only a z0/z0* meet is expanded by _mono_product
    x = Z0 * XIS + 3 * Z1 - Z0 ** 2 * Z1
    y = Z0 ** 2 * Z1S + XI - 2
    before = sigma3._mono_product.cache_info()
    for left, right in ((Z1, Z0), (Z0S, Z0S * Z1), (Z0 * Z1, x), (x, y), (Z0S, A + 1), (A - 1, Z0S)):
        left * right
    x.star()
    assert sigma3._mono_product.cache_info() == before


def test_identity_monomial():
    assert ONE_EL.sole_monomial() == NormalMonomial(0, 0, 0)


def test_zero_coefficients_are_dropped():
    x = Z0 - Z0
    assert x.is_zero()
    assert len(x) == 0
    assert AlgebraElement({NormalMonomial(1, 0, 0): qpow(1) - qpow(1)}).is_zero()


def test_cancellation_stores_no_zero_coefficient():
    q = qpow(1)
    zero = AlgebraElement.zero()
    # the z0 z1 terms cancel inside one product: z1 z0 = q^-1 z0 z1
    assert (Z0 - q * Z1) * (Z1 + Z0) == Z0 ** 2 - q * Z1 ** 2
    # pairs run left term by left term: z0 z1 gets +1 from (z0, z1), cancels at
    # (z1, z0), and comes back from (1, z0 z1), after the cancellation
    z0z1 = NormalMonomial(1, 1, 0)
    readded = (Z0 - q * Z1 + 1) * (Z1 + Z0 + Z0 * Z1)
    assert readded.coefficient(z0z1) == 1
    assert readded == Z0 ** 2 - q * Z1 ** 2 + Z0 * Z1 + Z1 + Z0 + Z0 ** 2 * Z1 - Z0 * Z1 ** 2
    # the same in a running sum: z0 cancels at the third summand, returns at the fourth
    resummed = sum([Z0, Z1, -Z0, q * Z0])
    assert resummed.coefficient(NormalMonomial(1, 0, 0)) == q
    by_zero = (
        (Z0 + Z1) * 0,
        (Z0 + Z1) * LaurentPoly(),
        (Z0 + Z1) * (q - q),
        0 * (Z0 + Z1),
        LaurentPoly() * (Z0 + Z1),
        zero * (Z0 + Z1),
    )
    cases = (
        (Z0 + Z1) * Z0S - Z0 * Z0S - Z1 * Z0S,
        (Z0 + Z1) + (-Z1),
        (Z0 + Z1) - Z1,
        Z0 + (-Z0),
        (Z0 - q * Z1) * (Z1 + Z0),
        ((Z0 - q * Z1) * (Z1 + Z0)).star(),
        Z0 * Z0S + A - ONE_EL,
        readded,
        resummed,
        zero.star(),
    ) + by_zero
    for x in cases:
        assert all(coef._coeffs and all(coef._coeffs.values()) for coef in x._terms.values()), x
        if x.is_zero():
            assert x == zero and hash(x) == hash(zero)
    assert cases[0] == zero and zero.star() == zero
    assert all(x.is_zero() for x in by_zero)


def test_rendering_is_ordered():
    x = AlgebraElement.monomial(1, 1, 0) + AlgebraElement.monomial(-1, 0, 2) + AlgebraElement.monomial(0, 2, 1)
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


def test_power_equals_left_to_right_product():
    rng = make_rng(14)
    for x in [AlgebraElement.zero(), Z0 + Z0S + Z1] + [random_element(rng, max_terms=2) for _ in range(15)]:
        product = ONE_EL
        for n in range(10):
            assert x ** n == product, (x, n)
            product = product * x


def test_power_makes_no_wasted_products(monkeypatch):
    x = random_element(make_rng(15))
    calls = count_products(monkeypatch, AlgebraElement)
    for n in range(1, 10):
        calls.clear()
        x ** n
        assert len(calls) == power_product_count(n), n


def test_multi_word_power_multiplies_by_the_base(monkeypatch):
    rng = make_rng(16)
    pairs = ((random_monomial(rng, m_max=2), random_monomial(rng, m_max=2)) for _ in range(12))
    bases = [Z0 + Z1, Z0 + Z0S, Z0 + Z0S + Z1] + [
        AlgebraElement({w1: random_nonzero_laurent(rng, max_terms=1), w2: random_nonzero_laurent(rng, max_terms=1)})
        for w1, w2 in pairs if w1 != w2]
    assert len(bases) >= 12
    for x in bases:
        for e in range(1, 13):
            assert x ** e == sigma3._binary_power(x, e), (x, e)
    calls = count_products(monkeypatch, AlgebraElement)
    for n in range(1, 10):
        calls.clear()
        bases[0] ** n
        assert len(calls) == n - 1 and all(other is bases[0] for other in calls), n
