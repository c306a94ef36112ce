"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with  pytest tests/test_acceptance.py -v -s  to see one PASS line
per criterion with its elapsed time.  Randomized suites use the fixed
seed from helpers.SEED.
"""

import itertools
import math
import time

from qrwp import (
    AlgebraElement,
    NormalMonomial,
    Weights,
    Z0,
    Z0S,
    degree,
    degree_zero_monomials,
    enumerate_word_monomials,
    factorize,
    generators,
    index_map,
    intertwiner_check,
    lower_text,
    powers_oracle,
    render,
    verify_relations,
    word_element,
)
from qrwp.fockrep import kernel_conditions_exact, relation_residuals
from qrwp.ktheory import assemble_kgroups, expected_kgroups, ktheory_report

from helpers import (cokernel_map_check, faithfulness_probe, make_rng, random_basis_element, random_element,
                     random_laurent, random_monomial)

Q = 0.5
N = 256

EVEN_LS = (1, 3, 5, 7)
ODD_LS = (1, 2, 3, 4, 5)
WEIGHT_PAIRS = ((2, 1), (2, 3), (4, 3), (1, 1), (1, 2), (3, 2), (1, 3))


def _report(number: int, title: str, started: float) -> None:
    print(f"ACCEPTANCE {number} PASS ({time.perf_counter() - started:.2f}s): {title}")


def test_criterion_1_symbolic_relations():
    started = time.perf_counter()
    for l in EVEN_LS:
        report = verify_relations(Weights.canonical("even", l))
        assert len(report.results) == 4
        assert report.all_pass, (l, [r.rid for r in report.results if not r.passed])
    for l in ODD_LS:
        report = verify_relations(Weights.canonical("odd", l))
        assert len(report.results) == 11
        assert report.all_pass, (l, [r.rid for r in report.results if not r.passed])
    _report(1, "all even(4)/odd(11) relations pass exactly for the stated l ranges", started)


def test_criterion_2_closed_form_oracle():
    started = time.perf_counter()
    branches = set()
    for m in range(7):
        for n in range(7):
            it = AlgebraElement.one()
            for _ in range(m):
                it = it * Z0
            for _ in range(n):
                it = it * Z0S
            assert it == powers_oracle(m, n), (m, n)
            it = AlgebraElement.one()
            for _ in range(n):
                it = it * Z0S
            for _ in range(m):
                it = it * Z0
            assert it == powers_oracle(m, n, conjugate_first=True), (m, n)
            branches.add((m > n) - (m < n))
    assert branches == {-1, 0, 1}          # all three case branches exercised
    _report(2, "iterated products match the closed forms for all m, n <= 6", started)


def test_criterion_3_coinvariant_enumeration():
    started = time.perf_counter()
    for k, l in WEIGHT_PAIRS:
        w = Weights(k, l)
        gens = generators(w)
        monos = degree_zero_monomials(w, 3 * l, 6, 6)
        assert monos, (k, l)
        for mono in monos:
            word = factorize(w, mono)
            assert word.scalar.as_q_power() is not None, (k, l, mono)
            rebuilt = word_element(gens, word) * word.scalar
            assert rebuilt == AlgebraElement.monomial(mono.m, mono.p, mono.r), (k, l, mono)
        assert enumerate_word_monomials(w, 3 * l, 6, 6) == set(monos), (k, l)
    _report(3, "factorization sound and complete on the full box for 7 weight pairs", started)


def test_criterion_4_representation_residuals():
    started = time.perf_counter()
    for parity, ls in (("even", (1, 3, 5)), ("odd", ODD_LS)):
        for l in ls:
            entries = relation_residuals(parity, l, Q, N)
            for entry in entries:
                assert entry.passed, (parity, l, entry)
                assert entry.residual < 1e-10, (parity, l, entry)
            assert kernel_conditions_exact(parity, l), (parity, l)
    _report(4, "relation residuals < 1e-10 on interior at q=0.5, N=256; kernels exact", started)


def test_criterion_5_intertwining():
    started = time.perf_counter()
    for parity, ls in (("even", (1, 3, 5)), ("odd", ODD_LS)):
        for l in ls:
            per_generator = intertwiner_check(parity, l)
            assert all(per_generator.values()), (parity, l, per_generator)
    _report(5, "relabeled family representations intertwine the ambient one, < 1e-10", started)


def test_criterion_6_faithfulness_probe():
    started = time.perf_counter()
    # The central unitary acts trivially in the ambient representation, so
    # words are sampled with pairwise distinct shift/weight profiles (m, p);
    # the xi power is drawn freely from |s| <= 3.
    rng = make_rng(600)
    profiles = rng.sample(list(itertools.product(range(6), range(6))), 20)
    words = [NormalMonomial(m, p, rng.randint(-3, 3)) for m, p in profiles]
    assert len(words) == len(set(words)) == 20
    assert faithfulness_probe(words, Q, 128, tol=1e-8)
    # strongest form: all 36 profile classes at once are independent
    all_words = [NormalMonomial(m, p, 0) for m, p in itertools.product(range(6), range(6))]
    assert faithfulness_probe(all_words, Q, 128, tol=1e-8)
    # sanity: a repeated profile is flagged as dependent
    assert not faithfulness_probe(words[:19] + [NormalMonomial(*profiles[0], -2)], Q, 128)
    _report(6, "20 seeded basis words (distinct (m,p)) independent at rank tol 1e-8, N=128", started)


def test_criterion_7_index_maps():
    started = time.perf_counter()
    for parity, ls, value in (("even", (1, 3, 5), 1), ("odd", ODD_LS, 2)):
        for l in ls:
            delta = index_map(parity, l)
            assert delta.entries == tuple([value] * l), (parity, l)
            report = ktheory_report(parity, l, Q, 128)
            assert report.lift_exact, (parity, l)
    _report(7, "defect ranks (1..1)/(2..2) read off integer exponents; lifts exactly the bare shift", started)


def test_criterion_8_kgroups():
    started = time.perf_counter()
    for parity, ls in (("even", (1, 3, 5)), ("odd", ODD_LS)):
        for l in ls:
            delta = index_map(parity, l)
            groups = assemble_kgroups(delta)
            assert groups == expected_kgroups(parity, l), (parity, l, groups)
            assert cokernel_map_check(parity, l, box=3), (parity, l)
    # l = 1 specializations: Toeplitz and the quantum real projective plane
    toeplitz = assemble_kgroups(index_map("even", 1))
    assert toeplitz.k0.free_rank == 1 and not toeplitz.k0.torsion
    assert toeplitz.k1.free_rank == 0
    rp2 = assemble_kgroups(index_map("odd", 1))
    assert rp2.k0.free_rank == 1 and rp2.k0.torsion == (2,)
    assert rp2.k1.free_rank == 0
    _report(8, "K1 = 0, K0 = Z^l / Z2+Z^l for l <= 5; cokernel maps verified by enumeration", started)


def test_criterion_9_property_suites():
    started = time.perf_counter()
    # scalar ring: 1000 random triples
    rng = make_rng(900)
    for _ in range(1000):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        q = rng.uniform(0.2, 0.9)
        assert math.isclose((a * b).evaluate(q), a.evaluate(q) * b.evaluate(q),
                            rel_tol=1e-12, abs_tol=1e-12)
    # algebra: 500 random triples of basis words
    rng = make_rng(901)
    for _ in range(500):
        x, y, z = (random_basis_element(rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
    # involution
    rng = make_rng(902)
    for _ in range(200):
        x, y = random_element(rng), random_element(rng)
        assert x.star().star() == x
        assert (x * y).star() == y.star() * x.star()
    # grading additivity on basis-word products
    rng = make_rng(903)
    for _ in range(300):
        w = Weights.canonical(rng.choice(["even", "odd"]), rng.choice([1, 3, 5]))
        m1, m2 = random_monomial(rng), random_monomial(rng)
        product = AlgebraElement.monomial(m1.m, m1.p, m1.r) * AlgebraElement.monomial(m2.m, m2.p, m2.r)
        want = degree(w, m1) + degree(w, m2)
        assert all(degree(w, mono) == want for mono, _ in product.terms())
    # parser round trip: 500 random normal-form elements
    rng = make_rng(904)
    for _ in range(500):
        x = random_element(rng)
        assert lower_text(render(x)) == x
    _report(9, "ring/associativity/involution/grading/parser property suites (seeded)", started)
