"""Coinvariant generators, relation verification, factorization."""

import pytest

from qrwp import (
    AlgebraElement,
    NormalMonomial,
    Weights,
    basis_monomial,
    degree,
    degree_zero_monomials,
    enumerate_word_monomials,
    factorize,
    factorize_with_conjugates,
    generators,
    qpow,
    relations_for,
    verify_relations,
    word_element,
)
from qrwp.qwrp import GeneratorWord, word_text


def test_generator_examples():
    gens = generators(Weights(2, 3))
    assert gens.a == basis_monomial(0, 2, 1)
    assert gens.c == basis_monomial(3, 0, 1)
    assert gens.b is None

    gens = generators(Weights(1, 1))
    assert gens.a == basis_monomial(0, 2, 1)
    assert gens.b == basis_monomial(1, 1, 1)
    assert gens.c == basis_monomial(2, 0, 1)

    with pytest.raises(ValueError):
        generators(Weights(2, 4))


def test_generators_are_coinvariant_and_a_selfadjoint():
    for w in (Weights(2, 3), Weights(4, 3), Weights(1, 2), Weights(3, 2)):
        gens = generators(w)
        for g in filter(None, (gens.a, gens.b, gens.c)):
            for mono, _ in g.terms():
                assert degree(w, mono) == 0
        assert gens.a.star() == gens.a


def test_relation_counts():
    assert len(relations_for("even", 3)) == 4
    assert len(relations_for("odd", 3)) == 11


def test_relations_all_pass():
    for parity, ls in (("even", (1, 3, 5, 7)), ("odd", (1, 2, 3, 4, 5))):
        for l in ls:
            report = verify_relations(Weights.canonical(parity, l))
            assert report.all_pass, [r.rid for r in report.results if not r.passed]


def test_relations_do_not_depend_on_k():
    # same parity, different k: the relation set still holds verbatim
    for w in (Weights(4, 3), Weights(6, 5), Weights(3, 2), Weights(5, 4)):
        assert verify_relations(w).all_pass


def test_quantum_disc_case():
    # l = 1 even: the two displayed product relations collapse to one factor
    gens = generators(Weights(2, 1))
    a, c = gens.a, gens.c
    one = AlgebraElement.one()
    assert c * c.star() == one - a
    assert c.star() * c == one - a * qpow(-2)


def test_odd_small_cases():
    one = AlgebraElement.one()
    gens = generators(Weights(1, 1))
    assert gens.b * gens.b.star() == qpow(2) * gens.a * (one - gens.a)
    gens = generators(Weights(1, 2))
    assert gens.b * gens.b == qpow(6) * gens.a * gens.c


def test_failed_relation_is_reported_not_raised():
    # a deliberately wrong generator set: c = z1 gives c c* = a, not 1 - a
    from qrwp.qwrp import GeneratorSet, eval_side

    broken = GeneratorSet(weights=Weights(2, 1), a=basis_monomial(0, 2, 1), c=basis_monomial(0, 1, 0))
    rel = relations_for("even", 1)[2]   # c c* = 1 - a
    assert eval_side(rel.lhs, broken) != eval_side(rel.rhs, broken)
    report = verify_relations(Weights(2, 1))
    assert report.all_pass and all(isinstance(r.passed, bool) for r in report.results)


def test_factorize_examples():
    word = factorize(Weights(2, 3), NormalMonomial(3, 0, 1))
    assert word.letters == (("c", 1), ("a", 0))
    assert word.scalar == qpow(0)

    word = factorize(Weights(1, 1), NormalMonomial(0, 2, 1))
    assert dict(word.letters)["a"] == 1
    assert word.scalar == qpow(0)

    word = factorize(Weights(1, 1), NormalMonomial(2, 0, 1))
    assert dict(word.letters) == {"b": 0, "a": 0, "c": 1}
    assert word.scalar == qpow(0)


def test_factorize_errors():
    w = Weights(2, 3)
    with pytest.raises(ValueError):
        factorize(w, NormalMonomial(1, 0, 0))      # not coinvariant
    with pytest.raises(ValueError):
        factorize(w, NormalMonomial(-3, 0, -1))    # conjugate family


def test_factorize_box_soundness():
    for k, l in ((2, 3), (1, 2), (3, 2)):
        w = Weights(k, l)
        gens = generators(w)
        monos = degree_zero_monomials(w, 3 * l, 6, 6)
        assert monos, (k, l)
        for mono in monos:
            word = factorize(w, mono)
            assert word.scalar.as_q_power() is not None
            rebuilt = word_element(gens, word) * word.scalar
            assert rebuilt == basis_monomial(mono.m, mono.p, mono.r), (k, l, mono)


def test_factorize_completeness_oracle():
    for k, l in ((2, 3), (1, 2)):
        w = Weights(k, l)
        assert enumerate_word_monomials(w, 3 * l, 6, 6) == set(degree_zero_monomials(w, 3 * l, 6, 6))


def test_conjugate_family_via_involution():
    for k, l in ((2, 3), (1, 2), (3, 2)):
        w = Weights(k, l)
        gens = generators(w)
        for mono in degree_zero_monomials(w, 2 * l, 4, 4):
            conj = NormalMonomial(-mono.m, mono.p, mono.p - mono.r)
            assert degree(w, conj) == 0
            word = factorize_with_conjugates(w, conj)
            assert word.starred or conj.m >= 0
            rebuilt = word_element(gens, word) * word.scalar
            assert rebuilt == basis_monomial(conj.m, conj.p, conj.r), (k, l, conj)


def test_odd_scalar_is_tracked_not_assumed():
    # z0^2 z1 xi^0 has degree 0 for (k, l) = (1, 2)... pick a case with
    # a genuine reordering cost: (k=1, l=1), word b^2 against z0^2 z1^2 xi^2
    w = Weights(1, 1)
    mono = NormalMonomial(2, 2, 2)
    assert degree(w, mono) == 0
    word = factorize(w, mono)
    assert dict(word.letters)["b"] == 2
    # b^2 = q^-1 z0^2 z1^2 xi^2, so the monomial is q^1 times the word
    assert word.scalar == qpow(1)


def test_word_text():
    w = Weights(1, 1)
    word = factorize(w, NormalMonomial(2, 2, 2))
    assert word_text(word, "odd") == "q * b^2"
    word = factorize(Weights(2, 3), NormalMonomial(3, 0, 1))
    assert word_text(word, "even") == "c+"
    starred = GeneratorWord(letters=(("c", 2), ("a", 1), ("b", 0)), scalar=qpow(-3), starred=True)
    assert word_text(starred, "odd") == "q^-3 * c-*^2 a*"
    starred = GeneratorWord(letters=(("c", 1), ("a", 3)), scalar=qpow(1), starred=True)
    assert word_text(starred, "even") == "q * c+* a*^3"
    assert word_text(GeneratorWord(letters=(("b", 0),), scalar=qpow(0)), "odd") == "1"
    assert word_text(GeneratorWord(letters=(("a", 2),), scalar=qpow(1) - 2), "odd") == "(-2 + q) * a^2"
    assert word_text(GeneratorWord(letters=(("a", 2),), scalar=-qpow(0)), "odd") == "(-1) * a^2"


def test_relation_statements_render():
    report = verify_relations(Weights(2, 1))
    statements = [r.statement for r in report.results]
    assert "a* = a" in statements
    assert any("c+ c+*" in s for s in statements)


def test_relation_statements_full_text():
    assert [rel.statement("even") for rel in relations_for("even", 3)] == [
        "a* = a",
        "a c+ = q^-6 c+ a",
        "c+ c+* = (1 - a)(1 - q^2 a)(1 - q^4 a)",
        "c+* c+ = (1 - q^-2 a)(1 - q^-4 a)(1 - q^-6 a)",
    ]
    assert [rel.statement("odd") for rel in relations_for("odd", 2)] == [
        "a* = a",
        "a b = q^-4 b a",
        "a c- = q^-8 c- a",
        "b b = q^6 a c-",
        "b c- = q^-4 c- b",
        "b b* = q^4 a (1 - a)(1 - q^2 a)",
        "b* b = a (1 - q^-2 a)(1 - q^-4 a)",
        "b* c- = q^-2 (1 - q^-2 a)(1 - q^-4 a) b",
        "c- b* = q^2 b (1 - a)(1 - q^2 a)",
        "c- c-* = (1 - a)(1 - q^2 a)(1 - q^4 a)(1 - q^6 a)",
        "c-* c- = (1 - q^-2 a)(1 - q^-4 a)(1 - q^-6 a)(1 - q^-8 a)",
    ]
