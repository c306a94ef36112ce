"""Coinvariant generators, relation verification, factorization."""

import itertools
from math import gcd

import pytest

from qrwp import (
    ONE,
    AlgebraElement,
    NormalMonomial,
    Weights,
    degree,
    degree_zero_monomials,
    enumerate_word_monomials,
    factorization_sweep,
    factorize,
    factorize_with_conjugates,
    generators,
    qpow,
    relations_for,
    verify_relations,
    word_element,
)
from qrwp import qwrp, sigma3
from qrwp.qwrp import GeneratorSet, GeneratorWord, word_text

from helpers import degree_zero_scan, eval_side, make_rng, product_oracle, random_monomial


def test_generator_examples():
    gens = generators(Weights(2, 3))
    assert gens.a == AlgebraElement.monomial(0, 2, 1)
    assert gens.c == AlgebraElement.monomial(3, 0, 1)
    assert gens.b is None

    gens = generators(Weights(1, 1))
    assert gens.a == AlgebraElement.monomial(0, 2, 1)
    assert gens.b == AlgebraElement.monomial(1, 1, 1)
    assert gens.c == AlgebraElement.monomial(2, 0, 1)

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
    # same parity, different k: the relation set still holds verbatim; a
    # negative k gives the generators xi^s with s < 0
    for k, l in ((4, 3), (6, 5), (3, 2), (5, 4), (5, 3), (7, 2), (-3, 2), (-4, 5), (9, 20)):
        assert verify_relations(Weights(k, l)).all_pass, (k, l)


def _seeded_weights(rng, parity: str, l: int) -> Weights:
    while True:
        k = rng.randint(-40, 40)
        if (k % 2 == 1) == (parity == "odd") and gcd(abs(k), l) == 1:
            return Weights(k, l)


def test_factored_sides_expand_to_the_multiplied_out_sides():
    rng = make_rng(26)
    families = [("odd", l) for l in range(1, 31)] + [("even", l) for l in range(1, 30, 2)]
    for parity, l in families:
        for w in (Weights.canonical(parity, l), _seeded_weights(rng, parity, l)):
            gens = generators(w)
            letters = qwrp._letter_forms(gens)
            for rel in relations_for(parity, l):
                forms = [qwrp._side_form(side, letters) for side in (rel.lhs, rel.rhs)]
                assert forms[0] == forms[1], (w, rel.rid)
                for side, form in zip((rel.lhs, rel.rhs), forms):
                    assert sigma3._expand(form) == eval_side(side, gens), (w, rel.rid)


def _engine_form(form) -> AlgebraElement:
    """q^E w prod_{e in P} (1 - q^{2e} A), multiplied out factor by factor."""
    e, word, runs = form
    out = AlgebraElement.monomial(*word) * qpow(e)
    for f in runs:
        out = out * (AlgebraElement.one() - AlgebraElement.monomial(0, 2, 1) * qpow(2 * f))
    return out


def test_factored_product_matches_the_engine():
    # words of either sign meet or not; the runs are arbitrary multisets.
    # The engine's product expands a meet through _form_product itself, so
    # the product is checked against the oracle, whose meets are powers_oracle.
    rng = make_rng(27)

    def random_form():
        runs = sorted(rng.randint(-4, 4) for _ in range(rng.randint(0, 4)))
        return rng.randint(-3, 3), random_monomial(rng), tuple(runs)

    for _ in range(300):
        x, y = random_form(), random_form()
        assert sigma3._expand(x) == _engine_form(x), x
        assert sigma3._expand(sigma3._form_product(x, y)) == product_oracle(_engine_form(x), _engine_form(y)), (x, y)


def _shift_rhs(delta):
    return lambda rel, gens: (rel._replace(rhs=rel.rhs._replace(q_exponent=rel.rhs.q_exponent + delta)), gens)


def _short_run(rel, gens):
    factors = tuple(("prod", f[1][:-1]) if f[0] == "prod" else f for f in rel.rhs.factors)
    return rel._replace(rhs=rel.rhs._replace(factors=factors)), gens


def _xi_on_a(rel, gens):
    return rel, gens._replace(a=AlgebraElement.monomial(0, 2, 2))


@pytest.mark.parametrize("mutate, failing", [
    (_shift_rhs(1), {"even.1", "even.2", "even.3", "even.4"} | {f"odd.{i}" for i in range(1, 12)}),
    (_shift_rhs(-1), {"even.1", "even.2", "even.3", "even.4"} | {f"odd.{i}" for i in range(1, 12)}),
    (_short_run, {"even.3", "even.4"} | {f"odd.{i}" for i in range(6, 12)}),
    (_xi_on_a, {"even.1", "odd.1", "odd.4", "odd.6", "odd.7"}),
], ids=["q-exponent+1", "q-exponent-1", "run-one-short", "xi-power+1"])
def test_mutated_relations_fail_with_the_expanded_normal_forms(monkeypatch, mutate, failing):
    found = set()
    for parity, l in (("even", 5), ("odd", 4)):
        w = Weights.canonical(parity, l)
        pairs = [mutate(rel, generators(w)) for rel in relations_for(parity, l)]
        mutated = tuple(rel for rel, _ in pairs)
        gens = pairs[0][1]
        monkeypatch.setattr(qwrp, "relations_for", lambda parity, l: mutated)
        monkeypatch.setattr(qwrp, "generators", lambda w: gens)
        report = verify_relations(w)
        for rel, res, entry in zip(mutated, report.results, report.as_dict()["relations"], strict=True):
            lhs, rhs = eval_side(rel.lhs, gens), eval_side(rel.rhs, gens)
            assert res.passed == (lhs == rhs) and (res.lhs, res.rhs) == (lhs, rhs), rel.rid
            assert (entry["lhs_normal_form"], entry["rhs_normal_form"]) == (str(lhs), str(rhs)), rel.rid
            if not res.passed:
                found.add(rel.rid)
    assert found == failing


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


def test_failed_relation_is_reported_not_raised(monkeypatch):
    # a deliberately wrong generator set: c = z1 gives c c* = a, not 1 - a
    broken = GeneratorSet(weights=Weights(2, 1), a=AlgebraElement.monomial(0, 2, 1), c=AlgebraElement.monomial(0, 1, 0))
    monkeypatch.setattr(qwrp, "generators", lambda w: broken)
    report = verify_relations(Weights(2, 1))
    rel = relations_for("even", 1)[2]   # c c* = 1 - a
    res = report.results[2]
    assert res.rid == rel.rid == "even.3"
    assert res.passed is False and report.all_pass is False
    assert res.lhs == eval_side(rel.lhs, broken)
    assert res.rhs == eval_side(rel.rhs, broken)
    assert res.lhs != res.rhs
    entry = report.as_dict()["relations"][2]
    assert entry["lhs_normal_form"] == str(eval_side(rel.lhs, broken))
    assert entry["rhs_normal_form"] == str(eval_side(rel.rhs, broken))
    assert entry["lhs_normal_form"] != entry["rhs_normal_form"]


def test_normal_forms_are_each_sides_own_text():
    # as_dict renders a passing relation once, as both sides; that must be
    # the text of each side evaluated on its own
    families = [("even", l) for l in (1, 3, 5, 7, 9)] + [("odd", l) for l in range(1, 9)]
    for parity, l in families:
        w = Weights.canonical(parity, l)
        gens = generators(w)
        report = verify_relations(w)
        entries = report.as_dict()["relations"]
        for rel, res, entry in zip(relations_for(parity, l), report.results, entries, strict=True):
            assert res.rid == entry["id"] == rel.rid
            assert res.lhs == eval_side(rel.lhs, gens) and res.rhs == eval_side(rel.rhs, gens), rel.rid
            assert entry["lhs_normal_form"] == str(eval_side(rel.lhs, gens)), rel.rid
            assert entry["rhs_normal_form"] == str(eval_side(rel.rhs, gens)), rel.rid


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


def test_factorize_raises_when_the_word_does_not_rebuild_the_monomial(monkeypatch):
    w = Weights(2, 3)
    gens = generators(w)
    monkeypatch.setattr(qwrp, "generators", lambda w: gens._replace(a=AlgebraElement.monomial(0, 2, 2)))
    with pytest.raises(RuntimeError, match="reconstructed z1\\^2 xi\\^2"):
        factorize(w, NormalMonomial(0, 2, 1))


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
            assert rebuilt == AlgebraElement.monomial(mono.m, mono.p, mono.r), (k, l, mono)


def test_factorize_completeness_oracle():
    for k, l in ((2, 3), (1, 2)):
        w = Weights(k, l)
        assert enumerate_word_monomials(w, 3 * l, 6, 6) == set(degree_zero_monomials(w, 3 * l, 6, 6))


def _seeded_word_element(gens, word):
    """word_element as a product seeded with 1 that takes every power, zero ones too."""
    out = AlgebraElement.one()
    for name, e in word.letters:
        g = gens.named(name)
        out = out * (g.star() if word.starred else g) ** e
    return out


def _two_pass_sweep(w, m_max, p_max, r_max):
    """The factorization sweep normalizing twice: each factorization by
    itself, then every generator word of the box again."""
    gens = qwrp.generators(w)
    monos = degree_zero_monomials(w, m_max, p_max, r_max)
    sound = all(_seeded_word_element(gens, word) * word.scalar == AlgebraElement.monomial(*mono)
                for mono, word in ((mono, qwrp.factorize(w, mono)) for mono in monos))
    if not sound:
        return monos, False, False
    names = ("c", "a") if w.parity == "even" else ("b", "a", "c")
    tops = (m_max // w.l, p_max // 2) if w.parity == "even" else (m_max // w.l, p_max // 2, m_max // (2 * w.l))
    found = set()
    for exps in itertools.product(*(range(top + 1) for top in tops)):
        mono, coef = _seeded_word_element(gens, GeneratorWord(tuple(zip(names, exps)), ONE)).sole_term()
        if coef.as_q_power() is None:
            raise RuntimeError(f"word {exps} is off the q-powers")
        if 0 <= mono.m <= m_max and mono.p <= p_max and abs(mono.r) <= r_max:
            found.add(mono)
    return monos, True, found == set(monos)


def _random_weights(rng, count):
    out = []
    while len(out) < count:
        k, l = rng.randint(-7, 7), rng.randint(1, 6)
        if gcd(abs(k), l) == 1:
            out.append(Weights(k, l))
    return out


def test_skipping_zero_powers_changes_no_word():
    rng = make_rng(41)
    for w in _random_weights(rng, 12):
        gens = generators(w)
        names = ("a", "c") if w.parity == "even" else ("a", "b", "c")
        words = [tuple((name, 0) for name in names), ()]
        words += [tuple((rng.choice(names), rng.choice((0, 0, 1, 2, 3))) for _ in range(rng.randint(1, 5)))
                  for _ in range(20)]
        for letters in words:
            for starred in (False, True):
                word = GeneratorWord(letters, qpow(0), starred)
                assert word_element(gens, word) == _seeded_word_element(gens, word), (w, word)
        assert word_element(gens, GeneratorWord(words[0], qpow(0))) == AlgebraElement.one()


def test_the_one_table_sweep_matches_the_two_pass_route():
    rng = make_rng(42)
    for w in _random_weights(rng, 16):
        l = w.l
        for box in ((2 * l, 4, 4), (3 * l, rng.randint(0, 7), rng.randint(0, 6)), (rng.randint(0, 4 * l), 5, 2)):
            monos, sound, complete = factorization_sweep(w, *box)
            assert (monos, sound, complete) == _two_pass_sweep(w, *box), (w, box)
            assert sound and complete, (w, box)


def _reordered_factorize(w, mono):
    """factorize with the letters reversed and the scalar that keeps the
    word right: a word the sweep's table does not hold."""
    word = factorize(w, mono)
    gens = generators(w)
    reordered = GeneratorWord(tuple(reversed(word.letters)), qpow(0))
    shift = (word_element(gens, word).sole_term()[1].as_q_power()
             - word_element(gens, reordered).sole_term()[1].as_q_power())
    return reordered._replace(scalar=word.scalar * qpow(shift))


def test_a_word_outside_the_table_is_normalized_by_the_engine(monkeypatch):
    calls = []
    engine = qwrp.word_element
    monkeypatch.setattr(qwrp, "word_element", lambda gens, word: calls.append(word) or engine(gens, word))
    for w, box in ((Weights(2, 3), (6, 4, 4)), (Weights(1, 2), (4, 4, 4)), (Weights(-3, 1), (3, 6, 5))):
        calls.clear()
        monos, sound, complete = factorization_sweep(w, *box)
        table_words = len(calls)
        assert sound and complete and len(monos) > 1, w
        # reversed letters are out of the table (a one-letter word reads the same)
        monkeypatch.setattr(qwrp, "factorize", _reordered_factorize)
        calls.clear()
        assert factorization_sweep(w, *box) == _two_pass_sweep(w, *box) == (monos, True, True)
        assert len(calls) == table_words + len(monos)
        # a wrong scalar on a word outside the table is still caught
        monkeypatch.setattr(qwrp, "factorize", lambda w, mono: _reordered_factorize(w, mono)._replace(scalar=qpow(7)))
        assert factorization_sweep(w, *box) == _two_pass_sweep(w, *box) == (monos, False, False)
        monkeypatch.setattr(qwrp, "factorize", factorize)


@pytest.mark.parametrize("mutate", [
    lambda word: word._replace(scalar=word.scalar * qpow(1)),
    lambda word: word._replace(scalar=word.scalar * 2),
    lambda word: word._replace(letters=word.letters[:-1] + ((word.letters[-1][0], word.letters[-1][1] + 1),)),
    lambda word: word._replace(letters=word.letters[:-1] + ((word.letters[-1][0], word.letters[-1][1] + 9),)),
    lambda word: word._replace(starred=True),
], ids=["scalar-q", "scalar-2", "exponent+1", "exponent+9", "starred"])
def test_a_wrong_factorization_is_unsound(monkeypatch, mutate):
    monkeypatch.setattr(qwrp, "factorize", lambda w, mono: mutate(factorize(w, mono)))
    for w in (Weights(2, 3), Weights(1, 1), Weights(1, 2)):
        assert factorization_sweep(w, 2 * w.l, 4, 4)[1:] == (False, False), w


def test_the_factorization_of_another_word_is_unsound(monkeypatch):
    # each box word gets the next one's factorization, scalar included: a
    # word the table holds, with that word's own q-power
    for w in (Weights(2, 3), Weights(1, 1), Weights(1, 2)):
        monos = degree_zero_monomials(w, 2 * w.l, 4, 4)
        swapped = dict(zip(monos, monos[1:] + monos[:1]))
        monkeypatch.setattr(qwrp, "factorize", lambda w, mono: factorize(w, swapped[mono]))
        assert factorization_sweep(w, 2 * w.l, 4, 4) == _two_pass_sweep(w, 2 * w.l, 4, 4) == (monos, False, False)


def test_a_word_off_the_q_powers_still_raises_once_sound(monkeypatch):
    # negating a gives odd powers of a the coefficient -q^e; factorizations
    # that carry the matching sign stay sound, and the completeness pass
    # then meets the words that are not q-powers
    w = Weights(1, 2)
    gens = generators(w)
    flipped = gens._replace(a=-gens.a)
    clean = {mono: factorize(w, mono) for mono in degree_zero_monomials(w, 2 * w.l, 4, 4)}

    def signed_factorize(w, mono):
        word = clean[mono]
        return word._replace(scalar=word.scalar * (-1) ** dict(word.letters)["a"])

    monkeypatch.setattr(qwrp, "factorize", signed_factorize)
    monkeypatch.setattr(qwrp, "generators", lambda w: flipped)
    for sweep in (factorization_sweep, _two_pass_sweep):
        with pytest.raises(RuntimeError, match="q-power"):
            sweep(w, 2 * w.l, 4, 4)
    with pytest.raises(RuntimeError, match="did not normalize to a q-power multiple"):
        enumerate_word_monomials(w, 2 * w.l, 4, 4)
    # a word of two terms is refused as before
    monkeypatch.setattr(qwrp, "generators", lambda w: gens._replace(a=gens.a + 1))
    with pytest.raises(ValueError, match="not a single term"):
        enumerate_word_monomials(w, 2 * w.l, 4, 4)


def test_generators_are_built_once_per_weight_pair():
    assert generators(Weights(1, 3)) is generators(Weights(1, 3))
    assert generators(Weights(2, 5)) is generators(Weights._make((2, 5)))
    assert generators(Weights(2, 5)) is not generators(Weights(4, 5))
    for _ in range(2):
        with pytest.raises(ValueError):
            generators(Weights(2, 4))
        with pytest.raises(ValueError):
            generators(Weights(3, 0))
        with pytest.raises(AttributeError):
            generators((1, 3))      # equal to a cached pair, but not a Weights


def test_degree_zero_monomials_match_the_scan():
    for k, l in ((1, 14), (2, 25), (-1, 3), (-3, 4), (2, 3), (1, 2), (3, 2), (1, 1)):
        w = Weights(k, l)
        for box in ((2 * l, 4, 4), (3 * l, 6, 6), (0, 0, 0), (l, 2 * l, 1), (6 * l, 1, 1), (5, 9, 0)):
            assert degree_zero_monomials(w, *box) == degree_zero_scan(w, *box), (k, l, box)


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
            assert rebuilt == AlgebraElement.monomial(conj.m, conj.p, conj.r), (k, l, conj)


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
