"""Weighted-shift representations: generators, residuals, intertwiner."""

import itertools
import json
import tracemalloc

import numpy as np
import pytest

from qrwp import (
    AlgebraElement,
    NormalMonomial,
    WeightedShift,
    ktheory_report,
    relations_for,
    intertwiner_check,
    rep_generator,
    rep_report,
)
from qrwp import fockrep
from qrwp.cli import EXIT_CHECK_FAILED, EXIT_OK, main
from qrwp.fockrep import (
    SideForm,
    WeightForm,
    _weighted_shift,
    a_exponents,
    compose_side,
    form_weights,
    kernel_conditions_exact,
    modulus_kernels,
    relation_residuals,
    same_operator,
    scalar_relations_exact,
    words_independent,
)
from qrwp.qwrp import RelationSide

from helpers import (SEED, array_form_weights, array_relation_residual, array_words_independent, dense,
                     dense_interior_max, dense_intertwiner_error, dense_side, faithfulness_probe, kernel_columns,
                     make_rng, rep_scalar, rep_sigma, scalar_relation_residual)

Q = 0.5


def test_instance_validation():
    with pytest.raises(ValueError):
        rep_generator("even", 2, 1, Q, 16, "a")     # even family needs odd l
    with pytest.raises(ValueError):
        rep_generator("odd", 2, 3, Q, 16, "a")      # r out of range
    with pytest.raises(ValueError):
        rep_generator("odd", 2, 1, 1.5, 16, "a")    # q out of range


def test_diagonal_generator():
    a = dense(rep_generator("even", 3, 2, Q, 8, "a"))
    assert a[0, 0] == Q ** 4                 # q^{2(l*0+r)} with r=2
    diag = np.diag(a).real
    assert np.all(diag > 0) and np.all(diag < 1)
    assert len(set(diag.tolist())) == len(diag)   # spectrum has distinct values


def test_kernel_columns_are_exact_zeros():
    c = dense(rep_generator("even", 3, 1, Q, 8, "c"))
    assert np.all(c[:, 0] == 0)
    cm = dense(rep_generator("odd", 2, 1, Q, 8, "c"))
    b = dense(rep_generator("odd", 2, 1, Q, 8, "b"))
    assert np.all(cm[:, 0] == 0) and np.all(cm[:, 1] == 0)
    assert np.all(b[:, 0] == 0)
    assert kernel_conditions_exact("odd", 5)
    assert kernel_conditions_exact("even", 5)


def test_kernel_columns_read_the_modulus_relation():
    # c*c vanishes on e_0 (even) or e_0, e_1 (odd) and nowhere after
    for parity, l, kernel in (("even", 3, 1), ("odd", 2, 2)):
        for r in range(1, l + 1):
            diag, k = kernel_columns(parity, l, r, Q, 32, "c")
            assert k == kernel and np.all(diag[k:] > 0), (parity, r)
            c = dense(rep_generator(parity, l, r, Q, 32, "c"))
            assert np.max(np.abs(np.diag(c.conj().T @ c) - diag)) < 1e-14
    # b*b = a prod(1 - q^{-2m} a): a underflows to 0.0 deep in the tail,
    # and only the leading zeros count
    diag, k = kernel_columns("odd", 5, 1, Q, 256, "b")
    assert k == 1 and diag[1] > 0 and diag[200] == 0.0
    with pytest.raises(ValueError):
        kernel_columns("even", 3, 1, Q, 8, "b")
    # the integer kernel agrees with the float scan's leading zeros
    for q in (0.02, 0.5, 0.97):
        for parity, ls in (("even", (1, 3, 5, 7)), ("odd", range(1, 8))):
            for l in ls:
                for r in range(1, l + 1):
                    for gen in ("c",) if parity == "even" else ("b", "c"):
                        k = kernel_columns(parity, l, r, q, 64, gen)[1]
                        assert modulus_kernels(parity, l, gen)[r - 1] == tuple(range(k)), (q, parity, l, r, gen)


def test_generators_are_banded():
    for parity, l in (("even", 3), ("odd", 2)):
        names = ["a", "c"] if parity == "even" else ["a", "b", "c"]
        for name in names:
            op = rep_generator(parity, l, 1, Q, 32, name)
            rows, cols = np.nonzero(dense(op))
            assert abs(op.offset) <= 2 and np.all(cols - rows == op.offset)


def test_rep_generator_zeroes_the_rows_outside():
    # row n reads column n + offset: 0.0 where that column lies outside
    # 0..N-1, the weight form's value on it everywhere else
    dim = 8
    for parity, ls in (("even", (1, 3)), ("odd", (1, 2))):
        for l in ls:
            for gen in ("a", "c") if parity == "even" else ("a", "b", "c"):
                form = fockrep.generator_form(parity, l, gen)
                for r in range(1, l + 1):
                    weights = rep_generator(parity, l, r, Q, dim, gen).weights
                    assert type(weights) is tuple and all(type(w) is float for w in weights)
                    assert weights == tuple(form_weights(form, Q, a_exponents(l, r, n + form.offset))
                                            if 0 <= n + form.offset < dim else 0.0
                                            for n in range(dim)), (parity, l, gen, r)


def test_b_rejected_in_even_family():
    with pytest.raises(ValueError):
        rep_generator("even", 3, 1, Q, 8, "b")


def test_scalar_representation():
    vals = rep_scalar(0.0, "even")
    assert vals == {"a": 0j, "c": 1 + 0j}
    vals = rep_scalar(0.5, "even")
    assert abs(vals["c"] - (-1)) < 1e-15     # e^{i pi}
    vals = rep_scalar(0.0, "odd")
    assert vals == {"a": 0j, "b": 0j, "c": 1 + 0j}
    with pytest.raises(ValueError):
        rep_scalar(1.0, "even")


def test_scalar_representation_satisfies_relations():
    for parity, l in (("even", 3), ("odd", 2)):
        for theta in (0.0, 0.3, 0.5):
            assert scalar_relation_residual(parity, l, theta, Q) < 1e-12


def test_circle_check_matches_the_float_oracle():
    # every relation holds on the whole circle; the float oracle agrees at
    # 101 points of it, rounding aside
    for parity, ls in (("even", range(1, 10, 2)), ("odd", range(1, 10))):
        for l in ls:
            assert scalar_relations_exact(parity, l), (parity, l)
            for i in range(101):
                assert scalar_relation_residual(parity, l, i / 101, Q) < 1e-12, (parity, l, i)


def test_circle_check_fails_a_winding_mutation(monkeypatch):
    # odd.10's left side c c* read as twenty c's: u^20 = 1 at the four
    # sample points theta in {0, .25, .5, .8}, but not on the whole circle
    relations_for = fockrep.relations_for
    twenty = RelationSide(0, (("gen", "c", False),) * 20)

    def mutated(parity, l):
        return tuple(rel._replace(lhs=twenty) if rel.rid == "odd.10" else rel
                     for rel in relations_for(parity, l))

    monkeypatch.setattr(fockrep, "relations_for", mutated)
    for l in (1, 2, 3):
        assert not scalar_relations_exact("odd", l)
        assert max(scalar_relation_residual("odd", l, theta, Q) for theta in (0.0, 0.25, 0.5, 0.8)) < 1e-10
        assert max(scalar_relation_residual("odd", l, i / 101, Q) for i in range(101)) > 1.0
        report = rep_report("odd", l, Q, 64)
        assert not report.circle and report.intertwines and not report.all_pass


def test_ambient_rep_examples():
    # xi acts as the identity
    op = dense(rep_sigma(NormalMonomial(0, 0, 1), Q, 8))
    assert np.array_equal(op, np.eye(8))
    # z1 on e_0 has weight q^{p(n+1)} = q
    op = dense(rep_sigma(NormalMonomial(0, 1, 0), Q, 8))
    assert op[0, 0] == Q
    # z0 annihilates e_0
    op = dense(rep_sigma(NormalMonomial(1, 0, 0), Q, 8))
    assert np.all(op[:, 0] == 0)
    with pytest.raises(ValueError):
        rep_sigma(NormalMonomial(-1, 0, 0), Q, 8)


def test_ambient_rep_is_multiplicative_on_interior():
    rng = make_rng(30)
    dim = 48
    for _ in range(25):
        x = AlgebraElement.monomial(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2))
        y = AlgebraElement.monomial(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2))
        # z0-family words multiply to one word times a q-power
        mono, coef = (x * y).sole_term()
        lhs = coef.evaluate(Q) * dense(rep_sigma(mono, Q, dim))
        rhs = dense(rep_sigma(x.sole_monomial(), Q, dim)) @ dense(rep_sigma(y.sole_monomial(), Q, dim))
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_negative_radicand_is_hard_error():
    # a mistyped form: on column 0 of the ambient representation (x = 2)
    # the factor s = -2 has the radicand 1 - q^-2
    with pytest.raises(ArithmeticError):
        _weighted_shift(WeightForm(0, 0, (-2,)), Q, 1, 1, 8)


@pytest.mark.parametrize("q", (1e-300, 0.02, 0.5, 0.97, 1 - 1e-9))
def test_scalar_weights_match_the_array_oracle(q):
    # one column at a time on Python floats against numpy's power on arrays,
    # within 1e-14 relative.  The two pows may differ in the last bit of
    # p = q^{2s + x}, and a radicand 1 - p magnifies that by p / (1 - p)
    # (5e8 at q = 1 - 1e-9), so the bound scales with their sum
    for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
        for l in ls:
            for gen in ("a", "c") if parity == "even" else ("a", "b", "c"):
                form = fockrep.generator_form(parity, l, gen)
                for r in range(1, l + 1):
                    columns = range(form.offset, form.offset + 64)
                    scalar = np.array([form_weights(form, q, a_exponents(l, r, n)) for n in columns])
                    x = a_exponents(l, r, np.array(columns))
                    array = array_form_weights(form, q, x)
                    powers = [q ** (2 * s + x) for s in form.factors]
                    condition = 1.0 + sum(p / (1.0 - p) for p in powers)
                    scale = np.maximum(np.abs(array), np.finfo(float).tiny)
                    assert np.max(np.abs(scalar - array) / scale / condition) <= 1e-14, (parity, l, gen, r)


def test_relation_residuals_small_config():
    for parity, l in (("even", 3), ("odd", 2)):
        entries = relation_residuals(parity, l, Q, 64)
        assert entries
        assert all(e.passed for e in entries)
        assert max(e.residual for e in entries) == 0.0
    with pytest.raises(ValueError, match="the even family requires odd l"):
        relation_residuals("even", 2)


def test_one_operator_needs_exact_zeros_where_one_side_stops():
    # c+* c+ (even, l = 1) is 0 on row 0, where c+ lowers e_0 out; the side
    # prod(1 - q^-2 a) reaches row 0, and its factor vanishes there for r = 1
    (rel,) = [rel for rel in relations_for("even", 1) if rel.rid == "even.4"]
    lhs, rhs = compose_side(rel.lhs, "even", 1), compose_side(rel.rhs, "even", 1)
    assert (lhs, rhs) == (SideForm(0, 0, 0, (-1, -1), 1), SideForm(0, 0, 0, (-1, -1), 0))
    assert same_operator(lhs, rhs, 1, 1) and same_operator(rhs, lhs, 1, 1)
    assert not same_operator(rhs, lhs, 2, 2)                      # -1 + 2 != 0 on row 0
    assert not same_operator(rhs, rhs._replace(lowest=2), 1, 1)   # -1 + 1 + 1 != 0 on row 1


def test_intertwiner_even_a_is_exact():
    assert intertwiner_check("even", 3) == {"a": True, "c": True}


def test_intertwiner_relabeling_for_l1():
    # l = 1: the relabeling e_n^1 -> e_n is the identity
    assert all(intertwiner_check("even", 1).values())


def test_intertwiner_odd_b():
    assert intertwiner_check("odd", 2)["b"] is True


@pytest.mark.parametrize("q", (0.02, 0.5, 0.97))
def test_intertwiner_matches_the_dense_oracle(q):
    # Phi_r pi_r(g) = pi(j(g)) Phi_r with Phi_r a dense 0/1 matrix
    for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
        for l in ls:
            assert set(intertwiner_check(parity, l).values()) == {True}, (parity, l)
            errors = dense_intertwiner_error(parity, l, q, 64)
            assert max(errors.values()) < 1e-13, (parity, l, errors)


def test_rep_check_builds_no_weighted_shift(monkeypatch, capsys):
    # every rep-check verdict reads the weight table, not an operator
    def refuse(*args):
        raise AssertionError("a weighted shift was built")

    monkeypatch.setattr(fockrep, "_weighted_shift", refuse)
    for l in range(1, 6):
        assert rep_report("odd", l, Q, 64).all_pass, l
    assert main(["report-all", "--lmax", "3"]) == EXIT_OK
    assert "overall: PASS" in capsys.readouterr().out


def test_faithfulness_probe_examples():
    one = NormalMonomial(0, 0, 0)
    z1 = NormalMonomial(0, 1, 0)
    z1_2 = NormalMonomial(0, 2, 0)
    assert faithfulness_probe([one, z1, z1_2], Q, 64)
    a = NormalMonomial(0, 2, 1)
    assert not faithfulness_probe([a, a], Q, 64)          # duplicate
    words = [NormalMonomial(1, 0, 0), NormalMonomial(1, 1, 0), NormalMonomial(1, 2, 0)]
    assert faithfulness_probe(words, Q, 64)
    # the central unitary acts trivially, so words differing only in the
    # xi power have identical images
    assert not faithfulness_probe([NormalMonomial(0, 1, 0), NormalMonomial(0, 1, 2)], Q, 64)


def test_words_independent_matches_the_probe():
    # z0 powers near N leave a block fewer columns than words; r is ignored
    rng = make_rng(33)
    verdicts = {True: 0, False: 0}
    overfull = 0
    for _ in range(400):
        words = [NormalMonomial(rng.choice((0, 1, 2, 62, 63, 64)), rng.randint(0, 4), rng.randint(-1, 1))
                 for _ in range(rng.randint(1, 6))]
        exact = words_independent(words, 64)
        assert exact == faithfulness_probe(words, Q, 64), words
        verdicts[exact] += 1
        overfull += not exact and len({(w.m, w.p) for w in words}) == len(words)
    assert min(verdicts.values()) >= 100 and overfull >= 20, (verdicts, overfull)


@pytest.mark.parametrize("dim", [6, 8])
def test_words_independent_counts_columns_like_the_array_oracle(dim):
    # offsets past N leave no column (their vanishing columns reach past N),
    # one below N leaves one; p = 1 twice (xi^0, xi^1) repeats h on an offset
    offsets = (0, 1, dim - 2, dim - 1, dim, dim + 2)
    words = [NormalMonomial(m, p, r) for m in offsets for p in range(2) for r in ((0, 1) if p == 1 else (0,))]
    verdicts = {True: 0, False: 0}
    for size in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(words, size):
            exact = words_independent(combo, dim)
            assert exact == array_words_independent(combo, dim) == faithfulness_probe(combo, Q, dim), combo
            verdicts[exact] += 1
    assert min(verdicts.values()) >= 200, verdicts


def test_words_independent_on_the_report_all_words():
    words = [NormalMonomial(m, p, (m - p) % 3 - 1) for m in range(4) for p in range(3)]
    assert words_independent(words, 128)
    assert array_words_independent(words, 128) and faithfulness_probe(words, Q, 128)
    extra = words + [NormalMonomial(1, 1, 1)]  # repeats (offset 1, h 1)
    assert not words_independent(extra, 128) and not array_words_independent(extra, 128)


def test_faithfulness_probe_precondition():
    words = [NormalMonomial(0, p, 0) for p in range(9)]
    with pytest.raises(ValueError):
        faithfulness_probe(words, Q, 16)


def test_rep_report_aggregates():
    report = rep_report("odd", 2, Q, 64, 1e-10)
    assert report.all_pass
    payload = report.as_dict()
    assert payload["kernel_conditions_exact"] is True
    assert payload["all_pass"] is True
    assert len(payload["relation_residuals"]) == 11 * 2


def test_weighted_shift_algebra_matches_dense():
    # the dense oracle keeps the band M[i, i + offset] inside the N x N block
    rng = np.random.default_rng(SEED + 31)
    dim = 9
    for _ in range(40):
        ka = int(rng.integers(-4, 5))
        weights = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        mat = dense(WeightedShift(ka, tuple(weights.tolist())))
        rows, cols = np.nonzero(mat)
        assert rows.size == dim - abs(ka) and np.all(cols - rows == ka)
        assert np.array_equal(mat[rows, cols], weights[rows])
    assert not np.any(dense(WeightedShift(dim + 2, (1.0,) * dim)))   # shifts everything out


def test_banded_relations_match_dense_oracle():
    # every relation holds exactly; the dense product of the generator
    # matrices agrees on the interior, and each composed side, evaluated,
    # is the band of its dense product there
    for dim in (16, 48):
        for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
            for l in ls:
                interior = dim - 2 * l
                entries = iter(relation_residuals(parity, l, Q, dim))
                for r in range(1, l + 1):
                    mats = {name: dense(rep_generator(parity, l, r, Q, dim, name))
                            for name in (("a", "c") if parity == "even" else ("a", "b", "c"))}
                    for rel in relations_for(parity, l):
                        entry = next(entries)
                        assert (entry.r, entry.rid, entry.residual, entry.passed) == (r, rel.rid, 0.0, True)
                        lhs, rhs = dense_side(rel.lhs, mats, Q), dense_side(rel.rhs, mats, Q)
                        assert dense_interior_max(lhs - rhs, interior) < 1e-12, (parity, l, r, rel.rid)
                        for side, product in ((rel.lhs, lhs), (rel.rhs, rhs)):
                            form = compose_side(side, parity, l)
                            # rows below form.lowest are 0, in the dense product too
                            rows = np.arange(form.lowest, interior - form.offset)
                            x = a_exponents(l, r, rows + form.offset)
                            band = np.zeros((dim, interior), dtype=complex)
                            band[rows, rows + form.offset] = array_form_weights(form, Q, x, form.q_exponent)
                            scale = np.maximum(np.abs(product[:, :interior]), np.finfo(float).tiny)
                            error = np.max(np.abs(band - product[:, :interior]) / scale)
                            assert error < 1e-13, (parity, l, r, rel.rid)


def _form_mutation(gen, change):
    """fockrep.generator_form with the form of gen changed."""
    original = fockrep.generator_form

    def mutated(parity, l, name):
        form = original(parity, l, name)
        return change(form) if name == gen else form
    return "generator_form", mutated


def _odd4_mutation():
    """fockrep.relations_for with odd.4's right side q^{3l} a c- read as q^{3l+1} a c-."""
    original = fockrep.relations_for

    def mutated(parity, l):
        return tuple(rel._replace(rhs=rel.rhs._replace(q_exponent=3 * l + 1))
                     if rel.rid == "odd.4" else rel for rel in original(parity, l))
    return "relations_for", mutated


# name: (patch, families, relations that fail, whether the lift holds, generators that do not intertwine)
MUTATIONS = {
    # odd.2 has one b on each side, so b's h cancels there
    "b h+1": (_form_mutation("b", lambda f: f._replace(h=f.h + 1)), {"odd": (1, 2, 3)},
              {"odd": {f"odd.{i}" for i in range(4, 10)}}, True, {"b"}),
    "odd.4 q^(3l+1)": (_odd4_mutation(), {"odd": (1, 2, 3)}, {"odd": {"odd.4"}}, True, set()),
    # c's last half-factor s moved by -1; a has no half-factor, so a c = q^-4l c a still holds
    "c s-1": (_form_mutation("c", lambda f: f._replace(factors=f.factors[:-1] + (f.factors[-1] - 1,))),
              {"even": (1, 3), "odd": (1, 2, 3)},
              {"even": {"even.3", "even.4"}, "odd": {"odd.4", "odd.5", "odd.8", "odd.9", "odd.10", "odd.11"}},
              False, {"c"}),
}


@pytest.mark.parametrize("q", (0.02, 0.5, 0.97))
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_mutated_forms_fail_exactly(capsys, monkeypatch, mutation, q):
    # the relations with the mutated piece fail at every label and every q,
    # the others still pass, and rep-check reports a failed check (exit 4),
    # not a negative radicand (exit 3).  The mutated generator no longer
    # intertwines, a verdict that reads no q: at q = 1e-6 or 1e-300 a float
    # difference of the weights would read below 1e-10
    patch, families, failing, lift, tangled = MUTATIONS[mutation]
    monkeypatch.setattr(fockrep, *patch)
    for parity, ls in families.items():
        for l in ls:
            entries = relation_residuals(parity, l, q, 64)
            for r in range(1, l + 1):
                failed = {e.rid for e in entries if e.r == r and not e.passed}
                assert failed == failing[parity], (parity, l, r)
            assert all(e.residual == 0.0 for e in entries if e.passed)
            assert ktheory_report(parity, l, q, 64).lift_exact is lift, (parity, l)
            assert {g for g, ok in intertwiner_check(parity, l).items() if not ok} == tangled, (parity, l)
            errors = dense_intertwiner_error(parity, l, q, 64)
            assert {g for g, err in errors.items() if err > 1e-13} == tangled, (parity, l, errors)
            argv = ["rep-check", "--parity", parity, "--l", str(l), "--q", str(q), "--N", "64"]
            assert main(argv) == EXIT_CHECK_FAILED
            assert "all pass: NO" in capsys.readouterr().out


# mistyped forms whose failing sides overflow at q = 1e-300
OVERFLOWS = {
    "a h=0": _form_mutation("a", lambda f: f._replace(h=0)),
    "b h-1": _form_mutation("b", lambda f: f._replace(h=f.h - 1)),
}


@pytest.mark.parametrize("mutation", list(OVERFLOWS))
def test_overflowing_measurement_reads_inf(capsys, monkeypatch, mutation):
    # a side of a failing relation overflows: the verdict is exact and alone
    # sets the exit code (4, not 3), and the measurement reads inf
    monkeypatch.setattr(fockrep, *OVERFLOWS[mutation])
    argv = ["rep-check", "--parity", "odd", "--l", "3", "--q", "1e-300", "--format", "json"]
    assert main(argv) == EXIT_CHECK_FAILED
    entries = json.loads(capsys.readouterr().out)["relation_residuals"]
    assert float("inf") in {e["residual"] for e in entries if not e["pass"]}
    assert all(e["residual"] == 0.0 for e in entries if e["pass"])


@pytest.mark.parametrize("mutation", list(MUTATIONS) + list(OVERFLOWS))
def test_failing_residuals_match_the_array_oracle(monkeypatch, mutation):
    # a failing relation's residual on lists of floats against numpy's power
    # on arrays.  At q = 0.999999 a factor 1 - q^2 cancels to 2e-6, and both
    # measurements lie up to about 2e-9 from a 60-digit evaluation
    patch, families = MUTATIONS[mutation][:2] if mutation in MUTATIONS else (OVERFLOWS[mutation], {"odd": (1, 2, 3)})
    monkeypatch.setattr(fockrep, *patch)
    checked = 0
    for q, rtol in ((1e-300, 1e-9), (0.02, 1e-9), (0.5, 1e-9), (0.97, 1e-9), (0.999999, 1e-8)):
        for parity, ls in families.items():
            for l in ls:
                sides = {rel.rid: (compose_side(rel.lhs, parity, l), compose_side(rel.rhs, parity, l))
                         for rel in fockrep.relations_for(parity, l)}
                for e in relation_residuals(parity, l, q, 64):
                    if not e.passed:
                        expected = array_relation_residual(*sides[e.rid], q, l, e.r, 64 - 2 * l)
                        assert e.residual == pytest.approx(expected, rel=rtol, nan_ok=True), (parity, l, q, e)
                        checked += 1
    assert checked >= 30, checked


@pytest.mark.parametrize("q", (0.02, 0.05, 0.1, 0.5, 0.9, 0.97, 0.995))
def test_q_sweep_residuals(q):
    rng = make_rng(32)
    for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
        for l in ls:
            entries = relation_residuals(parity, l, q, 256)
            assert all(e.passed for e in entries), (parity, l, [e for e in entries if not e.passed])
            assert all(intertwiner_check(parity, l).values()), (parity, l)
            theta = rng.random()
            assert scalar_relation_residual(parity, l, theta, q) < 1e-10, (parity, l, theta)


def test_large_truncations_stay_banded():
    # a dense N x N float64 matrix would exceed either bound on its own
    for run, dim in ((lambda: rep_report("odd", 3, Q, 4096), 4096),
                     (lambda: ktheory_report("odd", 3, Q, 1024), 1024)):
        tracemalloc.start()
        try:
            report = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_pass
        assert peak < 8 * dim * dim / 4


# -- the family table --------------------------------------------------


def test_a_q_sweep_composes_each_relation_side_once(monkeypatch):
    # the sides are q-independent, so a sweep over q composes them once,
    # whichever report reads them first
    fockrep._family_table.cache_clear()
    composed = []
    original = fockrep.compose_side

    def counting(side, parity, l):
        composed.append(side)
        return original(side, parity, l)

    monkeypatch.setattr(fockrep, "compose_side", counting)
    for q in (0.02, 0.5, 0.97):
        rep_report("odd", 2, q, 160)
        ktheory_report("odd", 2, q, 160)
    assert composed == [side for rel in relations_for("odd", 2) for side in (rel.lhs, rel.rhs)]


def test_the_intertwiner_verdict_is_read_off_the_table(monkeypatch):
    # a q sweep builds the generators once per family, and q and dim are
    # still checked on every report
    built = []
    original = fockrep.generators

    def counting(w):
        built.append(w)
        return original(w)

    monkeypatch.setattr(fockrep, "generators", counting)
    reports = [rep_report("odd", 3, q, 64) for q in (0.02, 0.5, 0.97)]
    assert len(built) == 1
    assert [r.intertwines for r in reports] == [True] * 3
    assert intertwiner_check("odd", 3) == {"a": True, "b": True, "c": True} and len(built) == 1
    for q, dim in ((1.5, 64), (0.5, 0)):
        with pytest.raises(ValueError):
            rep_report("odd", 3, q, dim)


def test_a_replaced_ambient_form_gets_its_own_intertwiner_verdict(monkeypatch):
    # no cache is cleared: a table built under the replaced ambient_form
    # is not read once it is put back
    assert all(intertwiner_check("even", 3).values())
    monkeypatch.setattr(fockrep, "ambient_form", lambda mono: fockrep.WeightForm(mono.m, 0, ()))
    assert intertwiner_check("even", 5) == {"a": False, "c": False}
    assert intertwiner_check("even", 3) == {"a": False, "c": False}
    monkeypatch.undo()
    for l in (3, 5):
        assert all(intertwiner_check("even", l).values())


def _odd11_shift():
    """fockrep.relations_for with odd.11's factors moved to m = 0..2l-1."""
    original = fockrep.relations_for

    def mutated(parity, l):
        shifted = RelationSide(0, (("prod", tuple(range(0, -2 * l, -1))),))
        return tuple(rel._replace(rhs=shifted) if rel.rid == "odd.11" else rel for rel in original(parity, l))
    return "relations_for", mutated


@pytest.mark.parametrize("patch, rep_verdicts, k_verdicts", [
    # b h+1: odd.4..odd.9 fail at every label; the kernels and the lift still hold
    (MUTATIONS["b h+1"][0], ({f"odd.{i}" for i in range(4, 10)}, True), ([2, 2], 0.0, True)),
    # odd.11 shifted: it fails, the kernel of c- moves and the lift fails
    (_odd11_shift(), ({"odd.11"}, False), ([2, 1], 1.0, False)),
])
def test_a_replaced_function_gets_its_own_table(monkeypatch, patch, rep_verdicts, k_verdicts):
    # no cache is cleared: the table is keyed by the values it reads
    clean_rep, clean_k = rep_report("odd", 2, Q, 64).as_dict(), ktheory_report("odd", 2, Q, 64).as_dict()
    assert clean_rep["all_pass"] and clean_k["all_pass"]
    monkeypatch.setattr(fockrep, *patch)
    rep, kth = rep_report("odd", 2, Q, 64).as_dict(), ktheory_report("odd", 2, Q, 64).as_dict()
    failed = {e["id"] for e in rep["relation_residuals"] if not e["pass"]}
    assert (failed, rep["kernel_conditions_exact"]) == rep_verdicts
    assert (kth["index_map"], kth["coisometry_max_deviation"], kth["all_pass"]) == k_verdicts
    assert not rep["all_pass"]
    # and the clean table is still there once the patch is gone
    monkeypatch.undo()
    assert rep_report("odd", 2, Q, 64).as_dict() == clean_rep
    assert ktheory_report("odd", 2, Q, 64).as_dict() == clean_k


def test_cached_reports_match_uncached(monkeypatch):
    # the reports read one table per family across every q, and build a
    # fresh one on every read once the memo is bypassed
    qs = (5e-324, 0.02, 0.5, 0.97, 1 - 2 ** -53)
    families = [("even", l) for l in range(1, 13, 2)] + [("odd", l) for l in range(1, 13)]

    def reports():
        return [(rep_report(parity, l, q, 64).as_dict(), ktheory_report(parity, l, q, 64).as_dict())
                for parity, l in families for q in qs]

    cached = reports()
    monkeypatch.setattr(fockrep, "_family_table", fockrep._family_table.__wrapped__)
    assert reports() == cached


def test_q_is_checked_on_every_call():
    with pytest.raises(ValueError, match=r"q must lie in \(0, 1\)"):
        relation_residuals("odd", 2, 1.5)
    assert rep_report("odd", 2, Q, 160).all_pass and ktheory_report("odd", 2, Q, 160).all_pass
    for q in (1.5, 0.0, 1.0, float("nan")):
        for report in (rep_report, ktheory_report):
            with pytest.raises(ValueError, match=r"q must lie in \(0, 1\)"):
                report("odd", 2, q, 160)


def test_a_negative_modulus_factor_raises_only_where_kernels_are_read(monkeypatch):
    # c-* c- with an extra factor (1 - q^{-2(2l+2)} a), negative on e_2 of
    # label 1: the table still holds every other verdict, and each read of
    # c-'s kernels raises again
    original = fockrep.relations_for

    def mutated(parity, l):
        longer = RelationSide(0, (("prod", tuple(range(-1, -2 * l - 1, -1)) + (-2 * l - 2,)),))
        return tuple(rel._replace(rhs=longer) if rel.rid == "odd.11" else rel for rel in original(parity, l))

    monkeypatch.setattr(fockrep, "relations_for", mutated)
    assert {e.rid for e in relation_residuals("odd", 2, Q, 64) if not e.passed} == {"odd.11"}
    assert scalar_relations_exact("odd", 2)
    assert modulus_kernels("odd", 2, "b") == ((0,), (0,))
    for read in (lambda: modulus_kernels("odd", 2, "c"), lambda: kernel_conditions_exact("odd", 2),
                 lambda: rep_report("odd", 2, Q, 64), lambda: ktheory_report("odd", 2, Q, 64)):
        with pytest.raises(ArithmeticError, match="non-kernel column 2"):
            read()
