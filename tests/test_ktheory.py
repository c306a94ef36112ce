"""Index maps and lifts from integer exponents, K-group assembly from gcd(delta), pullbacks."""

import math
import tracemalloc

import numpy as np
import pytest

from qrwp import (
    GroupDescriptor,
    IndexMap,
    KGroups,
    assemble_kgroups,
    expected_kgroups,
    index_map,
    ktheory_report,
    pullback_check,
)
from qrwp import fockrep
from qrwp.fockrep import kernel_conditions_exact, modulus_kernels, rep_generator
from qrwp.qwrp import RelationSide

from helpers import array_form_weights, cokernel_map_check, dense, dense_kernel_dim, kernel_columns, make_rng

Q = 0.5


# -- coisometry lifts ---------------------------------------------------


def test_shift_structure():
    # the lift is the bare shift past the kernel of c, so it lowers out the
    # columns on which c* c vanishes: e_0 (even) or e_0, e_1 (odd), which
    # are the zero columns of c itself
    for parity, l, kernel in (("even", 3, (0,)), ("odd", 2, (0, 1))):
        for r in range(1, l + 1):
            assert modulus_kernels(parity, l, "c")[r - 1] == kernel, (parity, r)
            c = dense(rep_generator(parity, l, r, Q, 32, "c"))
            assert tuple(np.flatnonzero(~c.any(axis=0))) == kernel, (parity, r)


def test_formula_reconstruction_agrees_with_shift():
    # exactly: c's squared weight form is the modulus side, so the lift
    # c (c* c)^{-1/2} is the bare shift; numerically: c's weights divided
    # by the square root of c* c evaluated in floats are 1 past the kernel
    for parity, l in (("even", 3), ("even", 5), ("odd", 3)):
        assert ktheory_report(parity, l, Q, 128).lift_exact, (parity, l)
        for r in range(1, l + 1):
            diag, k = kernel_columns(parity, l, r, Q, 128, "c")
            quotient = np.asarray(rep_generator(parity, l, r, Q, 128, "c").weights[:128 - k]) / np.sqrt(diag[k:])
            assert np.max(np.abs(quotient - 1.0)) < 1e-10, (parity, l, r)


def test_ktheory_reads_no_truncation():
    # the index map and the lift are read off integer exponents, so N is
    # only echoed, even where it holds fewer columns than 4l
    for dim in (4, 8, 128):
        report = ktheory_report("odd", 5, Q, dim)
        assert report.all_pass and report.delta.entries == (2,) * 5, dim
        assert report.as_dict()["N"] == dim


# -- index maps -----------------------------------------------------------


def test_index_map_values():
    assert index_map("even", 3).entries == (1, 1, 1)
    assert index_map("odd", 2).entries == (2, 2)
    assert index_map("even", 1).entries == (1,)   # the Toeplitz index
    for parity, l in (("even", 2), ("odd", 0), ("sideways", 1)):
        with pytest.raises(ValueError):
            index_map(parity, l)


def test_index_map_matches_dense_svd_rank():
    # entry r is the kernel dimension of the truncated c, by singular values
    for dim in (16, 48):
        for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
            for l in ls:
                ranks = tuple(dense_kernel_dim(dense(rep_generator(parity, l, r, Q, dim, "c")), 1e-8)
                              for r in range(1, l + 1))
                assert index_map(parity, l).entries == ranks, (parity, l, dim)


def test_index_map_stability():
    # the map reads no truncation, so doubling N cannot move it
    for parity, l in (("even", 3), ("odd", 2)):
        report = ktheory_report(parity, l, Q, 64)
        assert report.delta == ktheory_report(parity, l, Q, 128).delta
        assert report.as_dict()["index_map_stable"] is True


def test_kernel_checks_follow_the_modulus_relation(monkeypatch):
    # c-* c- = prod(1 - q^{-2m} a) with its factors moved to m = 0..2l-1:
    # the zeros on e_n move with them, and every check that reads the
    # kernel must notice
    relations_for = fockrep.relations_for

    def mutated(parity, l):
        shifted = RelationSide(0, (("prod", tuple(range(0, -2 * l, -1))),))
        return tuple(rel._replace(rhs=shifted) if rel.rid == "odd.11" else rel
                     for rel in relations_for(parity, l))

    assert index_map("odd", 2).entries == (2, 2)
    monkeypatch.setattr(fockrep, "relations_for", mutated)
    assert not kernel_conditions_exact("odd", 2)
    assert index_map("odd", 2).entries == (2, 1)
    report = ktheory_report("odd", 2, Q, 64)
    assert not report.lift_exact
    assert not report.all_pass
    assert not report.cokernel_map_ok


def test_lift_check_reads_the_weight_form(monkeypatch):
    # with one factor of c's weight form dropped, c (c* c)^{-1/2} is no longer
    # the bare shift; the pullback still decays, so only the lift fails.  The
    # lift and the pullback both read fockrep.generator_form
    generator_form = fockrep.generator_form

    def mutated(parity, l, gen):
        form = generator_form(parity, l, gen)
        return form._replace(factors=form.factors[:-1]) if gen == "c" else form

    before = {parity: pullback_check(parity, l, Q) for parity, l in (("even", 3), ("odd", 2))}
    monkeypatch.setattr(fockrep, "generator_form", mutated)
    for parity, l in (("even", 3), ("odd", 2)):
        report = ktheory_report(parity, l, Q, 64)
        assert not report.lift_exact, parity
        assert report.pullback["all_pass"] and report.cokernel_map_ok, parity
        # the pullback reads the mutated table: its weight defects move
        assert report.pullback["per_r"] != before[parity]["per_r"], parity
        assert not report.all_pass, parity


def test_negative_modulus_factor_is_an_error(monkeypatch):
    # c-* c- with an extra factor (1 - q^{-2(2l+2)} a): on e_2 of label 1 that
    # factor is negative and none vanishes, which c* c >= 0 forbids
    relations_for = fockrep.relations_for

    def mutated(parity, l):
        longer = RelationSide(0, (("prod", tuple(range(-1, -2 * l - 1, -1)) + (-2 * l - 2,)),))
        return tuple(rel._replace(rhs=longer) if rel.rid == "odd.11" else rel
                     for rel in relations_for(parity, l))

    monkeypatch.setattr(fockrep, "relations_for", mutated)
    with pytest.raises(ArithmeticError, match="non-kernel column 2"):
        index_map("odd", 2)


# -- K-group assembly -------------------------------------------------------


def test_assemble_kgroups_examples():
    groups = assemble_kgroups(IndexMap("even", 3, (1, 1, 1)))
    assert groups.k0 == GroupDescriptor(3)
    assert groups.k1 == GroupDescriptor(0)

    groups = assemble_kgroups(IndexMap("odd", 2, (2, 2)))
    assert groups.k0 == GroupDescriptor(2, (2,))
    assert groups.k1 == GroupDescriptor(0)

    groups = assemble_kgroups(IndexMap("even", 1, (1,)))
    assert groups.k0 == GroupDescriptor(1)
    assert groups.k1 == GroupDescriptor(0)

    # the Smith form of a column is its gcd, whatever the signs
    for delta, k0 in (((-2, 2), GroupDescriptor(2, (2,))),
                      ((3, 6, 9), GroupDescriptor(3, (3,))),
                      ((0, 5), GroupDescriptor(2, (5,)))):
        groups = assemble_kgroups(IndexMap("odd", len(delta), delta))
        assert groups.k0 == k0, delta
        assert groups.k1 == GroupDescriptor(0), delta


def test_zero_index_map_reported_honestly():
    groups = assemble_kgroups(IndexMap("even", 2, (0, 0)))
    assert groups.k1 == GroupDescriptor(1)      # kernel is all of Z
    assert groups.k0 == GroupDescriptor(3)      # Z^2 (+) Z


def test_expected_kgroups_specializations():
    # l = 1 even: Toeplitz algebra K-groups
    assert expected_kgroups("even", 1) == KGroups(GroupDescriptor(1), GroupDescriptor(0))
    # l = 1 odd: the quantum real projective plane
    assert expected_kgroups("odd", 1) == KGroups(GroupDescriptor(1, (2,)), GroupDescriptor(0))


def test_rank_bookkeeping():
    # rank K_0 minus rank coker(delta) is the free Z summand split off the quotient
    for parity in ("even", "odd"):
        for l in (1, 2, 3, 4, 5):
            if parity == "even" and l % 2 == 0:
                continue
            delta = IndexMap(parity, l, tuple([1 if parity == "even" else 2] * l))
            groups = assemble_kgroups(delta)
            coker_rank = l - 1
            assert groups.k0.free_rank - coker_rank == 1


def test_group_descriptor_rendering():
    assert str(GroupDescriptor(0)) == "0"
    assert str(GroupDescriptor(1)) == "Z"
    assert str(GroupDescriptor(3)) == "Z^3"
    assert str(GroupDescriptor(2, (2,))) == "Z2 (+) Z^2"


# -- cokernel map enumeration -------------------------------------------------


def test_cokernel_map_bijections():
    for l in (1, 2, 3, 4):
        assert cokernel_map_check("even", l)
        assert cokernel_map_check("odd", l)


# -- pullback decay -------------------------------------------------------------


def test_pullback_decay_even_l3():
    report = pullback_check("even", 3, Q, 1e-10)
    assert report["all_pass"]
    for entry in report["per_r"]:
        assert entry["monotone_decay"]
        assert entry["n0"] is not None and entry["n0"] <= 35
        assert entry["tail_max"] < 1e-10
    assert all(pair["pass"] for pair in report["pairwise"])


def test_pullback_decay_odd():
    report = pullback_check("odd", 2, Q, 1e-10)
    assert report["all_pass"]


@pytest.mark.parametrize("q", (0.9, 0.97, 0.995))
def test_ktheory_near_q_one_sizes_the_pullback(q):
    # the weight defects decay like q^{2ln}: at q = 0.995, odd l = 1 the
    # tail starts near column 2300, far past the truncation given
    for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
        for l in ls:
            report = ktheory_report(parity, l, q, 128)
            assert report.all_pass, (parity, l, report.pullback["N"])


@pytest.mark.parametrize("q", (1e-20, 1e-12, 1e-8))
def test_ktheory_at_tiny_q(q):
    # the index map reads integers; its float oracle must agree, although in
    # a kernel column a factor 1 - q^{2(ln+r-m)} overflows to -inf and only
    # the column's exact zero factor keeps c* c exactly zero there
    for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
        for l in ls:
            report = ktheory_report(parity, l, q, 128)
            assert report.all_pass, (parity, l)
            assert report.delta.entries == (1 if parity == "even" else 2,) * l
            for r in range(1, l + 1):
                assert kernel_columns(parity, l, r, q, 128, "c")[1] == report.delta.entries[r - 1]


def test_pullback_near_q_one_allocates_no_tail():
    # at q = 1 - 1e-9 the tail starts past column 2^30; the search
    # evaluates single columns, so nothing grows with it
    tracemalloc.start()
    try:
        report = ktheory_report("odd", 1, 1 - 1e-9, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_pass
    assert report.pullback["N"] > 2 ** 30
    assert peak < 1 << 20


def test_pullback_at_the_smallest_tolerance():
    # at eps = 5e-324 the ratio eps / 2T underflows to 0, so the tail bound
    # must take log(eps) - log(2T)
    report = ktheory_report("odd", 1, 0.5, 128, 5e-324)
    assert report.pullback["all_pass"]
    # the lift check is exact, so no tolerance is below its rounding
    assert report.lift_exact
    assert report.all_pass
    for eps in (0.0, -1e-10, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            pullback_check("odd", 1, Q, eps)


def test_pullback_gate_reads_the_weight_form(monkeypatch):
    # with a q-power h = 1 on c the weights tend to 0, not to 1
    generator_form = fockrep.generator_form

    def mutated(parity, l, gen):
        form = generator_form(parity, l, gen)
        return form._replace(h=1) if gen == "c" else form

    monkeypatch.setattr(fockrep, "generator_form", mutated)
    report = ktheory_report("odd", 2, Q, 64)
    assert not report.lift_exact
    for entry in report.pullback["per_r"]:
        assert entry == {"r": entry["r"], "monotone_decay": False, "n0": None,
                         "tail_max": 1.0, "pass": False}
    assert not report.pullback["all_pass"]
    assert not report.all_pass


@pytest.mark.parametrize("q", (0.02, 0.5, 0.97, 0.995))
def test_pullback_matches_the_dense_weights(q):
    # each n0 and tail_max is the first weight defect below eps in c's
    # weight vector, built on a truncation that holds every n0
    eps = 1e-10
    for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
        for l in ls:
            report = pullback_check(parity, l, q, eps)
            form = fockrep.generator_form(parity, l, "c")
            for entry in report["per_r"]:
                x = fockrep.a_exponents(l, entry["r"], np.arange(form.offset, report["N"] + 1))
                defect = 1.0 - array_form_weights(form, q, x)
                first = int(np.flatnonzero(defect < eps)[0])
                assert entry["n0"] == first + form.offset, (parity, l, entry)
                assert entry["tail_max"] == defect[first], (parity, l, entry)


def test_pullback_verdict_is_the_q_power_of_c():
    # why every pullback verdict reads h == 0: the search stops below eps,
    # and past every label's stop two weights in (1 - eps, 1] differ by
    # less than 2 eps (exactly, by Sterbenz's lemma, for eps <= 1/2)
    rng = make_rng(40)
    draws = [(5e-324, 5e-324), (1 - 2 ** -53, 5e-324), (5e-324, 0.9), (1 - 2 ** -53, 0.9)]
    draws += [(10 ** rng.uniform(-323.3, -1e-4) if rng.random() < 0.5 else 1 - 10 ** rng.uniform(-15.95, -1e-4),
               10 ** rng.uniform(-323.3, math.log10(0.9))) for _ in range(156)]
    for i, (q, eps) in enumerate(draws):
        parity = ("even", "odd")[i % 2]
        l = rng.randrange(1, 30, 2) if parity == "even" else rng.randrange(1, 30)
        report = pullback_check(parity, l, q, eps)
        assert report["all_pass"], (parity, l, q, eps)
        assert all(entry["pass"] and entry["tail_max"] < eps for entry in report["per_r"]), (parity, l, q, eps)
        assert all(pair["pass"] and pair["tail_max"] < 2 * eps for pair in report["pairwise"]), (parity, l, q, eps)


# -- assembled report --------------------------------------------------------


def test_ktheory_report_roundtrip():
    report = ktheory_report("odd", 2, Q, 64, 1e-10)
    assert report.all_pass
    payload = report.as_dict()
    assert payload["index_map"] == [2, 2]
    assert payload["k0"] == {"free_rank": 2, "torsion": [2]}
    assert payload["k1"] == {"free_rank": 0, "torsion": []}
    assert payload["kgroups_match"] is True
