"""Smith normal form, coisometry index maps, K-group assembly, pullbacks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from qrwp import (
    GroupDescriptor,
    IndexMap,
    KGroups,
    assemble_kgroups,
    coisometry_lift,
    cokernel_map_check,
    expected_kgroups,
    index_map,
    ktheory_report,
    pullback_check,
    smith_normal_form,
)
from qrwp import fockrep
from qrwp.fockrep import kernel_conditions_exact
from qrwp.ktheory import coisometry_pair
from qrwp.qwrp import RelationSide

from helpers import dense_defect_rank, make_rng

Q = 0.5


# -- exact integer linear algebra -------------------------------------


def _check_snf(matrix):
    u, d, v = smith_normal_form(matrix)
    m, n = len(matrix), len(matrix[0]) if matrix else 0
    prod = np.array(u, dtype=object) @ np.array(matrix, dtype=object) @ np.array(v, dtype=object)
    assert np.array_equal(prod, np.array(d, dtype=object))
    assert abs(round(np.linalg.det(np.array(u, dtype=float)))) == 1
    assert abs(round(np.linalg.det(np.array(v, dtype=float)))) == 1
    diag = [d[i][i] for i in range(min(m, n))]
    for i in range(m):
        for j in range(n):
            if i != j:
                assert d[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0
        if a:
            assert b % a == 0
        else:
            assert b == 0
    return diag


def test_smith_normal_form_known_cases():
    assert _check_snf([[1], [1], [1]]) == [1]
    assert _check_snf([[2], [2]]) == [2]
    assert _check_snf([[2, 4], [6, 8]]) == [2, 4]
    assert _check_snf([[0, 0], [0, 0]]) == [0, 0]
    assert _check_snf([[6, 10], [15, 25]]) == [1, 0]


def test_smith_normal_form_randomized():
    rng = make_rng(41)
    for _ in range(60):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        _check_snf(mat)


# -- coisometry lifts ---------------------------------------------------


def test_shift_structure():
    lifts = coisometry_lift("even", 3, Q, 32)
    assert len(lifts) == 3
    u = lifts[0].shift.matrix
    assert np.all(u[:, 0] == 0)                       # U e_0 = 0
    assert u[4, 5] == 1 and u[0, 1] == 1              # U e_n = e_{n-1}
    lifts = coisometry_lift("odd", 2, Q, 32)
    v = lifts[0].shift.matrix
    assert np.all(v[:, 0] == 0) and np.all(v[:, 1] == 0)
    assert v[0, 2] == 1 and v[3, 5] == 1              # V e_n = e_{n-2}


def test_formula_reconstruction_agrees_with_shift():
    lift = coisometry_pair("even", 3, 1, Q, 128)
    assert lift.max_interior_deviation < 1e-10
    for parity, l in (("even", 5), ("odd", 3)):
        for entry in coisometry_lift(parity, l, Q, 128):
            assert entry.max_interior_deviation < 1e-10


def test_truncation_too_small_is_rejected():
    with pytest.raises(ValueError):
        coisometry_pair("even", 3, 1, Q, 8)


# -- index maps -----------------------------------------------------------


def test_index_map_values():
    assert index_map("even", 3, Q, 64).entries == (1, 1, 1)
    assert index_map("odd", 2, Q, 64).entries == (2, 2)
    assert index_map("even", 1, Q, 64).entries == (1,)   # the Toeplitz index


def test_index_map_matches_dense_svd_rank():
    for dim in (16, 48):
        for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
            for l in (l for l in ls if dim >= 4 * l):
                ranks = tuple(dense_defect_rank(lift.shift.matrix, 1e-8)
                              for lift in coisometry_lift(parity, l, Q, dim))
                assert index_map(parity, l, Q, dim).entries == ranks, (parity, l, dim)


def test_index_map_stability():
    for parity, l in (("even", 3), ("odd", 2)):
        assert ktheory_report(parity, l, Q, 64).stable


def test_kernel_checks_follow_the_modulus_relation(monkeypatch):
    # c-* c- = prod(1 - q^{-2m} a) with its factors moved to m = 0..2l-1:
    # the zeros on e_n move with them, and every check that reads the
    # kernel must notice
    relations_for = fockrep.relations_for

    def mutated(parity, l):
        shifted = RelationSide(0, (("prod", tuple(range(0, -2 * l, -1))),))
        return tuple(dataclasses.replace(rel, rhs=shifted) if rel.rid == "odd.11" else rel
                     for rel in relations_for(parity, l))

    assert index_map("odd", 2, Q, 64).entries == (2, 2)
    monkeypatch.setattr(fockrep, "relations_for", mutated)
    assert not kernel_conditions_exact("odd", 2, Q, 64)
    assert index_map("odd", 2, Q, 64).entries == (2, 1)
    assert not ktheory_report("odd", 2, Q, 64).all_pass


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
    report = pullback_check("even", 3, Q, 256, 1e-10)
    assert report["all_pass"]
    for entry in report["per_r"]:
        assert entry["monotone_decay"]
        assert entry["n0"] is not None and entry["n0"] <= 35
        assert entry["tail_max"] < 1e-10
    assert all(pair["pass"] for pair in report["pairwise"])


def test_pullback_decay_odd():
    report = pullback_check("odd", 2, Q, 256, 1e-10)
    assert report["all_pass"]


@pytest.mark.parametrize("q", (0.9, 0.97, 0.995))
def test_ktheory_near_q_one_sizes_the_pullback(q):
    # the weight defects decay like q^{2ln}: at q = 0.995, odd l = 1 the
    # proxy needs about 2300 columns, far past the truncation given
    for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
        for l in ls:
            report = ktheory_report(parity, l, q, 128)
            assert report.all_pass, (parity, l, report.pullback["N"])


@pytest.mark.parametrize("q", (1e-20, 1e-12, 1e-8))
def test_ktheory_at_tiny_q(q):
    # in a kernel column a factor 1 - q^{2(ln+r-m)} overflows to -inf; the
    # column's exact zero factor must still make c* c exactly zero there
    for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
        for l in ls:
            report = ktheory_report(parity, l, q, 128)
            assert report.all_pass, (parity, l)
            assert report.delta.entries == (1 if parity == "even" else 2,) * l


def test_pullback_size_limit_raises_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="needs N >= "):
            ktheory_report("odd", 1, 1 - 1e-9, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# -- assembled report --------------------------------------------------------


def test_ktheory_report_roundtrip():
    report = ktheory_report("odd", 2, Q, 64, 1e-10)
    assert report.all_pass
    payload = report.as_dict()
    assert payload["index_map"] == [2, 2]
    assert payload["k0"] == {"free_rank": 2, "torsion": [2]}
    assert payload["k1"] == {"free_rank": 0, "torsion": []}
    assert payload["kgroups_match"] is True
