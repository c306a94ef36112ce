"""Weighted-shift representations: generators, residuals, intertwiner."""

import tracemalloc

import numpy as np
import pytest

from qrwp import (
    NormalMonomial,
    RepInstance,
    WeightedShift,
    ktheory_report,
    relations_for,
    basis_monomial,
    faithfulness_probe,
    intertwiner_check,
    rep_generator,
    rep_report,
    rep_scalar,
    rep_sigma,
)
from qrwp.fockrep import (
    _sqrt_weight,
    eval_side_matrix,
    kernel_columns,
    kernel_conditions_exact,
    relation_residuals,
    scalar_relation_residual,
    subspace_dim,
)

from helpers import SEED, dense_interior_max, dense_side, make_rng

Q = 0.5


def test_instance_validation():
    with pytest.raises(ValueError):
        RepInstance("even", 2, 1, Q, 16)     # even family needs odd l
    with pytest.raises(ValueError):
        RepInstance("odd", 2, 3, Q, 16)      # r out of range
    with pytest.raises(ValueError):
        RepInstance("odd", 2, 1, 1.5, 16)    # q out of range


def test_diagonal_generator():
    inst = RepInstance("even", 3, 2, Q, 8)
    a = rep_generator(inst, "a").matrix
    assert a[0, 0] == Q ** 4                 # q^{2(l*0+r)} with r=2
    diag = np.diag(a).real
    assert np.all(diag > 0) and np.all(diag < 1)
    assert len(set(diag.tolist())) == len(diag)   # spectrum has distinct values


def test_kernel_columns_are_exact_zeros():
    inst = RepInstance("even", 3, 1, Q, 8)
    c = rep_generator(inst, "c").matrix
    assert np.all(c[:, 0] == 0)
    inst = RepInstance("odd", 2, 1, Q, 8)
    cm = rep_generator(inst, "c").matrix
    b = rep_generator(inst, "b").matrix
    assert np.all(cm[:, 0] == 0) and np.all(cm[:, 1] == 0)
    assert np.all(b[:, 0] == 0)
    assert kernel_conditions_exact("odd", 5, Q, 64)
    assert kernel_conditions_exact("even", 5, Q, 64)


def test_kernel_columns_read_the_modulus_relation():
    # c*c vanishes on e_0 (even) or e_0, e_1 (odd) and nowhere after
    for parity, l, kernel in (("even", 3, 1), ("odd", 2, 2)):
        for r in range(1, l + 1):
            inst = RepInstance(parity, l, r, Q, 32)
            diag, k = kernel_columns(inst, "c")
            assert k == kernel and np.all(diag[k:] > 0), (parity, r)
            c = rep_generator(inst, "c")
            assert np.max(np.abs((c.adjoint() @ c).weights - diag)) < 1e-14
    # b*b = a prod(1 - q^{-2m} a): a underflows to 0.0 deep in the tail,
    # and only the leading zeros count
    diag, k = kernel_columns(RepInstance("odd", 5, 1, Q, 256), "b")
    assert k == 1 and diag[1] > 0 and diag[200] == 0.0
    with pytest.raises(ValueError):
        kernel_columns(RepInstance("even", 3, 1, Q, 8), "b")


def test_generators_are_banded():
    for parity, l in (("even", 3), ("odd", 2)):
        inst = RepInstance(parity, l, 1, Q, 32)
        names = ["a", "c"] if parity == "even" else ["a", "b", "c"]
        for name in names:
            op = rep_generator(inst, name)
            rows, cols = np.nonzero(op.matrix)
            assert abs(op.offset) <= 2 and np.all(cols - rows == op.offset)


def test_b_rejected_in_even_family():
    with pytest.raises(ValueError):
        rep_generator(RepInstance("even", 3, 1, Q, 8), "b")


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


def test_ambient_rep_examples():
    # xi acts as the identity
    op = rep_sigma(NormalMonomial(0, 0, 1), Q, 8).matrix
    assert np.array_equal(op, np.eye(8))
    # z1 on e_0 has weight q^{p(n+1)} = q
    op = rep_sigma(NormalMonomial(0, 1, 0), Q, 8).matrix
    assert op[0, 0] == Q
    # z0 annihilates e_0
    op = rep_sigma(NormalMonomial(1, 0, 0), Q, 8).matrix
    assert np.all(op[:, 0] == 0)
    with pytest.raises(ValueError):
        rep_sigma(NormalMonomial(-1, 0, 0), Q, 8)


def test_ambient_rep_is_multiplicative_on_interior():
    rng = make_rng(30)
    dim = 48
    for _ in range(25):
        x = basis_monomial(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2))
        y = basis_monomial(rng.randint(0, 3), rng.randint(0, 3), rng.randint(-2, 2))
        # z0-family words multiply to one word times a q-power
        mono, coef = (x * y).sole_term()
        lhs = coef.evaluate(Q) * rep_sigma(mono, Q, dim).matrix
        rhs = rep_sigma(x.sole_monomial(), Q, dim).matrix @ rep_sigma(y.sole_monomial(), Q, dim).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_negative_radicand_is_hard_error():
    with pytest.raises(ArithmeticError):
        _sqrt_weight(Q, [-1])


def test_relation_residuals_small_config():
    for parity, l in (("even", 3), ("odd", 2)):
        entries = relation_residuals(parity, l, Q, 64, tol=1e-10)
        assert entries
        assert all(e.passed for e in entries)
        assert max(e.residual for e in entries) < 1e-12


def test_intertwiner_even_a_is_exact():
    report = intertwiner_check("even", 3, Q, 240)
    assert report["per_generator"]["a"] == 0.0
    assert report["max_residual"] < 1e-12


def test_intertwiner_relabeling_for_l1():
    # l = 1: the relabeling e_n^1 -> e_n is the identity
    assert subspace_dim(1, 1, 64) == 64
    report = intertwiner_check("even", 1, Q, 64)
    assert report["max_residual"] < 1e-14


def test_intertwiner_odd_b():
    report = intertwiner_check("odd", 2, Q, 240)
    assert report["per_generator"]["b"] < 1e-12


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
    rng = np.random.default_rng(SEED + 31)
    dim = 9
    for _ in range(40):
        ka, kb = (int(k) for k in rng.integers(-4, 5, size=2))
        a = WeightedShift(ka, rng.normal(size=dim) + 1j * rng.normal(size=dim))
        b = WeightedShift(kb, rng.normal(size=dim))
        assert np.array_equal((a @ b).matrix, a.matrix @ b.matrix)
        assert np.array_equal(a.adjoint().matrix, a.matrix.conj().T)
        rows, cols = np.nonzero(a.matrix)
        assert rows.size == dim - abs(ka) and np.all(cols - rows == ka)
    assert not np.any(WeightedShift(dim + 2, np.ones(dim)).matrix)   # shifts everything out
    # an exact zero factor wins over an overflowed one
    product = WeightedShift(0, np.array([0.0, -np.inf, 2.0])) @ WeightedShift(0, np.array([-np.inf, 0.0, 3.0]))
    assert product.weights.tolist() == [0.0, 0.0, 6.0]


def test_banded_relations_match_dense_oracle():
    # q = 0.5: every q-power is exact, so banded and dense agree bit for bit
    for dim in (16, 48):
        for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
            for l in ls:
                entries = iter(relation_residuals(parity, l, Q, dim))
                for r in range(1, l + 1):
                    inst = RepInstance(parity, l, r, Q, dim)
                    ops = {name: rep_generator(inst, name)
                           for name in (("a", "c") if parity == "even" else ("a", "b", "c"))}
                    mats = {name: op.matrix for name, op in ops.items()}
                    for rel in relations_for(parity, l):
                        lhs = dense_side(rel.lhs, mats, Q)
                        rhs = dense_side(rel.rhs, mats, Q)
                        assert np.array_equal(eval_side_matrix(rel.lhs, ops, Q).matrix, lhs), (parity, l, r, rel.rid)
                        assert np.array_equal(eval_side_matrix(rel.rhs, ops, Q).matrix, rhs), (parity, l, r, rel.rid)
                        entry = next(entries)
                        assert (entry.r, entry.rid) == (r, rel.rid)
                        assert entry.residual == dense_interior_max(lhs - rhs, dim - 2 * l)


@pytest.mark.parametrize("q", (0.02, 0.05, 0.1, 0.5, 0.9, 0.97, 0.995))
def test_q_sweep_residuals(q):
    rng = make_rng(32)
    for parity, ls in (("even", (1, 3, 5)), ("odd", (1, 2, 3, 4, 5))):
        for l in ls:
            entries = relation_residuals(parity, l, q, 256, tol=1e-10)
            assert all(e.passed for e in entries), (parity, l, [e for e in entries if not e.passed])
            assert intertwiner_check(parity, l, q, 256)["max_residual"] < 1e-10, (parity, l)
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
