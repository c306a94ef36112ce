"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children():
    recorded = [
        ("outer", 0.0, 10.0, -1),
        ("inner", 1.0, 4.0, 0),
        ("leaf", 2.0, 3.0, 1),
        ("inner", 5.0, 7.0, 0),
    ]
    totals = spans.span_totals(recorded)
    assert totals["outer"] == [1, pytest.approx(5.0)]
    assert totals["inner"] == [2, pytest.approx(4.0)]
    assert totals["leaf"] == [1, pytest.approx(1.0)]


def test_wrapped_calls_record_parents():
    tracer = spans.Tracer("t")
    leaf = tracer.wrap("leaf", lambda: 1)
    outer = tracer.wrap("outer", lambda: leaf() + leaf())
    assert outer() == 2
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf"]
    assert parents == [-1, 0, 0]
    start, end = tracer.spans[0][1:3]
    assert all(start <= s[1] <= s[2] <= end for s in tracer.spans[1:])


def test_tail_is_highest_percentile_with_ten_samples_above():
    value, pct, n = run.tail(range(100))
    assert (value, pct, n) == (89, 90.0, 100)
    value, pct, n = run.tail([5.0] + [1.0] * 10)
    assert (value, n) == (1.0, 11)
    assert pct == pytest.approx(100 / 11)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_crashed_child_fails_all_its_checks(tmp_path, monkeypatch):
    crash = tmp_path / "crash.py"
    crash.write_text("raise SystemExit(3)\n")
    monkeypatch.setattr(run, "CHILD", crash)
    rec = run.run_child("report_all", 0, 1, False, run.child_env())
    assert rec["crashed"] and "exit 3" in rec["reason"]
    ok = {"failed": ["a"], "unexpected": []}
    assert run.check_totals([ok, rec], 10) == (20, 11)
    assert not run.operation_failed(ok)
    assert run.operation_failed(rec)


def test_failed_checks_compare_verdicts_and_exact_values():
    checks = workloads.Checks()
    checks.add("s/relation/ok", True, exact="abc")
    checks.add("s/relation/changed", True, exact="new")
    checks.add("s/residual/big", False)
    ref = {"s/relation/ok": "abc", "s/relation/changed": "old"}
    ids = ["s/relation/ok", "s/relation/changed", "s/residual/big", "s/ktheory/missing"]
    assert workloads.failed_checks(checks, ids, ref) == ids[1:]


def test_residual_passes_below_tolerance_whatever_its_bits():
    checks = workloads.Checks()
    checks.residual("s/residual/a", 0.0)
    checks.residual("s/residual/b", 0.5 * workloads.TOL)
    checks.residual("s/residual/c", 2 * workloads.TOL)
    assert checks.verdicts == {"s/residual/a": True, "s/residual/b": True, "s/residual/c": False}


def test_normalize_inputs_follow_the_seed():
    assert workloads.normalize_inputs(7) == workloads.normalize_inputs(7)
    assert workloads.normalize_inputs(7) != workloads.normalize_inputs(8)


def _snapshot():
    import importlib

    import qrwp

    owners = [qrwp] + [importlib.import_module(f"qrwp.{layer}") for layer in spans.LAYERS]
    owners += [qrwp.LaurentPoly, qrwp.AlgebraElement]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_traced_run_restores_module_attributes():
    import qrwp
    from qrwp import fockrep, ktheory, qwrp

    before = _snapshot()
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        assert ktheory.rep_generator is fockrep.rep_generator
        assert ktheory.rep_generator is not before[(id(fockrep), "rep_generator")]
        assert qwrp.verify_relations(qrwp.Weights(1, 1)).all_pass
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    layers = {name.split(".", 1)[0] for name, *_ in tracer.spans}
    assert {"qwrp", "sigma3", "qlaurent"} <= layers
    assert not layers & {"fockrep", "ktheory"}


def test_normalize_structure_check_catches_a_consistent_parse_error(monkeypatch):
    import qrwp
    from qrwp import parser

    items = [it for it in workloads.normalize_inputs(11)[:200] if "q^" in it[0]]
    assert items
    good = workloads.normalize_verdicts(items, workloads.normalize_run(items))
    assert all(good.verdicts.values())
    # a parser that lowers every q^k to 1 still round-trips on most inputs
    monkeypatch.setattr(parser, "qpow", lambda e: qrwp.qpow(0))
    bad = workloads.normalize_verdicts(items, workloads.normalize_run(items))
    failed = workloads.failed_checks(bad, workloads.normalize_ids(items), {})
    assert any(cid.endswith("/structure") for cid in failed)


def test_traced_normalize_batch_has_no_numeric_spans():
    items = workloads.normalize_inputs(5)[:50]
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        workloads.normalize_run(items)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(spans.span_totals(tracer.spans))
    assert metrics["parser.exprs"] == 50
    assert metrics["grading.spans"] >= 50 and metrics["sigma3.spans"] > 0
    assert metrics["fockrep.spans"] == metrics["ktheory.spans"] == 0
