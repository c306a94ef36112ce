"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N [--traced] [--trace-id ID] [--spans FILE]

Set-up ends the moment ``qrwp.cli`` is imported; the parent times it from
process start on the same monotonic clock.  The workload's package calls
are then timed (and traced with --traced) between two runs of the fixed
calibration loops, the outputs are checked outside the timed region, and
one JSON record is printed on stdout.
"""

import time

import qrwp.cli  # noqa: F401  (set-up ends here)

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
from collections import Counter  # noqa: E402

import numpy  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

CALIBRATION_STEPS = 150_000
_uniform = random.Random(0).random
CALIBRATION_MATRIX = numpy.array([_uniform() - 0.5 for _ in range(160 * 160)]).reshape(160, 160)


def calibrate_python() -> float:
    """Seconds for a fixed pure-Python loop that touches nothing of the
    package, so only the host's current speed moves it."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(CALIBRATION_STEPS):
        k = i & 1023
        counts[k] = counts.get(k, 0) + 3 * i
    return time.perf_counter() - start


def calibrate_numpy() -> float:
    """Seconds for fixed single-threaded dense linear algebra (SVDs and
    products of one 160x160 matrix), independent of the package."""
    start = time.perf_counter()
    for _ in range(6):
        numpy.linalg.svd(CALIBRATION_MATRIX)
        CALIBRATION_MATRIX @ CALIBRATION_MATRIX
    return time.perf_counter() - start


CALIBRATIONS = {"python": calibrate_python, "numpy": calibrate_numpy}


def _mono_cache():
    """cache_info of sigma3._mono_product, or None when it has no cache."""
    from qrwp import sigma3

    return getattr(getattr(sigma3, "_mono_product", None), "cache_info", None)


def _layer_counts(ids, failed, checks, cache_before, cache_after) -> dict:
    attempted = Counter(workloads.category(cid) for cid in ids)
    bad = Counter(workloads.category(cid) for cid in failed)
    hits = misses = 0
    if cache_before is not None:
        hits = cache_after.hits - cache_before.hits
        misses = cache_after.misses - cache_before.misses
    return {
        "qwrp.relations_checked": attempted["relation"],
        "qwrp.relations_failed": bad["relation"],
        "fockrep.residual_checks": attempted["residual"],
        "fockrep.residual_failed": bad["residual"],
        "fockrep.worst_margin": max(checks.margins, default=0.0),
        "ktheory.checks_failed": bad["ktheory"],
        "cli.output_bytes": checks.output_bytes,
        "sigma3.mono_product_hits": hits,
        "sigma3.mono_product_misses": misses,
        "sigma3.mono_product_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--trace-id", default="")
    ap.add_argument("--spans", default=None, help="write this iteration's spans as CSV")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed)
    cache_info = _mono_cache()
    cache_before = cache_info() if cache_info else None
    tracer = spans.Tracer(args.trace_id) if args.traced else None
    calibration_before = {kind: loop() for kind, loop in CALIBRATIONS.items()}
    if tracer:
        tracer.install()
    start = time.perf_counter()
    try:
        outputs = wl.run(inputs)
    finally:
        wall = time.perf_counter() - start
        if tracer:
            tracer.uninstall()
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cache_after = cache_info() if cache_info else None
    calibration_s = {kind: (calibration_before[kind] + loop()) / 2 for kind, loop in CALIBRATIONS.items()}

    checks = wl.verdicts(inputs, outputs)
    ids, ref_exact, expected_failures = workloads.expected(args.workload, args.seed)
    failed = workloads.failed_checks(checks, ids, ref_exact)
    record = {
        "imported_at": IMPORTED_AT,
        "wall_s": wall,
        "calibration_s": calibration_s,
        "rss_kb": rss_kb,
        "numpy": numpy.__version__,
        "checks": len(ids),
        "failed": failed,
        "unexpected": sorted(set(failed) - set(expected_failures)),
        "fixed": sorted(set(expected_failures) - set(failed)),
    }
    if tracer:
        layers = spans.layer_metrics(spans.span_totals(tracer.spans))
        layers.update(_layer_counts(ids, failed, checks, cache_before, cache_after))
        layers["qlaurent.max_terms"] = tracer.max_terms
        record["layers"] = layers
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
