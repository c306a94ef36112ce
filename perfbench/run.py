"""qrwp benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or a checkout of it).  One process drives
the load: it starts one child interpreter at a time (perfbench/child.py)
with the BLAS thread variables pinned to 1, so every iteration begins
with cold in-process caches and pays its own import.  The first child of
a run is a warm-up whose timings are dropped.  Times are reported at a
reference host speed: each child also times two fixed calibration loops,
and every time it measures is scaled by REFERENCE_LOOP_S[kind] / the time
of the loop of that kind: the workload's kind for its calls, numpy for
set-up.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced children and prints the per-layer metrics, with the gap
between the two medians as trace.overhead_s.  The last stdout line is
one JSON object {correct, attempted, failed, metrics}; the exit code is
1 when any output is wrong and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 120
# The calibration loops (child.CALIBRATIONS) on the 2-vCPU Xeon where the
# benchmark was defined, in that shared host's faster state; its slower
# state takes about 1.8x on the Python loop and 1.45x on the numpy one.
REFERENCE_LOOP_S = {"python": 0.020, "numpy": 0.027}

END_TO_END = {"wall_s": "s", "wall_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in spans.SELF_TIME}
    units.update({name: "count" for name in spans.CALLS})
    units.update({f"{layer}.self_s": "s" for layer in spans.LAYERS})
    units.update({f"{layer}.spans": "count" for layer in spans.LAYERS})
    units.update({
        "qlaurent.max_terms": "count",
        "sigma3.mono_product_hits": "count",
        "sigma3.mono_product_misses": "count",
        "sigma3.mono_product_hit_ratio": "ratio",
        "qwrp.relations_checked": "count",
        "qwrp.relations_failed": "count",
        "fockrep.residual_checks": "count",
        "fockrep.residual_failed": "count",
        "fockrep.worst_margin": "ratio",
        "ktheory.checks_failed": "count",
        "cli.output_bytes": "bytes",
        "trace.overhead_s": "s",
        "fail_ratio": "ratio",
    })
    return units


# -- statistics ---------------------------------------------------------------


def tail(values) -> tuple[float, float, int]:
    """(value, percentile, samples) for the highest percentile that has at
    least ten samples above it; with fewer than 11 samples, the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def check_totals(records, checks_per_iteration: int) -> tuple[int, int]:
    """(attempted, failed) checks; a crashed child fails all of its checks."""
    attempted = failed = 0
    for rec in records:
        attempted += checks_per_iteration
        failed += checks_per_iteration if rec.get("crashed") else len(rec["failed"])
    return attempted, failed


def operation_failed(rec) -> bool:
    return bool(rec.get("crashed") or rec["unexpected"])


def at_reference_speed(rec, seconds: float, kind: str) -> float:
    """Seconds as a host running the `kind` calibration loop in
    REFERENCE_LOOP_S would take: the loop runs in the same child just
    before and after the timed calls, so the host's speed at that moment
    cancels."""
    return seconds * REFERENCE_LOOP_S[kind] / rec["calibration_s"][kind]


# -- children -------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})
    return env


def run_child(workload: str, seed: int, index: int, traced: bool, env, spans_path=None) -> dict:
    cmd = [sys.executable, str(CHILD), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd += ["--traced", "--trace-id", f"{workload}-{seed}-{index}"]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
    spawned_at = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": True, "reason": f"timed out after {CHILD_TIMEOUT_S} s", "traced": traced}
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        rec = None
    if rec is None:
        return {"crashed": True, "traced": traced,
                "reason": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    rec["setup_s"] = rec["imported_at"] - spawned_at
    rec["traced"] = traced
    return rec


# -- provenance -----------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qrwp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(env, records, checks_per_iteration: int) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": next((r["numpy"] for r in records if "numpy" in r), "unknown"),
        "threads": {var: env[var] for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "checks_per_iteration": checks_per_iteration,
    }


# -- one run ----------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    checks_per_iteration = len(workloads.expected(workload, seed)[0])
    env = child_env()
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.csv"
    records = [run_child(workload, seed, 0, False, env)]  # warm-up
    deadline = time.perf_counter() + seconds
    index = 1
    while not records[-1].get("crashed"):
        traced = trace and index % 2 == 0
        dump = spans_path if traced and index == 2 else None
        records.append(run_child(workload, seed, index, traced, env, dump))
        index += 1
        if time.perf_counter() >= deadline and (not trace or index % 2 == 1):
            break

    timed = [r for r in records[1:] if not r.get("crashed")]
    attempted, failed = check_totals(records, checks_per_iteration)
    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(env, records, checks_per_iteration),
        "iterations": len(records),
        "checks_attempted": attempted,
        "checks_failed": failed,
        "unexpected_failures": sorted({c for r in records for c in r.get("unexpected", [])}),
        "fixed_known_failures": sorted({c for r in records for c in r.get("fixed", [])}),
        "crashes": [r["reason"] for r in records if r.get("crashed")],
        "correct": not any(operation_failed(r) for r in records),
        "operations_failed": sum(operation_failed(r) for r in records),
    }
    if workload == "normalize_batch":
        result["inputs"] = {"generator_seed": seed, "expressions": workloads.BATCH_SIZE}
    plain = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    if not plain or (trace and not traced):
        result["correct"] = False
        result["metrics"] = {}
        return result
    kind = workloads.WORKLOADS[workload].calibration
    walls = [at_reference_speed(r, r["wall_s"], kind) for r in plain]
    if trace:
        units = per_layer_units()
        metrics = {name: statistics.median(at_reference_speed(r, r["layers"][name], kind) if units[name] == "s"
                                           else r["layers"][name] for r in traced)
                   for name in units if name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (statistics.median(at_reference_speed(r, r["wall_s"], kind) for r in traced)
                                       - statistics.median(walls))
        metrics["fail_ratio"] = failed / attempted
    else:
        units = END_TO_END
        tail_value, tail_pct, n = tail(walls)
        metrics = {
            "wall_s": statistics.median(walls),
            "wall_s_tail": tail_value,
            # the import is mostly numpy's shared libraries, which track the numpy loop
            "setup_s": statistics.median(at_reference_speed(r, r["setup_s"], "numpy") for r in plain),
            "peak_rss_mb": statistics.median(r["rss_kb"] for r in plain) / 1024,
            "pass_ratio": 1 - failed / attempted,
        }
        result["wall_s_tail_percentile"] = tail_pct
        result["samples"] = n
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    result["samples_wall_s"] = walls
    result["raw_wall_s_median"] = statistics.median(r["wall_s"] for r in plain)
    result["raw_setup_s_median"] = statistics.median(r["setup_s"] for r in plain)
    result["calibration_s_median"] = {kind: statistics.median(r["calibration_s"][kind] for r in timed)
                                      for kind in REFERENCE_LOOP_S}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qrwp" / "cli.py").is_file() or not workloads.REFERENCE.is_file():
        print(f"error: qrwp sources or {workloads.REFERENCE.name} not found under {ROOT}", file=sys.stderr)
        return 2

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    out_file = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")

    print("provenance: " + json.dumps(result["provenance"], sort_keys=True))
    for key in ("crashes", "unexpected_failures", "fixed_known_failures"):
        if result[key]:
            print(f"{key}: {result[key]}")
    print(f"checks: {result['checks_failed']} failed of {result['checks_attempted']} "
          f"over {result['iterations']} iterations")
    for name, m in result["metrics"].items():
        extra = ""
        if name == "wall_s_tail":
            extra = f"  (p{result['wall_s_tail_percentile']:.1f} of {result['samples']} samples)"
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    if result["metrics"]:
        loops = ", ".join(f"{kind} {result['calibration_s_median'][kind] * 1000:.4g} ms (reference {ref * 1000:g} ms)"
                          for kind, ref in REFERENCE_LOOP_S.items())
        print(f"unscaled medians: wall {result['raw_wall_s_median']:.6g} s, setup {result['raw_setup_s_median']:.6g} s; "
              f"calibration loops: {loops}")
    print(f"full result: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["iterations"],
        "failed": result["operations_failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
