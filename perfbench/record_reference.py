"""Record perfbench/reference.json from the current source tree.

    PYTHONPATH=src python3 perfbench/record_reference.py

The reference holds, per fixed-input workload, every check id, the exact
values (normal-form digests, factorization words, index maps, Smith
diagonals, K-groups) and the checks that already fail.  It was recorded
from the seed code; re-record only when a workload's inputs change,
never in a change that claims a speed-up.  normalize_batch checks itself
and has no reference.
"""

import json

import workloads


def main() -> int:
    reference = {}
    for name, wl in workloads.WORKLOADS.items():
        if name == "normalize_batch":
            continue
        inputs = wl.inputs(0)
        checks = wl.verdicts(inputs, wl.run(inputs))
        failing = sorted(cid for cid, ok in checks.verdicts.items() if not ok)
        reference[name] = {
            "checks": sorted(checks.verdicts),
            "expected_failures": failing,
            "exact": dict(sorted(checks.exact.items())),
        }
        print(f"{name}: {len(checks.verdicts)} checks, failing: {failing}")
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
