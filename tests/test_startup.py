"""Start-up: the exact commands run without numpy.

numpy is imported only inside the functions that build arrays, so
`import qrwp`, `import qrwp.cli` and every exact command work in an
interpreter where any numpy import raises.  The package's records are
named tuples, so `import qrwp.cli` loads no dataclasses either.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

EXACT_COMMANDS = [
    ["normalize", "(z0 + z0s + z1)^3"],
    ["star", "z0 z1^2 xis + z0s"],
    ["degree", "--k", "2", "--l", "3", "z0^3 xi + z0"],
    ["generators", "--k", "1", "--l", "3"],
    ["verify-relations", "--parity", "odd", "--l", "3"],
    ["factorize", "--k", "2", "--l", "3", "z0^3 xi"],
]

# Runs every exact command through cli.main and prints one JSON list of
# [exit code, stdout]; argv[1] == "block" makes any numpy import raise.
RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import qrwp
from qrwp import *
import qrwp.cli
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qrwp.cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def _python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_numpy():
    # importing dataclasses would also pull in inspect, ast, dis and tokenize
    loaded = _python("-c", "import sys, qrwp.cli; print([m for m in ('numpy', 'dataclasses', 'inspect') "
                           "if m in sys.modules])")
    assert loaded == "[]\n"


def test_exact_commands_run_with_numpy_blocked():
    argvs = [argv + fmt for argv in EXACT_COMMANDS for fmt in ([], ["--format", "json"])]
    blocked = json.loads(_python("-c", RUNNER, "block", json.dumps(argvs)))
    plain = json.loads(_python("-c", RUNNER, "plain", json.dumps(argvs)))
    assert blocked == plain
    assert all(code == 0 and out for code, out in blocked), blocked
