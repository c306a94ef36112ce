"""Start-up: no module of qrwp imports numpy.

Every weight is evaluated on Python floats, and a WeightedShift holds a
tuple of them, so `import qrwp`, `import qrwp.cli` and every command work
in an interpreter where any numpy import raises, with the same output.
Only the tests' dense oracles use numpy.  The package's records are named
tuples, so `import qrwp.cli` loads no dataclasses either, and a
well-formed command line is read without argparse.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

COMMANDS = [
    ["normalize", "(z0 + z0s + z1)^3"],
    ["star", "z0 z1^2 xis + z0s"],
    ["degree", "--k", "2", "--l", "3", "z0^3 xi + z0"],
    ["generators", "--k", "1", "--l", "3"],
    ["verify-relations", "--parity", "odd", "--l", "3"],
    ["factorize", "--k", "2", "--l", "3", "z0^3 xi"],
    ["rep-check", "--parity", "odd", "--l", "5", "--q", "1e-300"],
    ["ktheory", "--parity", "odd", "--l", "12", "--q", "0.9999999999999999"],
    ["report-all", "--lmax", "3"],
]

# Runs each argv of the JSON list argv[2] through cli.main and prints one
# JSON object: [exit code, stdout] per argv, and whether numpy and argparse
# were loaded.
# argv[1] == "block" makes any numpy import raise; argv[3] == "a h=0"
# first drops the q-power of a's weight form, so that relations fail.
RUNNER = """
import contextlib, io, json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
import qrwp
from qrwp import *
import qrwp.cli
if sys.argv[3:] == ["a h=0"]:
    generator_form = qrwp.fockrep.generator_form
    qrwp.fockrep.generator_form = lambda parity, l, gen: (
        generator_form(parity, l, gen)._replace(h=0) if gen == "a" else generator_form(parity, l, gen))
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qrwp.cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps({"results": results, "numpy": sys.modules.get("numpy") is not None,
                  "argparse": "argparse" in sys.modules}))
"""


def _python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _run(mode: str, argvs: list, *mutation: str) -> dict:
    return json.loads(_python("-c", RUNNER, mode, json.dumps(argvs), *mutation))


def _with_formats(commands: list) -> list:
    return [argv + fmt for argv in commands for fmt in ([], ["--format", "json"])]


def test_no_module_imports_numpy():
    # function bodies too: a lazy import would load numpy only when called
    modules = sorted(Path(SRC, "qrwp").glob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "numpy" for name in names), (path.name, node.lineno)


def test_import_loads_no_numpy():
    # importing dataclasses would also pull in inspect, ast, dis and tokenize
    loaded = _python("-c", "import sys, qrwp.cli; print([m for m in ('numpy', 'dataclasses', 'inspect', 'argparse') "
                           "if m in sys.modules])")
    assert loaded == "[]\n"


def test_exact_commands_run_with_numpy_blocked():
    argvs = _with_formats(COMMANDS)
    blocked, plain = _run("block", argvs), _run("plain", argvs)
    assert blocked["results"] == plain["results"]
    assert all(code == 0 and out for code, out in plain["results"]), plain
    assert not plain["numpy"]
    # every argv is spelled as the command table reads it, so no argparse parser is built
    assert not plain["argparse"] and not blocked["argparse"]


def test_report_all_loads_no_numpy():
    done = _run("plain", [["report-all", "--lmax", "7"]])
    assert done["results"][0][0] == 0 and not done["numpy"]


def test_failing_rep_check_runs_with_numpy_blocked():
    # with a's h = 0 relations fail, and at q = 1e-300 their sides overflow:
    # measuring them needs no numpy either, and the verdict sets exit 4
    argvs = _with_formats([["rep-check", "--parity", "odd", "--l", "3", "--q", "1e-300"]])
    blocked, plain = _run("block", argvs, "a h=0"), _run("plain", argvs, "a h=0")
    assert blocked["results"] == plain["results"]
    assert [code for code, _ in plain["results"]] == [4, 4] and not plain["numpy"]
    assert '"residual": Infinity' in plain["results"][1][1]
