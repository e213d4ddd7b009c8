"""Reachability guard: every function in ``src/sdinv`` runs under some
command, or is named below with the reason it does not.

A fixed command set runs in one fresh process under ``sys.setprofile``: a
fresh process, because the ``lru_cache``s that other tests warm would hide
the callees of a cached function.  Each command runs plain, then with
``--json --certificate F``, then as ``--check-certificate F``; each refusal
runs once, and so do ``--help`` and a report to an output that cannot take
it.  Every entered code object is mapped to its ``def`` by file, first line
and name (``co_qualname`` is Python 3.11+).  A function that only tests call belongs
in ``tests/``, so the functions never entered must be exactly the allowlist.
"""

import ast
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import sdinv

PACKAGE = Path(sdinv.__file__).resolve().parent

COMMANDS = (
    "inv3 --preset sl2n:3",
    "inv3 --preset sl4x4",
    "chow2 --preset conics3",
    "gamma report --preset split:2,3",
    # YES, rank NO and modular NO
    "gamma member --preset conics3 --element 2*(y1+y3)^2*y2 --degree 2",
    "gamma member --preset conics3 --element y1 --degree 2",
    "gamma member --preset conics3 --element 2*y1*y2*y3 --degree 3",
    "theorem --n 3 --trials 2",
    "sl4x4",
) + tuple(
    f"witt verify --identity {identity} --trials 2 --seed 3"
    for identity in (
        "twofold", "square_slot", "double", "alpha2", "lemma_alpha3_exact",
        "lemma_alpha3_modI4", "prop_step_Qonetwo", "alpha4_full",
    )
)

REFUSALS = (
    "inv3 --preset nope",
    "chow2 --preset nope",
    "gamma member --preset conics3 --element y1+x2 --degree 1",
    "witt verify --identity nope",
    "theorem --n x",
)

# qualified name -> why no command of the set enters it
ALLOWED = {
    "cli.main": "console-script entry; the set calls cli.run",
    "_factor._pollard_rho": "factoring past trial division; sampled slots are 23-smooth",
    "exactlin.FinAbelianGroup.__eq__": "value-type equality",
    "exactlin.IntMatrix.__eq__": "value-type equality",
    "exactlin.Lattice.__eq__": "value-type equality",
    "exactlin.Lattice.__hash__": "value-type hash",
    "exactlin.Lattice.standard": "lattice of a preset with a trivial center or no Weyl action",
    "presets.theorem_table": "the whole table, run by scripts/reproduce_all.py",
}

_TRACER = r"""
import io, json, os, sys, tempfile

commands, refusals = json.loads(sys.argv[1])
entered = set()


class Full(io.StringIO):
    def write(self, text):
        raise OSError(28, "No space left on device")


def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno, code.co_name))


sys.setprofile(profile)
from sdinv import cli

with tempfile.TemporaryDirectory() as tmp:
    cert = os.path.join(tmp, "cert.json")
    for argv in commands:
        for run in (argv.split(), argv.split() + ["--json", "--certificate", cert],
                    ["--check-certificate", cert]):
            assert cli.run(run, out=io.StringIO()) == 0, run
    for argv in refusals:
        assert cli.run(argv.split(), out=io.StringIO()) == 2, argv
    assert cli.run(["--help"], out=io.StringIO()) == 0
    assert cli.run(commands[0].split(), out=Full()) == 2
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _definitions():
    """(file, first line, name) of each def in the package -> its qualified
    name, module first.  A decorated def's code starts at its first
    decorator."""
    out = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(path, first, child.name)] = f"{prefix}.{child.name}"
                visit(child, f"{prefix}.{child.name}", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, str(path))
    return out


def test_every_package_function_runs_or_is_allowlisted():
    src = str(PACKAGE.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", _TRACER, json.dumps([COMMANDS, REFUSALS])],
        capture_output=True, text=True, env=env, timeout=60,
    )
    elapsed = time.monotonic() - t0
    assert proc.returncode == 0, proc.stderr
    entered = {(str(Path(f).resolve()), line, name) for f, line, name in json.loads(proc.stdout)}
    never = {qualname for key, qualname in _definitions().items() if key not in entered}
    assert never == set(ALLOWED), (sorted(never - set(ALLOWED)), sorted(set(ALLOWED) - never))
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
