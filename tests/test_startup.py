"""Start-up cost: each command loads only the sdinv modules it runs, and
``import sdinv`` loads none.

Every command runs in a fresh interpreter, because the test process itself
has imported every module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sdinv

SRC = str(Path(sdinv.__file__).resolve().parent.parent)

# Loaded by every command: the front end, the command table and the shared
# errors and budgets.  The factoring helpers load with wittq, and in exactlin
# only for a modular NO certificate.
BASE = {"cli", "commands", "errors"}

_PROBE = """
import contextlib, io, json, sys
from sdinv import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _fresh(code: str, *argv: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return proc.stdout


def _modules_after(*argv: str) -> set[str]:
    """Every module loaded once the command has run, which must succeed."""
    code, modules = json.loads(_fresh(_PROBE, *argv))
    assert code == 0, argv
    return set(modules)


def _loaded_by(*argv: str) -> set[str]:
    modules = _modules_after(*argv)
    assert "sdinv" in modules
    return {m.removeprefix("sdinv.") for m in modules if m.startswith("sdinv.")}


WITT = ["witt", "verify", "--identity", "alpha2", "--trials", "3"]
INV3 = ["inv3", "--preset", "sl2n:2"]
GAMMA_REPORT = ["gamma", "report", "--preset", "conic1"]
GAMMA_MEMBER = ["gamma", "member", "--preset", "conic1", "--element", "y1", "--degree", "1"]
CHOW2 = ["chow2", "--preset", "conic1"]


@pytest.mark.parametrize(
    "argv, modules",
    [
        (WITT, {"wittq", "_factor"}),
        (INV3, {"exactlin", "roots"}),
        (GAMMA_REPORT, {"exactlin", "kgamma"}),
        (GAMMA_MEMBER, {"exactlin", "kgamma", "_factor"}),  # a NO answer
        (CHOW2, {"exactlin", "kgamma", "presets"}),
        (["theorem", "--n", "6"], {"exactlin", "roots", "presets"}),
    ],
    ids=["witt", "inv3", "gamma-report", "gamma-member", "chow2", "theorem-6"],
)
def test_command_loads_only_its_modules(argv, modules):
    assert _loaded_by(*argv) == BASE | modules


@pytest.mark.parametrize(
    "argv, modules",
    [(WITT, {"wittq", "_factor"}), (INV3, {"exactlin", "roots"})],
    ids=["witt", "inv3"],
)
def test_certificate_module_loads_only_for_certificates(argv, modules, tmp_path):
    path = str(tmp_path / "cert.json")
    assert _loaded_by(*argv, "--certificate", path) == BASE | modules | {"certificate"}
    assert _loaded_by("--check-certificate", path) == BASE | modules | {"certificate"}


def test_witt_verify_loads_no_dataclasses_or_fractions(tmp_path):
    # ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``;
    # wittq's records are NamedTuples, and the checker compares stored sample
    # text with the text of the draw, never parsing it
    assert not _modules_after(*WITT) & {"dataclasses", "inspect", "fractions"}
    path = str(tmp_path / "cert.json")
    _modules_after(*WITT, "--certificate", path)
    assert "sdinv.wittq" in _modules_after("--check-certificate", path)


# ``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and
# ``fractions`` pulls in ``decimal``: 13-18 ms of a fresh process together.
# Records are NamedTuples or plain classes, and only fraction text loads
# ``fractions``.
HEAVY = {"dataclasses", "inspect", "fractions", "decimal"}


@pytest.mark.parametrize(
    "argv",
    [INV3, GAMMA_REPORT, GAMMA_MEMBER, CHOW2, ["theorem", "--n", "2"], ["theorem", "--n", "6"],
     ["sl4x4"]],
    ids=["inv3", "gamma-report", "gamma-member", "chow2", "theorem-2", "theorem-6", "sl4x4"],
)
def test_command_loads_no_dataclasses_or_fractions(argv):
    assert not _modules_after(*argv) & HEAVY


@pytest.mark.parametrize("argv", [INV3, GAMMA_REPORT, WITT], ids=["inv3", "gamma-report", "witt"])
def test_certificates_load_no_dataclasses_or_fractions(argv, tmp_path):
    path = str(tmp_path / "cert.json")
    assert not _modules_after(*argv, "--certificate", path) & HEAVY
    assert not _modules_after("--check-certificate", path) & HEAVY


# ``argparse`` imports ``gettext``, which imports ``locale``: about 2 ms of a
# fresh process, and building a grammar and the first parse about 3 ms more
# (Python 3.11, 2 vCPUs).  The command table reads, refuses and documents
# every argv, so no argv loads them.
ARGPARSE = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv", [INV3, GAMMA_REPORT, GAMMA_MEMBER, WITT, ["theorem", "--n", "2", "--seed", "-5"]],
    ids=["inv3", "gamma-report", "gamma-member", "witt", "theorem-negative-seed"],
)
def test_command_loads_no_argparse(argv, tmp_path):
    path = str(tmp_path / "cert.json")
    assert not _modules_after(*argv) & ARGPARSE
    assert not _modules_after(*argv, "--json", "--certificate", path) & ARGPARSE
    assert not _modules_after("--check-certificate", path) & ARGPARSE


_PROBE_TEXT = """
import contextlib, io, json, sys
from sdinv import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.run(sys.argv[1:])
print(json.dumps([code, out.getvalue(), err.getvalue(), sorted(sys.modules)]))
"""


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (["inv3"], 2, "error: option --preset is required\n"),
        (GAMMA_MEMBER[:5] + ["-2*y1", "--degree", "1"], 0, ""),
        (["theorem", "--n", "x"], 2, "error: option --n needs an integer, not 'x'\n"),
        (["inv3", "--pre", "sl2n:2"], 2, "error: unknown option '--pre'\n"),
        (INV3 + ["--preset", "sl2n:3"], 2, "error: option --preset is given twice\n"),
        (["--help"], 0, ""),
    ],
    ids=["missing", "leading-minus", "invalid-int", "abbreviation", "repeat", "help"],
)
def test_help_and_refusals_load_no_argparse(argv, code, err):
    """Help, refusals, and a separate value with a leading minus are read by
    the command table in a fresh process, with no argparse."""
    got = json.loads(_fresh(_PROBE_TEXT, *argv))
    assert got[0] == code and got[2] == err
    assert not set(got[3]) & ARGPARSE
    if argv == ["--help"]:
        assert got[1].startswith("sdinv: degree-3 invariants")
    elif code == 0:
        assert got[1].startswith("command: gamma member --preset conic1 --element=-2*y1 ")


def _importers_of(package: str) -> list[str]:
    """The sdinv modules that import ``package`` anywhere in their source."""
    paths = sorted(Path(SRC, "sdinv").glob("*.py"))
    assert len(paths) >= 10
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.partition(".")[0] == package for m in modules):
                found.append(path.name)
    return found


def test_no_module_imports_dataclasses():
    assert _importers_of("dataclasses") == []


def test_no_module_imports_argparse():
    """So no argv, help and refusals included, loads argparse."""
    assert _importers_of("argparse") == []


def test_import_sdinv_loads_no_compute_module():
    probe = "import sys, sdinv; print(sorted(m for m in sys.modules if m.startswith('sdinv')))"
    assert _fresh(probe).split() == ["['sdinv']"]


def test_import_sdinv_cli_loads_the_front_end_only():
    """What the benchmark's set-up times: the front end, the command table
    and the errors, and no compute module."""
    probe = "import sys, json, sdinv.cli; print(json.dumps(sorted(sys.modules)))"
    loaded = {m for m in json.loads(_fresh(probe)) if m.startswith("sdinv")}
    assert loaded == {"sdinv", "sdinv.cli", "sdinv.commands", "sdinv.errors"}


def test_commands_imports_only_future_and_errors_at_module_level():
    """Backends import the compute modules they run when they are called; at
    module level the command table imports ``errors`` alone."""
    tree = ast.parse(Path(SRC, "sdinv", "commands.py").read_text())
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", ".errors"}
