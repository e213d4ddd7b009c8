"""Every Python file of the project parses with the Python 3.10 grammar.

``requires-python`` is ``>=3.10`` and CI runs 3.10.  The check is best
effort: ``ast.parse(source, feature_version=(3, 10))`` catches grammar that
3.10 lacks, such as ``except*`` or a generic ``class C[T]``, but not a
library API that 3.10 lacks.  It only reads the files.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_python_file_parses_as_python_3_10():
    paths = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert len(paths) > 20
    refused = []
    for path in paths:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not refused, refused
