"""Each ``BENCH_*.json`` at the repository root records one performance
change: the commit it was measured against, the interpreter and core count,
and before and after medians of fresh-process commands, with optional
per-layer and benchmark-pair readings.  Only the shape is checked; the
numbers belong to the machine that measured them, so no time is bounded."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _positive(x) -> bool:
    return type(x) in (int, float) and x > 0


def _count(x) -> bool:
    return type(x) is int and x >= 1


COMMAND_ROW = {
    "argv": lambda v: isinstance(v, list) and v and all(isinstance(w, str) and w for w in v),
    "runs": _count,
    "parent_s": _positive,
    "change_s": _positive,
    "parent_peak_mb": _positive,
    "change_peak_mb": _positive,
}
LAYER_ROW = {
    "workload": lambda v: isinstance(v, str) and v,
    "metric": lambda v: isinstance(v, str) and "." in v,
    "unit": lambda v: v in ("s", "count"),
    "parent": lambda v: type(v) in (int, float) and v >= 0,
    "change": lambda v: type(v) in (int, float) and v >= 0,
}
PAIR_ROW = {
    "workload": lambda v: isinstance(v, str) and v,
    "metric": lambda v: isinstance(v, str) and v,
    "pairs": _count,
    "parent_median": _positive,
    "change_median": _positive,
    "change_better": lambda v: type(v) is int and v >= 0,
}


def _rows_match(rows, schema) -> None:
    assert isinstance(rows, list) and rows
    for row in rows:
        assert set(row) == set(schema), row
        for key, ok in schema.items():
            assert ok(row[key]), (key, row)


def test_there_is_a_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_bench_record_schema(path):
    rec = json.loads(path.read_text())
    assert set(rec) <= {"format", "change", "base_commit", "python", "nproc", "method",
                        "commands", "layers", "end_to_end"}
    assert rec["format"] == "sdinv-bench/1"
    assert isinstance(rec["change"], str) and rec["change"]
    assert re.fullmatch("[0-9a-f]{40}", rec["base_commit"])
    assert re.fullmatch(r"3\.\d+\.\d+", rec["python"])
    assert _count(rec["nproc"])
    assert isinstance(rec["method"], str) and rec["method"]
    _rows_match(rec["commands"], COMMAND_ROW)
    if "layers" in rec:
        _rows_match(rec["layers"], LAYER_ROW)
    if "end_to_end" in rec:
        _rows_match(rec["end_to_end"], PAIR_ROW)
        for row in rec["end_to_end"]:
            assert row["change_better"] <= row["pairs"]
