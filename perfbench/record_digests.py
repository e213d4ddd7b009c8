"""Record the stdout digests and member answers the benchmark judges against.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose reports are known to be right; it
runs every command any seed can run (``workloads.universe``) and every
member query of ``workloads.query_pool``, and writes ``perfbench/digests.json``.
A later run fails any operation whose stdout differs from its digest, or any
member query whose answer differs from the recorded one, so reports stay
byte-identical.  Operations that hit the documented leading-minus defect get
no digest; a defect-hit query's answer is recorded from the same query with a
space before the element.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record_commands(runner: run.Runner) -> dict[str, str]:
    digests: dict[str, str] = {}
    for op in workloads.universe(run.WORK):
        if op.key in digests:
            continue
        if op.role == "emit":  # a check must not read a certificate of another command
            (runner.root / op.argv[-1]).unlink(missing_ok=True)
        sample = runner.run(op)
        if op.defect and sample.rc != 0 and op.defect in sample.err:
            continue
        if sample.rc != 0 or op.check(sample.out) is not None:
            raise RuntimeError(f"{op.key} failed: {sample.err.strip()[-300:]}")
        digests[op.key] = run.sha(sample.out)
    return digests


def record_queries(runner: run.Runner) -> dict[str, dict]:
    queries = [q for pool in workloads.query_pool().values() for q in pool]
    sample = runner.query_phase([q.spelled_around_defect() if q.defect else q.argv
                                 for q in queries])
    if sample.rc != 0:
        raise RuntimeError(f"query phase failed: {sample.err.strip()[-300:]}")
    answers = {}
    for q, rec in zip(queries, sample.records, strict=True):
        if rec["rc"] != 0 or workloads.check_query(q, rec["out"]) is not None:
            raise RuntimeError(f"{q.key} failed: {rec['err'].strip()[-300:]}")
        answers[q.key] = {
            "member": json.loads(rec["out"])["results"]["member"],
            "stdout": None if q.defect else run.sha(rec["out"]),
        }
    return answers


def main() -> int:
    runner = run.Runner(run.ROOT)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir()
    try:
        digests = {"commands": record_commands(runner), "queries": record_queries(runner)}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    (run.BENCH / "digests.json").write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests['commands'])} command digests, "
          f"{len(digests['queries'])} query answers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
