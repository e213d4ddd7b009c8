"""The warm gamma query phase: one process that answers many ``gamma member``
queries through ``sdinv.cli.run``, as a library caller would.

Reads ``{"warm": [argv, ...], "timed": [argv, ...]}`` as JSON on stdin.  The
warm queries build each preset's filtration and are not timed.  Writes one
JSON object per timed query to stdout, one a line: exit code, latency in
seconds, and the query's stdout and stderr.

    python3 perfbench/query.py [SPAN_FILE] < queries.json

With a span file the sdinv layers are traced and each query gets its own
operation id.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    plan = json.load(sys.stdin)
    tracer = None
    if argv:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from sdinv import cli

    for args in plan["warm"]:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.run(args, out=io.StringIO())
    records = []
    for k, args in enumerate(plan["timed"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.op_id = k + 1
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.run(args, out=out)
            except Exception:  # a crash is this query's result, not the phase's
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter() - t0
        records.append({"rc": rc, "s": elapsed, "out": out.getvalue(), "err": err.getvalue()})
    if tracer is not None:
        tracer.dump(argv[0])
    for rec in records:
        print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
