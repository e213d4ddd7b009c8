"""sdinv benchmark: four seeded workloads, end-to-end wall time, and an
outside-in per-layer trace.

    python3 perfbench/run.py --workload {classify,gamma,witt,certify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is taken from ``src/``.
Each workload is a closed loop with one client: every operation is a fresh
``python -m sdinv.cli ...`` process started after the previous one exited,
except the gamma query phase, which is one process that sends its queries
through ``sdinv.cli.run``.  A run times set-up (which also warms bytecode
and the file cache) and then repeats whole passes over the workload's
operations until ``--seconds`` have passed and there were at least
``MIN_PASSES``; a metric takes each operation's median.  Every output is
checked against known answers and the digests recorded in ``digests.json``.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics and the tracing
overhead.  The last line of stdout is one JSON object; the lines before it
are the same numbers for people, with the extra workload metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
import workloads
from workloads import DEFECT_MESSAGE, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ".bench_work"  # scratch files of one run, relative to ROOT
SETUP_SAMPLES = 9
MIN_PASSES = 3
OP_TIMEOUT_S = 150
PRESET_WARMUP = "--element=y1"

# Per-layer metrics that must read above zero after a traced pass, because
# the workload does that work; an outside-in tracer that lost a patch shows
# up here as a zero.
COVERAGE = {
    "classify": (
        "exactlin.det.calls", "exactlin.smith.calls", "exactlin.smith.max_bits",
        "exactlin.smith_verify.s", "exactlin.kernel.s", "exactlin.matmul.s",
        "exactlin.hermite.calls", "roots.character_lattice.s",
        "roots.invariant_quadratic_lattice.s", "roots.dec_subgroup.s",
        "roots.indecomposable_group.self_s", "presets.assemble_theorem.self_s",
        "presets.sl4x4_report.self_s", "wittq.verify_case.calls", "cli.run.self_s",
    ),
    "gamma": (
        "kgamma.quillen_lattice.s", "kgamma.gamma_filtration.s", "kgamma.graded_torsion.s",
        "kgamma.ring_mul.calls", "kgamma.parse.s", "kgamma.filtration_membership.s",
        "kgamma.cache_hit_ratio", "exactlin.membership.yes", "exactlin.membership.no",
        "exactlin.matvec.calls", "exactlin.column.calls", "exactlin.subquotient.s",
        "exactlin.index.s", "exactlin.hermite.calls", "cli.run.self_s",
    ),
    "witt": (
        "wittq.witt_invariants.calls", "wittq.hilbert_symbol.calls", "wittq.sample_chain.s",
        "factor.factorize.calls", "factor.cache_hit_ratio", "cli.run.self_s",
    ),
    "certify": (
        "certificate.check.s", "certificate.replay.s", "certificate.entry_s",
        "certificate.entries", "exactlin.smith_verify.s", "cli.run.self_s",
    ),
}


@dataclass
class Sample:
    """One process: exit code, wall time from start to exit, peak RSS, output."""

    rc: int | None
    wall: float
    rss_mb: float
    out: str
    err: str
    records: list = field(default_factory=list)  # query phase: one per query


def sha(text: str) -> str:
    """The digest recorded for a report: the first 16 hex digits of SHA-256."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Runner:
    """Starts one child at a time and waits for it (closed loop, 1 client)."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.work = root / WORK
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def spawn(self, argv: list[str], stdin: Path | None = None) -> Sample:
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        lock = threading.Lock()
        with (
            open(out_path, "wb") as fo,
            open(err_path, "wb") as fe,
            open(stdin or os.devnull, "rb") as fi,
        ):
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=fi, stdout=fo, stderr=fe, cwd=self.root, env=self.env
            )

            def expire():
                with lock:
                    if proc.returncode is None:
                        proc.kill()

            timer = threading.Timer(OP_TIMEOUT_S, expire)
            timer.start()
            try:
                # wait without reaping, so the timer never signals a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                with lock:
                    _, status, usage = os.wait4(proc.pid, 0)
                    proc.returncode = os.waitstatus_to_exitcode(status)
                wall = time.perf_counter() - t0
            except BaseException:
                with lock:
                    if proc.returncode is None:
                        proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
        return Sample(
            proc.returncode, wall, usage.ru_maxrss / 1024,
            out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
        )

    def run(self, op: Op, span_file: Path | None = None, op_id: int = 0) -> Sample:
        trace = [str(span_file)] if span_file else []
        if op.role != "queries":
            if span_file:
                argv = [sys.executable, str(BENCH / "tracer.py"), *trace, str(op_id), *op.argv]
            else:
                argv = [sys.executable, "-m", "sdinv.cli", *op.argv]
            return self.spawn(argv)
        return self.query_phase([q.argv for q in op.queries], trace)

    def query_phase(self, queries: list[list[str]], trace: list[str] = ()) -> Sample:
        """One process that sends ``gamma member`` queries through
        ``sdinv.cli.run``, after one untimed query per preset."""
        presets = sorted({argv[3] for argv in queries})
        plan = {
            "warm": [
                ["gamma", "member", "--preset", p, PRESET_WARMUP, "--degree", "1"]
                for p in presets
            ],
            "timed": queries,
        }
        plan_path = self.work / "queries.json"
        plan_path.write_text(json.dumps(plan))
        sample = self.spawn([sys.executable, str(BENCH / "query.py"), *trace], stdin=plan_path)
        if sample.rc == 0:
            sample.records = [json.loads(line) for line in sample.out.splitlines()]
        return sample

    def setup_s(self, samples: int = SETUP_SAMPLES) -> float:
        """Median time from a fresh interpreter to a returned ``import sdinv.cli``."""
        walls = []
        for _ in range(samples):
            s = self.spawn([sys.executable, "-c", "import sdinv.cli"])
            if s.rc != 0:
                raise RuntimeError(f"import sdinv.cli failed: {s.err.strip()}")
            walls.append(s.wall)
        return statistics.median(walls)


class Judge:
    """Checks outputs; counts attempted and failed operations.

    An operation fails on a non-zero exit, a wrong known answer, or stdout
    that differs from its recorded digest; a member query also fails on an
    answer other than the recorded one.  A failure is expected only when it
    is the documented leading-minus defect; any other failure makes the run
    incorrect.  Operations that hit the defect have no recorded stdout, so
    if they succeed they are judged by their known and recorded answers.
    """

    def __init__(self, digests: dict) -> None:
        self.commands: dict[str, str] = digests["commands"]
        self.queries: dict[str, dict] = digests["queries"]
        self.attempted = 0
        self.failed = 0
        self.defect_predicted = 0  # attempted operations the documented defect hits
        self.problems: list[str] = []

    def _one(
        self, label: str, rc, out: str, err: str, check, defect: str | None, digest: str | None
    ) -> bool:
        reason = None
        if rc != 0:
            if not (defect and defect in err):
                reason = f"exit {rc}: {err.strip()[-300:]}"
        else:
            try:
                reason = check(out)
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unreadable report ({exc!r})"
            if reason is None and digest is not None and sha(out) != digest:
                reason = "stdout differs from the recorded digest"
        failed = rc != 0 or reason is not None
        self.attempted += 1
        self.failed += failed
        self.defect_predicted += defect is not None
        if reason is not None:
            self.problems.append(f"{label}: {reason}")
        return failed

    def record(self, op: Op, sample: Sample) -> None:
        if op.role != "queries":
            digest = self.commands.get(op.key)
            if digest is None and op.defect is None:
                self.problems.append(f"{op.key}: no recorded digest")
            self._one(op.key, sample.rc, sample.out, sample.err, op.check, op.defect, digest)
            return
        if sample.rc != 0 or len(sample.records) != len(op.queries):
            self.problems.append(f"query phase: exit {sample.rc}: {sample.err.strip()[-300:]}")
            self.attempted += len(op.queries)
            self.failed += len(op.queries)
            return
        for q, rec in zip(op.queries, sample.records):
            want = self.queries.get(q.key)
            if want is None:
                self.problems.append(f"{q.key}: no recorded answer")
                want = {"member": None, "stdout": None}
            check = lambda out, q=q, member=want["member"]: workloads.check_query(q, out, member)
            defect = DEFECT_MESSAGE if q.defect else None
            rec["failed"] = self._one(
                q.key, rec["rc"], rec["out"], rec["err"], check, defect, want["stdout"]
            )


# ---------------------------------------------------------------------------
# passes and metrics


def one_pass(
    runner: Runner, judge: Judge, ops: list[Op], trace_dir: Path | None = None
):
    samples = []
    summary = tracer.Summary() if trace_dir else None
    for k, op in enumerate(ops):
        span_file = trace_dir / f"spans_{k}.bin" if trace_dir else None
        sample = runner.run(op, span_file, op_id=k + 1)
        judge.record(op, sample)
        if span_file and span_file.exists():
            summary.add(str(span_file))
            span_file.unlink()
        samples.append(sample)
    return samples, summary


def timed_passes(
    runner: Runner, judge: Judge, ops: list[Op], seconds: float
) -> dict[int, list[Sample]]:
    """Whole passes over the operations, until ``seconds`` have passed and
    there were at least ``MIN_PASSES``."""
    passes: list[list[Sample]] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(one_pass(runner, judge, ops)[0])
    return {k: [samples[k] for samples in passes] for k in range(len(ops))}


def end_to_end(ops: list[Op], by_op: dict[int, list[Sample]]) -> tuple[dict, dict]:
    """The contract metrics, and the workload-specific extras."""
    wall = {k: statistics.median(s.wall for s in samples) for k, samples in by_op.items()}
    cmds = [k for k, op in enumerate(ops) if op.role != "queries"]
    metrics = {
        "wall_s": (sum(wall.values()), "s"),
        "slowest_cmd_s": (max(wall[k] for k in cmds), "s"),
        "peak_rss_mb": (max(s.rss_mb for samples in by_op.values() for s in samples), "MB"),
    }
    extras = {}
    for k, op in enumerate(ops):
        if op.role != "queries":
            continue
        latencies, rates = [], []
        for s in by_op[k]:
            if not s.records:
                continue
            answered = [r for r in s.records if not r.get("failed", True)]
            latencies += [r["s"] for r in answered]
            rates.append(len(answered) / sum(r["s"] for r in s.records))
        if len(latencies) >= 2:
            extras["member_p50_ms"] = (statistics.median(latencies) * 1000, "ms")
            extras["member_p95_ms"] = (statistics.quantiles(latencies, n=20)[-1] * 1000, "ms")
        extras["member_samples"] = (len(latencies), "count")
        extras["queries_per_s"] = (statistics.median(rates), "1/s")
    trials = sum(op.trials for op in ops)
    if trials:
        witt_s = sum(wall[k] for k, op in enumerate(ops) if op.trials)
        extras["trials_per_s"] = (trials / witt_s, "1/s")
    for role in ("emit", "check"):
        if any(op.role == role for op in ops):
            extras[f"{role}_s"] = (sum(wall[k] for k, op in enumerate(ops) if op.role == role), "s")
    return metrics, extras


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".yes", ".no", ".max_dim", ".entries")):
        return "count"
    if name.endswith("max_bits"):
        return "bits"
    if name.endswith(("ratio", "share")):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "s"


def coverage_problems(workload: str, layers: dict[str, float]) -> list[str]:
    out = [f"{m} reads zero on {workload}" for m in COVERAGE[workload] if not layers[m] > 0]
    if workload == "witt":
        want = len(workloads.IDENTITY_IDS) * workloads.WITT_TRIALS
        got = layers["wittq.verify_case.calls"]
        if got != want:
            out.append(f"wittq.verify_case.calls is {got}, expected {want}")
    return out


def outputs(op: Op, sample: Sample) -> list[str]:
    """The report texts an operation printed: one per query in the query phase."""
    return [r["out"] for r in sample.records] if op.role == "queries" else [sample.out]


def trace_run(runner: Runner, judge: Judge, ops: list[Op], workload: str) -> dict:
    untraced, _ = one_pass(runner, judge, ops)
    traced, summary = one_pass(runner, judge, ops, trace_dir=runner.work)
    for op, a, b in zip(ops, untraced, traced):
        if outputs(op, a) != outputs(op, b):
            judge.problems.append(f"{op.key}: stdout under the tracer differs from untraced stdout")
    layers = tracer.layer_metrics(summary)
    layers["cli.report_bytes"] = sum(
        len(text.encode()) for op, s in zip(ops, traced) for text in outputs(op, s)
    )
    wall_a, wall_b = sum(s.wall for s in untraced), sum(s.wall for s in traced)
    layers["trace.untraced_wall_s"] = wall_a
    layers["trace.traced_wall_s"] = wall_b
    layers["trace.overhead_share"] = wall_b / wall_a - 1
    judge.problems += coverage_problems(workload, layers)
    return {name: (value, layer_unit(name)) for name, value in layers.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "sdinv" / "cli.py").is_file():
        print(f"error: no sdinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(ROOT)
    shutil.rmtree(runner.work, ignore_errors=True)
    runner.work.mkdir()
    try:
        digests = json.loads((BENCH / "digests.json").read_text())
        ops = workloads.build(args.workload, args.seed, WORK)
        judge = Judge(digests)
        if args.trace:
            runner.setup_s(samples=1)  # warms bytecode before the untraced pass
            metrics = trace_run(runner, judge, ops, args.workload)
            extras = {}
        else:
            setup = runner.setup_s()
            by_op = timed_passes(runner, judge, ops, args.seconds)
            metrics, extras = end_to_end(ops, by_op)
            metrics["setup_s"] = (setup, "s")
            extras["passes"] = (len(by_op[0]), "count")
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)

    extras["fail_share"] = (judge.failed / judge.attempted, "ratio")
    print(
        f"# sdinv benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
        f"python={sys.version.split()[0]} nproc={os.cpu_count()} loop=closed clients=1"
    )
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(
        f"# attempted={judge.attempted} failed={judge.failed} "
        f"defect_predicted={judge.defect_predicted} unexpected_problems={len(judge.problems)}"
    )
    for problem in judge.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {
        "correct": not judge.problems,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
