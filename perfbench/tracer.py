"""Outside-in tracer for sdinv, and the per-layer numbers drawn from its spans.

The tracer wraps the public functions of the sdinv modules, plus a few named
methods, from outside: no file of the package changes.  A function imported
by name into another module (``from .exactlin import smith_normal_form``) is
replaced in every ``sdinv.*`` namespace, and methods are replaced on their
class.  Each call records a span (name, start, end, parent span, operation
id) in memory; the spans go to a file when the process ends.  Self time is a
span's duration minus the time its child spans cover.

Traced command, byte-identical stdout to ``python -m sdinv.cli ARGS``::

    python3 perfbench/tracer.py SPAN_FILE OP_ID ARGS...
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

MODULES = ("exactlin", "roots", "presets", "kgamma", "wittq", "_factor", "certificate", "cli")
METHODS = (
    ("exactlin", "SmithDecomposition", "verify"),
    ("exactlin", "Lattice", "membership"),
    ("exactlin", "IntMatrix", "mul"),
    ("exactlin", "IntMatrix", "matvec"),
    ("exactlin", "IntMatrix", "column"),
    ("kgamma", "RingElement", "__mul__"),
)
CACHES = {"kgamma.cache": ("kgamma", "gamma_filtration"), "factor.cache": ("_factor", "factorize")}
SCAN = "trace.scan"  # the tracer's own work inside a traced call
MAXIMA = ("exactlin.smith.max_dim", "exactlin.smith.max_bits")  # counters that keep a maximum
_ARRAYS = (
    ("name", "q"), ("parent", "q"), ("op", "q"), ("nested", "b"), ("start", "d"), ("end", "d")
)


def _layer(module: str) -> str:
    return module.lstrip("_")


class Tracer:
    """Spans of one process, kept in flat arrays until :meth:`dump`."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = {key: array(code) for key, code in _ARRAYS}
        self.stack: list[int] = []
        self.op_id = 0
        self.counters: Counter = Counter()
        self.caches: dict = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)`` runs
        once the span has closed."""
        nid = self._name_id(name)
        stack = self.stack
        s = self.spans
        names, parents, ops, nested, starts, ends = (s[key] for key, _ in _ARRAYS)
        clock = time.perf_counter
        active = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            nonlocal active
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            nested.append(1 if active else 0)
            ends.append(0.0)
            stack.append(i)
            active += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                active -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace the public functions and named methods of every sdinv module."""
        mods = {m: importlib.import_module(f"sdinv.{m}") for m in MODULES}
        self._scan = self.wrap(SCAN, _max_bits)
        hooks = {
            ("exactlin", "smith_normal_form"): self._after_smith,
            ("exactlin", "lattice_membership"): self._after_membership,
            ("certificate", "check_certificate"): self._after_check,
        }
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if id(obj) not in replaced:  # an alias keeps the first name
                    name = f"{_layer(short)}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, hooks.get((short, attr)))
        for short, cls_name, attr in METHODS:
            cls = getattr(mods[short], cls_name)
            name = f"{_layer(short)}.{cls_name}.{attr}"
            setattr(cls, attr, self.wrap(name, vars(cls)[attr]))
        for label, (short, attr) in CACHES.items():
            self.caches[label] = getattr(mods[short], attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sdinv" or mod_name.startswith("sdinv.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    # -- hooks: counters measured where the work happens

    def _after_smith(self, args, dec) -> None:
        m = args[0]
        self.counters["exactlin.smith.max_dim"] = max(
            self.counters["exactlin.smith.max_dim"], m.rows, m.cols
        )
        self.counters["exactlin.smith.max_bits"] = max(
            self.counters["exactlin.smith.max_bits"], self._scan(dec.U), self._scan(dec.V)
        )

    def _after_membership(self, args, res) -> None:
        self.counters["exactlin.membership.yes" if res.member else "exactlin.membership.no"] += 1

    def _after_check(self, args, res) -> None:
        entries = args[0].get("entries") if isinstance(args[0], dict) else None
        self.counters["certificate.entries"] += len(entries) if isinstance(entries, list) else 0

    def dump(self, path: str) -> None:
        counters = dict(self.counters)
        for label, fn in self.caches.items():
            info = fn.cache_info()
            counters[f"{label}.hits"] = info.hits
            counters[f"{label}.misses"] = info.misses
        header = {"names": self.names, "spans": len(self.spans["start"]), "counters": counters}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in _ARRAYS:
                self.spans[key].tofile(fh)


def _max_bits(m) -> int:
    return max((abs(x).bit_length() for row in m.entries for x in row), default=0)


# ---------------------------------------------------------------------------
# reading spans back


class Summary:
    """Per-name call counts, inclusive and self time, summed over span files."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()  # outermost spans of a name only
        self.self_s: Counter = Counter()
        self.replay_s = 0.0  # build_certificate inside check_certificate
        self.counters: Counter = Counter()

    def add(self, path: str) -> None:
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["spans"]
            cols = {}
            for key, code in _ARRAYS:
                cols[key] = array(code)
                cols[key].fromfile(fh, n)
        for key, value in header["counters"].items():
            old = self.counters[key]
            self.counters[key] = max(old, value) if key in MAXIMA else old + value
        names = header["names"]
        ids = {label: k for k, label in enumerate(names)}
        name, parent, nested = cols["name"], cols["parent"], cols["nested"]
        dur = [e - s for s, e in zip(cols["start"], cols["end"])]
        scan = ids.get(SCAN, -1)
        for i in range(n):
            if name[i] == scan:
                p = parent[i]
                while p >= 0:
                    dur[p] -= dur[i]
                    p = parent[p]
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0 and name[i] != scan:
                child[parent[i]] += dur[i]
        check = ids.get("certificate.check_certificate", -2)
        build = ids.get("certificate.build_certificate", -2)
        for i in range(n):
            if name[i] == scan:
                continue
            label = names[name[i]]
            self.calls[label] += 1
            self.self_s[label] += dur[i] - child[i]
            if not nested[i]:
                self.total_s[label] += dur[i]
            if name[i] == build and not nested[i] and _has_ancestor(parent, name, i, check):
                self.replay_s += dur[i]

    def ratio(self, label: str) -> float:
        hits, misses = self.counters[f"{label}.hits"], self.counters[f"{label}.misses"]
        return hits / (hits + misses) if hits + misses else 0.0


def _has_ancestor(parent, name, i: int, target: int) -> bool:
    p = parent[i]
    while p >= 0:
        if name[p] == target:
            return True
        p = parent[p]
    return False


# Per-layer metric name -> (span name, statistic).  Statistics: calls, s
# (inclusive time of outermost calls), self_s.
SPAN_METRICS = {
    "exactlin.smith.calls": ("exactlin.smith_normal_form", "calls"),
    "exactlin.smith.self_s": ("exactlin.smith_normal_form", "self_s"),
    "exactlin.smith_verify.s": ("exactlin.SmithDecomposition.verify", "s"),
    "exactlin.det.calls": ("exactlin.det", "calls"),
    "exactlin.det.s": ("exactlin.det", "s"),
    "exactlin.kernel.s": ("exactlin.kernel_basis", "s"),
    "exactlin.matmul.s": ("exactlin.IntMatrix.mul", "s"),
    "exactlin.hermite.calls": ("exactlin.row_hermite", "calls"),
    "exactlin.hermite.s": ("exactlin.row_hermite", "s"),
    "exactlin.membership.calls": ("exactlin.lattice_membership", "calls"),
    "exactlin.membership.s": ("exactlin.lattice_membership", "s"),
    "exactlin.matvec.calls": ("exactlin.IntMatrix.matvec", "calls"),
    "exactlin.matvec.s": ("exactlin.IntMatrix.matvec", "s"),
    "exactlin.column.calls": ("exactlin.IntMatrix.column", "calls"),
    "exactlin.subquotient.s": ("exactlin.subquotient_presentation", "s"),
    "exactlin.index.s": ("exactlin.lattice_index", "s"),
    "roots.character_lattice.s": ("roots.character_lattice", "s"),
    "roots.invariant_quadratic_lattice.s": ("roots.invariant_quadratic_lattice", "s"),
    "roots.dec_subgroup.s": ("roots.dec_subgroup", "s"),
    "roots.indecomposable_group.self_s": ("roots.indecomposable_group", "self_s"),
    "presets.assemble_theorem.self_s": ("presets.assemble_theorem", "self_s"),
    "presets.sl4x4_report.self_s": ("presets.sl4x4_report", "self_s"),
    "kgamma.quillen_lattice.s": ("kgamma.quillen_lattice", "s"),
    "kgamma.gamma_filtration.s": ("kgamma.gamma_filtration", "s"),
    "kgamma.graded_torsion.s": ("kgamma.graded_torsion", "s"),
    "kgamma.ring_mul.calls": ("kgamma.RingElement.__mul__", "calls"),
    "kgamma.ring_mul.s": ("kgamma.RingElement.__mul__", "s"),
    "kgamma.parse.s": ("kgamma.parse_element", "s"),
    "kgamma.filtration_membership.s": ("kgamma.filtration_membership", "s"),
    "wittq.verify_case.calls": ("wittq.verify_case", "calls"),
    "wittq.verify_case.s": ("wittq.verify_case", "s"),
    "wittq.witt_invariants.calls": ("wittq.witt_invariants", "calls"),
    "wittq.witt_invariants.s": ("wittq.witt_invariants", "s"),
    "wittq.hilbert_symbol.calls": ("wittq.hilbert_symbol", "calls"),
    "wittq.sample_chain.s": ("wittq.sample_chain_configuration", "s"),
    "factor.factorize.calls": ("factor.factorize", "calls"),
    "factor.factorize.s": ("factor.factorize", "s"),
    "certificate.check.s": ("certificate.check_certificate", "s"),
    "cli.run.self_s": ("cli.run", "self_s"),
}
COUNTER_METRICS = (
    "exactlin.smith.max_dim",
    "exactlin.smith.max_bits",
    "exactlin.membership.yes",
    "exactlin.membership.no",
    "certificate.entries",
)


def layer_metrics(summary: Summary) -> dict[str, float]:
    """Every per-layer metric the spans give, by its benchmark name."""
    stat = {"calls": summary.calls, "s": summary.total_s, "self_s": summary.self_s}
    out = {metric: stat[kind][span] for metric, (span, kind) in SPAN_METRICS.items()}
    for metric in COUNTER_METRICS:
        out[metric] = summary.counters[metric]
    out["kgamma.cache_hit_ratio"] = summary.ratio("kgamma.cache")
    out["factor.cache_hit_ratio"] = summary.ratio("factor.cache")
    out["certificate.replay.s"] = summary.replay_s
    out["certificate.entry_s"] = out["certificate.check.s"] - summary.replay_s
    return out


def main(argv: list[str]) -> int:
    span_file, op_id, args = argv[0], int(argv[1]), argv[2:]
    tracer = Tracer()
    tracer.op_id = op_id
    tracer.install()
    from sdinv import cli

    try:
        return cli.run(args)
    finally:
        tracer.dump(span_file)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
