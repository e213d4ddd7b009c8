"""Seeded operation lists and known-answer checks for the four workloads.

Every operation is the argument list of one ``sdinv`` command, except the
gamma query phase, which is one process that sends many ``gamma member``
queries through ``sdinv.cli.run``.  The known answers below come from the
paper, not from sdinv:

* the indecomposable degree-3 invariants of the (SL2)^n and SL4 x SL4
  quotients are Z/2;
* every theorem row is exact and every alpha suite passes;
* a split product has no graded torsion, every epsilon_d and the split index
  equal 1, and membership in its gamma filtration is decided by y-degree;
* every counting identity holds, every Witt suite passes, every certificate
  checks.

The seed draws every seeded input from a fixed pool: the ``--seed`` of
``theorem`` and ``witt`` from ``SEED_POOL``, and the member queries from
``query_pool()``.  ``universe()`` lists every operation the pools allow, so
``record_digests.py`` records the stdout of each one and no seed runs an
operation without a recorded digest.

This module does not import sdinv: the runner treats the program as a black
box that it reaches only through its command line.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

WORKLOADS = ("classify", "gamma", "witt", "certify")

# Copy of sdinv.wittq.IDENTITY_IDS; the tracer's coverage check
# (verify_case calls == 8 * WITT_TRIALS) fails if the two drift apart.
IDENTITY_IDS = (
    "twofold",
    "square_slot",
    "double",
    "alpha2",
    "lemma_alpha3_exact",
    "lemma_alpha3_modI4",
    "prop_step_Qonetwo",
    "alpha4_full",
)
WITT_TRIALS = 500  # start-up is about a third of a pass at this size
CERTIFY_WITT_TRIALS = 200
QUERIES_PER_PRESET = 180  # about half hit the leading-minus defect
QUERY_POOL_PER_PRESET = 240
_POOL_RNG = random.Random("sdinv-bench/seed-pool")
SEED_POOL = tuple(_POOL_RNG.randrange(1, 2**31) for _ in range(12))

GAMMA_REPORT_PRESETS = (
    "conic1",
    "conics3",
    "conics4",
    "deg4pair",
    "split:2,2,2,2,2",
    "split:3,3,3",
    "split:6,6",
)
CHOW2_PRESETS = ("conics3", "conics4", "deg4pair")

# Factor degrees d_j of the query presets: the ring is Z[y_1..y_n]/(y_j^d_j).
QUERY_PRESETS = {
    "split:3,3,3": (3, 3, 3),
    "conics4": (2, 2, 2, 2),
    "deg4pair": (4, 4),
}

# What sdinv prints to stderr when a normalized command echo that holds an
# element with a leading minus is parsed again (see NOTES.md).
DEFECT_MESSAGE = "argument --element: expected one argument"
MISSING_CERT_MESSAGE = "cannot read certificate"


@dataclass
class Op:
    """One operation: a fresh ``python -m sdinv.cli ARGV`` process.

    ``check`` maps the operation's stdout to a failure reason or None.
    ``key`` names the operation's recorded digest.  ``defect`` is the stderr
    text the operation is predicted to fail with because of the documented
    CLI defect.  ``queries`` is set only on the gamma query phase.
    """

    argv: list[str]
    check: Callable[[str], str | None] | None  # None on the query phase: see check_query
    role: str = "cmd"  # cmd, emit, check or queries
    defect: str | None = None
    trials: int = 0
    queries: list["Query"] = field(default_factory=list)
    key: str = ""

    def __post_init__(self) -> None:
        self.key = self.key or " ".join(self.argv)


@dataclass
class Query:
    argv: list[str]
    element: str
    expected: bool | None  # oracle answer on split presets, else None

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def defect(self) -> bool:
        return self.element.startswith("-")

    def spelled_around_defect(self) -> list[str]:
        """The same query with a space before the element, which sdinv reads
        as the same element but which does not trip the leading-minus defect;
        used only to record the answers of defect-hit queries."""
        return [f"--element= {self.element}" if a.startswith("--element=") else a
                for a in self.argv]


# ---------------------------------------------------------------------------
# known-answer checks


def _results(out: str) -> dict:
    return json.loads(out)["results"]


def _check_inv3(out: str) -> str | None:
    group = _results(out)["group"]
    return None if group == "Z/2" else f"inv3 group {group}, expected Z/2"


def _check_theorem(out: str) -> str | None:
    res = _results(out)
    if res["inv3_ind_H"]["group"] != "Z/2":
        return f"theorem inv3_ind_H {res['inv3_ind_H']['group']}, expected Z/2"
    if res["exactness_holds"] is not True:
        return "theorem row is not exact"
    for suite in res["alpha_suites"]:
        if suite["passes"] != suite["trials"]:
            return f"alpha suite {suite['identity']} passed {suite['passes']}/{suite['trials']}"
    return None


def _check_sl4x4(out: str) -> str | None:
    res = _results(out)
    if res["inv3_ind"] != "Z/2":
        return f"sl4x4 inv3_ind {res['inv3_ind']}, expected Z/2"
    if not (res["consistent"] and res["all_normalized_semi_decomposable"]):
        return "sl4x4 report is inconsistent"
    return None


def _check_graded(preset: str) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        res = _results(out)
        if res["counting_identity_holds"] is not True:
            return f"counting identity fails on {preset}"
        if preset.startswith("split:"):
            torsions = [res["torsion"]] + [p["torsion"] for p in res.get("graded", [])]
            if any(t != "0" for t in torsions):
                return f"split preset {preset} has torsion {torsions}"
            if res["split_index"] != 1 or any(e != 1 for e in res["epsilons"]):
                return (
                    f"split preset {preset} has index {res['split_index']}, "
                    f"epsilons {res['epsilons']}"
                )
        return None

    return check


def _check_witt(out: str) -> str | None:
    res = _results(out)
    if res["all_pass"] is not True or res["passes"] != res["trials"]:
        return f"witt {res['identity']} passed {res['passes']}/{res['trials']}"
    return None


def _check_certificate(out: str) -> str | None:
    return None if out.startswith("certificate OK") else f"certificate check printed {out!r}"


def check_query(query: Query, out: str, recorded: bool | None = None) -> str | None:
    """Checks a member answer against the split oracle and, when given, the
    answer recorded when the benchmark was created."""
    member = _results(out)["member"]
    if not isinstance(member, bool):
        return f"{query.element}: member answer {member!r} is not a boolean"
    degree = query.argv[-2]
    if query.expected is not None and member != query.expected:
        return f"{query.element} at degree {degree}: member {member}, oracle {query.expected}"
    if recorded is not None and member != recorded:
        return f"{query.element} at degree {degree}: member {member}, recorded {recorded}"
    return None


# ---------------------------------------------------------------------------
# pools and seeded generators


def _element(rng: random.Random, degrees: tuple[int, ...]) -> tuple[str, list[tuple[int, ...]]]:
    """A signed integer combination of distinct non-constant y-monomials.

    Exponents run up to and including the truncation d_j, where the monomial
    vanishes in the ring.  Terms keep the order they were drawn in, so about
    half the elements start with a negative coefficient.
    """
    terms = rng.randint(1, 3)
    monomials: list[tuple[int, ...]] = []
    while len(monomials) < terms:
        exps = tuple(rng.randint(0, d) for d in degrees)
        if any(exps) and exps not in monomials:
            monomials.append(exps)
    text = ""
    for exps in monomials:
        coeff = rng.choice([c for c in range(-6, 7) if c])
        factors = [f"y{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(exps) if e]
        body = "*".join(factors)
        if abs(coeff) != 1:
            body = f"{abs(coeff)}*{body}"
        sign = "-" if coeff < 0 else ("+" if text else "")
        text += sign + body
    return text, monomials


def _split_oracle(degrees, monomials, degree: int) -> bool:
    """Membership in step ``degree`` of the gamma filtration of a split product.

    There the filtration is the y-degree filtration, so an element lies in
    step d exactly when it is zero or its lowest surviving y-degree is >= d.
    """
    alive = [sum(e) for e in monomials if all(x < d for x, d in zip(e, degrees))]
    return not alive or min(alive) >= degree


def _query(rng: random.Random, preset: str) -> Query:
    degrees = QUERY_PRESETS[preset]
    element, monomials = _element(rng, degrees)
    degree = rng.randint(1, sum(d - 1 for d in degrees) + 1)
    expected = _split_oracle(degrees, monomials, degree) if preset.startswith("split:") else None
    argv = [
        "gamma", "member", "--preset", preset, f"--element={element}",
        "--degree", str(degree), "--json",
    ]
    return Query(argv, element, expected)


@functools.cache
def query_pool() -> dict[str, tuple[Query, ...]]:
    """The member queries a seed draws from, per preset; the same every run."""
    pool = {}
    for preset in QUERY_PRESETS:
        rng = random.Random(f"sdinv-bench/queries/{preset}")
        pool[preset] = tuple(_query(rng, preset) for _ in range(QUERY_POOL_PER_PRESET))
    return pool


def _certify_members() -> list[Query]:
    """The member queries certify draws from: four per query preset."""
    return [q for preset in QUERY_PRESETS for q in query_pool()[preset][:4]]


def _classify(seed: int) -> list[Op]:
    ops = [Op(["inv3", "--preset", f"sl2n:{n}", "--json"], _check_inv3) for n in range(2, 9)]
    ops.append(Op(["inv3", "--preset", "sl4x4", "--json"], _check_inv3))
    ops += [
        Op(["theorem", "--n", str(n), "--seed", str(seed), "--json"], _check_theorem)
        for n in range(2, 9)
    ]
    ops.append(Op(["sl4x4", "--json"], _check_sl4x4))
    return ops


def _gamma_reports() -> list[Op]:
    ops = [
        Op(["gamma", "report", "--preset", p, "--json"], _check_graded(p))
        for p in GAMMA_REPORT_PRESETS
    ]
    return ops + [Op(["chow2", "--preset", p, "--json"], _check_graded(p)) for p in CHOW2_PRESETS]


def _gamma(rng: random.Random) -> list[Op]:
    queries = [q for p in QUERY_PRESETS for q in rng.sample(query_pool()[p], QUERIES_PER_PRESET)]
    rng.shuffle(queries)
    return _gamma_reports() + [Op(["<query phase>"], None, role="queries", queries=queries)]


def _witt(ident: str, seed: int) -> Op:
    return Op(
        ["witt", "verify", "--identity", ident, "--trials", str(WITT_TRIALS),
         "--seed", str(seed), "--json"],
        _check_witt,
        trials=WITT_TRIALS,
    )


def _certify(seed: int, member: Query, cert_dir: str) -> list[Op]:
    commands = [
        (["inv3", "--preset", "sl2n:7"], _check_inv3, None),
        (["sl4x4"], _check_sl4x4, None),
        (["chow2", "--preset", "conics4"], _check_graded("conics4"), None),
        (["gamma", "report", "--preset", "deg4pair"], _check_graded("deg4pair"), None),
        (["gamma", "report", "--preset", "split:3,3,3"], _check_graded("split:3,3,3"), None),
        (
            member.argv[:-1],
            lambda out: check_query(member, out),
            DEFECT_MESSAGE if member.defect else None,
        ),
        (["witt", "verify", "--identity", "alpha4_full", "--trials", str(CERTIFY_WITT_TRIALS),
          "--seed", str(seed)], _check_witt, None),
        (["theorem", "--n", "7", "--seed", str(seed)], _check_theorem, None),
    ]
    ops = []
    for k, (argv, check, defect) in enumerate(commands):
        path = f"{cert_dir}/cert_{k}.json"
        emit = Op(argv + ["--json", "--certificate", path], check, role="emit", defect=defect)
        ops.append(emit)
        # the check's argv is the same for every seed, so its digest is
        # named after the command that wrote the certificate
        ops.append(
            Op(["--check-certificate", path], _check_certificate, role="check",
               defect=MISSING_CERT_MESSAGE if defect else None, key=f"check: {emit.key}")
        )
    return ops


def build(workload: str, seed: int, cert_dir: str) -> list[Op]:
    """The operations of one pass of ``workload``; the same seed, the same list."""
    rng = random.Random(f"sdinv-bench/{workload}/{seed}")
    if workload == "classify":
        return _classify(rng.choice(SEED_POOL))
    if workload == "gamma":
        return _gamma(rng)
    if workload == "witt":
        return [_witt(ident, rng.choice(SEED_POOL)) for ident in IDENTITY_IDS]
    if workload == "certify":
        return _certify(rng.choice(SEED_POOL), rng.choice(_certify_members()), cert_dir)
    raise ValueError(f"unknown workload {workload!r}")


def universe(cert_dir: str) -> Iterator[Op]:
    """Every command any seed can run, in an order that writes each
    certificate before its check (repeats included); the member queries are
    in ``query_pool()``."""
    for seed in SEED_POOL:
        yield from _classify(seed)
        yield from (_witt(ident, seed) for ident in IDENTITY_IDS)
    yield from _gamma_reports()
    for seed, member in zip(SEED_POOL, _certify_members(), strict=True):
        yield from _certify(seed, member, cert_dir)
