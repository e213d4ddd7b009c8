"""Machine-checkable certificates for command results.

A certificate is a JSON document with typed entries.  Each command's entry
list is built from the evidence its report was read from, so writing a
certificate computes nothing the report did not.  Verification runs in two
layers:

* the algebraic layer refuses an entry whose fields break the typed rule,
  one rule for every kind (numbers are JSON integers, flags are bools),
  then re-verifies each entry on its own terms with the exact linear
  algebra primitives (products of stored transforms, membership
  coordinates, torsion witness orders) or, for randomized trials, by
  deciding the draws of the stored seed, which each stored sample must
  equal.  A torsion witness is a bare vector: the stored Smith
  decomposition maps the subquotient onto the sum of the ``Z/d_i``, so the
  image of the witness under ``U`` proves its order with nothing factored;
* the replay layer rebuilds the whole certificate from the stored command
  echo, which is a pure function of it, and compares payloads by value, so
  any edit of a semantic field is caught even when the edited value is
  internally consistent.  The echo is read by the command table and must be
  in the normalized form a report echoes.

Negative claims (non-membership, exact torsion orders) therefore travel
with evidence that an auditor can re-check without trusting the code that
produced them.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING

from . import __version__, commands
from .errors import MAX_AMBIENT_RANK, MAX_TRIALS, InputError

if TYPE_CHECKING:
    from .exactlin import Lattice, MembershipResult, SubquotientData
    from .kgamma import GradedTorsionReport
    from .presets import Row
    from .roots import IndecomposableResult

CERT_FORMAT = "sdinv-cert/2"


# ---------------------------------------------------------------------------
# entry formats


def _cols(lattice: Lattice) -> list[list[int]]:
    return [list(c) for c in lattice.basis_columns]


def lattice_basis_entry(label: str, generators, lattice: Lattice) -> dict:
    return {
        "kind": "lattice_basis",
        "label": label,
        "ambient_rank": lattice.ambient_rank,
        "generators": [list(map(int, g)) for g in generators],
        "canonical_basis": _cols(lattice),
    }


def membership_entry(label: str, lattice: Lattice, vector, result: MembershipResult) -> dict:
    entry = {
        "kind": "membership",
        "label": label,
        "ambient_rank": lattice.ambient_rank,
        "lattice_basis": _cols(lattice),
        "vector": list(map(int, vector)),
        "member": result.member,
    }
    if result.member:
        entry["coordinates"] = list(map(int, result.coordinates))
    else:
        cert = result.certificate
        entry["certificate"] = {
            "obstruction": cert.kind,
            "functional": list(cert.functional),
            "prime": cert.prime,
            "power": cert.power,
        }
    return entry


def subquotient_entry(label: str, data: SubquotientData) -> dict:
    return {
        "kind": "subquotient",
        "label": label,
        "ambient_rank": data.sup.ambient_rank,
        "sup_basis": _cols(data.sup),
        "sub_basis": _cols(data.sub),
        "relation": [list(r) for r in data.relation.entries],
        "smith": {
            "U": [list(r) for r in data.smith.U.entries],
            "D": [list(r) for r in data.smith.D.entries],
            "V": [list(r) for r in data.smith.V.entries],
        },
        "free_rank": data.group.free_rank,
        "invariant_factors": list(data.group.invariant_factors),
        "witnesses": [list(w) for w in data.witnesses],
    }


def index_entry(label: str, lattice: Lattice, index: int) -> dict:
    return {
        "kind": "index",
        "label": label,
        "ambient_rank": lattice.ambient_rank,
        "sub_basis": _cols(lattice),
        "index": index,
    }


def counting_entry(report: GradedTorsionReport) -> dict:
    return {
        "kind": "counting_identity",
        "torsion_orders": list(report.torsion_orders()),
        "split_index": report.split_index,
        "epsilons": list(report.epsilon),
        "holds": report.counting_identity_holds,
    }


def fixed_vectors_entry(label: str, matrices, vectors) -> dict:
    return {
        "kind": "fixed_vectors",
        "label": label,
        "matrices": [[list(r) for r in m.entries] for m in matrices],
        "vectors": [list(map(int, v)) for v in vectors],
    }


def witt_trials_entry(cases) -> dict:
    return {
        "kind": "witt_trials",
        "identity": cases[0].identity_id,
        "trials": len(cases),
        "seed": cases[0].seed,
        "cases": [
            {
                "trial": c.trial,
                "sample": [[k, str(v)] for k, v in c.sample],
                "lhs": list(c.lhs),
                "rhs": list(c.rhs),
                "level": c.congruence_level,
                "verdict": c.verdict,
            }
            for c in cases
        ],
    }


# ---------------------------------------------------------------------------
# each command's entry list, built from the evidence its report was read from


def _nesting_entries(data: SubquotientData, label) -> list[dict]:
    """Membership of each basis vector of ``data.sub`` in ``data.sup``: its
    coordinates are the matching column of the relation matrix, which the
    presentation read off the same back-substitution a membership runs."""
    from .exactlin import MembershipResult

    return [
        membership_entry(label(j), data.sup, col, MembershipResult(True, coordinates=coords))
        for j, (col, coords) in enumerate(
            zip(data.sub.basis_columns, data.relation.transpose().entries)
        )
    ]


def _inv3_entries(res: IndecomposableResult) -> list[dict]:
    from .roots import get_preset

    data = get_preset(res.preset)
    return [
        lattice_basis_entry(
            "reductive character lattice",
            [v for _, v in data.display_basis],
            res.reductive_lattice,
        ),
        lattice_basis_entry(
            "semisimple character lattice",
            [v for _, v in data.semisimple_display],
            res.character_lattice,
        ),
        fixed_vectors_entry(
            "weyl invariance of the invariant quadratic lattice",
            res.weyl_actions,
            res.presentation.sup.basis_columns,
        ),
        *_nesting_entries(
            res.presentation, lambda j: f"chern generator {j} lies in the invariant lattice"
        ),
        subquotient_entry("indecomposable invariant group", res.presentation),
    ]


def _graded_entries(report: GradedTorsionReport) -> list[dict]:
    """Step d over step d - 1 is the graded piece of degree d - 1."""
    from .kgamma import quillen_basis_elements

    k0 = report.pieces[0].sup
    entries = [
        lattice_basis_entry(
            "descended subring",
            [el.y_vector() for el in quillen_basis_elements(report.config)],
            k0,
        ),
        index_entry("split index", k0, report.split_index),
    ]
    for d, p in enumerate(report.pieces, start=1):
        entries += _nesting_entries(
            p, lambda j: f"filtration step {d} vector {j} nests into step {d - 1}"
        )
    entries += [
        subquotient_entry(f"graded piece at degree {d}", p) for d, p in enumerate(report.pieces)
    ]
    entries += [
        index_entry(f"split image index at degree {d}", image, eps)
        for d, (image, eps) in enumerate(zip(report.split_images, report.epsilon), start=1)
    ]
    return entries + [counting_entry(report)]


def _member_entries(evidence) -> list[dict]:
    from .kgamma import gamma_filtration

    preset, degree, vector, result = evidence
    lattice = gamma_filtration(preset).level(degree)
    return [
        lattice_basis_entry(f"filtration step {degree}", lattice.basis_columns, lattice),
        membership_entry(f"membership at filtration degree {degree}", lattice, vector, result),
    ]


def _theorem_entries(row: Row) -> list[dict]:
    entries = [
        subquotient_entry("indecomposable invariant group", row.indecomposable.presentation)
    ]
    if row.chow is not None:
        entries.append(counting_entry(row.chow.report))
        if row.chow.piece is not None:
            entries.append(subquotient_entry("graded piece at degree 2", row.chow.piece))
    return entries + [witt_trials_entry(cases) for cases in row.alpha_suites]


# command words -> the entry list of its certificate, from the evidence the
# command's backend returns with its results
_ENTRY_LISTS = {
    ("inv3",): _inv3_entries,
    ("chow2",): _graded_entries,
    ("gamma", "member"): _member_entries,
    ("gamma", "report"): _graded_entries,
    ("witt", "verify"): lambda cases: [witt_trials_entry(cases)],
    ("theorem",): _theorem_entries,
    ("sl4x4",): lambda row: _inv3_entries(row.indecomposable) + [counting_entry(row.chow.report)],
}


def certificate_dict(command: list[str], args, evidence) -> dict:
    """The certificate of a parsed command, from the evidence its report was
    read from; ``command`` is the normalized echo of ``args``."""
    return {
        "format": CERT_FORMAT,
        "command": command,
        "seed": getattr(args, "seed", None),
        "versions": {"sdinv": __version__},
        "entries": _ENTRY_LISTS[args.words](evidence),
    }


# ---------------------------------------------------------------------------
# algebraic verification


class CertificateError(Exception):
    pass


# One typed rule for every field of an entry, checked on the whole entry
# before its verifier runs.  Evidence is exact: ``int()`` would truncate a
# float into a passing claim and ``==`` takes 2.0 for 2 and True for 1, so a
# number is a JSON integer and a bool is not one.  The fields below hold a
# flag, text, or the prime and power that a rank obstruction leaves null; a
# sample holds the name and value pairs its verifier compares with the draw
# of the seed.  Every other field holds numbers, through lists and dicts.
# The rule also makes replay's comparison of values as strict as a
# comparison of JSON text.
_FIELD_TYPES = {
    **dict.fromkeys(("member", "verdict", "holds"), (lambda v: type(v) is bool, "a bool")),
    **dict.fromkeys(
        ("kind", "label", "identity", "level", "obstruction"), (lambda v: type(v) is str, "text")
    ),
    **dict.fromkeys(
        ("prime", "power"), (lambda v: v is None or type(v) is int, "null or an integer")
    ),
    "sample": (
        lambda v: type(v) is list and all(type(p) is list and len(p) == 2 for p in v),
        "a list of name and value pairs",
    ),
}


def _type_failure(value, field: str | None = None) -> str | None:
    """Why ``value``, held by ``field``, breaks the typed rule, or None."""
    rule = _FIELD_TYPES.get(field)
    if rule is not None:
        holds, what = rule
        return None if holds(value) else f"{field} is not {what}"
    if isinstance(value, list):
        for x in value:
            if type(x) is not int and (why := _type_failure(x)):
                return why
        return None
    if isinstance(value, dict):
        for k, v in value.items():
            if why := _type_failure(v, k):
                return why
        return None
    return None if type(value) is int else "evidence holds a non-integer"


def _stated_lattice(entry, key: str) -> Lattice:
    """The lattice of the canonical basis stated at ``key``, used as it stands
    after a check of its echelon shape that costs the size of the basis: each
    column has the ambient length, pivots are positive at strictly increasing
    positions, and every entry above a pivot lies in ``[0, pivot)``.  A basis
    of that shape is the unique Hermite basis of its span, so no Hermite form
    runs."""
    from .exactlin import Lattice

    rank = entry["ambient_rank"]
    cols = tuple(tuple(c) for c in entry[key])
    last = -1
    for j, col in enumerate(cols):
        p = next((i for i, x in enumerate(col) if x), rank)
        if (
            len(col) != rank
            or not last < p < rank
            or col[p] < 0
            or not all(0 <= c[p] < col[p] for c in cols[:j])
        ):
            raise CertificateError(f"{entry['label']}: {key} is not a canonical basis")
        last = p
    return Lattice(rank, cols)


def _verify_lattice_basis(entry) -> None:
    """A stored basis equal to the Hermite form of the generators is
    canonical.  The package states at most ``ambient_rank`` generators, and
    more are refused before the Hermite form, whose cost grows with them."""
    from .exactlin import Lattice

    rank, generators = entry["ambient_rank"], entry["generators"]
    if len(generators) > rank:
        raise CertificateError(f"{entry['label']}: more generators than the ambient rank")
    lat = Lattice.from_columns(rank, generators)
    if list(lat.basis_columns) != [tuple(c) for c in entry["canonical_basis"]]:
        raise CertificateError(f"{entry['label']}: canonical basis mismatch")


def _pairing(functional, w) -> int:
    return sum(map(operator.mul, functional, w))


def _divisible_by_prime_power(x: int, p: int, e: int) -> bool:
    """``p**e`` divides ``x``, decided in at most ``log_p |x| + 1`` divisions
    without forming ``p**e``, so a huge stated ``e`` costs nothing."""
    if x == 0:
        return True
    while e:
        x, r = divmod(x, p)
        if r:
            return False
        e -= 1
    return True


def _membership_holds(entry) -> bool:
    """YES: the coordinates rebuild the vector from the columns.  NO, a rank
    obstruction: the functional pairs to 0 with every column but not with the
    vector; a modular one: the same with 0 mod ``prime**power``, for a prime
    of at least 2 and a power of at least 1."""
    columns, vector = entry["lattice_basis"], entry["vector"]
    if entry["member"]:
        coords = entry["coordinates"]
        if len(coords) != len(columns):
            return False
        rebuilt = [_pairing(row, coords) for row in zip(*columns)] if columns else [0] * len(vector)
        return rebuilt == vector
    c = entry["certificate"]
    pairs = [_pairing(c["functional"], g) for g in columns]
    target = _pairing(c["functional"], vector)
    if c["obstruction"] == "rank":
        return target != 0 and not any(pairs)
    p, e = c["prime"], c["power"]
    if c["obstruction"] != "modular" or p is None or e is None or p < 2 or e < 1:
        return False
    return not _divisible_by_prime_power(target, p, e) and all(
        _divisible_by_prime_power(x, p, e) for x in pairs
    )


def _verify_membership(entry) -> None:
    """The evidence is checked against the stored columns as they stand, so
    no Hermite form runs."""
    if any(len(c) != entry["ambient_rank"] for c in entry["lattice_basis"] + [entry["vector"]]):
        raise CertificateError(f"{entry['label']}: a length differs from the ambient rank")
    if not _membership_holds(entry):
        raise CertificateError(f"{entry['label']}: membership evidence fails")


def _verify_subquotient(entry) -> None:
    from .exactlin import IntMatrix, SmithDecomposition

    sup = _stated_lattice(entry, "sup_basis")
    sub = _stated_lattice(entry, "sub_basis")
    relation = IntMatrix.from_rows(entry["relation"])
    smith = SmithDecomposition(
        U=IntMatrix.from_rows(entry["smith"]["U"]),
        D=IntMatrix.from_rows(entry["smith"]["D"]),
        V=IntMatrix.from_rows(entry["smith"]["V"]),
        source=relation,
    )
    # shapes first: the products and determinants below cost the cube of
    # whatever sizes the entry states
    r, c = sup.rank, sub.rank
    shapes = {"relation": (relation, r, c), "U": (smith.U, r, r), "D": (smith.D, r, c),
              "V": (smith.V, c, c)}
    for name, (m, rows, cols) in shapes.items():
        if (m.rows, m.cols) != (rows, cols):
            raise CertificateError(f"{entry['label']}: {name} shape mismatch")
    if not smith.verify():
        raise CertificateError(f"{entry['label']}: smith decomposition invalid")
    # relation columns must express the sub basis in the sup basis
    sub_cols = sub.basis_columns
    for j, (col, coords) in enumerate(zip(sub_cols, relation.transpose().entries)):
        rebuilt = sup.basis.matvec(coords)
        if rebuilt != col:
            raise CertificateError(f"{entry['label']}: relation column {j} wrong")
    factors = smith.invariant_factors()
    if list(factors) != list(entry["invariant_factors"]):
        raise CertificateError(f"{entry['label']}: invariant factors mismatch")
    if sup.basis.cols - smith.rank != entry["free_rank"]:
        raise CertificateError(f"{entry['label']}: free rank mismatch")
    # one witness of exact order d for each invariant factor d, in order;
    # U maps sup/sub onto the sum of the Z/d_i, so its Smith row proves the
    # order of each witness
    label, witnesses = entry["label"], entry["witnesses"]
    if len(witnesses) != len(factors):
        raise CertificateError(f"{label}: witness count differs from the invariant factors")
    for i, (vector, d) in enumerate(zip(witnesses, factors)):
        if len(vector) != sup.ambient_rank:
            raise CertificateError(f"{label}: witness {i} length differs from the ambient rank")
        coords = sup._basis_coordinates(vector)
        if coords is None:
            raise CertificateError(f"{label}: witness {i} is outside the superlattice")
        order = smith.class_order(coords)
        if order != d:
            raise CertificateError(
                f"{label}: witness {i} has order {'infinite' if order is None else order}, not {d}"
            )


def _verify_index(entry) -> None:
    from .exactlin import lattice_index

    if lattice_index(_stated_lattice(entry, "sub_basis")) != entry["index"]:
        raise CertificateError(f"{entry['label']}: index mismatch")


def _verify_counting(entry) -> None:
    total = 1
    for t in entry["torsion_orders"]:
        total *= t
    eps = 1
    for e in entry["epsilons"]:
        eps *= e
    holds = total * entry["split_index"] == eps
    if holds != entry["holds"]:
        raise CertificateError("counting identity flag disagrees with its operands")
    if not holds:
        raise CertificateError("counting identity fails on the stored operands")


def _verify_fixed_vectors(entry) -> None:
    from .exactlin import IntMatrix, det

    mats = [IntMatrix.from_rows(m) for m in entry["matrices"]]
    # one side for every matrix and vector, checked before the cubic det
    sides = {m.rows for m in mats} | {m.cols for m in mats} | set(map(len, entry["vectors"]))
    if len(sides) > 1 or max(sides, default=0) > MAX_AMBIENT_RANK:
        raise CertificateError(
            f"{entry['label']}: matrices must be square, of one side up to "
            f"{MAX_AMBIENT_RANK}, and vectors of that length"
        )
    for m in mats:
        if abs(det(m)) != 1:
            raise CertificateError(f"{entry['label']}: action matrix not unimodular")
    for v in entry["vectors"]:
        v = tuple(v)
        for m in mats:
            if m.matvec(v) != v:
                raise CertificateError(f"{entry['label']}: vector moves under the action")


def _verify_witt_trials(entry) -> None:
    """Each stored sample must be the draw of the entry's seed, so no stored
    value is read as a number; the drawn sample is then decided."""
    from .wittq import draws, verify_case

    identity, cases, trials, seed = (entry[k] for k in ("identity", "cases", "trials", "seed"))
    samples = draws(identity, trials, seed)
    if not 1 <= trials == len(cases) <= MAX_TRIALS:
        raise CertificateError(
            f"witt trials of {identity}: trials must equal the number of "
            f"cases, from 1 to {MAX_TRIALS}"
        )
    for i, (case, sample) in enumerate(zip(cases, samples)):
        if case["trial"] != i:
            raise CertificateError(f"witt trial {i} of {identity}: trial out of order")
        if case["sample"] != [[k, str(v)] for k, v in sample]:
            raise CertificateError(
                f"witt trial {i} of {identity}: sample is not the draw of seed {seed}"
            )
        redone = verify_case(identity, sample)
        if (
            list(redone.lhs) != case["lhs"]
            or list(redone.rhs) != case["rhs"]
            or redone.verdict != case["verdict"]
            or redone.congruence_level != case["level"]
        ):
            raise CertificateError(f"witt trial {i} of {identity} fails replay")
        if not case["verdict"]:
            raise CertificateError(f"witt trial {i} of {identity} records a failure")


_VERIFIERS = {
    "lattice_basis": _verify_lattice_basis,
    "membership": _verify_membership,
    "subquotient": _verify_subquotient,
    "index": _verify_index,
    "counting_identity": _verify_counting,
    "fixed_vectors": _verify_fixed_vectors,
    "witt_trials": _verify_witt_trials,
}


# ---------------------------------------------------------------------------
# building certificates from commands (also the replay oracle)


def build_certificate(command: tuple[str, ...]) -> dict:
    """Certificate payload for a normalized command echo; pure in its input.
    The echo is read by the command table, and anything but the normalized
    form of a command, a help request or an unreadable echo included, is
    refused."""
    echo = list(command)
    try:
        args = commands.read(echo) if all(isinstance(t, str) for t in echo) else None
    except InputError:
        args = None
    if args is None or args.words is None or commands.normalized_command(args) != echo:
        raise InputError("the command echo is not a command in its normalized form")
    _, evidence, _ = commands.execute(args)
    return certificate_dict(echo, args, evidence)


def _shape_failure(entry) -> str | None:
    """Why an entry cannot be handed to a verifier, checked before any runs;
    the rank bound keeps the work of ``Lattice.standard`` bounded."""
    if not isinstance(entry, dict):
        return "entry is not a JSON object"
    kind = entry.get("kind")
    if not (isinstance(kind, str) and kind in _VERIFIERS):
        return f"unknown kind {kind!r}"
    rank = entry.get("ambient_rank", 0)
    if type(rank) is not int or not 0 <= rank <= MAX_AMBIENT_RANK:
        return f"ambient_rank must be an integer from 0 to the limit of {MAX_AMBIENT_RANK}"
    return None


def check_certificate(cert, replay: bool = True) -> tuple[bool, list[str]]:
    if not isinstance(cert, dict):
        return False, ["certificate is not a JSON object"]
    if cert.get("format") != CERT_FORMAT:
        return False, [f"unsupported certificate format {cert.get('format')!r}"]
    entries = cert.get("entries")
    if not isinstance(entries, list):
        return False, ["certificate has no entry list"]
    failures = [
        f"entry {i}: {why}" for i, e in enumerate(entries) if (why := _shape_failure(e))
    ]
    if failures:
        return False, failures
    if replay and (missing := [k for k in ("command", "seed") if k not in cert]):
        return False, [f"certificate has no {k!r} key" for k in missing]
    for i, entry in enumerate(entries):
        try:
            if why := _type_failure(entry):
                raise CertificateError(f"{entry.get('label', entry['kind'])}: {why}")
            _VERIFIERS[entry["kind"]](entry)
        except CertificateError as exc:
            failures.append(f"entry {i}: {exc}")
        # malformed payloads land here; a verifier's SystemExit is a failure,
        # never the checker's exit
        except (Exception, SystemExit) as exc:
            failures.append(f"entry {i}: malformed ({exc})")
    if replay and not failures:
        try:
            rebuilt = build_certificate(tuple(cert["command"]))
        except (Exception, SystemExit) as exc:
            failures.append(f"replay failed: {exc}")
        else:
            # values, not text: the typed rule has held every entry to one
            # type per field, and the seed is held to its exact type here
            if type(cert["seed"]) is not type(rebuilt["seed"]) or any(
                cert[k] != rebuilt[k] for k in ("command", "seed", "entries")
            ):
                failures.append("replay of the command echo disagrees with the payload")
    return not failures, failures
