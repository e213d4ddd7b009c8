"""Machine-checkable certificates for command results.

A certificate is a JSON document with typed entries.  Verification runs in
two layers:

* the algebraic layer re-verifies each entry on its own terms with the
  exact linear algebra primitives (products of stored transforms, membership
  coordinates, torsion witness orders) or, for randomized trials, by
  re-deciding the stored samples;
* the replay layer rebuilds the whole certificate from the stored command
  echo, which is a pure function of it, and compares payloads, so any edit
  of a semantic field is caught even when the edited value is internally
  consistent.

Negative claims (non-membership, exact torsion orders) therefore travel
with evidence that an auditor can re-check without trusting the code that
produced them.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache

from ._factor import factorize
from .exactlin import (
    IntMatrix,
    Lattice,
    MembershipResult,
    NonMembershipCertificate,
    SmithDecomposition,
    SubquotientData,
    TorsionWitness,
    det,
    lattice_index,
    row_hermite,
)

CERT_FORMAT = "sdinv-cert/1"


# ---------------------------------------------------------------------------
# entry builders


def _cols(lattice: Lattice) -> list[list[int]]:
    return [list(c) for c in lattice.basis_columns]


def lattice_basis_entry(label: str, ambient_rank: int, generators, canonical) -> dict:
    return {
        "kind": "lattice_basis",
        "label": label,
        "ambient_rank": ambient_rank,
        "generators": [list(map(int, g)) for g in generators],
        "canonical_basis": [list(map(int, c)) for c in canonical],
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


def _witness_payload(w: TorsionWitness) -> dict:
    return {
        "vector": list(w.vector),
        "order": w.order,
        "multiple_coordinates": list(w.multiple_coordinates),
        "proper_certificates": [
            {
                "prime": p,
                "obstruction": c.kind,
                "functional": list(c.functional),
                "modulus_prime": c.prime,
                "modulus_power": c.power,
            }
            for p, c in w.proper_certificates
        ],
    }


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
        "witnesses": [_witness_payload(w) for w in data.witnesses],
    }


def index_entry(label: str, ambient_rank: int, sub_cols, index: int) -> dict:
    return {
        "kind": "index",
        "label": label,
        "ambient_rank": ambient_rank,
        "sub_basis": [list(map(int, c)) for c in sub_cols],
        "index": index,
    }


def counting_entry(torsion_orders, split_index: int, epsilons, holds: bool) -> dict:
    return {
        "kind": "counting_identity",
        "torsion_orders": list(map(int, torsion_orders)),
        "split_index": int(split_index),
        "epsilons": list(map(int, epsilons)),
        "holds": bool(holds),
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
                "sample": [[k, v] for k, v in c.sample],
                "lhs": list(c.lhs),
                "rhs": list(c.rhs),
                "level": c.congruence_level,
                "verdict": c.verdict,
            }
            for c in cases
        ],
    }


# ---------------------------------------------------------------------------
# algebraic verification


class CertificateError(Exception):
    pass


def _verify_lattice_basis(entry) -> None:
    lat = Lattice.from_columns(entry["ambient_rank"], entry["generators"])
    canonical = [tuple(c) for c in entry["canonical_basis"]]
    if list(lat.basis_columns) != canonical:
        raise CertificateError(f"{entry['label']}: canonical basis mismatch")
    recanon = row_hermite(canonical)
    if [list(r) for r in recanon] != [list(c) for c in canonical]:
        raise CertificateError(f"{entry['label']}: stored basis is not canonical")


def _verify_membership(entry) -> None:
    lat = Lattice.from_columns(entry["ambient_rank"], entry["lattice_basis"])
    vector = tuple(entry["vector"])
    if entry["member"]:
        res = MembershipResult(True, coordinates=tuple(entry["coordinates"]))
    else:
        c = entry["certificate"]
        res = MembershipResult(
            False,
            certificate=NonMembershipCertificate(
                c["obstruction"], tuple(c["functional"]), c["prime"], c["power"]
            ),
        )
    if not res.check(vector, lat):
        raise CertificateError(f"{entry['label']}: membership evidence fails")


def _verify_subquotient(entry) -> None:
    sup = Lattice.from_columns(entry["ambient_rank"], entry["sup_basis"])
    sub = Lattice.from_columns(entry["ambient_rank"], entry["sub_basis"])
    relation = IntMatrix.from_rows(entry["relation"])
    smith = SmithDecomposition(
        U=IntMatrix.from_rows(entry["smith"]["U"]),
        D=IntMatrix.from_rows(entry["smith"]["D"]),
        V=IntMatrix.from_rows(entry["smith"]["V"]),
        source=relation,
    )
    if not smith.verify():
        raise CertificateError(f"{entry['label']}: smith decomposition invalid")
    # relation columns must express the sub basis in the sup basis
    sub_cols = sub.basis_columns
    if relation.cols != len(sub_cols):
        raise CertificateError(f"{entry['label']}: relation shape mismatch")
    for j, (col, coords) in enumerate(zip(sub_cols, relation.transpose().entries)):
        rebuilt = sup.basis.matvec(coords)
        if rebuilt != col:
            raise CertificateError(f"{entry['label']}: relation column {j} wrong")
    diag = smith.diagonal
    factors = [d for d in diag if d > 1]
    if factors != list(entry["invariant_factors"]):
        raise CertificateError(f"{entry['label']}: invariant factors mismatch")
    rank = sum(1 for d in diag if d)
    if sup.basis.cols - rank != entry["free_rank"]:
        raise CertificateError(f"{entry['label']}: free rank mismatch")
    for wp in entry["witnesses"]:
        witness = TorsionWitness(
            vector=tuple(wp["vector"]),
            order=wp["order"],
            multiple_coordinates=tuple(wp["multiple_coordinates"]),
            proper_certificates=tuple(
                (
                    pc["prime"],
                    NonMembershipCertificate(
                        pc["obstruction"],
                        tuple(pc["functional"]),
                        pc["modulus_prime"],
                        pc["modulus_power"],
                    ),
                )
                for pc in wp["proper_certificates"]
            ),
        )
        if not witness.check(sub):
            raise CertificateError(f"{entry['label']}: torsion witness fails")
        if sorted({p for p, _ in witness.proper_certificates}) != sorted(
            {p for p, _ in factorize(witness.order)}
        ):
            raise CertificateError(f"{entry['label']}: witness misses a prime")


def _verify_index(entry) -> None:
    sub = Lattice.from_columns(entry["ambient_rank"], entry["sub_basis"])
    idx = lattice_index(sub, Lattice.standard(entry["ambient_rank"]))
    if idx != entry["index"]:
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
    mats = [IntMatrix.from_rows(m) for m in entry["matrices"]]
    for m in mats:
        if abs(det(m)) != 1:
            raise CertificateError(f"{entry['label']}: action matrix not unimodular")
    for v in entry["vectors"]:
        v = tuple(v)
        for m in mats:
            if m.matvec(v) != v:
                raise CertificateError(f"{entry['label']}: vector moves under the action")


# Bit budget of numerator times denominator of a sample value the checker
# re-decides.  Sampled slots are below 7,430 and sampled norms below 2**33, so
# it never rejects a sample the package wrote, and it keeps the factoring of
# each value cheap.
MAX_SAMPLE_BITS = 64


def _verify_witt_trials(entry) -> None:
    from .wittq import verify_case

    for case in entry["cases"]:
        sample = tuple((k, v) for k, v in case["sample"])
        for k, v in sample:
            f = Fraction(v)
            if (f.numerator * f.denominator).bit_length() > MAX_SAMPLE_BITS:
                raise CertificateError(
                    f"witt trial {case['trial']} of {entry['identity']}: sample {k} "
                    f"exceeds the {MAX_SAMPLE_BITS}-bit replay limit"
                )
        redone = verify_case(entry["identity"], sample)
        if (
            list(redone.lhs) != case["lhs"]
            or list(redone.rhs) != case["rhs"]
            or redone.verdict != case["verdict"]
            or redone.congruence_level != case["level"]
        ):
            raise CertificateError(
                f"witt trial {case['trial']} of {entry['identity']} fails replay"
            )
        if not case["verdict"]:
            raise CertificateError(
                f"witt trial {case['trial']} of {entry['identity']} records a failure"
            )


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


@lru_cache(maxsize=64)
def build_certificate(command: tuple[str, ...]) -> dict:
    """Certificate payload for a normalized command echo; pure in its input."""
    from . import cli

    return cli.certificate_payload(list(command))


def check_certificate(cert: dict, replay: bool = True) -> tuple[bool, list[str]]:
    failures: list[str] = []
    if cert.get("format") != CERT_FORMAT:
        return False, [f"unsupported certificate format {cert.get('format')!r}"]
    entries = cert.get("entries")
    if not isinstance(entries, list):
        return False, ["certificate has no entry list"]
    for i, entry in enumerate(entries):
        kind = entry.get("kind")
        verifier = _VERIFIERS.get(kind)
        if verifier is None:
            failures.append(f"entry {i}: unknown kind {kind!r}")
            continue
        try:
            verifier(entry)
        except CertificateError as exc:
            failures.append(f"entry {i}: {exc}")
        except Exception as exc:  # malformed payloads land here
            failures.append(f"entry {i}: malformed ({exc})")
    if replay and not failures:
        try:
            rebuilt = build_certificate(tuple(cert["command"]))
        except Exception as exc:
            failures.append(f"replay failed: {exc}")
        else:
            a = json.dumps({k: cert[k] for k in ("command", "seed", "entries")}, sort_keys=True)
            b = json.dumps(
                {k: rebuilt[k] for k in ("command", "seed", "entries")}, sort_keys=True
            )
            if a != b:
                failures.append("replay of the command echo disagrees with the payload")
    return not failures, failures
