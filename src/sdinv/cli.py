"""Command line front end: preset invocation, JSON reports, and certificates.

Commands
--------
* ``inv3 --preset P``: indecomposable degree-3 invariant group of a preset.
* ``chow2 --preset C``: codimension-2 torsion of a variety configuration.
* ``gamma member --preset C --element EXPR --degree D``: filtration membership.
* ``gamma report --preset C``: full graded report with the counting identity.
* ``witt verify --identity ID --trials N --seed S``: randomized identity suite.
* ``theorem --n N``: one assembled classification row.
* ``sl4x4``: the rank-3 pair report.
* ``--check-certificate FILE``: standalone certificate verification.

Exit codes: 0 success, 2 input error, 3 internal inconsistency or failed
certificate check.  Reports are byte-deterministic for a fixed command,
seed, and package version.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import __version__, certificate as certmod
from .exactlin import InputError, InternalInconsistencyError
from .kgamma import (
    filtration_membership,
    gamma_filtration,
    graded_torsion,
    chow2_torsion,
    quillen_basis_elements,
    parse_element,  # re-exported for library users of the CLI grammar
)
from .presets import assemble_theorem, cited_fact, sl4x4_report
from .roots import (
    action_in_basis,
    ambient_to_basis_quad,
    get_preset,
    indecomposable_group,
    sl4_block_form,
    sym2_action_matrix,
)
from .wittq import verify_identity

REPORT_FORMAT = "sdinv-report/1"


# ---------------------------------------------------------------------------
# computation backends, shared by reports and certificates


def _group_value_payload(gv) -> dict:
    return {"group": gv.group.label(), "provenance": gv.provenance, "note": gv.note}


def _fact_payload(fact) -> dict:
    return {
        "id": fact.fact_id,
        "statement": fact.statement,
        "reference": fact.reference,
    }


def _suite_payload(s) -> dict:
    return {
        "identity": s.identity_id,
        "trials": s.trials,
        "seed": s.seed,
        "passes": s.passes,
        "level": s.congruence_level,
    }


def _inv3_entries(preset_name: str) -> list[dict]:
    data = get_preset(preset_name)
    entries = []
    reductive = data.reductive_lattice()
    entries.append(
        certmod.lattice_basis_entry(
            "reductive character lattice",
            data.datum.ambient_rank,
            [v for _, v in data.display_basis],
            reductive.lattice.basis_columns,
        )
    )
    res = indecomposable_group(preset_name)
    lat = res.character_lattice
    entries.append(
        certmod.lattice_basis_entry(
            "semisimple character lattice",
            lat.ambient_rank,
            [v for _, v in data.semisimple_display],
            lat.lattice.basis_columns,
        )
    )
    actions = [
        sym2_action_matrix(action_in_basis(lat, w)) for w in data.weyl.generators
    ]
    entries.append(
        certmod.fixed_vectors_entry(
            "weyl invariance of the invariant quadratic lattice",
            actions,
            res.invariant_lattice.basis_columns,
        )
    )
    inv = res.invariant_lattice.canonical()
    for j, col in enumerate(res.dec_lattice.basis_columns):
        entries.append(
            certmod.membership_entry(
                f"chern generator {j} lies in the invariant lattice",
                inv,
                col,
                inv.membership(col),
            )
        )
    entries.append(
        certmod.subquotient_entry("indecomposable invariant group", res.presentation)
    )
    return entries


def _inv3_results(preset_name: str) -> dict:
    res = indecomposable_group(preset_name)
    out = {
        "preset": preset_name,
        "group": res.group.label(),
        "witnesses": [list(w.vector) for w in res.witnesses],
        "invariant_basis": [list(c) for c in res.invariant_lattice.basis_columns],
        "dec_basis": [list(c) for c in res.dec_lattice.basis_columns],
    }
    if preset_name == "sl4x4" and res.witnesses:
        q1, q2 = sl4_block_form(0), sl4_block_form(1)
        target = ambient_to_basis_quad(
            res.character_lattice, tuple(2 * a + 6 * b for a, b in zip(q1, q2))
        )
        diff = tuple(
            a - b for a, b in zip(res.witnesses[0].vector, target.coefficients)
        )
        out["witness_class_is_2q1_plus_6q2"] = res.dec_lattice.contains(diff)
    return out


def _counting_entry(report) -> dict:
    return certmod.counting_entry(
        report.torsion_orders(),
        report.split_index,
        report.epsilon,
        report.counting_identity_holds,
    )


def _graded_entries(config_name: str) -> list[dict]:
    filt = gamma_filtration(config_name)
    report = graded_torsion(config_name)
    ring = filt.config.ring
    entries = [
        certmod.lattice_basis_entry(
            "descended subring",
            ring.rank,
            [el.y_vector() for el in quillen_basis_elements(filt.config)],
            filt.level(0).basis_columns,
        ),
        certmod.index_entry(
            "split index",
            ring.rank,
            filt.level(0).basis_columns,
            report.split_index,
        ),
    ]
    for d in range(1, filt.dim + 2):
        for j, col in enumerate(filt.level(d).basis_columns):
            entries.append(
                certmod.membership_entry(
                    f"filtration step {d} vector {j} nests into step {d - 1}",
                    filt.level(d - 1),
                    col,
                    filt.level(d - 1).membership(col),
                )
            )
    # graded_torsion already computed and checked each piece's presentation
    for piece in report.pieces:
        entries.append(
            certmod.subquotient_entry(
                f"graded piece at degree {piece.degree}", piece.presentation
            )
        )
    for d, (image, eps) in enumerate(zip(report.split_images, report.epsilon), start=1):
        entries.append(
            certmod.index_entry(
                f"split image index at degree {d}",
                image.ambient_rank,
                image.basis_columns,
                eps,
            )
        )
    entries.append(_counting_entry(report))
    return entries


def _graded_results(config_name: str, full: bool) -> dict:
    report = graded_torsion(config_name)
    chow = chow2_torsion(config_name)
    out = {
        "preset": config_name,
        "torsion": chow.torsion.label(),
        "torsion_witnesses": [list(w.vector) for w in chow.witnesses],
        "provenance": list(chow.provenance),
        "split_index": report.split_index,
        "epsilons": list(report.epsilon),
        "total_torsion_order": report.total_torsion_order,
        "counting_identity_holds": report.counting_identity_holds,
    }
    if full:
        out["graded"] = [
            {
                "degree": p.degree,
                "structure": p.structure.label(),
                "torsion": p.torsion.label(),
                "witnesses": [list(w.vector) for w in p.witnesses],
            }
            for p in report.pieces
        ]
        out["etas"] = list(report.eta)
        out["deltas"] = [str(Fraction(x)) for x in report.delta]
        out["delta_note"] = (
            "deltas compare the filtration image with the monomial-degree "
            "filtration of the descended subring; reporting convenience only"
        )
    return out


def _member_payload(config_name: str, expr: str, degree: int):
    filt = gamma_filtration(config_name)
    element, res = filtration_membership(config_name, expr, degree)
    results = {
        "preset": config_name,
        "element": expr,
        "element_y_coordinates": list(element.y_vector()),
        "degree": degree,
        "member": res.member,
    }
    if res.member:
        results["coordinates"] = list(res.coordinates)
    else:
        results["certificate"] = {
            "obstruction": res.certificate.kind,
            "prime": res.certificate.prime,
            "power": res.certificate.power,
            "functional": list(res.certificate.functional),
        }

    def entries():
        lat = filt.level(degree)
        return [
            certmod.lattice_basis_entry(
                f"filtration step {degree}",
                filt.config.ring.rank,
                lat.basis_columns,
                lat.basis_columns,
            ),
            certmod.membership_entry(
                f"membership at filtration degree {degree}", lat, element.y_vector(), res
            ),
        ]

    return results, entries


def _witt_payload(identity: str, trials: int, seed: int):
    cases = verify_identity(identity, trials, seed)
    results = {
        "identity": identity,
        "trials": trials,
        "seed": seed,
        "passes": sum(1 for c in cases if c.verdict),
        "level": cases[0].congruence_level,
        "all_pass": all(c.verdict for c in cases),
    }
    return results, lambda: [certmod.witt_trials_entry(cases)]


def _theorem_payload(n: int, trials: int, seed: int):
    row = assemble_theorem(n, trials=trials, seed=seed)
    results = {
        "n": n,
        "inv3_ind_H": _group_value_payload(row.inv3_ind_h),
        "inv3_ind_G": _group_value_payload(row.inv3_ind_g),
        "chow2_tors": _group_value_payload(row.chow2_tors),
        "sdec_mod_dec_H": _group_value_payload(row.sdec_mod_dec_h),
        "sdec_mod_dec_G": _group_value_payload(row.sdec_mod_dec_g),
        "exactness_holds": row.exactness_holds,
        "alpha_suites": [_suite_payload(s) for s in row.alpha_suites],
    }

    def entries():
        out = [
            certmod.subquotient_entry(
                "indecomposable invariant group", row.indecomposable.presentation
            )
        ]
        if row.chow is not None:
            rep = row.chow.report
            out.append(_counting_entry(rep))
            if rep.config.dim >= 2:
                out.append(
                    certmod.subquotient_entry(
                        "graded piece at degree 2", rep.pieces[2].presentation
                    )
                )
        out.extend(certmod.witt_trials_entry(s.cases) for s in row.alpha_suites)
        return out

    cited = [_fact_payload(f) for f in row.cited_facts]
    return results, entries, cited


def _sl4x4_payload():
    rep = sl4x4_report()
    results = {
        "inv3_ind": rep.indecomposable.group.label(),
        "chow2_tors": rep.chow.torsion.label(),
        "sdec_mod_dec": rep.sdec_mod_dec.label(),
        "all_normalized_semi_decomposable": rep.all_normalized_semi_decomposable,
        "consistent": rep.consistent,
        "inconsistencies": list(rep.inconsistencies),
        "variety_config": rep.chow.config.name,
    }

    def entries():
        return _inv3_entries("sl4x4") + [_counting_entry(rep.chow.report)]

    cited = [_fact_payload(f) for f in rep.cited_facts]
    return results, entries, cited


# ---------------------------------------------------------------------------
# command dispatch


def _execute(args):
    """Run parsed arguments; returns (results, entries, cited, seed).

    ``entries`` is a function that builds the certificate entries; it runs
    only when a certificate is written or replayed.
    """
    head = args.command
    if head == "inv3":
        entries = functools.partial(_inv3_entries, args.preset)
        return _inv3_results(args.preset), entries, [], None
    if head == "chow2":
        results = _graded_results(args.preset, full=False)
        cited = [
            _fact_payload(cited_fact(fid))
            for fid in ("chow_reduction", "chow_gamma", "index_tables")
        ]
        return results, functools.partial(_graded_entries, args.preset), cited, None
    if head == "gamma":
        if args.gamma_command == "member":
            results, entries = _member_payload(args.preset, args.element, args.degree)
            return results, entries, [], None
        results = _graded_results(args.preset, full=True)
        return results, functools.partial(_graded_entries, args.preset), [], None
    if head == "witt":
        results, entries = _witt_payload(args.identity, args.trials, args.seed)
        return results, entries, [], args.seed
    if head == "theorem":
        results, entries, cited = _theorem_payload(args.n, args.trials, args.seed)
        return results, entries, cited, args.seed
    if head == "sl4x4":
        results, entries, cited = _sl4x4_payload()
        return results, entries, cited, None
    raise InputError(f"unknown command {head!r}")


def _certificate_dict(command: list[str], seed, entries: list[dict]) -> dict:
    return {
        "format": certmod.CERT_FORMAT,
        "command": command,
        "seed": seed,
        "versions": {"sdinv": __version__},
        "entries": entries,
    }


def certificate_payload(command: list[str]) -> dict:
    _, entries, _, seed = _execute(_parse_args(command))
    return _certificate_dict(list(command), seed, entries())


def _normalized_command(args) -> list[str]:
    head = args.command
    if head == "inv3":
        return ["inv3", "--preset", args.preset]
    if head == "chow2":
        return ["chow2", "--preset", args.preset]
    if head == "gamma" and args.gamma_command == "member":
        # Parsing the echo again would read a separate value with a leading
        # minus as an option; glued to its flag it stays a value.
        if args.element.startswith("-"):
            element = [f"--element={args.element}"]
        else:
            element = ["--element", args.element]
        return [
            "gamma", "member",
            "--preset", args.preset,
            *element,
            "--degree", str(args.degree),
        ]
    if head == "gamma":
        return ["gamma", "report", "--preset", args.preset]
    if head == "witt":
        return [
            "witt", "verify",
            "--identity", args.identity,
            "--trials", str(args.trials),
            "--seed", str(args.seed),
        ]
    if head == "theorem":
        return [
            "theorem", "--n", str(args.n),
            "--trials", str(args.trials),
            "--seed", str(args.seed),
        ]
    return ["sl4x4"]


# ---------------------------------------------------------------------------
# argument parsing


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The command line grammar, built once per process; parsing does not
    change it."""
    parser = _ArgumentParser(prog="sdinv", description=__doc__)
    parser.add_argument("--check-certificate", metavar="FILE", default=None)
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--json", action="store_true")
        p.add_argument("--certificate", metavar="FILE", default=None)

    p = sub.add_parser("inv3")
    p.add_argument("--preset", required=True)
    common(p)

    p = sub.add_parser("chow2")
    p.add_argument("--preset", required=True)
    common(p)

    g = sub.add_parser("gamma")
    gsub = g.add_subparsers(dest="gamma_command", required=True)
    p = gsub.add_parser("member")
    p.add_argument("--preset", required=True)
    p.add_argument("--element", required=True)
    p.add_argument("--degree", type=int, required=True)
    common(p)
    p = gsub.add_parser("report")
    p.add_argument("--preset", required=True)
    common(p)

    w = sub.add_parser("witt")
    wsub = w.add_subparsers(dest="witt_command", required=True)
    p = wsub.add_parser("verify")
    p.add_argument("--identity", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    common(p)

    p = sub.add_parser("theorem")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=12)
    p.add_argument("--seed", type=int, default=1)
    common(p)

    p = sub.add_parser("sl4x4")
    common(p)

    return parser


def _parse_args(argv: list[str]):
    return _build_parser().parse_args(argv)


# ---------------------------------------------------------------------------
# output


def _print_text(report: dict, out) -> None:
    print(f"command: {' '.join(report['command'])}", file=out)
    results = report["results"]
    for key in sorted(results):
        value = results[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        print(f"{key}: {value}", file=out)
    for fact in report.get("cited_facts", []):
        print(f"cited [{fact['reference']}]: {fact['statement']}", file=out)
    cert = report.get("certificate")
    if cert:
        print(f"certificate: {cert['file']} ({cert['entries']} entries)", file=out)


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.check_certificate:
        return _run_checker(args.check_certificate, out)

    if not getattr(args, "command", None):
        print("error: a command is required (inv3, chow2, gamma, witt, theorem, sl4x4)", file=sys.stderr)
        return 2

    command = _normalized_command(args)
    try:
        results, entries, cited, seed = _execute(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3

    report = {
        "format": REPORT_FORMAT,
        "command": command,
        "preset": getattr(args, "preset", None),
        "seed": seed,
        "versions": {"sdinv": __version__},
        "results": results,
        "cited_facts": cited,
    }
    if args.certificate:
        entries = entries()
        with open(args.certificate, "w") as fh:
            json.dump(_certificate_dict(command, seed, entries), fh, sort_keys=True)
            fh.write("\n")
        report["certificate"] = {"file": args.certificate, "entries": len(entries)}

    if args.json:
        print(json.dumps(report, sort_keys=True), file=out)
    else:
        _print_text(report, out)
    return 0


def _run_checker(path: str, out) -> int:
    try:
        with open(path) as fh:
            cert = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read certificate: {exc}", file=sys.stderr)
        return 2
    ok, failures = certmod.check_certificate(cert)
    if ok:
        print(f"certificate OK ({len(cert.get('entries', []))} entries)", file=out)
        return 0
    for f in failures:
        print(f"certificate FAILED: {f}", file=sys.stderr)
    return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
