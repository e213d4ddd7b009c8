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

# The docstring above is the parser's description, printed by ``--help``.
# This module holds the command table, the backends it dispatches to, the
# reader of argv built from it, the argparse grammar built from it for help
# and refusals, and the echo of a parsed command.  ``cli`` reports what a
# command returns; ``certificate`` replays a command echo through the same
# table.  Both import this module, which imports neither.

from __future__ import annotations

import functools

from .errors import InputError

# ---------------------------------------------------------------------------
# computation backends
#
# Each backend imports the compute modules it runs when it is called, so a
# process loads only what its command needs.  A backend returns the report
# results, the evidence they were read from, and the cited facts; the
# certificate module builds a certificate's entries from the evidence.


def _group_value_payload(gv) -> dict:
    return {"group": gv.group.label(), "provenance": gv.provenance, "note": gv.note}


def _fact_payload(fact) -> dict:
    return {
        "id": fact.fact_id,
        "statement": fact.statement,
        "reference": fact.reference,
    }


def _suite_payload(cases) -> dict:
    """What a Witt identity suite reports, read off its decided cases."""
    first = cases[0]
    return {
        "identity": first.identity_id,
        "trials": len(cases),
        "seed": first.seed,
        "passes": sum(1 for c in cases if c.verdict),
        "level": first.congruence_level,
    }


def _inv3_payload(args):
    from .roots import indecomposable_group, sl4x4_witness_is_2q1_plus_6q2

    res = indecomposable_group(args.preset)
    pres = res.presentation
    results = {
        "preset": args.preset,
        "group": pres.group.label(),
        "witnesses": [list(w) for w in pres.witnesses],
        "invariant_basis": [list(c) for c in pres.sup.basis_columns],
        "dec_basis": [list(c) for c in pres.sub.basis_columns],
    }
    if args.preset == "sl4x4" and pres.witnesses:
        results["witness_class_is_2q1_plus_6q2"] = sl4x4_witness_is_2q1_plus_6q2(res)
    return results, res, []


def _graded_payload(preset: str, full: bool, cited: list):
    from .kgamma import chow2_torsion

    chow = chow2_torsion(preset)
    report = chow.report
    out = {
        "preset": preset,
        "torsion": chow.torsion.label(),
        "torsion_witnesses": [list(w) for w in chow.witnesses],
        "provenance": list(chow.provenance),
        "split_index": report.split_index,
        "epsilons": list(report.epsilon),
        "total_torsion_order": report.total_torsion_order,
        "counting_identity_holds": report.counting_identity_holds,
    }
    if full:
        out["graded"] = [
            {
                "degree": d,
                "structure": p.group.label(),
                "torsion": p.torsion.label(),
                "witnesses": [list(w) for w in p.witnesses],
            }
            for d, p in enumerate(report.pieces)
        ]
        out["etas"] = list(report.eta)
        out["deltas"] = list(report.delta)
        out["delta_note"] = (
            "deltas compare the filtration image with the monomial-degree "
            "filtration of the descended subring; reporting convenience only"
        )
    return out, report, cited


def _chow2_payload(args):
    from .presets import cited_fact

    cited = [
        _fact_payload(cited_fact(fid)) for fid in ("chow_reduction", "chow_gamma", "index_tables")
    ]
    return _graded_payload(args.preset, False, cited)


def _gamma_report_payload(args):
    return _graded_payload(args.preset, True, [])


def _member_payload(args):
    from .kgamma import filtration_membership

    preset, expr, degree = args.preset, args.element, args.degree
    element, res = filtration_membership(preset, expr, degree)
    vector = element.y_vector()
    results = {
        "preset": preset,
        "element": expr,
        "element_y_coordinates": list(vector),
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
    return results, (preset, degree, vector, res), []


def _witt_payload(args):
    from .wittq import verify_identity

    cases = verify_identity(args.identity, args.trials, args.seed)
    results = {**_suite_payload(cases), "all_pass": all(c.verdict for c in cases)}
    return results, cases, []


def _theorem_payload(args):
    from .presets import assemble_theorem

    row = assemble_theorem(args.n, trials=args.trials, seed=args.seed)
    results = {
        "n": args.n,
        "inv3_ind_H": _group_value_payload(row.inv3_ind_h),
        "inv3_ind_G": _group_value_payload(row.inv3_ind_g),
        "chow2_tors": _group_value_payload(row.chow2_tors),
        "sdec_mod_dec_H": _group_value_payload(row.sdec_mod_dec_h),
        "sdec_mod_dec_G": _group_value_payload(row.sdec_mod_dec_g),
        # the assembly raises unless |Sdec/Dec| * |CH2_tors| == |Inv3_ind|
        "exactness_holds": True,
        "alpha_suites": [_suite_payload(s) for s in row.alpha_suites],
    }
    return results, row, [_fact_payload(f) for f in row.cited_facts]


def _sl4x4_payload(args):
    from .presets import sl4x4_report

    row = sl4x4_report()
    results = {
        "inv3_ind": row.inv3_ind_h.group.label(),
        "chow2_tors": row.chow2_tors.group.label(),
        "sdec_mod_dec": row.sdec_mod_dec_h.group.label(),
        "all_normalized_semi_decomposable": row.chow2_tors.group.is_trivial,
        # a failed bookkeeping exits 3, so a printed report is consistent and
        # its inconsistency list is empty
        "consistent": True,
        "inconsistencies": [],
        "variety_config": row.chow.report.config.name,
    }
    return results, row, [_fact_payload(f) for f in row.cited_facts]


# ---------------------------------------------------------------------------
# the command table
#
# Command words -> (arguments, backend).  Each argument is (name, type,
# default or None when required), in the order the parser declares them and
# the report echoes them.  A backend maps the parsed arguments to (results,
# evidence, cited facts).

_PRESET = ("preset", str, None)
COMMANDS = {
    ("inv3",): ((_PRESET,), _inv3_payload),
    ("chow2",): ((_PRESET,), _chow2_payload),
    ("gamma", "member"): (
        (_PRESET, ("element", str, None), ("degree", int, None)), _member_payload
    ),
    ("gamma", "report"): ((_PRESET,), _gamma_report_payload),
    ("witt", "verify"): (
        (("identity", str, None), ("trials", int, 100), ("seed", int, 1)), _witt_payload
    ),
    ("theorem",): ((("n", int, None), ("trials", int, 12), ("seed", int, 1)), _theorem_payload),
    ("sl4x4",): ((), _sl4x4_payload),
}


def execute(args):
    """(results, evidence, cited) of parsed arguments."""
    if getattr(args, "words", None) is None:
        raise InputError("a command is required (inv3, chow2, gamma, witt, theorem, sl4x4)")
    return COMMANDS[args.words][1](args)


def normalized_command(args) -> list[str]:
    """The command words, then every argument in declaration order.  Parsing
    the echo again would read a separate string value with a leading minus
    as an option; glued to its flag it stays a value."""
    command = list(args.words)
    for name, kind, _ in COMMANDS[args.words][0]:
        value = getattr(args, name)
        if kind is str and value.startswith("-"):
            command.append(f"--{name}={value}")
        else:
            command += [f"--{name}", str(value)]
    return command


# ---------------------------------------------------------------------------
# argument parsing
#
# The table reader accepts what a command needs: the command words, then each
# declared option and ``--certificate`` at most once, as ``--name value`` or
# ``--name=value``, and ``--json``; or ``--check-certificate FILE`` alone.  It
# sets the attributes argparse would.  Every other argv (help, abbreviations,
# repeats, errors) goes to the argparse grammar, so argparse loads only for
# those and their texts stay its own.


def read(argv: list[str]):
    """The parsed arguments of ``argv`` as the command table reads them, or
    None where the table leaves the argv to argparse."""
    from types import SimpleNamespace

    words = tuple(argv[:2])
    if words not in COMMANDS:
        words = words[:1]
    if words not in COMMANDS:
        values = _read_options(argv, {"--check-certificate": ("check_certificate", str)})
        return SimpleNamespace(**values, command=None) if values else None
    arguments = COMMANDS[words][0]
    options = {f"--{name}": (name, kind) for name, kind, _ in arguments}
    options["--json"] = ("json", bool)
    options["--certificate"] = ("certificate", str)
    values = _read_options(argv[len(words):], options)
    if values is None:
        return None
    args = {"check_certificate": None, "command": words[0]}
    if len(words) == 2:
        args[f"{words[0]}_command"] = words[1]
    for name, _, default in arguments:
        if name not in values and default is None:
            return None
        args[name] = values.get(name, default)
    return SimpleNamespace(
        **args, json=values.get("json", False), certificate=values.get("certificate"),
        words=words,
    )


def _read_options(tokens: list[str], options: dict) -> dict | None:
    """``{name: value}`` of the option tokens, each option at most once, or
    None unless argparse would read each one as given here."""
    values = {}
    tokens = iter(tokens)
    for token in tokens:
        option, eq, value = token.partition("=")
        name, kind = options.get(option, (None, None))
        if name is None or name in values:
            return None
        if kind is bool:
            if eq:
                return None
            value = True
        elif not eq:
            value = next(tokens, None)
            # a separate value that starts with "-" is argparse's to read,
            # but for the negative integers it reads as values
            if value is None or value.startswith("-") and not (
                kind is int and value[1:].isdecimal()
            ):
                return None
        elif value == "--":  # argparse drops a "--" value
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        values[name] = value
    return values


@functools.cache
def _build_parser():
    """The command line grammar, built once per process from the command
    table; parsing does not change it."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        def error(self, message):
            raise InputError(message)

    parser = _ArgumentParser(prog="sdinv", description=__doc__)
    parser.add_argument("--check-certificate", metavar="FILE", default=None)
    sub = parser.add_subparsers(dest="command")
    groups = {}
    for words, (arguments, _) in COMMANDS.items():
        if len(words) == 1:
            p = sub.add_parser(words[0])
        else:
            head, tail = words
            if head not in groups:
                groups[head] = sub.add_parser(head).add_subparsers(
                    dest=f"{head}_command", required=True
                )
            p = groups[head].add_parser(tail)
        for name, kind, default in arguments:
            p.add_argument(f"--{name}", type=kind, default=default, required=default is None)
        p.add_argument("--json", action="store_true")
        p.add_argument("--certificate", metavar="FILE", default=None)
        p.set_defaults(words=words)
    return parser


def parse(argv: list[str]):
    """The parsed arguments of ``argv``: the table reader's, or argparse's
    where the reader leaves the argv to it; a parse error raises InputError."""
    return read(argv) or _build_parser().parse_args(argv)
