# ``HELP`` below is the help text and the module docstring: ``cli`` prints
# the constant, which ``python -OO`` keeps where it strips docstrings.  This
# module holds the command table, the backends it dispatches to, the reader
# of argv built from it, and the echo of a parsed command.  ``cli`` reports
# what a command returns; ``certificate`` replays a command echo through the
# same table.  Both import this module, which imports neither.

from __future__ import annotations

from .errors import InputError

HELP = """sdinv: degree-3 invariants, gamma-filtration torsion and Witt identities,
with JSON reports and checkable certificates.

usage: sdinv COMMAND [--json] [--certificate FILE]
       sdinv --check-certificate FILE

Commands
--------
* ``inv3 --preset P``: indecomposable degree-3 invariant group of a preset.
* ``chow2 --preset C``: codimension-2 torsion of a variety configuration.
* ``gamma member --preset C --element EXPR --degree D``: filtration membership.
* ``gamma report --preset C``: full graded report with the counting identity.
* ``witt verify --identity ID [--trials N] [--seed S]``: randomized identity
  suite; 100 trials and seed 1 unless given.
* ``theorem --n N [--trials T] [--seed S]``: one assembled classification
  row; 12 trials of each alpha suite and seed 1 unless given.
* ``sl4x4``: the rank-3 pair report.
* ``--check-certificate FILE``: standalone certificate verification.

Every command takes ``--json`` (print the report as JSON) and ``--certificate
FILE`` (write a certificate of the report's evidence to FILE).  Each option is
given at most once, as ``--name value`` or ``--name=value``; a separate value
is the next token, whatever it starts with.  ``-h`` or ``--help`` where an
option is expected prints this text.

Exit codes: 0 success, 2 input error, 3 internal inconsistency or failed
certificate check.  Reports are byte-deterministic for a fixed command,
seed, and package version.
"""
__doc__ = HELP

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
# default or None when required), in the order the report echoes them.  A
# backend maps the parsed arguments to (results, evidence, cited facts).

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
    return COMMANDS[args.words][1](args)


def normalized_command(args) -> list[str]:
    """The command words, then every argument in declaration order.  A string
    value with a leading minus is glued to its flag, ``--element=-2*y1``, as
    reports and certificates echo it."""
    command = list(args.words)
    for name, kind, _ in COMMANDS[args.words][0]:
        value = getattr(args, name)
        if kind is str and value.startswith("-"):
            command.append(f"--{name}={value}")
        else:
            command += [f"--{name}", str(value)]
    return command


# ---------------------------------------------------------------------------
# reading argv
#
# The only grammar, and the one the module docstring states: the command
# words of the table, then each declared option and ``--certificate`` at most
# once, as ``--name value`` or ``--name=value``, and ``--json``; or
# ``--check-certificate FILE`` alone.  Anything else is refused.


def read(argv: list[str]):
    """The parsed arguments of ``argv``, or None where it asks for help.  An
    argv the grammar does not read raises InputError naming the first token
    it cannot read."""
    from types import SimpleNamespace

    words = tuple(argv[:2])
    if words not in COMMANDS:
        words = words[:1]
    if words in COMMANDS:
        options = {f"--{name}": (name, kind) for name, kind, _ in COMMANDS[words][0]}
        options |= {"--json": ("json", bool), "--certificate": ("certificate", str)}
    elif argv[:1] and argv[0].startswith("-"):
        words, options = (), {"--check-certificate": ("check_certificate", str)}
    else:
        names = ", ".join(" ".join(w) for w in COMMANDS)
        if not argv:
            raise InputError(f"a command is required: {names}")
        # a first word that needs a second one is named with what follows it
        shown = argv[:2] if any(w[0] == argv[0] for w in COMMANDS if len(w) == 2) else argv[:1]
        raise InputError(f"unknown command {' '.join(shown)!r}; the commands are {names}")
    values = {}
    tokens = iter(argv[len(words):])
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        option, eq, value = token.partition("=")
        if option not in options:
            what = "option" if token.startswith("-") else "argument"
            raise InputError(f"unknown {what} {token!r}")
        name, kind = options[option]
        if name in values:
            raise InputError(f"option {option} is given twice")
        if kind is bool:
            if eq:
                raise InputError(f"option {option} takes no value")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                raise InputError(f"option {option} needs a value")
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise InputError(f"option {option} needs an integer, not {value!r}") from None
        values[name] = value
    if not words:
        return SimpleNamespace(words=None, **values)
    args = {"words": words, "json": False, "certificate": None, **values}
    for name, _, default in COMMANDS[words][0]:
        if name not in values:
            if default is None:
                raise InputError(f"option --{name} is required")
            args[name] = default
    return SimpleNamespace(**args)
