"""Command line front end: runs a command of :mod:`sdinv.commands` and
prints its report, writes and checks certificate files, and maps errors to
the exit codes 0 (success), 2 (input error) and 3 (internal inconsistency
or failed certificate check).
"""

from __future__ import annotations

import json
import os
import sys

from . import __version__, commands
from .errors import InputError, InternalInconsistencyError

REPORT_FORMAT = "sdinv-report/1"


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
        args = commands.parse(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.check_certificate:
        return _run_checker(args.check_certificate, out)

    # an unwritable certificate path is refused before any work; opening for
    # append creates a missing file and leaves an existing one as it is
    path = getattr(args, "certificate", None)
    created = False
    if path:
        created = not os.path.exists(path)
        try:
            open(path, "a").close()
        except OSError as exc:
            print(f"error: cannot write certificate: {exc}", file=sys.stderr)
            return 2
    code = 1
    try:
        code = _report(args, out)
    finally:
        # a failed command leaves no certificate file it did not find
        if code and created:
            os.remove(path)
    return code


def _report(args, out) -> int:
    """Run the command, write its certificate if asked and print its report."""
    try:
        results, evidence, cited = commands.execute(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 3

    command = commands.normalized_command(args)
    seed = getattr(args, "seed", None)
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
        from .certificate import certificate_dict

        cert = certificate_dict(command, args, evidence)
        try:
            with open(args.certificate, "w") as fh:
                # json.dumps runs the C encoder; json.dump to a file does not
                fh.write(json.dumps(cert, sort_keys=True))
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write certificate: {exc}", file=sys.stderr)
            return 2
        report["certificate"] = {"file": args.certificate, "entries": len(cert["entries"])}

    try:
        if args.json:
            print(json.dumps(report, sort_keys=True), file=out)
        else:
            _print_text(report, out)
        out.flush()
    except OSError as exc:
        return _unwritable(exc, out)
    return 0


def _unwritable(exc: OSError, out) -> int:
    print(f"error: cannot write report: {exc}", file=sys.stderr)
    if out is sys.stdout:
        # a buffered stdout keeps what it could not write and flushes it
        # again at exit; the descriptor goes to os.devnull so that the
        # second flush succeeds and the exit status stays 2
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
    return 2


def _run_checker(path: str, out) -> int:
    from .certificate import check_certificate

    try:
        with open(path) as fh:
            cert = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers past the digit limit
        print(f"error: cannot read certificate: {exc}", file=sys.stderr)
        return 2
    ok, failures = check_certificate(cert)
    if ok:
        try:
            print(f"certificate OK ({len(cert.get('entries', []))} entries)", file=out)
            out.flush()
        except OSError as exc:
            return _unwritable(exc, out)
        return 0
    for f in failures:
        print(f"certificate FAILED: {f}", file=sys.stderr)
    return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
