"""Command line front end: runs a command of :mod:`sdinv.commands` and
prints its report, or the help (that module's ``HELP``), writes and checks
certificate files, and maps errors to the exit codes 0 (success), 2 (input
error) and 3 (internal inconsistency or failed certificate check).
"""

from __future__ import annotations

import json
import os
import sys

from . import __version__, commands
from .errors import MAX_CERTIFICATE_BYTES, InputError, InternalInconsistencyError

REPORT_FORMAT = "sdinv-report/1"


# ---------------------------------------------------------------------------
# output


def _lines(report: dict):
    """The lines of the text report, one at a time."""
    yield f"command: {' '.join(report['command'])}"
    results = report["results"]
    for key in sorted(results):
        value = results[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True)
        yield f"{key}: {value}"
    for fact in report.get("cited_facts", []):
        yield f"cited [{fact['reference']}]: {fact['statement']}"
    cert = report.get("certificate")
    if cert:
        yield f"certificate: {cert['file']} ({cert['entries']} entries)"


def _write(lines, out) -> int:
    """Print ``lines`` to ``out``: exit code 0, or 2 where ``out`` cannot
    take them."""
    try:
        for line in lines:
            print(line, file=out)
        out.flush()
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        if out is sys.stdout:
            # a buffered stdout keeps what it could not write and flushes it
            # again at exit; the descriptor goes to os.devnull so that the
            # second flush succeeds and the exit status stays 2
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        return 2
    return 0


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = commands.read(argv)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        return _write(commands.HELP.splitlines(), out)
    if args.words is None:
        return _run_checker(args.check_certificate, out)

    # an unwritable certificate path is refused before any work; opening for
    # append creates a missing file and leaves an existing one as it is
    path = args.certificate
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

    return _write([json.dumps(report, sort_keys=True)] if args.json else _lines(report), out)


def _certificate_text(path: str) -> str:
    """The text of a certificate file of at most ``MAX_CERTIFICATE_BYTES``.
    A regular file's size is known before it is read; any other file, a pipe
    say, is read to one byte past the limit."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        data = b"" if size > MAX_CERTIFICATE_BYTES else fh.read(MAX_CERTIFICATE_BYTES + 1)
    if max(size, len(data)) > MAX_CERTIFICATE_BYTES:
        raise ValueError(f"the file exceeds the limit of {MAX_CERTIFICATE_BYTES} bytes")
    return data.decode("utf-8")


def _run_checker(path: str, out) -> int:
    from .certificate import check_certificate

    try:
        cert = json.loads(_certificate_text(path))
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers past the digit limit
        print(f"error: cannot read certificate: {exc}", file=sys.stderr)
        return 2
    ok, failures = check_certificate(cert)
    if ok:
        return _write([f"certificate OK ({len(cert.get('entries', []))} entries)"], out)
    for f in failures:
        print(f"certificate FAILED: {f}", file=sys.stderr)
    return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
