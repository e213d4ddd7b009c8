import ast
import collections
import contextlib
import hashlib
import io
import os
import subprocess
import json
import random
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdinv import certificate as certmod
from sdinv import cli, commands, errors, exactlin, kgamma, roots, wittq
from sdinv.roots import sym2_size


def run(args):
    buf = io.StringIO()
    code = cli.run(args, out=buf)
    return code, buf.getvalue()


def run_json(args):
    code, out = run(args + ["--json"])
    assert code == 0, out
    return json.loads(out)


# --- commands ------------------------------------------------------------------


def test_inv3_json_matches_contract():
    rep = run_json(["inv3", "--preset", "sl2n:5"])
    assert rep["results"]["group"] == "Z/2"
    assert rep["format"] == "sdinv-report/1"
    assert rep["command"] == ["inv3", "--preset", "sl2n:5"]


def test_inv3_sl4x4_witness_flag():
    rep = run_json(["inv3", "--preset", "sl4x4"])
    assert rep["results"]["group"] == "Z/2"
    assert rep["results"]["witness_class_is_2q1_plus_6q2"] is True


def test_gamma_member_no_with_prime_two_certificate():
    rep = run_json(
        ["gamma", "member", "--preset", "conics4", "--element", "4*y1*y2*y3*y4", "--degree", "3"]
    )
    assert rep["results"]["member"] is False
    assert rep["results"]["certificate"]["prime"] == 2


def test_gamma_member_yes():
    rep = run_json(
        ["gamma", "member", "--preset", "conics4", "--element", "4*y1*y2*y3", "--degree", "2"]
    )
    assert rep["results"]["member"] is True
    assert "coordinates" in rep["results"]


def test_gamma_member_element_with_leading_minus():
    rep = run_json(["gamma", "member", "--preset", "conics4", "--element=-2*y1", "--degree", "1"])
    assert rep["command"] == [
        "gamma", "member", "--preset", "conics4", "--element=-2*y1", "--degree", "1"
    ]
    assert rep["results"]["element"] == "-2*y1"
    assert rep["results"]["member"] is True
    y = rep["results"]["element_y_coordinates"]
    assert sorted(y) == [-2] + [0] * (len(y) - 1)


def test_gamma_member_leading_minus_certificate_roundtrip(tmp_path):
    path = tmp_path / "minus.json"
    argv = ["gamma", "member", "--preset", "deg4pair", "--element=-3*y1^2+y2", "--degree", "2"]
    code, _ = run(argv + ["--certificate", str(path), "--json"])
    assert code == 0
    assert json.loads(path.read_text())["command"] == argv
    code, out = run(["--check-certificate", str(path)])
    assert code == 0, out
    assert "certificate OK" in out


def test_gamma_report_full():
    rep = run_json(["gamma", "report", "--preset", "conics3"])
    assert rep["results"]["counting_identity_holds"] is True
    assert rep["results"]["epsilons"] == [8, 32, 4]
    assert "deltas" in rep["results"]


def test_chow2_conics4():
    rep = run_json(["chow2", "--preset", "conics4"])
    assert rep["results"]["torsion"] == "Z/2"
    assert rep["results"]["split_index"] == 2 ** 25
    assert rep["results"]["total_torsion_order"] == 2
    assert len(rep["cited_facts"]) == 3
    assert all(f["statement"] for f in rep["cited_facts"])


def test_theorem_row_five():
    rep = run_json(["theorem", "--n", "5", "--trials", "3"])
    assert rep["results"]["sdec_mod_dec_H"]["group"] == "0"
    assert rep["results"]["sdec_mod_dec_G"]["group"] == "0"
    assert rep["results"]["exactness_holds"] is True


def test_theorem_row_seven_flags_cited():
    rep = run_json(["theorem", "--n", "7", "--trials", "3"])
    assert rep["results"]["chow2_tors"]["provenance"] == "cited"
    assert any(f["id"] == "restriction_induction" for f in rep["cited_facts"])


def test_witt_verify():
    rep = run_json(["witt", "verify", "--identity", "alpha2", "--trials", "4", "--seed", "2"])
    assert rep["results"]["passes"] == 4
    assert rep["seed"] == 2


def test_sl4x4_command():
    rep = run_json(["sl4x4"])
    assert rep["results"]["sdec_mod_dec"] == "Z/2"
    assert rep["results"]["all_normalized_semi_decomposable"] is True


def test_text_output_mode():
    code, out = run(["inv3", "--preset", "sl2n:2"])
    assert code == 0
    assert "group: Z/2" in out


# --- errors --------------------------------------------------------------------


def test_unknown_preset_exit_2_lists_names(capsys):
    code, _ = run(["inv3", "--preset", "bogus"])
    assert code == 2
    assert "sl2n:2" in capsys.readouterr().err


def test_unknown_identity_exit_2(capsys):
    code, _ = run(["witt", "verify", "--identity", "bogus"])
    assert code == 2
    assert "twofold" in capsys.readouterr().err


def test_parse_error_exit_2(capsys):
    code, _ = run(["gamma", "member", "--preset", "conics3", "--element", "2*(y1", "--degree", "1"])
    assert code == 2
    assert "offset" in capsys.readouterr().err


@pytest.mark.parametrize("preset", ["split:12,12", "split:40,40"])
def test_ring_rank_over_the_limit_exits_2(preset, capsys):
    start = time.perf_counter()
    code, _ = run(["gamma", "report", "--preset", preset])
    assert code == 2
    assert f"limit of {errors.MAX_AMBIENT_RANK}" in capsys.readouterr().err
    assert time.perf_counter() - start < 2.0


@pytest.mark.parametrize(
    "argv",
    [
        ["witt", "verify", "--identity", "alpha2", "--trials", "10001"],
        ["theorem", "--n", "3", "--trials", "10001"],
    ],
    ids=["witt", "theorem"],
)
def test_trials_over_the_limit_exit_2(argv, capsys):
    code, _ = run(argv)
    assert code == 2
    assert str(wittq.MAX_TRIALS) in capsys.readouterr().err


@pytest.mark.parametrize("n", [5, 8])
@pytest.mark.parametrize("trials", [-5, 0, 10001])
def test_theorem_trials_checked_on_every_row(n, trials, capsys):
    """Rows 5 to 8 run no identity suite, but still refuse a bad count."""
    code, out = run(["theorem", "--n", str(n), "--trials", str(trials), "--json"])
    assert code == 2 and out == ""
    assert f"trials must be between 1 and {errors.MAX_TRIALS}" in capsys.readouterr().err


def test_missing_command_exit_2(capsys):
    code, _ = run([])
    assert code == 2


def test_theorem_out_of_range(capsys):
    code, _ = run(["theorem", "--n", "11"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, err",
    [
        (["inv3", "--preset", "sl2n:9"], "error: preset 'sl2n:9': n must be between 2 and 8\n"),
        (["inv3", "--preset", "sl2n:1"], "error: preset 'sl2n:1': n must be between 2 and 8\n"),
        (["theorem", "--n", "9"], "error: theorem rows are available for n between 2 and 8\n"),
        (
            ["witt", "verify", "--identity", "nope"],
            "error: unknown identity 'nope'; available: twofold, square_slot, double, "
            "alpha2, lemma_alpha3_exact, lemma_alpha3_modI4, prop_step_Qonetwo, alpha4_full\n",
        ),
    ],
    ids=["sl2n:9", "sl2n:1", "theorem-9", "identity-nope"],
)
def test_refusal_stderr_is_pinned(argv, err, capsys):
    """The messages that name the range of n and the identity list, byte for byte."""
    code, out = run(argv)
    assert (code, out) == (2, "")
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "argv",
    [["inv3", "--preset", p] for p in ("sl2n:03", "sl2n:0_3", "sl2n:+3", "sl2n: 3", "sl2n:\u0663")]
    + [["gamma", "report", "--preset", p] for p in ("split:2,02", "split:1_0", "split:\u0662,2")],
    ids=["sl2n:03", "sl2n:0_3", "sl2n:+3", "sl2n:space3", "sl2n:arabic3",
         "split:2,02", "split:1_0", "split:arabic2,2"],
)
def test_preset_numbers_have_one_spelling(argv, capsys):
    """A number in a preset name is refused unless it reads ``str(int(t))``,
    so each preset has one name, which its report echoes."""
    code, out = run(argv)
    assert (code, out) == (2, "")
    kind = "split preset" if argv[0] == "gamma" else "preset name"
    assert capsys.readouterr().err == f"error: malformed {kind} {argv[-1]!r}\n"


# SHA-256 of stdout; the help is the docstring of ``sdinv.commands``
HELP_DIGESTS = {
    "--help": "212c3191b7bfabe829fd9e85ce2dbbee499bf28ae2ae4cd8ee9917ff0a0b3512",
    "gamma member --help": "212c3191b7bfabe829fd9e85ce2dbbee499bf28ae2ae4cd8ee9917ff0a0b3512",
}


@pytest.mark.parametrize("argv", sorted(HELP_DIGESTS))
def test_help_is_pinned(argv):
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sdinv.cli", *argv.split()],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == HELP_DIGESTS[argv]


def test_help_survives_stripped_docstrings():
    """``python -OO`` strips docstrings, not the help constant: the help
    prints the same bytes, exits 0 and writes nothing to stderr."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    plain, stripped = (
        subprocess.run(
            [sys.executable, *flags, "-m", "sdinv.cli", "--help"],
            capture_output=True, env=env, timeout=60,
        )
        for flags in ((), ("-OO",))
    )
    assert plain.returncode == 0, plain.stderr
    assert (stripped.returncode, stripped.stdout, stripped.stderr) == (0, plain.stdout, b"")


def test_help_is_written_to_out(capsys):
    """In-process help is a return value, not an exit: the docstring goes to
    ``out``, and nothing to the process's stdout or stderr."""
    for argv in (["--help"], ["-h"], ["inv3", "--help"], ["witt", "verify", "--seed", "2", "-h"]):
        assert run(argv) == (0, commands.__doc__), argv
    assert capsys.readouterr() == ("", "")


def test_help_states_every_command_and_option():
    """The help names each command of the table with its options, and the
    options every command takes."""
    lines = commands.__doc__.splitlines()
    for words, (arguments, _) in commands.COMMANDS.items():
        line = next(line for line in lines if line.startswith(f"* ``{' '.join(words)}"))
        for name, _, _ in arguments:
            assert f"--{name} " in line, (words, name)
    for option in ("--json", "--certificate FILE", "--check-certificate FILE", "--help"):
        assert option in commands.__doc__


MEMBER = ["gamma", "member", "--preset", "conics4", "--element", "y1", "--degree", "1"]


@pytest.mark.parametrize(
    "argv, err",
    [
        ([], "a command is required: inv3, chow2, gamma member, gamma report, witt verify, "
             "theorem, sl4x4"),
        (["inv4", "--preset", "sl2n:2"], "unknown command 'inv4'; the commands are inv3, chow2, "
             "gamma member, gamma report, witt verify, theorem, sl4x4"),
        (["gamma", "--preset", "conic1"], "unknown command 'gamma --preset'; the commands are "
             "inv3, chow2, gamma member, gamma report, witt verify, theorem, sl4x4"),
        (["inv3", "--pre", "sl2n:2"], "unknown option '--pre'"),
        (["inv3", "--preset=sl2n:2", "--bogus"], "unknown option '--bogus'"),
        (["--check-certificate", "F", "--json"], "unknown option '--json'"),
        (["inv3", "--preset", "sl2n:3", "--preset", "sl2n:2"], "option --preset is given twice"),
        (["inv3", "--json", "--preset", "sl2n:2", "--json"], "option --json is given twice"),
        (["inv3", "--preset"], "option --preset needs a value"),
        (["--check-certificate"], "option --check-certificate needs a value"),
        (["inv3", "--preset", "sl2n:2", "--json=1"], "option --json takes no value"),
        (["theorem", "--n", "x"], "option --n needs an integer, not 'x'"),
        (["theorem", "--n=2", "--seed", "1.5"], "option --seed needs an integer, not '1.5'"),
        (["inv3"], "option --preset is required"),
        (MEMBER[:6], "option --degree is required"),
        (["inv3", "--preset", "sl2n:2", "extra"], "unknown argument 'extra'"),
        (["--check-certificate", "F", "inv3"], "unknown argument 'inv3'"),
    ],
    ids=["none", "unknown-command", "unknown-second-word", "abbreviation", "unknown-option",
         "checker-option", "repeat", "repeated-flag", "missing-value", "checker-missing-value",
         "flag-value", "non-integer", "non-integer-seed", "missing-option", "missing-degree",
         "stray", "checker-stray"],
)
def test_refused_argv_exits_2_with_one_error_line(argv, err, capsys):
    """Each argv the grammar does not read is refused before any work: exit
    2, nothing on stdout, and one stderr line that names the token."""
    assert run(argv) == (2, "")
    assert capsys.readouterr() == ("", f"error: {err}\n")


def test_a_separate_value_is_the_next_token():
    """A value with a leading minus reads as a value, and its echo is glued."""
    code, out = run(MEMBER[:5] + ["-2*y1", "--degree", "1"])
    assert code == 0
    assert out.startswith("command: gamma member --preset conics4 --element=-2*y1 --degree 1\n")


# --- determinism ------------------------------------------------------------------


def test_json_reports_are_byte_deterministic():
    a = run(["witt", "verify", "--identity", "twofold", "--trials", "6", "--seed", "3", "--json"])
    b = run(["witt", "verify", "--identity", "twofold", "--trials", "6", "--seed", "3", "--json"])
    assert a == b


def test_command_echo_parses_back_to_the_same_arguments():
    """One argv per command: the echo in reports and certificates parses to
    the same arguments and echoes identically again, a string value with a
    leading minus and a negative seed included."""
    argvs = [
        ["inv3", "--preset", "sl2n:3"],
        ["chow2", "--preset", "conics3"],
        ["gamma", "member", "--preset", "conics4", "--element=-3*y1^2+y2", "--degree", "2"],
        ["gamma", "report", "--preset", "conic1"],
        ["witt", "verify", "--identity", "double", "--trials", "3"],
        ["theorem", "--n", "2", "--seed", "-5"],
        ["sl4x4"],
    ]
    for argv in argvs:
        args = commands.read(argv)
        echo = commands.normalized_command(args)
        again = commands.read(echo)
        assert vars(again) == vars(args), argv
        assert commands.normalized_command(again) == echo
    assert commands.normalized_command(commands.read(argvs[2]))[4] == "--element=-3*y1^2+y2"
    assert commands.normalized_command(commands.read(argvs[5]))[-2:] == ["--seed", "-5"]
    assert {commands.read(argv).words for argv in argvs} == set(commands.COMMANDS)


# --- the table reader on drawn argvs -------------------------------------------

_OPTION_STRINGS = sorted(
    {f"--{name}" for arguments, _ in commands.COMMANDS.values() for name, _, _ in arguments}
    | {"--json", "--certificate", "--check-certificate"}
)
_VALUES = st.one_of(
    st.integers(-30, 30).map(str),
    st.sampled_from([
        "sl2n:2", "conics4", "y1", "-2*y1", "-5", "-05", "-", "--", "", " 7", "1_0", "x",
        "a=b", "--json", "-h", "x y", "-2 *y1", "-\u0663", "\u0663", "3\n", "-3\n",
    ]),
)


@st.composite
def _argvs(draw):
    """Command words of the table, then its options in any order and either
    spelling; in about half of the argvs, stray tokens too: repeats,
    abbreviations, help and unknown options."""
    words = draw(st.sampled_from(sorted(commands.COMMANDS)))
    arguments = commands.COMMANDS[words][0] + (("certificate", str, ""),)
    tokens = []
    for name, kind, default in arguments:
        if draw(st.integers(0, 7)) if default is None else draw(st.booleans()):
            value = draw(st.integers(-30, 30).map(str) if kind is int else _VALUES)
            tokens.append([f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value])
    if draw(st.booleans()):
        tokens.append(["--json"])
    if draw(st.booleans()):
        option = st.sampled_from(_OPTION_STRINGS)
        stray = st.one_of(
            st.sampled_from(["-h", "--help", "--json", "--bogus", "-x", "--json=1", "--", "extra"]),
            option.map(lambda o: o[:-2]),  # an abbreviation
            st.tuples(option, _VALUES).map(list),  # maybe a repeat
            st.tuples(option, _VALUES).map("=".join),
            _VALUES,
        )
        tokens += [t if isinstance(t, list) else [t] for t in draw(st.lists(stray, max_size=2))]
    tokens = draw(st.permutations(tokens))
    head = list(words) if draw(st.integers(0, 7)) else draw(st.lists(st.sampled_from(
        ["inv3", "gamma", "member", "witt", "--check-certificate", "F", "-h"]), max_size=2))
    return head + [t for group in tokens for t in group]


@settings(max_examples=600, deadline=None)
@given(_argvs())
@example(["theorem", "--n", "2", "--seed", "-5"])
@example(["gamma", "member", "--preset", "c", "--element=-2*y1", "--degree=-3", "--json"])
@example(["gamma", "member", "--preset", "c", "--element", "-h", "--degree", "1"])
@example(["--check-certificate", "F"])
@example(["--check-certificate="])
@example(["witt", "verify", "--identity", "alpha2", "--certificate=", "--trials", "\u0663"])
def test_table_reader_reads_or_refuses(argv):
    """The reader returns arguments, a help request (None) or raises
    InputError, never anything else; what it reads as a command echoes
    through ``normalized_command`` to an argv that reads back equal."""
    try:
        args = commands.read(argv)
    except errors.InputError:
        return
    if args is None or args.words is None:
        return
    echo = commands.normalized_command(args)
    assert vars(commands.read(echo)) == {**vars(args), "json": False, "certificate": None}, argv


def test_json_report_roundtrip():
    code, out = run(["chow2", "--preset", "conics3", "--json"])
    rep = json.loads(out)
    assert json.loads(json.dumps(rep)) == rep


DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"
CLASSIFY_REPORTS = [["inv3", "--preset", f"sl2n:{n}", "--json"] for n in range(2, 9)] + [
    ["inv3", "--preset", "sl4x4", "--json"],
    ["sl4x4", "--json"],
]


GAMMA_REPORTS = [
    ["gamma", "report", "--preset", p, "--json"]
    for p in ("conic1", "conics3", "conics4", "deg4pair", "split:2,2,2,2,2", "split:3,3,3",
              "split:6,6")
] + [["chow2", "--preset", p, "--json"] for p in ("conics3", "conics4", "deg4pair")]


RECORDED = json.loads(DIGESTS.read_text())["commands"]
# one seed of the benchmark's pool, read off its recorded theorem rows
BENCH_SEED = min(k.split()[4] for k in RECORDED if k.startswith("theorem --n 2 "))
THEOREM_REPORTS = [
    ["theorem", "--n", str(n), "--seed", BENCH_SEED, "--json"] for n in range(2, 9)
]
WITT_REPORTS = [
    k.split() for k in sorted(RECORDED)
    if k.startswith("witt verify ") and k.endswith(f" --trials 500 --seed {BENCH_SEED} --json")
]
# every command the benchmark certifies at that seed (and every recorded
# member query), each with the check of its certificate
CERTIFY_EMITS = [
    k.split()[1:] for k in sorted(RECORDED)
    if k.startswith("check: ") and ("--seed" not in k or f"--seed {BENCH_SEED} " in k)
]


def _assert_recorded_digest(argv, key=None):
    recorded = RECORDED[key or " ".join(argv)]
    code, out = run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == recorded


@pytest.mark.parametrize("argv", CLASSIFY_REPORTS, ids=" ".join)
def test_classification_reports_match_recorded_digests(argv):
    _assert_recorded_digest(argv)


@pytest.mark.parametrize("argv", GAMMA_REPORTS, ids=" ".join)
def test_gamma_reports_match_recorded_digests(argv):
    _assert_recorded_digest(argv)


@pytest.mark.parametrize("argv", THEOREM_REPORTS + WITT_REPORTS, ids=" ".join)
def test_theorem_and_witt_reports_match_recorded_digests(argv):
    _assert_recorded_digest(argv)


@pytest.mark.parametrize("emit", CERTIFY_EMITS, ids=" ".join)
def test_certify_pairs_match_recorded_digests(emit, tmp_path, monkeypatch):
    """The emit runs where the benchmark runs it, beside a .bench_work
    directory, so the report names the same relative certificate path."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / ".bench_work").mkdir()
    _assert_recorded_digest(emit)
    _assert_recorded_digest(["--check-certificate", emit[-1]], key="check: " + " ".join(emit))


def test_recorded_digests_cover_every_benchmark_op_kind():
    assert len(WITT_REPORTS) == len(wittq.IDENTITY_IDS)
    assert {e[-1] for e in CERTIFY_EMITS} == {f".bench_work/cert_{k}.json" for k in range(8)}


def _broken_sl2n_3(field):
    data = roots.get_preset("sl2n:3")
    if field == "weyl":
        # a shear, which moves the lattice basis vector (1, 1, 1) to (1, 2, 1)
        shear = exactlin.IntMatrix.from_rows([(1, 0, 0), (1, 1, 0), (0, 0, 1)])
        return data._replace(weyl=(shear,) + data.weyl[1:])
    # 4 x1 x2, which the sign change of x1 negates
    return data._replace(dec_forms=data.dec_forms + ((0, 4, 0, 0, 0, 0),))


@pytest.mark.parametrize("field, message", [
    ("weyl", "weyl generator 0 moves basis vector 0 outside the lattice"),
    ("dec_forms", "of the sublattice is outside the superlattice"),
])
def test_broken_preset_is_an_internal_inconsistency(field, message, monkeypatch, capsys):
    """A Weyl generator that leaves the lattice, or a Chern class that is not
    invariant, is a broken preset: no user input reaches either check."""
    broken = _broken_sl2n_3(field)
    monkeypatch.setattr(roots, "get_preset", lambda name: broken)
    roots.indecomposable_group.cache_clear()
    try:
        code, out = run(["inv3", "--preset", "sl2n:3", "--json"])
    finally:
        roots.indecomposable_group.cache_clear()
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("internal inconsistency: ") and message in err


def test_filtration_level_out_of_its_predecessor_exits_3(monkeypatch, capsys):
    """graded_torsion presents each step inside the one before it, the one
    proof that the levels nest: a step 2 outside step 1 exits 3."""
    live = kgamma.gamma_filtration

    def broken(name):
        lattices = live(name).lattices
        return live(name)._replace(lattices=lattices[:2] + lattices[:1] + lattices[3:])

    monkeypatch.setattr(kgamma, "gamma_filtration", broken)
    kgamma.graded_torsion.cache_clear()
    try:
        code, out = run(["gamma", "report", "--preset", "conics3", "--json"])
    finally:
        kgamma.graded_torsion.cache_clear()
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("internal inconsistency: basis vector ")
    assert err.rstrip().endswith("of the sublattice is outside the superlattice")


def _count_calls(monkeypatch, module, name):
    """Replace the function ``name`` of the sdinv ``module`` that defines it,
    and in every sdinv module that holds it, by a wrapper that records the
    positional arguments of each call."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("sdinv"):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_inv3_sl2n_8_keeps_smith_and_det_inputs_small(monkeypatch):
    """The stacked (w - 1) matrix is tall, but its kernel comes from the
    Hermite form of its columns, so no Smith input or determinant outgrows
    the quadratic monomials."""
    limit = sym2_size(8)
    smith_calls = _count_calls(monkeypatch, exactlin, "smith_normal_form")
    det_calls = _count_calls(monkeypatch, exactlin, "det")
    roots.indecomposable_group.cache_clear()
    code, _ = run(["inv3", "--preset", "sl2n:8", "--json"])
    assert code == 0
    assert smith_calls and det_calls
    assert max(m.rows for m, in smith_calls) <= limit
    assert max(max(m.rows, m.cols) for m, in det_calls) <= limit


def _clear_gamma_caches():
    kgamma.gamma_filtration.cache_clear()
    kgamma.graded_torsion.cache_clear()


def test_gamma_report_without_certificate_builds_no_entries(monkeypatch, tmp_path):
    _clear_gamma_caches()
    calls = _count_calls(monkeypatch, exactlin, "subquotient_presentation")
    argv = ["gamma", "report", "--preset", "split:3,3,3", "--json"]
    code, _ = run(argv)
    assert code == 0
    assert len(calls) == kgamma.get_config("split:3,3,3").ring.dim + 1 == 7
    path = tmp_path / "gamma.json"
    code, out = run(argv + ["--certificate", str(path)])
    assert code == 0
    assert len(json.loads(path.read_text())["entries"]) == 97
    code, out = run(["--check-certificate", str(path)])
    assert code == 0 and "certificate OK" in out


def test_commands_read_gamma_values_off_line_classes(monkeypatch):
    """No command converts a ring element back to x coefficients (the package
    has no such conversion): the gamma values of each generator
    ind(e) (x^e - 1) are read off its line class, once per nonzero exponent e
    of the ring."""
    assert not hasattr(kgamma.RingElement, "x_coefficients")
    lines = _count_calls(monkeypatch, kgamma, "_line_gamma")
    for preset, argv in [
        ("deg4pair", ["gamma", "report"]),
        ("conics4", ["chow2"]),
        ("conics3", ["gamma", "member", "--element", "2*x1*x2 - 2", "--degree", "1"]),
    ]:
        _clear_gamma_caches()
        lines.clear()
        code, _ = run(argv + ["--preset", preset, "--json"])
        assert code == 0
        assert len(lines) == kgamma.get_config(preset).ring.rank - 1


# the functions whose calls a certificate once repeated from its report
EVIDENCE_FUNCTIONS = [
    (roots, "action_in_basis"), (roots, "sym2_action_matrix"), (roots, "character_lattice"),
    (exactlin, "det"), (exactlin, "lattice_membership"),
]


@pytest.mark.parametrize(
    "argv",
    [["inv3", "--preset", "sl2n:8"], ["inv3", "--preset", "sl4x4"], ["sl4x4"],
     ["gamma", "report", "--preset", "split:3,3,3"], ["chow2", "--preset", "conics4"]],
    ids=" ".join,
)
def test_certificate_adds_no_computation(argv, monkeypatch, tmp_path):
    """Entries are built from the objects the report computed, so writing a
    certificate calls no lattice function a second time."""
    calls = {name: _count_calls(monkeypatch, module, name) for module, name in EVIDENCE_FUNCTIONS}
    counts = []
    for extra in ([], ["--certificate", str(tmp_path / "cert.json")]):
        for cached in (roots.get_preset, roots.indecomposable_group,
                       kgamma.gamma_filtration, kgamma.graded_torsion):
            cached.cache_clear()
        for recorded in calls.values():
            recorded.clear()
        code, _ = run(argv + ["--json"] + extra)
        assert code == 0
        counts.append({name: len(recorded) for name, recorded in calls.items()})
    assert counts[0] == counts[1]


def _relative_imports(path, functions=True):
    """(module, name) of each relative import in ``path``: ``from .m import
    a`` gives ("m", "a") and ``from . import a`` gives (None, "a").  With
    ``functions`` false, only the imports outside function bodies."""
    tree = ast.parse(Path(path).read_text())
    nodes = ast.walk(tree)
    if not functions:
        nodes = [n for top in tree.body if not isinstance(top, ast.FunctionDef)
                 for n in ast.walk(top)]
    pairs = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("sdinv") for a in node.names), ast.dump(node)
        if isinstance(node, ast.ImportFrom):
            assert node.level or not (node.module or "").startswith("sdinv"), ast.dump(node)
            if node.level:
                pairs.update((node.module, a.name) for a in node.names)
    return pairs


def test_commands_imports_only_what_produces_results():
    """``commands.py`` holds the command table and its backends: from the
    compute modules it imports only the functions whose results it reports,
    and nothing from ``cli`` or ``certificate``."""
    allowed = {
        "errors": {"InputError"},
        "exactlin": set(),
        "roots": {"indecomposable_group", "sl4x4_witness_is_2q1_plus_6q2"},
        "kgamma": {"chow2_torsion", "filtration_membership"},
        "wittq": {"verify_identity"},
        "presets": {"assemble_theorem", "sl4x4_report", "cited_fact"},
    }
    imported = {}
    for module, name in _relative_imports(commands.__file__):
        assert module in allowed, (module, name)
        imported.setdefault(module, set()).add(name)
    assert imported["roots"] and imported["kgamma"]
    for module, names in imported.items():
        assert names <= allowed[module], (module, names - allowed[module])


def test_cli_imports_only_commands_errors_and_the_certificate_files():
    """``cli.py`` reports: from the package it imports ``__version__``,
    ``commands`` and ``errors`` at module level, and the certificate writer
    and checker only inside the functions that use them."""
    top = _relative_imports(cli.__file__, functions=False)
    inner = _relative_imports(cli.__file__) - top
    assert {module or name for module, name in top} == {"__version__", "commands", "errors"}
    assert inner == {("certificate", "certificate_dict"), ("certificate", "check_certificate")}


def test_package_imports_form_no_cycle():
    """Relative imports at any depth, inside functions and ``TYPE_CHECKING``
    blocks included, form no cycle among the package's modules."""
    paths = sorted(Path(cli.__file__).parent.glob("*.py"))
    modules = {p.stem for p in paths}
    graph = {
        p.stem: {
            module.partition(".")[0] if module else name if name in modules else "__init__"
            for module, name in _relative_imports(p)
        }
        for p in paths
    }
    assert len(graph) >= 10 and "certificate" in graph["cli"]

    def cycle(path):
        for nxt in sorted(graph[path[-1]]):
            if nxt == path[0]:
                return path + [nxt]
            if nxt not in path and (found := cycle(path + [nxt])):
                return found
        return None

    for module in sorted(graph):
        found = cycle([module])
        assert found is None, " -> ".join(found)


def test_every_command_has_an_entry_list():
    assert set(certmod._ENTRY_LISTS) == set(commands.COMMANDS)


def test_inv3_sl2n_8_runs_six_hermite_forms(monkeypatch):
    """A character lattice is its canonical Hermite basis, so no lattice is
    put through a second Hermite form to carry a named basis, and the
    residue map is not checked onto by a Hermite form of its own."""
    roots.get_preset.cache_clear()
    roots.indecomposable_group.cache_clear()
    calls = _count_calls(monkeypatch, exactlin, "row_hermite")
    code, _ = run(["inv3", "--preset", "sl2n:8", "--json"])
    assert code == 0
    assert len(calls) == 6


@pytest.mark.parametrize("name", ["conics4", "deg4pair", "split:3,3,3"])
def test_graded_torsion_runs_no_kernel(monkeypatch, name):
    """eta comes from one echelon form of the descended subring."""
    _clear_gamma_caches()
    calls = _count_calls(monkeypatch, exactlin, "kernel_basis")
    kgamma.graded_torsion(name)
    assert calls == []


def test_split_8_8_filtration_feeds_few_rows_to_hermite(monkeypatch):
    """Levels multiply the span bases of the gamma values, not every raw
    value: 19,208 rows went into Hermite forms when they did."""
    _clear_gamma_caches()
    calls = _count_calls(monkeypatch, exactlin, "row_hermite")
    kgamma.gamma_filtration("split:8,8")
    assert sum(len(rows) for rows, in calls) <= 1000


def test_theorem_runs_each_suite_once(monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, wittq, "verify_identity")
    argv = ["theorem", "--n", "3", "--json"]
    code, _ = run(argv)
    assert code == 0
    assert [c[0] for c in calls] == ["twofold", "lemma_alpha3_exact", "lemma_alpha3_modI4"]
    calls.clear()
    path = tmp_path / "theorem.json"
    code, _ = run(argv + ["--certificate", str(path)])
    assert code == 0
    assert len(calls) == 3
    assert len(json.loads(path.read_text())["entries"]) == 6
    code, out = run(["--check-certificate", str(path)])
    assert code == 0 and "certificate OK" in out


def test_failed_suite_during_assembly_exits_3(monkeypatch, tmp_path, capsys):
    """A suite case that fails while a row is assembled is an internal
    inconsistency: exit 3, no report and no certificate file."""

    def failing(identity_id, trials, seed):
        return [wittq.IdentityCase(identity_id, 0, seed, (), (), (), "exact-Witt", False)]

    monkeypatch.setattr(wittq, "verify_identity", failing)
    path = tmp_path / "theorem.json"
    code, out = run(["theorem", "--n", "3", "--json", "--certificate", str(path)])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err.startswith("internal inconsistency: identity suite")
    assert not path.exists()


# SHA-256 of the stdout of the two largest gamma reports, which the benchmark
# does not run, as the code before span bases wrote them.
GAMMA_REPORT_DIGESTS = {
    "split:4,4,4": "ae6e07d11eb630330c98d1f0fef3d3d52e767506119489db206fb96c748ebe2a",
    "split:8,8": "4001bb43e9a8b68a9b57b9ecd277b6f9447f9446299b0db02197a1e16c465c7f",
    # rank 128, the largest Smith transforms of any split preset
    "split:2,64": "e3031bd8088032c6336e82b274ab98bc79fdb70e5f3bae132619bbb59d0effdf",
}


@pytest.mark.parametrize("preset", GAMMA_REPORT_DIGESTS)
def test_large_gamma_reports_are_byte_identical(preset):
    code, out = run(["gamma", "report", "--preset", preset, "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GAMMA_REPORT_DIGESTS[preset]


# SHA-256 of the sdinv-cert/2 certificate files.  Each equals the sdinv-cert/1
# file of the code before the per-prime witness evidence was deleted, with the
# format string swapped and each witness replaced by its vector; the entries
# must not change.
CERTIFICATE_DIGESTS = {
    "inv3 --preset sl2n:2": "1c6ebfd23a0a3c3c2888519549f803418c0a23a65ead383e5ebacf7df5eecf62",
    "inv3 --preset sl2n:3": "4511d41da7f3f2051991cd8ace05d47753aa58f80b1b6cd5f3c0544a9b94e537",
    "inv3 --preset sl2n:4": "3f19343641db62659beb93087fa0ba4e88078c6a2d34e63fdca88eabbc6649fd",
    "inv3 --preset sl2n:5": "bb84c4777d409a18660e90245e85317fbecd0db56f01746dfdfa2fef72f46903",
    "inv3 --preset sl2n:6": "1b2344ad506e149725c460b748d052a2e80efeb5d1cf946dc66f5c387b0e0be8",
    "inv3 --preset sl2n:7": "20aeb3d710122f431a28baa2ece85a9b5caefb0ab820528c97de4bdba13837ad",
    "inv3 --preset sl2n:8": "b81a3f82049e8ef53a685c668c48099c9f3007311f343f4029c6c2ea06934c62",
    "sl4x4": "8e09cc3978ed192a43a2c54e9672eceade0f007339f29222df5731924e0e9de6",
    "chow2 --preset conics4": "776eae93b048f4686a3acf889c5c9c83a11f6f9465621a2c4790ad5c67cde09c",
    "gamma report --preset deg4pair":
        "cd1b2638b59f9f59595afe2c0b6a35eedbc60f2162dad97829bd0c069190b483",
    "gamma report --preset split:3,3,3":
        "a1c9d2fb76910fe693fe331b4297f0b42e1820d0869ce74ed0b14f176897f0e5",
    "gamma report --preset split:4,4,4":
        "17df5dc10abd1fe1562f400484e313fd1e3b4dd911dff5b24d8ec2c904779930",
    "theorem --n 2": "4a913f183112265045fd71905c1066adf70b1a31baf2ba83e41175e81b74f7ee",
    "theorem --n 3": "d498dbdeef9f91a4f9227f9996f6e084a7e20d56ba7d4011ccc1c07dfebde808",
    "theorem --n 4": "83b812f8611d08de63902194498df5714963b3848277eef00bbe1853648d9d45",
    "theorem --n 5": "6468307073318a8ee59c6e23375b61c78cc28d684b4f13dc62f2b9fef7521c99",
    "theorem --n 6": "dd44294f2e5967a9c8a4135f6146e02caecae27406eab93880a6076dbc7bc604",
    "theorem --n 7": "73dd865af59971e67c8127baacc7a64d084d234a59446c336c105534b7dce5d9",
    "theorem --n 8": "f9683cb81213f61d20d1656e2fdc8a5aae172751bfa7bf5394082d8f8335558e",
    "inv3 --preset sl4x4": "09d6667e6db301e441a3d50d4acf1ae9b9497117c28ce4279fff429cb2b5e8e1",
}


@pytest.mark.parametrize("command", CERTIFICATE_DIGESTS)
def test_certificate_files_are_byte_identical(command, tmp_path):
    path = tmp_path / "cert.json"
    code, _ = run(command.split() + ["--json", "--certificate", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CERTIFICATE_DIGESTS[command]


# SHA-256 of the stdout of ``theorem --n N --json`` as the code before the
# character-lattice wrapper types were deleted wrote it.
THEOREM_REPORT_DIGESTS = {
    2: "29d2890d1d9c96da7ba49a6d768814e891c014803af99b7aa410532e0ccf2f31",
    3: "a1a83c879cd25bb026a6492325e8c08050f9e9af65c94ab6eb695c75d0d8a50d",
    4: "bf682c6297fbf26430e765494e7b3c41dc787a326a2cd3be3d7e9db9eeaab658",
    5: "557f501dc0ee1df6847905e41c71cce226e53ebf841b3892d0b2891c9a1d5ade",
    6: "66f0e89899a0163155b3516d0aadf9c5497085ae05942492bcb5432383384f07",
    7: "7b64acc359cceedcf34b1bce832c07c28da2e6f8c2e3ec1ce0bf91e48ccbf933",
    8: "ee89280b9a317e65f55e96c1f91e609da8b87a8697e072d15f497df973a94813",
}


@pytest.mark.parametrize("n", THEOREM_REPORT_DIGESTS)
def test_theorem_reports_are_byte_identical(n):
    code, out = run(["theorem", "--n", str(n), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == THEOREM_REPORT_DIGESTS[n]


# SHA-256 of the sdinv-cert/2 certificate files of ``witt verify --trials 50
# --seed 1``: the sdinv-cert/1 files of the code before square classes became
# gcd-multiplied values, with the format string swapped.
WITT_CERTIFICATE_DIGESTS = {
    "twofold": "eb0dff8895497eb5a2d59ea54f053227e23cc19152fa479cd9a08dd9eafc7dc2",
    "square_slot": "c47dad479e1358f67715c164d37f05332894c8d3ee2e87141b3ba12e6707aed5",
    "double": "9d78d11650c999037fea9a969c005c1674ed7b191f1f2c5a43bd8e07d56d76d2",
    "alpha2": "bc58d384f820174153c9ed6b047db0635ed5e006de0863f5d867aabc0a7b47f3",
    "lemma_alpha3_exact": "b0d8534f4ae3cb301db8eeb1361559da81168ae1c0bde102061a9b8e3e0443fa",
    "lemma_alpha3_modI4": "811b24a70fecc585fdd1fd6dadf9e9b2668d7285816b41e3d998ef1ffb0c8e82",
    "prop_step_Qonetwo": "3132a4694d58977630fcc8ef036fa469d90fb223a6b9909d0e5abe11da58f97d",
    "alpha4_full": "1b7f82f9a146fac793795f46e87a3483d828e60ac73eb3b8db5bca4bad011e06",
}


@pytest.mark.parametrize("identity", WITT_CERTIFICATE_DIGESTS)
def test_witt_certificate_files_are_byte_identical(identity, tmp_path):
    path = tmp_path / "cert.json"
    argv = ["witt", "verify", "--identity", identity, "--trials", "50", "--seed", "1"]
    code, _ = run(argv + ["--json", "--certificate", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WITT_CERTIFICATE_DIGESTS[identity]


# --- certificates -----------------------------------------------------------------


CERT_COMMANDS = [
    ["inv3", "--preset", "sl2n:2"],
    ["gamma", "member", "--preset", "split:2,2", "--element", "2*y1*y2", "--degree", "2"],
    ["witt", "verify", "--identity", "double", "--trials", "3", "--seed", "1"],
]


@pytest.fixture(scope="module")
def cert_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("certs")
    paths = []
    for i, cmd in enumerate(CERT_COMMANDS):
        path = root / f"cert{i}.json"
        code, _ = run(cmd + ["--certificate", str(path), "--json"])
        assert code == 0
        paths.append(path)
    return paths


def test_certificates_validate(cert_files):
    for path in cert_files:
        code, out = run(["--check-certificate", str(path)])
        assert code == 0, out
        assert "certificate OK" in out


def test_checker_rejects_missing_file(capsys):
    code, _ = run(["--check-certificate", "/nonexistent/cert.json"])
    assert code == 2


# Runs ``python -m sdinv.cli ARGS`` from a small process, so that the peak RSS
# that ``os.wait4`` reports is the command's own, not the pages of a large
# parent that a forked child starts with; prints exit code, stderr, wall time
# and peak RSS in bytes (``ru_maxrss`` is in kB on Linux).
_LAUNCHER = """
import json, os, subprocess, sys, time
start = time.perf_counter()
proc = subprocess.Popen([sys.executable, "-m", "sdinv.cli", *sys.argv[1:]],
                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
_, status, usage = os.wait4(proc.pid, 0)
elapsed = time.perf_counter() - start
proc.returncode = os.waitstatus_to_exitcode(status)
err = proc.communicate()[1].decode()
print(json.dumps([proc.returncode, err, elapsed, usage.ru_maxrss * 1024]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in kB on Linux")
def test_checker_refuses_an_oversized_file_unread(tmp_path):
    """A sparse file one byte past the limit is refused by its size: exit 2
    with one error line within a second, and the process never holds the
    file, its peak RSS staying far below the file's size."""
    path = tmp_path / "big.json"
    with open(path, "wb") as fh:
        fh.truncate(errors.MAX_CERTIFICATE_BYTES + 1)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    launched = subprocess.run(
        [sys.executable, "-c", _LAUNCHER, "--check-certificate", str(path)],
        capture_output=True, env=env, timeout=60,
    )
    code, err, elapsed, peak = json.loads(launched.stdout)
    assert (code, err) == (2, "error: cannot read certificate: the file exceeds the limit of "
                              f"{errors.MAX_CERTIFICATE_BYTES} bytes\n")
    assert elapsed < 1.0
    assert peak < errors.MAX_CERTIFICATE_BYTES // 4, peak


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
@pytest.mark.parametrize(
    "tail, code", [(b"", 3), (b" " * 2**23, 2)], ids=["at-the-limit", "past-it"]
)
def test_checker_reads_a_pipe_to_one_byte_past_the_limit(tail, code, tmp_path, monkeypatch, capsys):
    """A pipe has no size to read first.  Under a 2-byte limit the text "[]"
    is read and checked (it is not a JSON object: exit 3); followed by 8 MB
    of JSON whitespace it is refused (exit 2) after one byte past the limit,
    so the writer is cut off long before it is done."""
    monkeypatch.setattr(cli, "MAX_CERTIFICATE_BYTES", 2)
    fifo = tmp_path / "cert.fifo"
    os.mkfifo(fifo)
    data, written = b"[]" + tail, []

    def feed():
        fd, n = os.open(fifo, os.O_WRONLY), 0
        try:
            while n < len(data):
                n += os.write(fd, data[n:n + 65536])
        except BrokenPipeError:
            pass
        finally:
            os.close(fd)
            written.append(n)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    assert run(["--check-certificate", str(fifo)])[0] == code
    writer.join(10)
    assert not writer.is_alive()
    err = capsys.readouterr().err
    assert ("exceeds the limit of 2 bytes" in err) == bool(tail), err
    assert written[0] < 2**22 if tail else written[0] == 2


@pytest.mark.parametrize("target", ["missing/cert.json", "."], ids=["missing-directory", "directory"])
def test_unwritable_certificate_exits_2(target, tmp_path, capsys):
    """A certificate path that cannot be written is an input error: no report,
    no traceback."""
    code, out = run(["inv3", "--preset", "sl2n:2", "--certificate", str(tmp_path / target)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: cannot write certificate: ")


def test_unwritable_certificate_runs_no_command(tmp_path, monkeypatch, capsys):
    """The certificate path is opened before the command runs, so an
    unwritable one costs no computation."""
    monkeypatch.setattr(commands, "execute", lambda args: pytest.fail("the command ran"))
    path = tmp_path / "missing" / "cert.json"
    code, out = run(["gamma", "report", "--preset", "split:4,4,4", "--certificate", str(path)])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: cannot write certificate: ")


def test_failed_command_leaves_no_new_certificate_file(tmp_path):
    path = tmp_path / "cert.json"
    code, _ = run(["inv3", "--preset", "sl2n:9", "--certificate", str(path)])
    assert code == 2
    assert not path.exists()


def test_failed_command_keeps_an_existing_certificate_file(tmp_path):
    path = tmp_path / "cert.json"
    path.write_bytes(b"earlier bytes\n")
    code, _ = run(["inv3", "--preset", "sl2n:9", "--certificate", str(path)])
    assert code == 2
    assert path.read_bytes() == b"earlier bytes\n"
    code, _ = run(["inv3", "--preset", "sl2n:2", "--certificate", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["format"] == certmod.CERT_FORMAT


class _FullOutput(io.StringIO):
    """An output stream on a full device: every write fails."""

    def write(self, text):
        raise OSError(28, "No space left on device")


@pytest.fixture(scope="module")
def sl2n_2_certificate(tmp_path_factory):
    path = tmp_path_factory.mktemp("full") / "sl2n2.json"
    assert run(["inv3", "--preset", "sl2n:2", "--certificate", str(path)])[0] == 0
    return path


@pytest.mark.parametrize("mode", ["text", "json", "check"])
def test_unwritable_report_exits_2(mode, sl2n_2_certificate, tmp_path, capsys):
    """A report that cannot be written is refused like a certificate that
    cannot be: exit 2, one error line, and no certificate file left behind."""
    cert = tmp_path / "cert.json"
    argv = {
        "text": ["inv3", "--preset", "sl2n:2", "--certificate", str(cert)],
        "json": ["inv3", "--preset", "sl2n:2", "--json", "--certificate", str(cert)],
        "check": ["--check-certificate", str(sl2n_2_certificate)],
    }[mode]
    assert cli.run(argv, out=_FullOutput()) == 2
    assert capsys.readouterr().err == "error: cannot write report: [Errno 28] No space left on device\n"
    assert not cert.exists()


def _report_to(stdout, argv, buffered):
    """Run ``python -m sdinv.cli argv`` with stdout on ``stdout``; stdout is
    block-buffered unless ``buffered`` is false (``PYTHONUNBUFFERED=1``)."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "sdinv.cli", *argv],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert b"Traceback" not in proc.stderr
    assert proc.stderr.startswith(b"error: cannot write report: ")
    assert proc.stderr.count(b"\n") == 1, proc.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("extra", [[], ["--json"], None], ids=["text", "json", "check"])
def test_report_to_a_full_device_exits_2_without_traceback(extra, buffered, sl2n_2_certificate):
    argv = ["--check-certificate", str(sl2n_2_certificate)] if extra is None else [
        "inv3", "--preset", "sl2n:2", *extra
    ]
    with open("/dev/full", "w") as full:
        _report_to(full, argv, buffered)


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_report_to_a_closed_pipe_exits_2_without_traceback(buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        _report_to(write_end, ["inv3", "--preset", "sl2n:2"], buffered)
    finally:
        os.close(write_end)


def _int_paths(node, prefix=()):
    """Paths to every integer leaf (bools excluded)."""
    out = []
    if isinstance(node, dict):
        for k, v in node.items():
            out.extend(_int_paths(v, prefix + (k,)))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            out.extend(_int_paths(v, prefix + (i,)))
    elif isinstance(node, int) and not isinstance(node, bool):
        out.append(prefix)
    return out


def _tamper(cert, path, delta):
    node = cert
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] += delta


def test_single_integer_tampering_detected_fuzz(cert_files):
    from sdinv.wittq import SplitMix64

    rng = SplitMix64(2024)
    texts = [p.read_text() for p in cert_files]
    detected = 0
    cases = 0
    while cases < 100:
        text = texts[rng.next_u64() % len(texts)]
        cert = json.loads(text)
        paths = _int_paths(cert["entries"]) or []
        path = ("entries",) + paths[rng.next_u64() % len(paths)]
        delta = [1, -1, 7, 1000][rng.next_u64() % 4]
        _tamper(cert, path, delta)
        cases += 1
        ok, failures = certmod.check_certificate(cert)
        if not ok:
            detected += 1
        else:
            raise AssertionError(f"tampering at {path} (+{delta}) went undetected")
    assert detected == cases == 100


def test_checker_exit_3_on_tampered_file(cert_files, tmp_path, capsys):
    cert = json.loads(cert_files[0].read_text())
    paths = _int_paths(cert["entries"])
    _tamper(cert, ("entries",) + paths[0], 5)
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(cert))
    code, _ = run(["--check-certificate", str(bad)])
    assert code == 3
    assert "FAILED" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload, message",
    [
        ([], "not a JSON object"),
        ("x", "not a JSON object"),
        ({"format": certmod.CERT_FORMAT, "entries": [1]}, "entry 0: entry is not a JSON object"),
    ],
    ids=["list", "string", "entry"],
)
def test_checker_exit_3_on_non_object_json(payload, message, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code, _ = run(["--check-certificate", str(path)])
    assert code == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("kind", [[], {}], ids=["list", "object"])
def test_checker_refuses_an_unhashable_kind(kind, tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(
        json.dumps({"format": certmod.CERT_FORMAT, "entries": [{"kind": kind}], "command": []})
    )
    code, out = run(["--check-certificate", str(path)])
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == f"certificate FAILED: entry 0: unknown kind {kind!r}\n"


@pytest.mark.parametrize("key", ["command", "seed"])
def test_checker_refuses_a_certificate_without_command_or_seed(
    key, cert_files, tmp_path, monkeypatch, capsys
):
    """Replay compares the command echo, the seed and the entries with those
    of a rebuilt certificate, so a certificate that lacks one of them is
    refused before any entry runs."""

    def never(entry):
        raise AssertionError("an entry ran")

    monkeypatch.setattr(certmod, "_VERIFIERS", dict.fromkeys(certmod._VERIFIERS, never))
    for path in cert_files:
        cert = json.loads(path.read_text())
        del cert[key]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cert))
        code, out = run(["--check-certificate", str(bad)])
        assert (code, out) == (3, ""), path
        assert capsys.readouterr().err == f"certificate FAILED: certificate has no {key!r} key\n"


# --- the command echo is read by the table, in its normalized form only ----------


def _checked_with_echo(cert, echo, path):
    """(exit code, stdout, stderr) of checking ``cert`` with its echo replaced."""
    path.write_text(json.dumps({**cert, "command": echo}))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.run(["--check-certificate", str(path)], out=out)
    return code, out.getvalue(), err.getvalue()


INV3_ECHO = ["inv3", "--preset", "sl2n:2"]


@pytest.mark.parametrize(
    "echo",
    [
        ["--help"], ["-h"], ["inv3", "--help"], ["gamma", "-h"],
        ["inv3", "--pre", "sl2n:2"],
        ["inv3", "--preset", "sl2n:3", "--preset", "sl2n:2"],
        INV3_ECHO + ["--json", "--certificate", "F"],
        ["inv3", "--preset=sl2n:2"],
        ["--check-certificate", "F"],
        [], ["inv3", "--preset", 2], "inv3 --preset sl2n:2",
    ],
    ids=["help", "h", "inv3-help", "gamma-h", "abbreviation", "repeat", "trailing-options",
         "glued", "check", "empty", "int-token", "string"],
)
def test_checker_refuses_an_echo_not_in_normalized_form(echo, tmp_path):
    """Replay reads the echo by the command table, never by argparse: an
    echo that asks for help, abbreviates, repeats, glues a plain value or
    adds options is refused with exit 3, and nothing is printed."""
    path = tmp_path / "cert.json"
    assert run(INV3_ECHO + ["--certificate", str(path)])[0] == 0
    cert = json.loads(path.read_text())
    assert _checked_with_echo(cert, INV3_ECHO, tmp_path / "same.json")[0] == 0
    code, out, err = _checked_with_echo(cert, echo, tmp_path / "echo.json")
    assert (code, out) == (3, "")
    assert err == (
        "certificate FAILED: replay failed: the command echo is not a command in its "
        "normalized form\n"
    )


def test_checker_reports_a_verifier_exit_as_a_failure(cert_files, monkeypatch, capsys):
    def exits(entry):
        raise SystemExit(0)

    monkeypatch.setattr(certmod, "_VERIFIERS", dict.fromkeys(certmod._VERIFIERS, exits))
    code, out = run(["--check-certificate", str(cert_files[0])])
    assert (code, out) == (3, "")
    assert "certificate FAILED: entry 0: malformed (0)" in capsys.readouterr().err


# one certificate of each command shape, small enough to check in a few ms
ECHO_FUZZ_COMMANDS = [
    INV3_ECHO,
    ["chow2", "--preset", "conic1"],
    ["gamma", "member", "--preset", "conic1", "--element", "y1", "--degree", "1"],
    ["gamma", "report", "--preset", "conic1"],
    ["witt", "verify", "--identity", "alpha2", "--trials", "2", "--seed", "1"],
    ["theorem", "--n", "2", "--trials", "1", "--seed", "1"],
    ["sl4x4"],
]


@pytest.fixture(scope="module")
def echo_certs(tmp_path_factory):
    root = tmp_path_factory.mktemp("echo")
    certs = []
    for cmd in ECHO_FUZZ_COMMANDS:
        path = root / "cert.json"
        assert run(cmd + ["--certificate", str(path)])[0] == 0
        cert = json.loads(path.read_text())
        assert cert["command"] == cmd
        certs.append(cert)
    assert {tuple(c["command"][:2]) for c in certs} >= {("gamma", "member"), ("witt", "verify")}
    return certs


@st.composite
def _echo_edits(draw, echo):
    """``echo`` with tokens deleted, repeated, abbreviated, reordered or
    replaced, or with option strings, help, the checker's flag and unknown
    options added."""
    tokens = list(echo)
    alphabet = sorted(set(echo) | set(_OPTION_STRINGS) | {
        "-h", "--help", "--bogus", "--json", "--", "=", "inv3", "gamma", "member", "report",
        "witt", "verify", "theorem", "sl4x4", "chow2",
    })
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["delete", "repeat", "abbreviate", "swap", "insert", "glue"]))
        if edit == "insert" or not tokens:
            tokens.insert(at, draw(st.sampled_from(alphabet)))
            continue
        at = min(at, len(tokens) - 1)
        if edit == "delete":
            del tokens[at]
        elif edit == "repeat":
            tokens[at:at] = tokens[at:at + 2]
        elif edit == "abbreviate" and len(tokens[at]) > 3:
            tokens[at] = tokens[at][:-2]
        elif edit == "swap":
            other = draw(st.integers(0, len(tokens) - 1))
            tokens[at], tokens[other] = tokens[other], tokens[at]
        elif edit == "glue" and at + 1 < len(tokens):
            tokens[at:at + 2] = [f"{tokens[at]}={tokens[at + 1]}"]
    return tokens


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_checker_exit_contract_holds_under_echo_fuzz(echo_certs, tmp_path_factory, data):
    """Every edited echo of a valid certificate is checked with exit 3, but
    the unedited echo, with exit 0; never a traceback or printed help."""
    cert = data.draw(st.sampled_from(echo_certs))
    echo = data.draw(_echo_edits(cert["command"]))
    path = tmp_path_factory.getbasetemp() / "echo-fuzz.json"
    code, out, err = _checked_with_echo(cert, echo, path)
    assert "Traceback" not in err and "usage:" not in out + err
    assert code == (0 if echo == cert["command"] else 3), echo


_FUZZ_VALUES = (None, True, 0, -1, "x", [], {})
_DELETE = object()


def _field_variants(cert):
    """Copies of ``cert`` with one top-level key or one field of one entry
    deleted, or replaced by one of ``_FUZZ_VALUES``."""
    paths = [(k,) for k in cert]
    paths += [("entries", i, k) for i, e in enumerate(cert["entries"]) for k in e]
    for path in paths:
        for value in (_DELETE,) + _FUZZ_VALUES:
            variant = json.loads(json.dumps(cert))
            node = variant
            for key in path[:-1]:
                node = node[key]
            if value is _DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = value
            yield path, value, variant


def test_checker_exit_contract_holds_under_field_type_fuzz(tmp_path, capsys):
    """Every variant of two certificates with a field deleted or of the wrong
    JSON type is checked with exit 0 or 3, never a crash."""
    certs = []
    for cmd in (["witt", "verify", "--identity", "alpha2", "--trials", "2"],
                ["inv3", "--preset", "sl2n:2"]):
        path = tmp_path / "cert.json"
        assert run(cmd + ["--certificate", str(path), "--json"])[0] == 0
        certs.append(json.loads(path.read_text()))
    bad = tmp_path / "variant.json"
    cases = 0
    for cert in certs:
        for path, value, variant in _field_variants(cert):
            bad.write_text(json.dumps(variant))
            code, _ = run(["--check-certificate", str(bad)])
            assert code in (0, 3), (path, value)
            assert "Traceback" not in capsys.readouterr().err, (path, value)
            cases += 1
    assert cases == 8 * (10 + 43)


def test_checker_refuses_the_first_format(cert_files, tmp_path, capsys):
    """sdinv-cert/1 stored per-prime evidence for each torsion witness; its
    files are refused by name, not read as the current format."""
    cert = json.loads(cert_files[0].read_text())
    assert cert["format"] == certmod.CERT_FORMAT == "sdinv-cert/2"
    cert["format"] = "sdinv-cert/1"
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, _ = run(["--check-certificate", str(path)])
    assert code == 3
    assert "unsupported certificate format 'sdinv-cert/1'" in capsys.readouterr().err


def test_checker_bounds_ambient_rank(tmp_path, capsys):
    """An index entry over an empty sub basis would make the checker build
    the standard lattice of the stated rank."""
    entry = {"kind": "index", "label": "x", "ambient_rank": 10**9, "sub_basis": [], "index": 1}
    path = tmp_path / "cert.json"
    path.write_text(json.dumps({"format": certmod.CERT_FORMAT, "entries": [entry]}))
    start = time.perf_counter()
    code, _ = run(["--check-certificate", str(path)])
    assert code == 3
    assert time.perf_counter() - start < 2.0
    assert f"limit of {errors.MAX_AMBIENT_RANK}" in capsys.readouterr().err


# --- the entry layer alone --------------------------------------------------------


ENTRY_COMMANDS = {
    "inv3": ["inv3", "--preset", "sl2n:3"],
    "chow2": ["chow2", "--preset", "conics4"],
    "gamma report": ["gamma", "report", "--preset", "deg4pair"],
    "gamma member": [
        "gamma", "member", "--preset", "conics4", "--element", "4*y1*y2*y3*y4", "--degree", "3",
    ],
    "witt": ["witt", "verify", "--identity", "alpha2", "--trials", "20"],
    "theorem": ["theorem", "--n", "3", "--trials", "4"],
}


@pytest.fixture(scope="module")
def entry_certs(tmp_path_factory):
    root = tmp_path_factory.mktemp("entry")
    certs = {}
    for name, cmd in ENTRY_COMMANDS.items():
        path = root / "cert.json"
        code, _ = run(cmd + ["--certificate", str(path)])
        assert code == 0
        certs[name] = json.loads(path.read_text())
    return certs


def _no_replay(command):
    raise AssertionError("the entry layer replayed the command")


@pytest.mark.parametrize("name", ENTRY_COMMANDS)
def test_entry_layer_accepts_without_replay(entry_certs, name, monkeypatch):
    monkeypatch.setattr(certmod, "build_certificate", _no_replay)
    ok, failures = certmod.check_certificate(entry_certs[name], replay=False)
    assert ok, failures


def test_the_integer_walk_runs_once_per_entry(entry_certs, monkeypatch):
    """One exactness rule: ``check_certificate`` walks every entry once for
    non-integers before its verifier, whatever its kind, and no verifier
    walks it again."""
    monkeypatch.setattr(certmod, "build_certificate", _no_replay)
    walked = collections.Counter()
    walk = certmod._only_integers

    def counting(value):
        walked[id(value)] += 1
        return walk(value)

    monkeypatch.setattr(certmod, "_only_integers", counting)
    kinds = set()
    for cert in entry_certs.values():
        walked.clear()
        assert certmod.check_certificate(cert, replay=False)[0]
        for entry in cert["entries"]:
            assert walked[id(entry)] == 1, entry.get("label", entry["kind"])
            kinds.add(entry["kind"])
    assert kinds == set(certmod._VERIFIERS)


def _add_two(*field):
    return lambda entry: _tamper(entry, field, 2)


def _witness_times_its_order(entry):
    """d times a witness of order d has order 1."""
    d = entry["invariant_factors"][0]
    entry["witnesses"][0] = [d * x for x in entry["witnesses"][0]]


# (edit of an entry, test on the entry) of one kind of edit each
ENTRY_EDITS = {
    "invariant factor": (
        _add_two("invariant_factors", 0),
        lambda e: e["kind"] == "subquotient" and e["invariant_factors"],
    ),
    "membership coordinate": (
        _add_two("coordinates", 0), lambda e: e["kind"] == "membership" and e["member"]
    ),
    "witness order": (
        _witness_times_its_order, lambda e: e["kind"] == "subquotient" and e["witnesses"]
    ),
    "trial count": (_add_two("trials"), lambda e: e["kind"] == "witt_trials"),
    "trial number": (_add_two("cases", 1, "trial"), lambda e: e["kind"] == "witt_trials"),
}


@pytest.mark.parametrize("edit", ENTRY_EDITS)
def test_entry_layer_rejects_one_edit_without_replay(entry_certs, edit, monkeypatch):
    monkeypatch.setattr(certmod, "build_certificate", _no_replay)
    change, applies = ENTRY_EDITS[edit]
    edited = 0
    for cert in entry_certs.values():
        i = next((i for i, e in enumerate(cert["entries"]) if applies(e)), None)
        if i is None:
            continue
        bad = json.loads(json.dumps(cert))
        change(bad["entries"][i])
        ok, failures = certmod.check_certificate(bad, replay=False)
        assert not ok and failures[0].startswith(f"entry {i}:"), failures
        edited += 1
    assert edited >= 2


@pytest.mark.parametrize(
    "edit",
    [lambda sample: sample.append(["q", "7"]), lambda sample: sample.pop(0),
     lambda sample: sample.reverse()],
    ids=["extra-slot", "missing-slot", "reordered-slots"],
)
def test_entry_layer_checks_witt_slot_names(entry_certs, edit, monkeypatch):
    """Each sample names the identity's slots, in order: alpha2 has a and b."""
    monkeypatch.setattr(certmod, "build_certificate", _no_replay)
    bad = json.loads(json.dumps(entry_certs["witt"]))
    edit(bad["entries"][0]["cases"][0]["sample"])
    ok, failures = certmod.check_certificate(bad, replay=False)
    assert not ok and failures == [
        "entry 0: witt trial 0 of alpha2: sample names are not the slots a, b"
    ], failures


_TRIAL_0 = "entry 0: witt trial 0 of alpha2"
_NOT_A_NUMERAL = f"{_TRIAL_0}: sample a is not a numeral within the 64-bit replay limit"


# (edited sample value, the checker's failure); a case's id is the value alone,
# so a reworded refusal keeps the names of the cases
_SAMPLE_VALUE_CASES = [
    (2 ** 64, _NOT_A_NUMERAL),
    (str(2 ** 64), f"{_TRIAL_0}: sample a exceeds the 64-bit replay limit"),
    ("-" + str(2 ** 64), f"{_TRIAL_0}: sample a exceeds the 64-bit replay limit"),
    (f"{2 ** 32}/{2 ** 32 + 1}", _NOT_A_NUMERAL),
    (1e300, _NOT_A_NUMERAL),
    ("x", _NOT_A_NUMERAL),
    ("1/0", _NOT_A_NUMERAL),
    (None, _NOT_A_NUMERAL),
    ([1], _NOT_A_NUMERAL),
    ("-0", "entry 0: malformed (square classes are defined for nonzero values only)"),
    ("0/3", _NOT_A_NUMERAL),
    ("+7", f"{_TRIAL_0} fails replay"),
    ("6/4", _NOT_A_NUMERAL),
    (True, _NOT_A_NUMERAL),
    (0.5, _NOT_A_NUMERAL),
    # the stored "-1" as a JSON number: same value, so only its type refuses it
    (-1, _NOT_A_NUMERAL),
    (-1.0, _NOT_A_NUMERAL),
]


@pytest.mark.parametrize(
    "value, failure", _SAMPLE_VALUE_CASES, ids=[repr(v) for v, _ in _SAMPLE_VALUE_CASES]
)
def test_checker_reads_every_sample_value_as_a_fraction_would(
    entry_certs, value, failure, monkeypatch
):
    """Only integer text is read, by ``int``, the text a certificate writes;
    fraction text, a JSON number or any other value is refused as not a
    numeral before it reaches arithmetic."""
    monkeypatch.setattr(certmod, "build_certificate", _no_replay)
    bad = json.loads(json.dumps(entry_certs["witt"]))
    sample = bad["entries"][0]["cases"][0]["sample"]
    assert sample[0] == ["a", "-1"]
    sample[0][1] = value
    assert certmod.check_certificate(bad, replay=False) == (False, [failure])


def test_checker_bounds_witt_sample_size(tmp_path, capsys):
    """A sample value edited to a product of two 60-bit primes is refused
    before the checker would factor it."""
    path = tmp_path / "alpha2.json"
    code, _ = run(["witt", "verify", "--identity", "alpha2", "--trials", "5",
                   "--certificate", str(path)])
    assert code == 0
    cert = json.loads(path.read_text())
    cert["entries"][0]["cases"][0]["sample"][0][1] = str((10**18 + 3) * (10**18 + 9))
    path.write_text(json.dumps(cert))
    start = time.perf_counter()
    code, _ = run(["--check-certificate", str(path)])
    assert code == 3
    assert time.perf_counter() - start < 5.0
    assert f"{certmod.MAX_SAMPLE_BITS}-bit replay limit" in capsys.readouterr().err


def test_checker_refuses_sample_text_before_parsing_it(tmp_path, capsys):
    """``Fraction("1e10000000")`` computes 10**10000000; the checker refuses
    the text before it is parsed."""
    path = tmp_path / "alpha2.json"
    code, _ = run(["witt", "verify", "--identity", "alpha2", "--trials", "5",
                   "--certificate", str(path)])
    assert code == 0
    cert = json.loads(path.read_text())
    cert["entries"][0]["cases"][0]["sample"][0][1] = "1e10000000"
    path.write_text(json.dumps(cert))
    start = time.perf_counter()
    code, _ = run(["--check-certificate", str(path)])
    assert code == 3
    assert time.perf_counter() - start < 2.0
    assert f"{certmod.MAX_SAMPLE_BITS}-bit replay limit" in capsys.readouterr().err


def _one_entry_cert(tmp_path, entry):
    path = tmp_path / "cert.json"
    path.write_text(
        json.dumps({"format": certmod.CERT_FORMAT, "command": [], "seed": None, "entries": [entry]})
    )
    return path


def _entry_layer(entry):
    return certmod.check_certificate({"format": certmod.CERT_FORMAT, "entries": [entry]}, replay=False)


# two 46-bit primes: factoring their product took the checker seconds
P46, Q46 = 35184372088891, 35184372088907


def _cyclic_subquotient(order, witness):
    """Z / order Z, presented by the identity Smith transforms, with the one
    witness vector ``witness``."""
    return {
        "kind": "subquotient", "label": "crafted", "ambient_rank": 1,
        "sup_basis": [[1]], "sub_basis": [[order]], "relation": [[order]],
        "smith": {"U": [[1]], "D": [[order]], "V": [[1]]},
        "free_rank": 0, "invariant_factors": [order], "witnesses": [witness],
    }


def test_entry_layer_refuses_a_negative_smith_diagonal():
    """Z/2 stated as trivial through D = [[-2]]: U * relation * V == D holds,
    but -2 is no invariant factor."""
    entry = dict(_cyclic_subquotient(2, [1]), invariant_factors=[], witnesses=[],
                 smith={"U": [[1]], "D": [[-2]], "V": [[-1]]})
    assert _entry_layer(entry) == (False, ["entry 0: crafted: smith decomposition invalid"])


def _factoring_calls(monkeypatch):
    from sdinv import _factor

    return [_count_calls(monkeypatch, _factor, name)
            for name in ("factorize", "is_probable_prime")]


def test_checker_factors_no_witness_order(monkeypatch):
    """A witness of an order made of two 46-bit primes is proved by its
    Smith row, with nothing factored."""
    factoring = _factoring_calls(monkeypatch)
    start = time.perf_counter()
    ok, failures = _entry_layer(_cyclic_subquotient(P46 * Q46, [1]))
    assert ok, failures
    assert time.perf_counter() - start < 1.0
    assert not any(factoring)


# (order, witness vector, refusal or None): the witness's order is the order
# of its image under U, whatever the factors of the stated order
CYCLIC_WITNESSES = {
    "order-P46Q46": (P46 * Q46, [1], None),
    "unit-multiple": (P46 * Q46, [2], None),
    "order-P46": (P46 * Q46, [Q46], f"witness 0 has order {P46}, not {P46 * Q46}"),
    "order-Q46": (P46 * Q46, [P46], f"witness 0 has order {Q46}, not {P46 * Q46}"),
    "order-2-of-4": (4, [2], "witness 0 has order 2, not 4"),
    "zero": (4, [0], "witness 0 has order 1, not 4"),
}


@pytest.mark.parametrize("case", CYCLIC_WITNESSES)
def test_witness_order_is_read_off_the_smith_row(case, monkeypatch):
    order, witness, refusal = CYCLIC_WITNESSES[case]
    factoring = _factoring_calls(monkeypatch)
    ok, failures = _entry_layer(_cyclic_subquotient(order, witness))
    if refusal is None:
        assert ok, failures
    else:
        assert not ok and failures == [f"entry 0: crafted: {refusal}"], failures
    assert not any(factoring)


def test_witness_of_infinite_order_is_refused():
    """Z + Z/2 as Z^2 over the span of (2, 0): (0, 1) has infinite order."""
    sup = exactlin.Lattice.standard(2)
    sub = exactlin.Lattice.from_columns(2, [(2, 0)])
    entry = certmod.subquotient_entry("crafted", exactlin.subquotient_presentation(sub, sup))
    assert entry["invariant_factors"] == [2] and _entry_layer(entry)[0]
    entry["witnesses"][0] = [0, 1]
    ok, failures = _entry_layer(entry)
    assert not ok and "witness 0 has order infinite, not 2" in failures[0], failures


def test_witness_outside_the_superlattice_is_refused():
    sup = exactlin.Lattice.from_columns(2, [(1, 0), (0, 2)])
    sub = exactlin.Lattice.from_columns(2, [(2, 0), (0, 2)])
    entry = certmod.subquotient_entry("crafted", exactlin.subquotient_presentation(sub, sup))
    assert entry["invariant_factors"] == [2] and _entry_layer(entry)[0]
    # (0, 1) is outside sup, yet twice it lies in sub and it does not
    entry["witnesses"][0] = [0, 1]
    ok, failures = _entry_layer(entry)
    assert not ok and "witness 0 is outside the superlattice" in failures[0], failures


@pytest.mark.parametrize(
    "witnesses, refusal",
    [([], "witness count differs from the invariant factors"),
     ([[1], [1]], "witness count differs from the invariant factors"),
     ([[1, 0]], "witness 0 length differs from the ambient rank")],
    ids=["dropped", "extra", "long"],
)
def test_witness_list_shape_is_checked(witnesses, refusal):
    entry = dict(_cyclic_subquotient(4, [1]), witnesses=witnesses)
    ok, failures = _entry_layer(entry)
    assert not ok and failures == [f"entry 0: crafted: {refusal}"], failures


def _identity_rows(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _rank_one_with(relation=None, **smith):
    """``_cyclic_subquotient(2, [1])`` with some of its matrices replaced."""
    entry = _cyclic_subquotient(2, [1])
    if relation is not None:
        entry["relation"] = relation
    entry["smith"].update(smith)
    return entry


def _fixed_vectors(matrices, vectors):
    return {"kind": "fixed_vectors", "label": "crafted", "matrices": matrices, "vectors": vectors}


def _index(sub_basis, index=1):
    return {"kind": "index", "label": "crafted", "ambient_rank": len(sub_basis[0]),
            "sub_basis": sub_basis, "index": index}


# 130 generators in [-9, 9] at rank 128, stated as a canonical basis: a
# Hermite form of them took 15 to 19 s, after which the index entry was
# accepted
_RNG = random.Random(0)
_RANDOM_BASIS = [[_RNG.randint(-9, 9) for _ in range(128)] for _ in range(130)]

# (entry, refusal): a 300 x 300 presentation of a rank-1 group and a 400 x 400
# action cost seconds once the products and determinants ran
SHAPE_EDITS = {
    "index-random-128": (_index(_RANDOM_BASIS), "sub_basis is not a canonical basis"),
    "index-negative-pivot": (_index([[-1]]), "sub_basis is not a canonical basis"),
    "index-unreduced": (_index([[1, 5], [0, 2]], 2), "sub_basis is not a canonical basis"),
    "subquotient-random-128": (
        dict(_rank_one_with(), ambient_rank=128, sup_basis=_RANDOM_BASIS, sub_basis=_RANDOM_BASIS),
        "sup_basis is not a canonical basis",
    ),
    "subquotient-300": (
        _rank_one_with(relation=_identity_rows(300), U=_identity_rows(300),
                       D=_identity_rows(300), V=_identity_rows(300)),
        "relation shape mismatch",
    ),
    "subquotient-U": (_rank_one_with(U=_identity_rows(2)), "U shape mismatch"),
    "subquotient-D": (_rank_one_with(D=[[2, 0]]), "D shape mismatch"),
    "subquotient-V": (_rank_one_with(V=[[1], [0]]), "V shape mismatch"),
    "fixed-vectors-400": (
        _fixed_vectors([_identity_rows(400)], [[1] * 400]), "matrices must be square"
    ),
    "fixed-vectors-not-square": (_fixed_vectors([[[1, 0]]], [[1, 0]]), "matrices must be square"),
    "fixed-vectors-two-sides": (
        _fixed_vectors([[[1]], _identity_rows(2)], [[1]]), "matrices must be square"
    ),
    "fixed-vectors-vector-length": (
        _fixed_vectors([[[1]]], [[1, 0]]), "matrices must be square"
    ),
}


@pytest.mark.parametrize("edit", SHAPE_EDITS)
def test_checker_checks_shapes_before_matrix_arithmetic(edit, tmp_path, capsys):
    entry, message = SHAPE_EDITS[edit]
    path = _one_entry_cert(tmp_path, entry)
    start = time.perf_counter()
    code, _ = run(["--check-certificate", str(path)])
    assert code == 3
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err


def test_entry_layer_rejects_a_dropped_witness(entry_certs, monkeypatch):
    monkeypatch.setattr(certmod, "build_certificate", _no_replay)
    dropped = 0
    for cert in entry_certs.values():
        for i, e in enumerate(cert["entries"]):
            if e["kind"] == "subquotient" and e["witnesses"]:
                bad = json.loads(json.dumps(cert))
                del bad["entries"][i]["witnesses"][-1]
                ok, failures = certmod.check_certificate(bad, replay=False)
                assert not ok and "witness count differs" in failures[0], failures
                dropped += 1
    assert dropped >= 2


def _membership(columns, vector, **evidence):
    return {"kind": "membership", "label": "crafted", "ambient_rank": len(vector),
            "lattice_basis": columns, "vector": vector, **evidence}


def _modular_membership(prime, power, basis=2, vector=1):
    return _membership([[basis]], [vector], member=False, certificate={
        "obstruction": "modular", "functional": [1], "prime": prime, "power": power})


def test_checker_never_forms_a_stated_modulus(tmp_path, capsys):
    """A power of 10**9 on a prime would be a modulus of 1.6 * 10**9 bits."""
    path = _one_entry_cert(tmp_path, _modular_membership(3, 10**9))
    start = time.perf_counter()
    code, _ = run(["--check-certificate", str(path)])
    assert code == 3
    assert time.perf_counter() - start < 1.0
    assert "membership evidence fails" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry, ok",
    [
        (_modular_membership(2, 1), True),
        (_modular_membership(2, 60, basis=2**60, vector=2**59), True),
        (_modular_membership(2, 61, basis=2**60, vector=2**59), False),
        (_modular_membership(1, 1), False),
        (_modular_membership(-2, 1), False),
        (_modular_membership(2, 0.5, basis=0), False),
        (_modular_membership(2, 0), False),
        (_modular_membership(2, 1.5), False),
        (_modular_membership("2", 1), False),
        (_modular_membership(True, 1), False),
        (_modular_membership(None, None), False),
    ],
    ids=["valid", "valid-high-power", "power-too-high", "prime-one", "prime-negative",
         "power-half", "power-zero", "power-float", "prime-string", "prime-bool", "missing"],
)
def test_modular_certificates_need_an_integer_prime_power(entry, ok):
    passed, failures = _entry_layer(entry)
    assert passed is ok, failures


def _lattice_basis_entry(generators, canonical):
    return {"kind": "lattice_basis", "label": "crafted", "ambient_rank": 1,
            "generators": generators, "canonical_basis": canonical}


def _index_entry(sub_basis, index):
    return {"kind": "index", "label": "crafted", "ambient_rank": 1,
            "sub_basis": sub_basis, "index": index}


# Honest evidence for the witt_trials cases: the first entry of both sides of a
# Pfister identity is 1.
_WITT_ENTRY = certmod.witt_trials_entry(wittq.verify_identity("alpha2", 2, 1))


# (honest entry, {path: edited value}) per entry kind: each edit puts a number
# that is not a JSON integer where the checker would read it through
# ``int()``, ``==`` or a product, so that a float truncating to, equal to, or
# rounding into a passing value passed.
NON_INTEGER_EDITS = {
    "index-sub-basis": (_index_entry([[2]], 2), {("sub_basis", 0, 0): 2.9}),
    "index-value": (_index_entry([[2]], 2), {("index",): 2.0}),
    "basis-generator": (_lattice_basis_entry([[2]], [[2]]), {("generators", 0, 0): 2.9}),
    "basis-canonical": (_lattice_basis_entry([[2]], [[2]]), {("canonical_basis", 0, 0): 2.0}),
    "basis-bool": (_lattice_basis_entry([[1]], [[1]]), {("generators", 0, 0): True}),
    "subquotient-sub-basis": (_cyclic_subquotient(2, [1]), {("sub_basis", 0, 0): 2.9}),
    "subquotient-factor": (_cyclic_subquotient(2, [1]), {("invariant_factors", 0): 2.0}),
    "subquotient-smith": (_cyclic_subquotient(2, [1]), {("smith", "D", 0, 0): 2.0}),
    "subquotient-relation": (_cyclic_subquotient(2, [1]), {("relation", 0, 0): 2.9}),
    "subquotient-free-rank": (_cyclic_subquotient(2, [1]), {("free_rank",): 0.0}),
    "subquotient-witness": (_cyclic_subquotient(2, [1]), {("witnesses", 0, 0): 1.0}),
    "fixed-vectors-matrix": (
        {"kind": "fixed_vectors", "label": "crafted", "matrices": [[[1, 0], [0, 1]]],
         "vectors": [[0, 1]]},
        {("matrices", 0, 0, 0): 1.5},
    ),
    "counting-order": (
        {"kind": "counting_identity", "torsion_orders": [2], "split_index": 1, "epsilons": [2],
         "holds": True},
        {("torsion_orders", 0): 2.0},
    ),
    # 1 is not in 2Z, yet 0.5 * 2 == 1
    "float-coordinate": (
        _membership([[2]], [2], member=True, coordinates=[1]),
        {("vector", 0): 1, ("coordinates", 0): 0.5},
    ),
    # (147, 87) is 3 * (49, 29), yet rounding makes this pairing vanish on the
    # column only
    "float-functional": (
        _membership([[49, 29]], [147, 88], member=False, certificate={
            "obstruction": "rank", "functional": [29, -49], "prime": None, "power": None}),
        {("vector", 1): 87, ("certificate", "functional"): [0.7, -1.182758620689655]},
    ),
    # [1.0] == [1], so only replay's JSON text told these from the honest ones
    "witt-lhs": (_WITT_ENTRY, {("cases", 0, "lhs", 0): 1.0}),
    "witt-rhs": (_WITT_ENTRY, {("cases", 0, "rhs", 0): 1.0}),
    "witt-seed": (_WITT_ENTRY, {("seed",): float(_WITT_ENTRY["seed"])}),
    "witt-trials": (_WITT_ENTRY, {("trials",): 2.0}),
}


@pytest.mark.parametrize("edit", NON_INTEGER_EDITS)
def test_non_integer_evidence_is_refused(edit, tmp_path, capsys):
    honest, edits = NON_INTEGER_EDITS[edit]
    assert _entry_layer(honest)[0]
    entry = json.loads(json.dumps(honest))
    for path, value in edits.items():
        node = entry
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    ok, failures = _entry_layer(entry)
    assert not ok and "holds a non-integer" in failures[0], failures
    code, _ = run(["--check-certificate", str(_one_entry_cert(tmp_path, entry))])
    assert code == 3
    assert "holds a non-integer" in capsys.readouterr().err
