import hashlib
import io
import json
import sys
import time
from pathlib import Path

import pytest

from sdinv import certificate as certmod
from sdinv import cli, exactlin, kgamma, roots
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


def test_missing_command_exit_2(capsys):
    code, _ = run([])
    assert code == 2


def test_theorem_out_of_range(capsys):
    code, _ = run(["theorem", "--n", "11"])
    assert code == 2


# --- determinism ------------------------------------------------------------------


def test_json_reports_are_byte_deterministic():
    a = run(["witt", "verify", "--identity", "twofold", "--trials", "6", "--seed", "3", "--json"])
    b = run(["witt", "verify", "--identity", "twofold", "--trials", "6", "--seed", "3", "--json"])
    assert a == b


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


def _assert_recorded_digest(argv):
    recorded = json.loads(DIGESTS.read_text())["commands"][" ".join(argv)]
    code, out = run(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == recorded


@pytest.mark.parametrize("argv", CLASSIFY_REPORTS, ids=" ".join)
def test_classification_reports_match_recorded_digests(argv):
    _assert_recorded_digest(argv)


@pytest.mark.parametrize("argv", GAMMA_REPORTS, ids=" ".join)
def test_gamma_reports_match_recorded_digests(argv):
    _assert_recorded_digest(argv)


def _count_calls(monkeypatch, name):
    """Replace the sdinv function ``name`` in every sdinv module that holds
    it by a wrapper that records the positional arguments of each call."""
    calls = []
    original = getattr(exactlin, name, None) or getattr(cli, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.startswith("sdinv"):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    return calls


def test_inv3_sl2n_8_keeps_smith_and_det_inputs_small(monkeypatch):
    """The tall stacked (w - 1) matrix is row-compressed before Smith form,
    so no Smith input or determinant outgrows the quadratic monomials."""
    limit = sym2_size(8)
    smith_calls = _count_calls(monkeypatch, "smith_normal_form")
    det_calls = _count_calls(monkeypatch, "det")
    roots._indecomposable_cached.cache_clear()
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
    calls = _count_calls(monkeypatch, "subquotient_presentation")
    argv = ["gamma", "report", "--preset", "split:3,3,3", "--json"]
    code, _ = run(argv)
    assert code == 0
    assert len(calls) == kgamma.get_config("split:3,3,3").dim + 1 == 7
    path = tmp_path / "gamma.json"
    code, out = run(argv + ["--certificate", str(path)])
    assert code == 0
    assert len(json.loads(path.read_text())["entries"]) == 97
    code, out = run(["--check-certificate", str(path)])
    assert code == 0 and "certificate OK" in out


def test_theorem_runs_each_suite_once(monkeypatch, tmp_path):
    calls = _count_calls(monkeypatch, "verify_identity")
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


# SHA-256 of the certificate files as the code before the lazy entries and the
# index-additive product wrote them; the entries must not change.
CERTIFICATE_DIGESTS = {
    "inv3 --preset sl2n:7": "51900247fd8e89c89234e5adfc00ece39c2ce4bf6d55ba8615c2351d2b8e5819",
    "sl4x4": "9fbb62f2c87323b040ab83c1b370a2bdd6c3de97451d04c8cd7d02ef1209b6b9",
    "chow2 --preset conics4": "4c0207f634329beae1e1c12c3cb2ca7d7be268c6f1e82617b0e9ffe0a4cc7610",
    "gamma report --preset deg4pair":
        "cd146194b8f7c18d6b9f2386e0ea625ac5e3e09379a424c4dc629dd0366ffb19",
    "gamma report --preset split:3,3,3":
        "0ffa22e88f92739c127f0addb3c0bc29cf2dbc72b5d508c126ba14ed03008536",
}


@pytest.mark.parametrize("command", CERTIFICATE_DIGESTS)
def test_certificate_files_are_byte_identical(command, tmp_path):
    path = tmp_path / "cert.json"
    code, _ = run(command.split() + ["--json", "--certificate", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CERTIFICATE_DIGESTS[command]


# SHA-256 of the certificate files of ``witt verify --trials 50 --seed 1`` as
# written by the code before square classes became gcd-multiplied values.
WITT_CERTIFICATE_DIGESTS = {
    "twofold": "7528c42f06ebe32672dfaa75e1a60b2ce536c018d0435e63fb8511c43094a9ce",
    "square_slot": "62a705129545e95e365754834dc2b84bc238e94a4a2f475ad59363876c25c582",
    "double": "5a0387ab0a194370b6e572bb6172e5312983a90caddfbbfe9e58e792c960b713",
    "alpha2": "9abd978d42da07fcad10f84ba47888cfa8d9b04bf39174fcb2723401d1b59e5a",
    "lemma_alpha3_exact": "781d52463adf34feab632d91dd86c83c975f851fec282fcc943328011a4890ac",
    "lemma_alpha3_modI4": "8bb4e7178ecd6c98e8c2ec94675a5748e3b8340c29729876a461b87c89d42219",
    "prop_step_Qonetwo": "9e9188d3921c0997fddcb8681f14672fcccdf10dc2bdd556d62a2aba7255936a",
    "alpha4_full": "9d43f94956fedc033c8910eda0f6e560802a7c7479dcaa3d8f46605e795d7926",
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


# --- the entry layer alone --------------------------------------------------------


ENTRY_COMMANDS = {
    "inv3": ["inv3", "--preset", "sl2n:3"],
    "chow2": ["chow2", "--preset", "conics4"],
    "gamma report": ["gamma", "report", "--preset", "deg4pair"],
    "gamma member": [
        "gamma", "member", "--preset", "conics4", "--element", "4*y1*y2*y3*y4", "--degree", "3",
    ],
    "witt": ["witt", "verify", "--identity", "alpha2", "--trials", "20"],
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


# (field path inside an entry, test on the entry) of one value per kind of edit
ENTRY_EDITS = {
    "invariant factor": (
        ("invariant_factors", 0), lambda e: e["kind"] == "subquotient" and e["invariant_factors"]
    ),
    "membership coordinate": (
        ("coordinates", 0), lambda e: e["kind"] == "membership" and e["member"]
    ),
    "witness order": (
        ("witnesses", 0, "order"), lambda e: e["kind"] == "subquotient" and e["witnesses"]
    ),
}


@pytest.mark.parametrize("edit", ENTRY_EDITS)
def test_entry_layer_rejects_one_edit_without_replay(entry_certs, edit, monkeypatch):
    monkeypatch.setattr(certmod, "build_certificate", _no_replay)
    field, applies = ENTRY_EDITS[edit]
    edited = 0
    for cert in entry_certs.values():
        i = next((i for i, e in enumerate(cert["entries"]) if applies(e)), None)
        if i is None:
            continue
        bad = json.loads(json.dumps(cert))
        _tamper(bad, ("entries", i) + field, 2)
        ok, failures = certmod.check_certificate(bad, replay=False)
        assert not ok and failures[0].startswith(f"entry {i}:"), failures
        edited += 1
    assert edited >= 2


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
