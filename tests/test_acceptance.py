"""Acceptance suite: one test per shipping criterion, each printing a
PASS line with the measured evidence (run with ``pytest -v -s`` to see them).

Timed criteria clear the relevant memo caches first so the measurement
reflects a cold computation rather than test-ordering luck.
"""

import io
import json
import time

import pytest

from sdinv import certificate as certmod
from sdinv import cli
from sdinv.exactlin import Lattice, lattice_index
from sdinv.kgamma import gamma_filtration, get_config, graded_torsion, parse_element
from sdinv.roots import (
    ambient_to_basis_quad,
    get_preset,
    indecomposable_group,
    sl4_block_form,
    sym2_size,
)
from sdinv.wittq import (
    IDENTITY_IDS,
    SplitMix64,
    hilbert_symbol,
    sample_square_class,
    verify_identity,
)
# the Chern classes the package no longer exports, kept as the test oracle
from test_kgamma import chern_class
from test_roots import semisimple_lattice
from test_wittq import relevant_places


def run(args):
    buf = io.StringIO()
    code = cli.run(args, out=buf)
    return code, buf.getvalue()


def run_json(args):
    code, out = run(args + ["--json"])
    assert code == 0, out
    return json.loads(out)


def clear_math_caches():
    from sdinv import kgamma, roots

    roots.get_preset.cache_clear()
    roots.indecomposable_group.cache_clear()
    kgamma.gamma_filtration.cache_clear()
    kgamma.graded_torsion.cache_clear()
    kgamma.get_config.cache_clear()


def test_criterion_01_inv3_sl2n_all_n_under_5s():
    clear_math_caches()
    t0 = time.monotonic()
    for n in range(2, 9):
        rep = run_json(["inv3", "--preset", f"sl2n:{n}"])
        assert rep["results"]["group"] == "Z/2", n
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"\ncriterion 1: PASS - inv3 sl2n:2..8 all Z/2 in {elapsed:.2f}s (< 5s)")


def test_criterion_02_character_lattices_match_displayed_bases():
    def span(rank, named):
        return Lattice.from_columns(rank, [v for _, v in named])

    checked = 0
    for gl_name, sl_name in [(f"gl2n:{n}", f"sl2n:{n}") for n in range(2, 9)] + [
        ("gl4x4", "sl4x4")
    ]:
        gl = get_preset(gl_name)
        assert gl.reductive_lattice() == span(gl.datum.ambient_rank, gl.display_basis)
        sl = get_preset(sl_name)
        assert semisimple_lattice(sl) == span(sl.projection.rows, sl.semisimple_display)
        checked += 2
    print(f"\ncriterion 2: PASS - {checked} computed lattices equal their displayed spans exactly")


def test_criterion_03_sl4x4_witness_and_invariant_lattice():
    rep = run_json(["inv3", "--preset", "sl4x4"])
    assert rep["results"]["group"] == "Z/2"
    assert rep["results"]["witness_class_is_2q1_plus_6q2"] is True
    res = indecomposable_group("sl4x4")
    q1, q2 = sl4_block_form(0), sl4_block_form(1)
    lat = res.character_lattice
    expected = Lattice.from_columns(
        sym2_size(lat.rank),
        [
            ambient_to_basis_quad(lat, tuple(4 * a + 4 * b for a, b in zip(q1, q2))),
            ambient_to_basis_quad(lat, tuple(2 * a + 6 * b for a, b in zip(q1, q2))),
        ],
    )
    assert res.presentation.sup == expected
    print("\ncriterion 3: PASS - sl4x4 gives Z/2 with witness class 2q1+6q2 and the expected invariant lattice")


def test_criterion_04_conics3_under_10s():
    clear_math_caches()
    t0 = time.monotonic()
    rep = run_json(["chow2", "--preset", "conics3"])
    elapsed = time.monotonic() - t0
    assert rep["results"]["torsion"] == "0"
    assert rep["results"]["split_index"] == 2 ** 10
    eps = rep["results"]["epsilons"]
    assert eps[0] <= 2 ** 3 and eps[1] <= 4 ** 2 * 2 and eps[2] <= 4
    assert rep["results"]["counting_identity_holds"] is True
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(
        f"\ncriterion 4: PASS - conics3 trivial torsion, split index 2^10, "
        f"epsilons {eps} within bounds, {elapsed:.2f}s (< 10s)"
    )


def test_criterion_05_conics4_under_60s():
    clear_math_caches()
    t0 = time.monotonic()
    rep = run_json(["chow2", "--preset", "conics4"])
    assert rep["results"]["torsion"] == "Z/2"
    assert rep["results"]["split_index"] == 2 ** 25
    assert rep["results"]["total_torsion_order"] == 2
    assert rep["results"]["counting_identity_holds"] is True

    # the order-2 witness is the class of some 4*yi*yj*yk
    filt = gamma_filtration("conics4")
    ring = filt.config.ring
    witness = tuple(rep["results"]["torsion_witnesses"][0])
    triples = ["y1*y2*y3", "y1*y2*y4", "y1*y3*y4", "y2*y3*y4"]
    assert any(
        filt.level(3).contains(
            tuple(a - b for a, b in zip(witness, parse_element(f"4*{t}", ring).y_vector()))
        )
        for t in triples
    )

    verdicts = [
        ("4*y1*y2*y3*y4", 3, False),
        ("4*y1*y2*y3", 2, True),
        ("8*y1*y2*y3", 3, True),
        (
            "4*(y1*y2*y3*y4 + y1*y2*y3 + y1*y2*y4 + y1*y3*y4 + y2*y3*y4) - 4*y2*y3*y4",
            3,
            True,
        ),
        ("8*y1*y2*y3*y4", 4, True),
    ]
    for expr, degree, expected in verdicts:
        out = run_json(
            ["gamma", "member", "--preset", "conics4", "--element", expr, "--degree", str(degree)]
        )
        assert out["results"]["member"] is expected, (expr, degree)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    print(
        f"\ncriterion 5: PASS - conics4 torsion Z/2 (witness a 4*yi*yj*yk class), "
        f"split 2^25, total torsion 2, 5 membership verdicts, {elapsed:.2f}s (< 60s)"
    )


def test_criterion_06_deg4pair_under_120s():
    clear_math_caches()
    t0 = time.monotonic()
    rep = run_json(["chow2", "--preset", "deg4pair"])
    elapsed = time.monotonic() - t0
    assert rep["results"]["torsion"] == "0"
    assert rep["results"]["total_torsion_order"] == 1
    full = run_json(["gamma", "report", "--preset", "deg4pair"])
    assert all(g["torsion"] == "0" for g in full["results"]["graded"])
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
    print(
        f"\ncriterion 6: PASS - deg4pair all graded quotients torsion-free in {elapsed:.2f}s (< 120s)"
    )


def test_criterion_07_chern_golden_vectors():
    conics3 = get_config("conics3").ring
    conics4 = get_config("conics4").ring
    deg4 = get_config("deg4pair").ring

    goldens = [
        (conics3, "2*x1*x2*x3", 2, "6*y1*y2*y3 + 2*(y1*y2 + y1*y3 + y2*y3)"),
        (
            conics4,
            "2*x1*x2*x3*x4",
            2,
            "14*y1*y2*y3*y4 + 6*(y1*y2*y3 + y1*y2*y4 + y1*y3*y4 + y2*y3*y4)"
            " + 2*(y1*y2 + y1*y3 + y1*y4 + y2*y3 + y2*y4 + y3*y4)",
        ),
        (conics4, "4*x1*x2", 2, "12*y1*y2"),
        (conics4, "4*x1*x2*x3", 2, "36*y1*y2*y3 + 12*(y1*y2 + y1*y3 + y2*y3)"),
        (deg4, "4*x1", 2, "6*y1^2"),
        (deg4, "4*x1", 3, "4*y1^3"),
    ]
    for ring, x, i, expected in goldens:
        got = chern_class(parse_element(x, ring), i)
        assert got.y_vector() == parse_element(expected, ring).y_vector(), (x, i)
    print(f"\ncriterion 7: PASS - all {len(goldens)} Chern golden vectors match exactly")


def test_criterion_08_witt_suites_and_product_formula_under_30s():
    t0 = time.monotonic()
    total = 0
    for identity in IDENTITY_IDS:
        for seed in (1, 2, 3, 4, 5):
            cases = verify_identity(identity, 100, seed)
            passes = sum(1 for c in cases if c.verdict)
            assert passes == 100, (identity, seed)
            total += passes

    rng = SplitMix64(123456)
    pairs = 0
    while pairs < 1000:
        a = sample_square_class(rng)
        b = sample_square_class(rng)
        prod = 1
        for v in relevant_places((a, b)):
            prod *= hilbert_symbol(a, b, v)
        assert prod == 1, (a, b)
        pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    print(
        f"\ncriterion 8: PASS - 8 identity suites x 5 seeds x 100 trials all pass "
        f"({total} verdicts) and the product formula holds on {pairs} pairs, {elapsed:.2f}s (< 30s)"
    )


THEOREM_EXPECTED = {
    2: ("Z/2", "0", "0", "Z/2", "0"),
    3: ("Z/2", "Z/2", "0", "Z/2", "Z/2"),
    4: ("Z/2", "Z/2", "0", "Z/2", "Z/2"),
    5: ("Z/2", "Z/2", "Z/2", "0", "0"),
    6: ("Z/2", "Z/2", "Z/2", "0", "0"),
    7: ("Z/2", "Z/2", "Z/2", "0", "0"),
    8: ("Z/2", "Z/2", "Z/2", "0", "0"),
}


def test_criterion_09_theorem_table():
    for n, (inv_h, inv_g, chow, sdec_h, sdec_g) in THEOREM_EXPECTED.items():
        rep = run_json(["theorem", "--n", str(n), "--trials", "6"])
        r = rep["results"]
        assert r["inv3_ind_H"]["group"] == inv_h, n
        assert r["inv3_ind_G"]["group"] == inv_g, n
        assert r["chow2_tors"]["group"] == chow, n
        assert r["sdec_mod_dec_H"]["group"] == sdec_h, n
        assert r["sdec_mod_dec_G"]["group"] == sdec_g, n
        assert r["exactness_holds"] is True, n
        if n <= 5:
            assert r["chow2_tors"]["provenance"] == "computed", n
            assert all(s["passes"] == s["trials"] for s in r["alpha_suites"]), n
        else:
            assert r["chow2_tors"]["provenance"] == "cited", n
            assert any(f["id"] == "restriction_induction" for f in rep["cited_facts"]), n
    print("\ncriterion 9: PASS - theorem rows 2..5 live with exact bookkeeping; rows 6..8 flagged as cited")


CERT_COMMANDS = (
    [["inv3", "--preset", f"sl2n:{n}"] for n in range(2, 9)]
    + [["inv3", "--preset", "sl4x4"]]
    + [["chow2", "--preset", p] for p in ("conics3", "conics4", "deg4pair")]
    + [["gamma", "member", "--preset", "conics4", "--element", "4*y1*y2*y3*y4", "--degree", "3"]]
    + [["gamma", "report", "--preset", "conics3"]]
    + [["witt", "verify", "--identity", i, "--trials", "100", "--seed", "1"] for i in IDENTITY_IDS]
    + [["theorem", "--n", str(n), "--trials", "6", "--seed", "1"] for n in range(2, 9)]
    + [["sl4x4"]]
)


def test_criterion_10_certificates_roundtrip_and_fuzz(tmp_path):
    written = []
    for i, cmd in enumerate(CERT_COMMANDS):
        path = tmp_path / f"cert{i}.json"
        code, out = run(cmd + ["--certificate", str(path), "--json"])
        assert code == 0, (cmd, out)
        code, out = run(["--check-certificate", str(path)])
        assert code == 0, (cmd, out)
        written.append(path)

    # single-integer tampering, 100 cases across the cheap certificates
    texts = [written[0].read_text(), written[11].read_text(), written[13].read_text()]
    rng = SplitMix64(99)
    detected = 0
    for case in range(100):
        cert = json.loads(texts[rng.next_u64() % len(texts)])
        paths = _int_paths(cert["entries"])
        path = ("entries",) + paths[rng.next_u64() % len(paths)]
        delta = [1, -1, 3, 64][rng.next_u64() % 4]
        node = cert
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += delta
        ok, _ = certmod.check_certificate(cert)
        assert not ok, f"tampering at {path} (+{delta}) went undetected"
        detected += 1
    print(
        f"\ncriterion 10: PASS - {len(written)} certificates validate; "
        f"{detected}/100 tampering cases detected"
    )


def _int_paths(node, prefix=()):
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
