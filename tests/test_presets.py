import io

import pytest

from sdinv import cli, kgamma
from sdinv.errors import InternalInconsistencyError
from sdinv.exactlin import InputError, Lattice, subquotient_presentation
from sdinv.presets import (
    ALPHA_SUITES_BY_N,
    CHOW_CONFIG_BY_N,
    assemble_theorem,
    sl4x4_report,
    theorem_table,
)


EXPECTED = {
    # n: (inv_h, inv_g, chow, sdec_h, sdec_g)
    2: ("Z/2", "0", "0", "Z/2", "0"),
    3: ("Z/2", "Z/2", "0", "Z/2", "Z/2"),
    4: ("Z/2", "Z/2", "0", "Z/2", "Z/2"),
    5: ("Z/2", "Z/2", "Z/2", "0", "0"),
    6: ("Z/2", "Z/2", "Z/2", "0", "0"),
    7: ("Z/2", "Z/2", "Z/2", "0", "0"),
    8: ("Z/2", "Z/2", "Z/2", "0", "0"),
}


@pytest.mark.parametrize("n", sorted(EXPECTED))
def test_theorem_rows(n):
    row = assemble_theorem(n, trials=6, seed=1)
    inv_h, inv_g, chow, sdec_h, sdec_g = EXPECTED[n]
    assert row.inv3_ind_h.group.label() == inv_h
    assert row.inv3_ind_g.group.label() == inv_g
    assert row.chow2_tors.group.label() == chow
    assert row.sdec_mod_dec_h.group.label() == sdec_h
    assert row.sdec_mod_dec_g.group.label() == sdec_g
    assert _exact(row)


def _exact(row) -> bool:
    """|Sdec/Dec| * |CH2_tors| == |Inv3_ind|, the identity the assembly's
    bookkeeping states, recomputed from the row's groups."""
    return (
        row.sdec_mod_dec_h.group.order() * row.chow2_tors.group.order()
        == row.inv3_ind_h.group.order()
    )


def test_rows_above_five_are_flagged_cited():
    row = assemble_theorem(7, trials=4, seed=1)
    assert row.chow2_tors.provenance == "cited"
    assert row.sdec_mod_dec_h.provenance == "cited"
    assert any(f.fact_id == "restriction_induction" for f in row.cited_facts)
    assert row.chow is None


def test_rows_through_five_are_live():
    for n in (2, 3, 4, 5):
        row = assemble_theorem(n, trials=4, seed=1)
        assert row.inv3_ind_h.provenance == "computed"
        assert row.chow2_tors.provenance == "computed"
        assert row.chow is not None
        assert row.chow.report.config.name == CHOW_CONFIG_BY_N[n]


def test_alpha_suites_attached_and_passing():
    row = assemble_theorem(4, trials=5, seed=2)
    ids = [cases[0].identity_id for cases in row.alpha_suites]
    assert ids == list(ALPHA_SUITES_BY_N[4])
    assert all(c.verdict for cases in row.alpha_suites for c in cases)


def test_cited_facts_nonempty_statements():
    for row in theorem_table(range(2, 9), trials=3, seed=1):
        assert row.cited_facts
        for fact in row.cited_facts:
            assert fact.statement.strip()
            assert fact.reference.strip()


def test_out_of_range():
    with pytest.raises(InputError):
        assemble_theorem(1)
    with pytest.raises(InputError):
        assemble_theorem(9)


def test_sl4x4_report_default():
    row = sl4x4_report()
    assert row.indecomposable.presentation.group.label() == "Z/2"
    assert row.inv3_ind_h.group.label() == "Z/2"
    assert row.chow.torsion.is_trivial
    assert row.chow2_tors.group.is_trivial
    assert row.sdec_mod_dec_h.group.label() == "Z/2"
    assert row.inv3_ind_g is None and row.sdec_mod_dec_g is None
    assert row.alpha_suites == ()
    assert _exact(row)


def test_sl4x4_report_forced_failure_path(monkeypatch, capsys):
    """A torsion order that does not divide the indecomposable order fails
    the one bookkeeping step, which exits 3 for the rank-3 pair and for a
    theorem row alike and prints no report."""
    live = kgamma.chow2_torsion
    z4 = subquotient_presentation(Lattice.from_columns(1, [(4,)]), Lattice.standard(1))

    def z4_torsion(name):
        # the report's degree-2 piece replaced by a presentation of Z/4
        report = live(name).report
        pieces = report.pieces[:2] + (z4,) + report.pieces[3:]
        return kgamma.Chow2Result(report._replace(pieces=pieces))

    monkeypatch.setattr(kgamma, "chow2_torsion", z4_torsion)
    with pytest.raises(InternalInconsistencyError, match="bookkeeping"):
        sl4x4_report()
    for argv in (["sl4x4", "--json"], ["theorem", "--n", "5", "--json"]):
        out = io.StringIO()
        assert cli.run(argv, out=out) == 3
        assert out.getvalue() == ""
        err = capsys.readouterr().err
        assert err.startswith("internal inconsistency: torsion order does not divide")
