"""The staged reconstruction: strata, gluing, claims, reports.

Frozen expected values here were produced by independent recomputation
(kernels, intersections, linear systems) and cross-checked against the
source text; they are the regression oracles for the whole pipeline.
"""

import gc
import json
import re
import shutil
import sys
import types
import weakref
from collections import Counter
from importlib import resources

import pytest

from chowcheck import chowpipeline, groebner, invariants, ringpres
from chowcheck.chowpipeline import (
    CLAIMS_FILE,
    PipelineError,
    SignConvention,
    StratumSpec,
    Stratum,
    convention_search,
    emit_report,
    load_base,
    load_claims,
    minimal_generators,
    run_pipeline,
    verify_paper,
)
from chowcheck.cli import main
from chowcheck.exprparser import Entry, ParseError, parse_document, parse_polynomial
from chowcheck.invariants import InvariantError
from chowcheck.polyarith import Polynomial

# stage-2 glued relation, recomputed via kernel intersection and lifting
J1 = "k1^4*g2^2 + 2*k1^2*k2*g2^2 - 4*k1^2*g2^3 - 8*k2*g2^3 + q^2"

# stage-3a glued relations (reduced basis of the chain-stratum step)
J3A = [
    "k2*g2*g3p + 2*g2^2*g3p - g3p*q",
    "k1^2*g3p + k2*g3p - 2*g2*g3p",
    J1,
]

# corrected final lift of the stage-2 relation across the two-tails square
ROW10_LIFT = (
    "k1^4*g2^2 + 2*k1^2*k2*g2^2 - 4*k1^2*g2^3 - 2*k1^3*g2*g3pp - 8*k2*g2^3"
    " - 4*k1*k2*g2*g3pp - 3*k1^2*g3pp^2 + 8*k1^2*g2*r + 4*k1^3*t"
    " - 6*k2*g3pp^2 + 16*k2*g2*r + 8*k1*k2*t + q^2"
)

FINAL_DIMS = [1, 1, 3, 5, 10, 15, 26, 36, 54, 72, 99, 126, 165]
TWO_NODE_DIMS = [1, 1, 3, 3, 7, 7, 13, 13, 21]
CHAIN_DIMS = [1, 1, 3, 4, 8, 9, 16, 17, 26, 28, 39, 41, 55]

FINAL_WEIGHTS = {
    "k1": 1, "k2": 2, "g2": 2, "g3p": 3, "q": 4,
    "g3pp": 3, "r": 4, "s": 5, "t": 5, "u": 6,
}


def test_sign_convention_parsing_and_labels():
    c = SignConvention()
    assert c.label == "e1=-1,e2=-1,e3=-1,eg=+1"
    assert SignConvention.parse("-1,-1,-1") == c
    assert SignConvention.parse("(+1, -1, +1, -1)").label == "e1=+1,e2=-1,e3=+1,eg=-1"
    assert len(SignConvention.all()) == 16
    with pytest.raises(PipelineError):
        SignConvention.parse("1,2,3")
    with pytest.raises(PipelineError):
        SignConvention.parse("1,1")


def test_load_base_and_strata_validate():
    base = load_base()
    assert base.table.names == ("k2",) and base.is_free()
    for name in ("gamma1", "gamma2", "gamma3p", "gamma3pp"):
        spec = StratumSpec.load(f"{name}.stratum")
        assert spec.label
        # materialisation re-checks invariance of every class form
        Stratum(spec, SignConvention())


def test_stratum_rejects_non_invariant_forms():
    bad = """
    [kind]
    stratum
    [label]
    Demo
    [vars]
    t1
    t2
    [group]
    t1 -> t2; t2 -> t1
    [ring]
    k1(1): t1
    [top]
    t1 + t2
    [restrict]
    k1: t1 + t2
    [new]
    k1(1)
    """
    with pytest.raises(PipelineError) as err:
        Stratum(StratumSpec(parse_document(bad)), SignConvention())
    assert "not invariant" in str(err.value)


def test_stage_shapes(artifacts):
    labels = [s["info"]["label"] for s in artifacts.stages]
    assert labels == ["Gamma1", "Gamma2", "Gamma3p", "Gamma3pp"]
    for stage in artifacts.stages:
        assert stage["info"]["nzd"] is True
        assert stage["info"]["certified_through"] == 12


def test_stage1_result_is_free_on_k1_k2(artifacts):
    result = artifacts.stages[0]["result"]
    assert result.table.names == ("k1", "k2")
    assert result.table.weights == (1, 2)
    assert result.is_free()


def test_stage2_result_relation_is_the_single_glued_one(artifacts):
    result = artifacts.stages[1]["result"]
    assert [str(g) for g in result.relations.gens] == [J1]
    assert [result.dim(d) for d in range(9)] == TWO_NODE_DIMS


def test_stage3a_result_relations(artifacts):
    result = artifacts.stages[2]["result"]
    assert [str(g) for g in result.relations.gens] == J3A
    assert [result.dim(d) for d in range(13)] == CHAIN_DIMS


def test_stage3a_displayed_pair_differs_from_restriction(artifacts):
    info = artifacts.stages[2]["info"]
    q_pair = next(p for p in info["pairs"] if p["tag"] == "q")
    assert q_pair["source"] == "displayed"
    assert q_pair["differs_from_restriction"] is True
    assert q_pair["a_side"] == "-k1^2*g2 + 4*g2^2"


def test_stage3b_lift_of_stage2_relation_needs_a_correction(artifacts):
    info = artifacts.stages[3]["info"]
    corrected = [L for L in info["lifts"] if L["correction"]]
    assert len(corrected) == 1
    assert corrected[0]["relation"] == J1
    assert corrected[0]["lift"] == ROW10_LIFT


def test_final_presentation_shape(artifacts):
    final = artifacts.final
    assert len(final.table.names) == 10
    assert dict(zip(final.table.names, final.table.weights)) == FINAL_WEIGHTS
    assert [final.dim(d) for d in range(13)] == FINAL_DIMS


def test_the_final_ring_is_the_image_of_its_tags_in_the_base_and_the_strata(artifacts):
    """A second route to the final relation ideal: each glued ring is the
    image of its tags in the previous ring times the stratum ring, so the
    final ring is the image of its 10 tags in the product of the base ring
    and the four stratum rings.  A tag goes to its alpha image in a stratum
    ring whose stage has it, and to 0 in the others.  The kernels of the
    five maps, intersected, use no fiber product, lift or induction order."""
    final, base = artifacts.final, artifacts.base
    tags = final.table
    kernels = [groebner.map_kernel(tags, {n: Polynomial.variable(base.table, n)
                                          if n in base.table.names else 0
                                          for n in tags.names}, base.table, base.relations)]
    for stage in artifacts.stages:
        alpha = stage["alpha"]
        kernels.append(groebner.map_kernel(tags, {n: alpha.images.get(n, 0) for n in tags.names},
                                           alpha.target.table, alpha.target.relations))
    product = kernels[0]
    for kernel in kernels[1:]:
        product = groebner.intersect(product, kernel)
    assert groebner.ideal_equal(product, final.relations, final.order)


def test_final_relations_all_homogeneous(artifacts):
    final = artifacts.final
    for g in final.relations.gens:
        assert g.is_homogeneous()


def test_minimal_generators_profile(artifacts):
    final = artifacts.final
    minimal = minimal_generators(final)
    assert len(minimal) == 22
    profile = {}
    for g in minimal:
        profile[g.weighted_degree()] = profile.get(g.weighted_degree(), 0) + 1
    assert profile == {5: 1, 6: 1, 7: 2, 8: 5, 9: 5, 10: 5, 11: 2, 12: 1}
    # a minimal set still generates the whole relation ideal
    regen = final.relations
    from chowcheck.groebner import Ideal, ideal_equal

    assert ideal_equal(Ideal(final.table, minimal), regen, final.order)


def test_minimal_generators_build_no_macaulay_rows(artifacts, monkeypatch):
    """`irredundant` on the 37 basis elements: each input is reduced once,
    and 159 S-pairs (144 of them to zero) against 175 with no chain
    criterion, and against 3440 monomial multiples of the kept elements."""
    final = artifacts.final
    final.relations.groebner(final.order)
    listed = _count_calls(monkeypatch, "standard_monomials", module=groebner)
    reductions = _count_calls(monkeypatch, "_reduce", module=groebner)
    assert len(minimal_generators(final)) == 22
    assert sum(listed.values()) == 0
    assert sum(reductions.values()) == 37 + 159


def test_claims_file_is_wellformed():
    claims = load_claims(CLAIMS_FILE)
    assert len(claims) == 84
    ids = [c.id for c in claims]
    assert len(set(ids)) == len(ids)
    for claim in claims:
        assert claim.expect in ("pass", "fail", "assumed")


def test_all_claims_behave_as_recorded(report):
    rows = report["claims"]
    assert len(rows) == 84
    unexpected = [r["id"] for r in rows if not r["ok"]]
    assert unexpected == []
    statuses = {}
    for r in rows:
        statuses[r["status"]] = statuses.get(r["status"], 0) + 1
    assert statuses == {"PASS": 60, "FAIL": 20, "ASSUMED": 4}
    assert report["all_as_expected"] is True
    assert report["status"] == "DISCREPANCY"


def test_specific_claim_details(claim_rows):
    assert claim_rows["two-node-zero-fiber"]["detail"] == {
        "count": 3, "finite": True,
    }
    assert claim_rows["final-generator-count"]["detail"] == {"computed": 10}
    assert claim_rows["final-relation-count"]["detail"] == {
        "computed": 22, "corrected_ok": True,
    }
    assert claim_rows["two-tails-lift-profile"]["detail"] == {
        "exact": 2, "corrected": 1,
    }
    assert claim_rows["two-node-glued-relation"]["status"] == "PASS"
    assert claim_rows["two-node-glued-relation-restated"]["status"] == "FAIL"


def test_theorem_rows_shape(report):
    rows = report["final"]["theorem_rows"]
    assert len(rows) == 11
    statuses = [r["status"] for r in rows]
    assert statuses == ["PASS"] * 9 + ["FAIL", "FAIL"]
    for row in rows:
        if row["status"] == "FAIL":
            assert row["corrected"] is not None
            assert row["corrected_ok"] is True


def test_relation_analysis_counts(report):
    analysis = report["final"]["relation_analysis"]
    assert analysis["displayed_rows"] == 11
    assert analysis["minimal_generator_count"] == 22
    assert analysis["reduced_basis_size"] == 37
    assert len(analysis["missing_from_displayed"]) == 27
    assert analysis["displayed_not_in_computed"] == []
    # the first displayed gap appears in weight 8
    gap = [parse_polynomial(t, _final_table(report)) for t in
           analysis["missing_from_displayed"]]
    assert min(g.weighted_degree() for g in gap) == 8


def test_the_displayed_rows_extend_to_a_minimal_generating_set(report, artifacts):
    """The 11 displayed rows as the report uses them (a failing row as
    corrected), then the 22 minimal generators: `irredundant` keeps every
    row and 11 generators, so the rows are irredundant and short by
    exactly 11 relations."""
    final = artifacts.final
    runner = chowpipeline.ClaimRunner(artifacts)
    claims = [claim for claim in load_claims() if claim.kind == "relation_row"]
    rows = [runner.parse(claim, "row" if row["status"] == "PASS" else "corrected", final.table)
            for claim, row in zip(claims, report["final"]["theorem_rows"], strict=True)]
    kept = {id(g) for g in groebner.irredundant(rows + artifacts.minimal, final.order)}
    added = [g for g in artifacts.minimal if id(g) in kept]
    assert [id(g) in kept for g in rows] == [True] * 11
    assert len(added) == 11
    assert Counter(g.weighted_degree() for g in added) == {8: 1, 9: 3, 10: 4, 11: 2, 12: 1}


def _final_table(report):
    from chowcheck.polyarith import VarTable

    gens = report["final"]["generators"]
    return VarTable([g["name"] for g in gens], [g["weight"] for g in gens])


def test_sign_sweeps_in_report(report):
    sweeps = report["sign_search"]
    pair = sweeps["incompatible-pair"]
    assert pair["jointly_satisfiable"] is False
    assert pair["best_pass_count"] == 1
    assert len(pair["best_conventions"]) == 8
    assert all("eg=+1" in label for label in pair["best_conventions"])
    six = sweeps["section-six-signs"]
    assert six["jointly_satisfiable"] is True
    assert six["all_pass_conventions"] == ["e1=-1,e2=+1,e3=-1,eg=+1"]


def test_machine_report_is_valid_json_and_deterministic(report):
    one = emit_report(report, format="machine")
    two = emit_report(report, format="machine")
    assert one == two
    parsed = json.loads(one)
    assert parsed["format"] == "chowcheck-verification-report"
    assert "timing" not in parsed


def test_text_report_mentions_the_key_findings(report):
    text = emit_report(report, format="text")
    assert "status: DISCREPANCY" in text
    assert "incompatible-pair" in text
    assert "no single sign convention satisfies all of them" in text
    assert "e1=-1,e2=+1,e3=-1,eg=+1" in text
    assert text.count("FAIL") >= 20
    with pytest.raises(PipelineError):
        emit_report(report, format="yaml")


def test_sweep_reports_an_unknown_claim_kind_as_an_error_row(tmp_path):
    path = tmp_path / "bogus.claims"
    path.write_text("[kind]\nclaims\n\n[claim]\nid: bogus-claim\nkind: bogus\n")
    result = convention_search(load_claims(path=path),
                               conventions=[SignConvention()])
    (row,) = result["rows"]
    assert row["passed"] == [] and row["failed"] == []
    assert row["errors"] == [{"id": "bogus-claim",
                              "error": f"{path}: unknown claim kind 'bogus' at line 6"}]


def _claim(**fields):
    """A claim of `fields`, one a line after its `[claim]` header, `id` and
    `kind`, each value at the column `key: ` leaves it."""
    fields = {"id": "a-claim", "kind": "identity", **fields}
    return chowpipeline.Claim([Entry(key, value, line, len(key) + 3)
                               for line, (key, value) in enumerate(fields.items(), start=2)], 1)


def _sweep_error(tmp_path, body):
    path = tmp_path / "bad.claims"
    path.write_text("[kind]\nclaims\n\n[claim]\nid: bad-claim\n" + body)
    result = convention_search(load_claims(path=path),
                               conventions=[SignConvention()])
    (row,) = result["rows"]
    assert row["passed"] == [] and row["failed"] == []
    (error,) = row["errors"]
    assert error["id"] == "bad-claim"
    return error["error"]


def test_sweep_reports_an_evaluation_point_missing_a_variable(tmp_path):
    error = _sweep_error(tmp_path, "kind: evaluate\nwhere: Gamma1\n"
                         "expr: t1 + t2\npoint: t1=1\nvalue: 1\n")
    assert error == f"{tmp_path / 'bad.claims'}: claim field 'point' gives no value for t2"


def test_sweep_reports_an_evaluation_point_item_without_equals(tmp_path):
    error = _sweep_error(tmp_path, "kind: evaluate\nwhere: Gamma1\n"
                         "expr: t1 + t2\npoint: t1=1; t2\nvalue: 1\n")
    assert error == f"{tmp_path / 'bad.claims'}: item 't2' has no '=' at line 9"


def test_sweep_reports_a_kernel_image_without_arrow(tmp_path):
    error = _sweep_error(tmp_path, "kind: map_kernel_equal\nvars: u(1)\n"
                         "tvars: t(1)\nimages: u = t\nrhs: 0\n")
    assert error == f"{tmp_path / 'bad.claims'}: item 'u = t' has no '->' at line 9"


def test_sweep_reports_a_missing_claim_field(tmp_path):
    error = _sweep_error(tmp_path, "kind: evaluate\nwhere: Gamma1\n"
                         "expr: t1 + t2\nvalue: 1\n")
    assert error == f"{tmp_path / 'bad.claims'}: claim is missing the 'point' field at line 4"


def test_sweep_reports_a_missing_declaration_field_at_the_claim_header(tmp_path):
    error = _sweep_error(tmp_path, "kind: map_kernel_equal\ntvars: t(1)\n"
                         "images: u -> t\nrhs: 0\n")
    assert error == f"{tmp_path / 'bad.claims'}: claim is missing the 'vars' field at line 4"


def test_sweep_reports_a_non_integer_count(tmp_path):
    error = _sweep_error(tmp_path, "kind: zero_dim\nwhere: Gamma1\n"
                         "gens: t1; t2\ncount: x\n")
    assert error == (f"{tmp_path / 'bad.claims'}: claim field 'count' must be an integer, "
                     "not 'x' at line 9")


def test_sweep_reports_a_non_integer_degree(tmp_path):
    error = _sweep_error(tmp_path, "kind: dimension\nspace: ring:Gamma1\n"
                         "degree: two\nvalue: 1\n")
    assert error == (f"{tmp_path / 'bad.claims'}: claim field 'degree' must be an "
                     "integer, not 'two' at line 8")


@pytest.mark.parametrize("body, error", [
    ("kind: map_kernel_equal\nvars: u(1); u(1)\ntvars: t(1)\nimages: u -> t\n",
     "claim field 'vars': duplicate variable name at line 7"),
    ("kind: free_ring\nspace: ring:Gamma1\nvars: k1(0)\n",
     "claim field 'vars': weight of k1 must be a positive integer at line 8"),
], ids=["duplicate-name", "zero-weight"])
def test_sweep_reports_a_bad_claim_variable_table(tmp_path, body, error):
    assert _sweep_error(tmp_path, body) == f"{tmp_path / 'bad.claims'}: {error}"


def test_sweep_reports_a_source_variable_without_image(tmp_path):
    error = _sweep_error(tmp_path, "kind: map_kernel_equal\nvars: u(1); w(1)\n"
                         "tvars: t(1)\nimages: u -> t\nrhs: 0\n")
    assert error == f"{tmp_path / 'bad.claims'}: claim field 'images' gives no value for w"


@pytest.mark.parametrize("point, message", [
    ("t1=5; t1=1; t2=0", "claim field 'point' gives t1 more than once at line 9"),
    ("t1=1; t2=0; v9=7", "claim field 'point' names v9, not one of t1, t2 at line 9"),
], ids=["repeated", "unknown"])
def test_sweep_reports_an_evaluation_point_naming_a_variable_twice_or_unknown(
        tmp_path, point, message):
    error = _sweep_error(tmp_path, "kind: evaluate\nwhere: Gamma1\n"
                         f"expr: t1 + t2\npoint: {point}\nvalue: 1\n")
    assert error == f"{tmp_path / 'bad.claims'}: {message}"


def test_sweep_reports_a_kernel_image_given_twice(tmp_path):
    error = _sweep_error(tmp_path, "kind: map_kernel_equal\nvars: u(1)\n"
                         "tvars: t(1)\nimages: u -> t; u -> t^2\nrhs: 0\n")
    assert error == (f"{tmp_path / 'bad.claims'}: claim field 'images' gives u "
                     "more than once at line 9")


def test_sweep_reports_an_unknown_stage(tmp_path):
    error = _sweep_error(tmp_path, "kind: surjectivity\nstage: Gamma9\n"
                         "dmax: 4\n")
    assert error == f"{tmp_path / 'bad.claims'}: no stage with label 'Gamma9' at line 7"


def _data_copy(tmp_path):
    root = tmp_path / "data"
    with resources.as_file(resources.files("chowcheck").joinpath("data")) as src:
        shutil.copytree(src, root)
    return root


def test_sweep_gives_every_reader_of_a_failed_stratum_its_error(tmp_path):
    root = _data_copy(tmp_path)
    gamma1 = root / "strata" / "gamma1.stratum"
    gamma1.write_text(gamma1.read_text().replace(
        "k1(1): e1*(t1 + t2)", "k1(1): e1*t1"))
    path = tmp_path / "stages.claims"
    path.write_text("[kind]\nclaims\n\n"
                    "[claim]\nid: on-stratum\nkind: identity\nwhere: Gamma1\n"
                    "lhs: t1\nrhs: t1\n\n"
                    "[claim]\nid: on-stage\nkind: surjectivity\nstage: Gamma2\n"
                    "dmax: 4\n")
    result = convention_search(load_claims(path=path),
                               conventions=[SignConvention()], root=root)
    (row,) = result["rows"]
    assert row["passed"] == [] and row["failed"] == []
    message = "Gamma1: ring coordinate k1 is not invariant under (t1 -> t2, t2 -> t1)"
    assert row["errors"] == [{"id": "on-stratum", "error": message},
                             {"id": "on-stage", "error": message}]
    assert "aborted" not in row


def test_pipeline_rejects_two_strata_with_one_label(tmp_path):
    root = _data_copy(tmp_path)
    gamma2 = root / "strata" / "gamma2.stratum"
    gamma2.write_text(gamma2.read_text().replace("Gamma2", "Gamma1"))
    with pytest.raises(PipelineError, match="two stratum files share a label"):
        run_pipeline(root=root)


def test_a_ring_weight_must_be_the_degree_of_its_form(tmp_path):
    root = _data_copy(tmp_path)
    gamma2 = root / "strata" / "gamma2.stratum"
    text = gamma2.read_text()
    assert "k2(2): e2*U2" in text
    gamma2.write_text(text.replace("k2(2): e2*U2", "k2(5): e2*U2"))
    with pytest.raises(PipelineError) as err:
        run_pipeline(root=root)
    assert str(err.value) == ("Gamma2: ring coordinate k2 is declared of weight 5, "
                              "but its form has degree 2")


def test_a_stratum_missing_a_ring_coordinate_fails_by_the_molien_count(tmp_path):
    root = _data_copy(tmp_path)
    gamma2 = root / "strata" / "gamma2.stratum"
    text = gamma2.read_text()
    assert "eta(2): ETA\n" in text
    gamma2.write_text(text.replace("eta(2): ETA\n", ""))
    with pytest.raises(InvariantError, match=r"miss the invariants in degree 2: "
                                             r"dimension 3 presented, 4 invariant"):
        run_pipeline(root=root)


def test_every_reader_of_a_failed_stratum_ring_gets_its_invariant_error(tmp_path,
                                                                       monkeypatch):
    """A failed ring keeps its error: every claim that reads it, in every
    convention, gets the one message, and each stratum is presented once, 4
    of Gamma1 (it reads e1, e2) and 8 of Gamma2 (e1, e2, eg), not once per
    read."""
    root = _data_copy(tmp_path)
    gamma2 = root / "strata" / "gamma2.stratum"
    gamma2.write_text(gamma2.read_text().replace("eta(2): ETA\n", ""))
    message = ("generators miss the invariants in degree 2: "
               "dimension 3 presented, 4 invariant")
    presentations = _count_calls(monkeypatch, "invariant_presentation")
    stratum = Stratum(StratumSpec.load("gamma2.stratum", root=root), SignConvention())
    for _ in range(2):
        with pytest.raises(InvariantError) as err:
            stratum.ring
        assert str(err.value) == message
    assert sum(presentations.values()) == 1
    path = tmp_path / "ring.claims"
    path.write_text("[kind]\nclaims\n\n"
                    "[claim]\nid: on-forms\nkind: identity\nwhere: Gamma2\n"
                    "lhs: g2\nrhs: g2\n\n"
                    "[claim]\nid: on-ring\nkind: dimension\nspace: ring:Gamma2\n"
                    "degree: 2\nvalue: 4\n\n"
                    "[claim]\nid: on-stage\nkind: surjectivity\nstage: Gamma2\n"
                    "dmax: 4\n\n"
                    "[claim]\nid: on-next-stage\nkind: lift_profile\n"
                    "stage: Gamma3p\nexact: 1\ncorrected: 0\n")
    rows = convention_search(load_claims(path=path), root=root)["rows"]
    assert len(rows) == 16
    for row in rows:
        assert row["passed"] == ["on-forms"] and row["failed"] == []
        assert row["errors"] == [{"id": claim, "error": message}
                                 for claim in ("on-ring", "on-stage", "on-next-stage")]
    assert sum(presentations.values()) == 1 + 12


@pytest.mark.parametrize("name, old, new, raised, error", [
    ("gamma1.stratum", "[new]\nk1(1)\n", "[new]\nk1(0)\n", ParseError,
     "{file}: weight of k1 must be a positive integer at line {line}"),
    ("gamma2.stratum", "[new]\n", "[new]\nk1(1)\n", PipelineError,
     "Gamma2: bad [new] entry: duplicate variable name"),
], ids=["zero-weight", "repeated-name"])
def test_a_bad_new_entry_is_a_pipeline_error_naming_its_stratum(tmp_path, name, old,
                                                                new, raised, error):
    """`[new]` reads its entries as `[vars]` does, so a bad weight is an input
    error naming the file and the line; a name the previous ring already has
    is found when the stage is glued."""
    root = _data_copy(tmp_path)
    stratum = root / "strata" / name
    assert old in stratum.read_text()
    stratum.write_text(stratum.read_text().replace(old, new))
    line = stratum.read_text().splitlines().index(new.split("\n")[1]) + 1
    error = error.format(file=stratum, line=line)
    with pytest.raises(raised) as err:
        run_pipeline(root=root)
    assert str(err.value) == error
    path = tmp_path / "stage.claims"
    path.write_text("[kind]\nclaims\n\n[claim]\nid: on-stage\nkind: surjectivity\n"
                    "stage: Gamma2\ndmax: 4\n")
    claims = load_claims(path=path)
    if raised is ParseError:  # the stratum files are read before any claim
        with pytest.raises(ParseError, match=re.escape(error)):
            convention_search(claims, root=root)
        return
    (row,) = convention_search(claims, conventions=[SignConvention()], root=root)["rows"]
    assert row["errors"] == [{"id": "on-stage", "error": error}]


def test_a_zero_top_class_stops_the_gluing_as_a_zero_divisor(tmp_path):
    root = _data_copy(tmp_path)
    gamma2 = root / "strata" / "gamma2.stratum"
    text = gamma2.read_text()
    assert "[top]\nTOP\n" in text
    gamma2.write_text(text.replace("[top]\nTOP\n", "[top]\n0\n"))
    with pytest.raises(PipelineError, match="top Chern class of Gamma2 is a zero divisor"):
        run_pipeline(root=root)


@pytest.mark.parametrize("expr, outcome", [
    ("0", "failed"),
    ("3", "passed"),
    ("k1 + k1^2", "errors"),
])
def test_a_degenerate_nzd_claim_gets_a_row(tmp_path, expr, outcome):
    path = tmp_path / "nzd.claims"
    path.write_text("[kind]\nclaims\n\n[claim]\nid: degenerate\nkind: nzd\n"
                    f"where: Gamma1\nexpr: {expr}\n")
    (row,) = convention_search(load_claims(path=path),
                               conventions=[SignConvention()])["rows"]
    got = {key: row[key] for key in ("passed", "failed", "errors") if row[key]}
    assert list(got) == [outcome]
    if outcome == "errors":
        (error,) = got["errors"]
        assert "not weighted-homogeneous" in error["error"]


def test_verify_paper_needs_no_colon_ideal(report, monkeypatch):
    def refuse(*args):
        raise AssertionError("colon ideal built")

    monkeypatch.setattr(groebner, "ideal_quotient", refuse)
    assert emit_report(verify_paper(), "machine") == emit_report(report, "machine")


def test_load_base_reports_the_line_of_a_bad_relation(tmp_path):
    root = _data_copy(tmp_path)
    base = root / "strata" / "base.pres"
    text = base.read_text() + "\n[relations]\nk2^2 +\n"
    base.write_text(text)
    with pytest.raises(ParseError) as err:
        load_base(root=root)
    assert err.value.line == text.splitlines().index("k2^2 +") + 1 > 1


def test_stratum_spec_reports_the_line_of_an_unknown_weight_name():
    text = _stratum_text("gamma1.stratum") + "\n[weights]\nt1: 2\nz: 2\n"
    with pytest.raises(ParseError) as err:
        StratumSpec(parse_document(text))
    line = len(text.splitlines())
    assert str(err.value) == f"unknown variable 'z' at line {line}"


@pytest.mark.parametrize("section, added, message", [
    ("top", "t1*t2", "section [top] must contain exactly one entry at line {header}"),
    ("label", "[label]\nGamma9", "section [label] appears more than once at line {line}"),
], ids=["two-entries", "repeated-section"])
def test_stratum_spec_load_names_the_header_line_of_a_section_error(tmp_path, section,
                                                                    added, message):
    root = _data_copy(tmp_path)
    gamma1 = root / "strata" / "gamma1.stratum"
    lines = gamma1.read_text().splitlines()
    header = lines.index(f"[{section}]") + 1
    lines[header:header] = added.splitlines()  # right after the header
    gamma1.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        StratumSpec.load("gamma1.stratum", root=root)
    assert str(err.value) == f"{gamma1}: " + message.format(header=header, line=header + 1)


def test_sweep_reads_the_strata_under_its_root(tmp_path):
    root = _data_copy(tmp_path)
    gamma3p = root / "strata" / "gamma3p.stratum"
    text = gamma3p.read_text()
    assert "K3: e3*(" in text
    gamma3p.write_text(text.replace("K3: e3*(", "K3: -e3*("))
    claims = [c for c in load_claims()
              if c.get("sweep", None) == "section-six-signs"]
    conventions = [SignConvention(-1, 1, e3, 1) for e3 in (-1, 1)]
    packaged = convention_search(claims, conventions=conventions)
    moved = convention_search(claims, conventions=conventions, root=root)
    assert packaged["all_pass_conventions"] == ["e1=-1,e2=+1,e3=-1,eg=+1"]
    assert moved["all_pass_conventions"] == ["e1=-1,e2=+1,e3=+1,eg=+1"]


def _stratum_text(name):
    return (resources.files("chowcheck").joinpath("data", "strata", name)
            .read_text())


@pytest.mark.parametrize("name, old, new, message", [
    ("gamma1.stratum", "t1", "e1",
     "Gamma1: [vars] name e1 is reserved for a sign symbol"),
    ("gamma2.stratum", "[defs]\n", "[defs]\neg: t1*t2\n",
     "Gamma2: [defs] name eg is reserved for a sign symbol"),
    ("gamma2.stratum", "eta(2): ETA", "e3(2): ETA",
     "Gamma2: [ring] name e3 is reserved for a sign symbol"),
], ids=["vars", "defs", "ring"])
def test_stratum_spec_rejects_a_sign_name(name, old, new, message):
    text = _stratum_text(name)
    assert old in text
    with pytest.raises(PipelineError) as err:
        StratumSpec(parse_document(text.replace(old, new)))
    assert str(err.value) == message


@pytest.mark.parametrize("name, old, new, message", [
    ("gamma2.stratum", "[defs]\n", "[defs]\nt1: t1 + t2\n",
     "Gamma2: [defs] name t1 is already declared in [vars]"),
    ("gamma1.stratum", "k2(2): e2", "t2(2): e2",
     "Gamma1: [ring] name t2 is already declared in [vars]"),
    ("gamma2.stratum", "eta(2): ETA", "U1(2): ETA",
     "Gamma2: [ring] name U1 is already declared in [defs]"),
], ids=["vars-defs", "vars-ring", "defs-ring"])
def test_stratum_spec_rejects_a_name_declared_twice_at_its_line(tmp_path, name, old, new,
                                                                message):
    # every text reads the later binding, so the repeat would shadow silently:
    # a def a variable in the stratum texts, a ring coordinate both in claims
    text = _stratum_text(name)
    assert text.count(old) == 1
    path = tmp_path / name
    path.write_text(text.replace(old, new))
    entry = new.strip().splitlines()[-1]
    line = next(i for i, written in enumerate(path.read_text().splitlines(), 1)
                if written.startswith(entry))
    with pytest.raises(ParseError) as err:
        StratumSpec.load(name, root=tmp_path)
    assert str(err.value) == f"{path}: {message} at line {line}"


@pytest.mark.parametrize("name, old, section, shape", [
    ("gamma2.stratum", "U1: t1 + t2", "defs", "name: form"),
    ("gamma1.stratum", "k1(1): e1*(t1 + t2)", "ring", "name(weight): form"),
    ("gamma1.stratum", "k2: e2*(t1^2 + t2^2)", "restrict", "tag: form"),
    ("gamma3p.stratum", "q: -g2*(k1^2 - 4*g2)", "pairs", "tag: form"),
], ids=["defs", "ring", "restrict", "pairs"])
def test_a_bare_entry_in_a_keyed_stratum_section_names_its_section_and_line(
        name, old, section, shape):
    text = _stratum_text(name)
    bare = old.split(": ", 1)[1]
    assert text.count(old) == 1
    lines = text.replace(old, bare).splitlines()
    with pytest.raises(ParseError) as err:
        StratumSpec(parse_document("\n".join(lines)))
    line = lines.index(bare) + 1
    assert str(err.value) == f"entries in [{section}] must look like `{shape}` at line {line}"


@pytest.mark.parametrize("name, old, read", [
    ("gamma2.stratum", "U1: t1 + t2", lambda s: s),
    ("gamma1.stratum", "k1(1): e1*(t1 + t2)", lambda s: s),
    ("gamma1.stratum", "transfer(1/2*(t1 + t2))", lambda s: s),
    ("gamma1.stratum", "k2: e2*(t1^2 + t2^2)", lambda s: s),
    ("gamma3p.stratum", "q: -g2*(k1^2 - 4*g2)", lambda s: s.pair_overrides),
], ids=["defs", "ring", "top", "restrict", "pairs"])
def test_a_parse_error_in_a_stratum_text_names_its_place_in_the_file(name, old, read):
    """A text is parsed from the line and column where it stands in its file,
    so the error points at the stray `)` there, not inside the text."""
    text = _stratum_text(name)
    assert text.count(old) == 1
    lines = text.replace(old, old + ")").splitlines()
    spec = StratumSpec(parse_document("\n".join(lines)))
    with pytest.raises(ParseError, match="unexpected trailing input") as err:
        read(Stratum(spec, SignConvention()))
    assert err.value.line == lines.index(old + ")") + 1 > 1
    assert lines[err.value.line - 1][err.value.col - 1:] == ")"


@pytest.mark.parametrize("old, new", [
    ("r -> -r", "r -> -r; zz -> zz"),
    ("r -> -r", "r -> -zz"),
], ids=["source", "image"])
def test_a_group_entry_naming_an_unknown_variable_is_an_invariant_error(tmp_path,
                                                                       old, new):
    root = _data_copy(tmp_path)
    gamma2 = root / "strata" / "gamma2.stratum"
    assert gamma2.read_text().count(old) == 1
    gamma2.write_text(gamma2.read_text().replace(old, new))
    message = f"{gamma2}: group generator: unknown variable 'zz'"
    with pytest.raises(InvariantError) as err:
        run_pipeline(root=root)
    assert str(err.value) == message
    path = tmp_path / "stage.claims"
    path.write_text("[kind]\nclaims\n\n[claim]\nid: on-stage\nkind: surjectivity\n"
                    "stage: Gamma2\ndmax: 4\n")
    (row,) = convention_search(load_claims(path=path), conventions=[SignConvention()],
                               root=root)["rows"]
    assert row["errors"] == [{"id": "on-stage", "error": message}]


def test_sweep_reports_a_pair_display_tag_without_restriction(tmp_path):
    error = _sweep_error(tmp_path, "kind: pair_display\nwhere: Gamma1\n"
                         "tag: zz\na_side: t1 + t2\n")
    assert error == f"{tmp_path / 'bad.claims'}: Gamma1 gives no restriction for zz at line 8"


def test_sweep_reports_an_image_for_a_name_that_is_not_a_source_variable(tmp_path):
    error = _sweep_error(tmp_path, "kind: map_kernel_equal\nvars: u(1)\n"
                         "tvars: t(1)\nimages: u -> t; w -> t\nrhs: 0\n")
    assert error == (f"{tmp_path / 'bad.claims'}: claim field 'images' names w, "
                     "not one of u at line 9")


# a claim body from line 6 on, after `id:` on line 5, and the error it gives
# after the claims path: at the field's line, and for a text, at the column
# of the bad token
_BAD_FIELDS = {
    "stray-paren": ("kind: identity\nwhere: Gamma1\nlhs: t1 + t2)\nrhs: t1\n",
                    "unexpected trailing input ')' at line 8, column 13"),
    "unknown-name": ("kind: identity\nwhere: Gamma1\nlhs: t1\nrhs: t1 + nosuchname\n",
                     "unknown identifier 'nosuchname' at line 9, column 11"),
    "list-item": ("kind: ideal_equal\nspace: ring:Gamma1\nrhs: k1;  k2 + zz\n",
                  "unknown identifier 'zz' at line 8, column 16"),
    "stratum-list-item": ("kind: zero_dim\nwhere: Gamma1\ngens: t1; t2^\ncount: 1\n",
                          "exponent must be a positive integer at line 8, column 14"),
    "image": ("kind: map_kernel_equal\nvars: u(1); w(1)\ntvars: t(1)\n"
              "images: u -> t; w -> t)\nrhs: 0\n",
              "unexpected trailing input ')' at line 9, column 23"),
    "stratum-image": ("kind: map_kernel_equal\nwhere: Gamma1\nvars: u(1)\n"
                      "images: u -> t1 +* t2\nrhs: 0\n",
                      "expected a polynomial, found '*' at line 9, column 18"),
    "kernel-rhs": ("kind: map_kernel_equal\nvars: u(1)\ntvars: t(1)\nimages: u -> t\n"
                   "rhs: u; t\n", "unknown identifier 't' at line 10, column 9"),
    "kind": ("kind: bogus\n", "unknown claim kind 'bogus' at line 6"),
    "space": ("kind: dimension\nspace: ring:Gamma9\ndegree: 1\nvalue: 1\n",
              "unknown space 'ring:Gamma9' at line 7"),
    "where-label": ("kind: identity\nwhere: Gamma9\nlhs: t1\nrhs: t1\n",
                    "no stage with label 'Gamma9' at line 7"),
    "stage-label": ("kind: lift_profile\nstage: Gamma9\nexact: 1\ncorrected: 0\n",
                    "no stage with label 'Gamma9' at line 7"),
    "tag": ("kind: pair_display\nwhere: Gamma1\ntag: zz\na_side: t1\n",
            "Gamma1 gives no restriction for zz at line 8"),
    "point": ("kind: evaluate\nwhere: Gamma1\nexpr: t1\npoint: t1=1; t2=x\nvalue: 1\n",
              "claim field 'point' must be a rational number, not 'x' at line 9"),
    "value": ("kind: evaluate\nwhere: Gamma1\nexpr: t1\npoint: t1=1; t2=0\nvalue: 1/0\n",
              "claim field 'value' must be a rational number, not '1/0' at line 10"),
    "vars-sign": ("kind: free_ring\nspace: ring:Gamma1\nvars: k1(1); e1(1)\n",
                  "claim field 'vars': e1 is reserved for a sign symbol at line 8"),
    "tvars-sign": ("kind: map_kernel_equal\nvars: u(1)\ntvars: eg(1)\nimages: u -> eg\n"
                   "rhs: 0\n", "claim field 'tvars': eg is reserved for a sign symbol at line 8"),
    "unread-field": ("kind: relation_row\nrow: k1\ncorected: 1\n",
                     "claim field 'corected' is not read by a relation_row claim at line 8"),
    "mode": ("kind: pair_display\nwhere: Gamma1\ntag: k1\na_side: e1*(t1 + t2)\n"
             "mode: bootom\n", "claim field 'mode' must be exact or bottom, not 'bootom' "
             "at line 10"),
    "assumption-stage": ("kind: assumption\nstage: Gamma9\nstatement: glued\n",
                         "no stage with label 'Gamma9' at line 7"),
    "dmax-above": ("kind: surjectivity\nstage: Gamma2\ndmax: 20\n",
                   "claim field 'dmax' must lie in 0..12, the degrees this run checks, "
                   "not 20 at line 8"),
    "dmax-negative": ("kind: surjectivity\nstage: Gamma2\ndmax: -1\n",
                      "claim field 'dmax' must lie in 0..12, the degrees this run checks, "
                      "not -1 at line 8"),
}


@pytest.mark.parametrize("body, message", _BAD_FIELDS.values(), ids=_BAD_FIELDS)
def test_a_bad_claim_field_names_the_claims_file_and_its_place(tmp_path, capsys, body,
                                                              message):
    path = tmp_path / "bad.claims"
    path.write_text("[kind]\nclaims\n\n[claim]\nid: bad-claim\n" + body)
    (claim,) = load_claims(path=path)
    store = chowpipeline.Artifacts(SignConvention(), *chowpipeline._load_inputs())
    with pytest.raises(ParseError) as err:
        chowpipeline.ClaimRunner(store).run(claim)
    assert str(err.value) == f"{path}: {message}"
    if claim.kind != "assumption":  # the sweep leaves assumptions out
        assert _sweep_error(tmp_path, body) == str(err.value)
    strata = resources.files("chowcheck").joinpath("data", "strata")
    assert main(["verify-paper", str(strata), str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_a_zero_dim_claim_on_a_positive_dimensional_ideal_fails_under_every_convention(
        tmp_path):
    # (t1) is not zero-dimensional over Gamma1, so `count:` is read, never compared
    path = tmp_path / "zero_dim.claims"
    path.write_text("[kind]\nclaims\n\n[claim]\nid: not-finite\nkind: zero_dim\n"
                    "where: Gamma1\ngens: t1\ncount: 1\nexpect: fail\n")
    (claim,) = load_claims(path=path)
    store = chowpipeline.Artifacts(SignConvention(), *chowpipeline._load_inputs())
    row = chowpipeline.ClaimRunner(store).run(claim)
    assert (row["status"], row["ok"]) == ("FAIL", True)
    assert row["detail"] == {"finite": False, "count": None}
    rows = convention_search([claim], conventions=[SignConvention(e1, -1, -1, 1)
                                                   for e1 in (-1, 1)])["rows"]
    assert [(r["failed"], r["errors"]) for r in rows] == [(["not-finite"], [])] * 2


def test_a_claim_field_counts_as_read_only_in_the_run_that_reads_it(monkeypatch):
    claim = _claim(extra="1")
    first = iter([True, False])

    def identity(self, claim):  # reads `extra:` in its first run only
        if next(first):
            claim.get("extra")
        return True, None

    monkeypatch.setattr(chowpipeline.ClaimRunner, "kind_identity", identity)
    runner = chowpipeline.ClaimRunner(
        chowpipeline.Artifacts(SignConvention(), *chowpipeline._load_inputs()))
    assert runner.run(claim)["status"] == "PASS"
    with pytest.raises(ParseError, match="claim field 'extra' is not read by a identity claim"):
        runner.run(claim)


def test_claims_that_share_a_bad_text_each_name_their_own_line(tmp_path):
    # a failed parse is not kept, so the second claim's parse fails again, at its own place
    claim = "[claim]\nid: {}\nkind: identity\nwhere: Gamma1\nlhs: t1 + )\nrhs: t1\n\n"
    path = tmp_path / "twice.claims"
    path.write_text("[kind]\nclaims\n\n" + claim.format("first") + claim.format("second"))
    rows = convention_search(load_claims(path=path),
                             conventions=[SignConvention(e1, -1, -1, 1) for e1 in (-1, 1)])["rows"]
    message = f"{path}: expected a polynomial, found ')' at line {{}}, column 11"
    for row in rows:
        assert row["errors"] == [{"id": "first", "error": message.format(8)},
                                 {"id": "second", "error": message.format(15)}]


def test_a_kernel_claim_rhs_reads_the_sign_symbols():
    # the kernel of u -> t, w -> -t is (u + w): the stated u - e1*w is it when e1 = -1
    claim = _claim(kind="map_kernel_equal", vars="u(1); w(1)", tvars="t(1)",
                   images="u -> t; w -> -t", rhs="u - e1*w")
    store = chowpipeline.Artifacts(SignConvention(), *chowpipeline._load_inputs())
    assert [chowpipeline.ClaimRunner(store.under(SignConvention(e1, -1, -1, 1)))
            .run(claim)["status"] for e1 in (-1, 1)] == ["PASS", "FAIL"]


def _sweep_groups():
    groups = {}
    for claim in load_claims():
        tag = claim.get("sweep", None)
        if tag:
            groups.setdefault(tag, []).append(claim)
    return groups


@pytest.mark.parametrize("tag", sorted(_sweep_groups()))
def test_shared_sweep_store_matches_one_store_per_convention(tag):
    """One store read under all 16 conventions gives the same rows as 16
    sweeps of one convention each, where nothing is shared."""
    group = _sweep_groups()[tag]
    shared = convention_search(group)["rows"]
    alone = [row for convention in SignConvention.all()
             for row in convention_search(group, conventions=[convention])["rows"]]
    assert shared == alone


def _count_calls(monkeypatch, name, key=lambda *args, **kwargs: None,
                 module=chowpipeline):
    calls = Counter()
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls[key(*args, **kwargs)] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweep_glues_each_stage_once_per_sign_restriction(monkeypatch):
    steps = _count_calls(monkeypatch, "induction_step",
                         key=lambda prev, stratum, **kw: stratum.label)
    convention_search(_sweep_groups()["incompatible-pair"])
    # stages are keyed by content: Gamma1's top class is -k1 or k1 (e1), and
    # Gamma2 glues onto those two rings with two restrictions of g2 (eg)
    assert steps == {"Gamma1": 2, "Gamma2": 4}


def test_verify_paper_glues_each_distinct_stage_once(monkeypatch):
    # the sweeps read the store the main run glued at the default convention;
    # each of its 14 strata presents its own ring from its own coordinates,
    # and the rank and the transport of a stage each build their alpha rows
    steps = _count_calls(monkeypatch, "induction_step",
                         key=lambda prev, stratum, **kw: stratum.label)
    presentations = _count_calls(monkeypatch, "invariant_presentation")
    coordinates = _count_calls(monkeypatch, "Subalgebra")
    builds = _count_calls(monkeypatch, "_build", module=groebner.ImageRows)
    verify_paper()
    assert steps == {"Gamma1": 2, "Gamma2": 4, "Gamma3p": 1, "Gamma3pp": 1}
    assert sum(presentations.values()) == sum(coordinates.values()) == 14
    assert sum(builds.values()) <= 53


def test_verify_paper_ranks_only_the_stages_it_certifies(monkeypatch):
    # the main run certifies its four stages; no sweep claim reads the
    # certificate of the four stages only the sweeps glue
    ranks = _count_calls(monkeypatch, "pair_image_rank", module=ringpres)
    verify_paper()
    assert sum(ranks.values()) == 4


def test_a_sweep_certifies_a_stage_only_it_glues_as_the_main_run_would():
    store = run_pipeline()
    convention = SignConvention(1, -1, -1, -1)
    claim = _claim(id="on-stage", kind="surjectivity", stage="Gamma2", dmax="12")
    (row,) = convention_search([claim], conventions=[convention], store=store)["rows"]
    assert row["passed"] == ["on-stage"]
    view = store.under(convention)
    swept = view.stage("Gamma2")
    assert swept is not store.stage("Gamma2")
    assert "surjectivity" not in view.stage("Gamma1")  # glued, never read
    alone = run_pipeline(convention).stage("Gamma2")
    assert swept["surjectivity"] == swept["info"]["surjectivity"] == alone["info"]["surjectivity"]
    assert swept["info"]["certified_through"] == alone["info"]["certified_through"] == 12


def test_verify_paper_builds_and_sweeps_one_action_per_stratum_file(monkeypatch):
    actions = _count_calls(monkeypatch, "GroupAction")
    # the strata supply their ring coordinates, which the Molien count
    # proves complete, so no generator sweep asks for invariants
    sweeps = _count_calls(monkeypatch, "invariant_basis", module=invariants,
                          key=lambda action, degree: (id(action), degree))
    verify_paper()
    assert sum(actions.values()) == len(chowpipeline.STRATUM_FILES) == 4
    assert not sweeps


def test_verify_paper_runs_its_sweeps_through_convention_search(monkeypatch):
    searches = _count_calls(monkeypatch, "convention_search",
                            key=lambda claims, **kw: kw["store"] is not None)
    verify_paper()
    assert searches == {True: 2}


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parse_key(text, table, env=None, functions=None, line=1, col=1):
    """What a parse result depends on: the text, the table, the action
    behind `functions` and the value of each name of the text `env` binds;
    not the place the text starts, which only an error message reads."""
    reads = tuple((name, env[name]) for name in _NAME.findall(text)
                  if env and name in env)
    return text, table, reads, functions and functions["transfer"].__self__


def test_verify_paper_parses_and_checks_each_distinct_form_once(monkeypatch):
    parses = _count_calls(monkeypatch, "parse_polynomial", key=_parse_key)
    checks = Counter()
    act = invariants.GroupAction.act

    def counted(action, element, form):
        if sys._getframe(1).f_code.co_name == "_require_invariant":
            checks[action, element, form] += 1
        return act(action, element, form)

    monkeypatch.setattr(invariants.GroupAction, "act", counted)
    verify_paper()
    # 894 parses and 364 checks of 59 forms before the memo
    assert max(parses.values()) == 1 and sum(parses.values()) <= 230
    assert max(checks.values()) == 1
    assert len({form for _, _, form in checks}) <= 59


def test_the_sweep_lists_no_membership_gaps(monkeypatch):
    """The sweep reads statuses only; the failing ideal_equal claims of the
    incompatible pair fail without listing their gaps."""
    group = [c for c in load_claims() if c.get("sweep", None) == "incompatible-pair"]
    assert {c.kind for c in group} == {"ideal_equal"}
    gaps = _count_calls(monkeypatch, "_membership_gaps")
    rows = convention_search(group)["rows"]
    assert all(row["failed"] for row in rows)
    assert sum(gaps.values()) == 0


def test_a_parse_is_shared_by_conventions_that_agree_on_the_names_it_reads():
    store = chowpipeline.Artifacts(SignConvention(),
                                   *chowpipeline._load_inputs())
    minus, plus = (chowpipeline.ClaimRunner(store.under(SignConvention(e1, -1, -1, 1)))
                   for e1 in (-1, 1))
    # Gamma1 reads e1, so the two runners read two strata of one spec
    assert minus.artifacts.stratum("Gamma1") is not plus.artifacts.stratum("Gamma1")
    claim = _claim(where="Gamma1", lhs="e1*t1", rhs="t1 + t2", expr="e1*k2", row="e2*k2")
    assert minus.parse(claim, "lhs") != plus.parse(claim, "lhs")
    assert minus.parse(claim, "rhs") is plus.parse(claim, "rhs")
    base = store.base
    assert minus.parse(claim, "expr", base.table) == -plus.parse(claim, "expr", base.table)
    assert minus.parse(claim, "row", base.table) is plus.parse(claim, "row", base.table)


def test_an_unparsable_ring_text_fails_every_convention_alike(tmp_path):
    root = _data_copy(tmp_path)
    gamma1 = root / "strata" / "gamma1.stratum"
    good = "k1(1): e1*(t1 + t2)"
    assert good in gamma1.read_text()
    gamma1.write_text(gamma1.read_text().replace(good, good[:-1]))
    path = tmp_path / "one.claims"
    path.write_text("[kind]\nclaims\n\n[claim]\nid: on-stratum\n"
                    "kind: identity\nwhere: Gamma1\nlhs: t1\nrhs: t1\n")
    rows = convention_search(load_claims(path=path), root=root)["rows"]
    errors = {error["error"] for row in rows for error in row["errors"]}
    assert len(rows) == 16 and all(len(row["errors"]) == 1 for row in rows)
    # the file and the place in it: line 17, the end of `k1(1): e1*(t1 + t2`
    assert errors == {f"{gamma1}: expected ')' at line 17, column 19"}


def test_a_form_invariant_under_one_sign_only_fails_under_the_other():
    spec = StratumSpec(parse_document("""
    [kind]
    stratum
    [label]
    Demo
    [vars]
    t1
    t2
    [group]
    t1 -> t2; t2 -> t1
    [ring]
    k1(1): t1 + e1*t2
    [top]
    t1 + t2
    [restrict]
    k1: t1 + t2
    [new]
    k1(1)
    """))
    Stratum(spec, SignConvention(1, -1, -1, 1))  # t1 + t2: invariant
    with pytest.raises(PipelineError) as err:
        Stratum(spec, SignConvention(-1, -1, -1, 1))  # t1 - t2 is not
    assert str(err.value) == ("Demo: ring coordinate k1 is not invariant "
                              "under (t1 -> t2, t2 -> t1)")


def test_a_stage_key_holds_the_top_class_in_ring_coordinates(monkeypatch):
    # Gamma1's ring, restrictions and pairs agree under e1 = +1 and -1;
    # only its top class, (t1 + t2) = e1*k1, tells the two stages apart
    steps = _count_calls(monkeypatch, "induction_step",
                         key=lambda prev, stratum, **kw: stratum.label)
    store = chowpipeline.Artifacts(SignConvention(),
                                   *chowpipeline._load_inputs())
    minus, plus, plus_e2 = (store.under(SignConvention(e1, e2, -1, 1)).stage("Gamma1")
                            for e1, e2 in ((-1, -1), (1, -1), (1, 1)))
    assert minus is not plus and plus is plus_e2
    assert (minus["info"]["top_chern"], plus["info"]["top_chern"]) == ("-k1", "k1")
    assert steps == {"Gamma1": 2}


def test_verify_paper_leaves_no_stratum_to_the_cycle_collector(monkeypatch):
    """No stage holds a stratum and no memo holds a stage, so every stratum
    of one verify_paper dies with its store by reference counting alone."""
    strata = []
    init = Stratum.__init__

    def tracked(self, *args, **kwargs):
        strata.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(Stratum, "__init__", tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        verify_paper()
        alive = sum(ref() is not None for ref in strata)
    finally:
        if enabled:
            gc.enable()
    assert strata and alive == 0


def test_verify_paper_leaves_no_chowcheck_function_to_the_cycle_collector():
    """A recursive closure sits in a cycle with its own cell; the walks of
    standard_monomials and pair_image_rank use none, so one verify_paper
    leaves the cycle collector no function defined in chowcheck."""
    verify_paper()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        verify_paper()
        gc.collect()
        functions = [o.__qualname__ for o in gc.garbage if isinstance(o, types.FunctionType)
                     and (o.__module__ or "").startswith("chowcheck")]
    finally:
        gc.set_debug(flags)
        del gc.garbage[:]
        if enabled:
            gc.enable()
    assert functions == []


def test_identity_sweep_builds_no_stratum_ring(monkeypatch):
    presentations = _count_calls(monkeypatch, "invariant_presentation")
    result = convention_search(_sweep_groups()["section-six-signs"])
    assert result["all_pass_conventions"] == ["e1=-1,e2=+1,e3=-1,eg=+1"]
    assert sum(presentations.values()) == 0


def test_claims_on_a_shared_stratum_read_their_own_signs(tmp_path):
    # Gamma1 reads only e1 and e2, so both conventions share one stratum
    path = tmp_path / "e3.claims"
    path.write_text("[kind]\nclaims\n\n[claim]\nid: e3-is-minus-one\n"
                    "kind: identity\nwhere: Gamma1\nlhs: e3*t1\nrhs: -t1\n")
    result = convention_search(
        load_claims(path=path),
        conventions=[SignConvention(-1, -1, e3, 1) for e3 in (1, -1)])
    assert [row["pass_count"] for row in result["rows"]] == [0, 1]


def test_a_failed_lazy_stratum_piece_is_built_once(tmp_path, monkeypatch):
    root = _data_copy(tmp_path)
    gamma3p = root / "strata" / "gamma3p.stratum"
    good = "q: -g2*(k1^2 - 4*g2)"
    bad = "-g2*(k1^2 - 4*g2"
    gamma3p.write_text(gamma3p.read_text().replace(good, "q: " + bad))
    parses = _count_calls(monkeypatch, "parse_polynomial",
                          key=lambda text, *args, **kwargs: text == bad)
    path = tmp_path / "stages.claims"
    path.write_text("[kind]\nclaims\n\n"
                    "[claim]\nid: on-stratum\nkind: identity\nwhere: Gamma3p\n"
                    "lhs: g3p\nrhs: TOP\n\n"
                    "[claim]\nid: on-stage\nkind: surjectivity\nstage: Gamma3p\n"
                    "dmax: 4\n\n"
                    "[claim]\nid: on-result\nkind: dimension\n"
                    "space: result:Gamma3p\ndegree: 1\nvalue: 1\n\n"
                    "[claim]\nid: on-next-stage\nkind: lift_profile\n"
                    "stage: Gamma3pp\nexact: 2\ncorrected: 1\n")
    result = convention_search(load_claims(path=path),
                               conventions=[SignConvention()], root=root)
    (row,) = result["rows"]
    assert row["passed"] == ["on-stratum"] and row["failed"] == []
    assert [e["id"] for e in row["errors"]] == ["on-stage", "on-result",
                                                "on-next-stage"]
    assert len({e["error"] for e in row["errors"]}) == 1
    assert parses[True] == 1

    stratum = Stratum(StratumSpec.load("gamma3p.stratum", root=root),
                      SignConvention())
    with pytest.raises(ParseError) as first:
        stratum.pair_overrides
    with pytest.raises(ParseError) as again:
        stratum.pair_overrides
    assert again.value is first.value
    assert parses[True] == 2


def test_a_stratum_reads_its_ring_and_coordinates_off_one_basis(monkeypatch):
    from chowcheck import groebner
    from chowcheck.invariants import GroupAction, invariant_presentation
    runs = []
    real = groebner.buchberger

    def counting(gens, order=groebner.GREVLEX):
        runs.append(order.tag)
        return real(gens, order)

    monkeypatch.setattr(groebner, "buchberger", counting)
    spec = StratumSpec.load("gamma2.stratum")
    alone, stratum = (Stratum(spec, SignConvention()) for _ in range(2))
    del runs[:]
    # the baseline presents the same forms through a Subalgebra of its own
    invariant_presentation(GroupAction(spec.table, spec.group_specs), groebner.Subalgebra(
        spec.table, list(zip(alone.ring_names, alone.ring_forms))))
    presentation_runs = len(runs)
    del runs[:]
    stratum.ring
    stratum.coordinates_of(stratum.top_form)
    # the coordinate Subalgebra is the one the presentation reduced
    assert presentation_runs > 0
    assert len(runs) == presentation_runs


def test_a_dropped_lift_fails_the_hilbert_series_stage_check(monkeypatch):
    # Gamma3p transports the one Gamma2 relation J1 (degree 8); without its
    # lift the glued ring is too big from degree 8 on, which the gluing
    # recurrence HS(result) = HS(prev) + t^c HS(stratum ring) catches
    transport = chowpipeline.apply_quotient

    def drop_last(fiber, alpha, beta, extras):
        return transport(fiber, alpha, beta, list(extras)[:-1])

    monkeypatch.setattr(chowpipeline, "apply_quotient", drop_last)
    with pytest.raises(PipelineError, match=r"glued ring of Gamma3p has dimension 27 "
                                            r"in degree 8, but the stratification "
                                            r"gives 21 \+ 5"):
        run_pipeline()


def test_the_gamma3pp_fiber_and_kernel_space_reuse_the_bases_their_gluing_made(monkeypatch):
    # the fiber is presented by the intersection it came from, and the claim
    # space keralpha:Gamma3pp by the kernel: each already holds its reduced
    # basis under the presentation's order, so no Buchberger run makes it
    runs = _count_calls(monkeypatch, "buchberger", module=groebner,
                        key=lambda gens, order=groebner.GREVLEX, known=None:
                        (tuple(gens), order.tag))
    store = chowpipeline.Artifacts(SignConvention(), *chowpipeline._load_inputs())
    fiber = store.stage("Gamma3pp")["fiber"]
    glued = sum(runs.values())
    fiber.series
    space = chowpipeline.ClaimRunner(store).space(_claim(space="keralpha:Gamma3pp"))
    assert len(space.relations.groebner(space.order)) == len(space.relations.gens)
    assert sum(runs.values()) == glued
    for pres in (fiber, space):
        assert (pres.relations.gens, pres.order.tag) not in runs


def test_the_gamma3pp_glued_ring_extends_the_basis_of_its_fiber(artifacts, monkeypatch):
    # the glued ring is the fiber and three lifts: the fiber's basis goes in
    # as finished elements, and no S-pair of two of them is formed; a run
    # from scratch over all 41 generators builds 159 S-polynomials
    stage, prev = artifacts.stage("Gamma3pp"), artifacts.stage("Gamma3p")["result"]
    fiber = stage["fiber"]
    known = len(fiber.relations.groebner(fiber.order))
    glued, _ = ringpres.apply_quotient(fiber, stage["alpha"], stage["beta"],
                                       prev.relations.gens)
    pairs, spoly = [], groebner._spoly

    def counted(f, g, *args):
        pairs.append((f[3], g[3]))
        return spoly(f, g, *args)

    monkeypatch.setattr(groebner, "_spoly", counted)
    basis = list(glued.relations.groebner(glued.order))
    monkeypatch.undo()
    assert len(pairs) <= 20
    assert not any(i < known and j < known for i, j in pairs)
    assert basis == list(groebner.buchberger(glued.relations.gens, glued.order))
    assert basis == list(stage["result"].relations.groebner(glued.order))


def _reverse_entries(section):
    """A stratum-file rewrite: the entries of `[section]` in reverse order,
    each comment kept at its line."""
    def rewrite(text):
        lines, inside, entries = text.split("\n"), False, []
        for i, line in enumerate(lines):
            if line.startswith("["):
                inside = line == f"[{section}]"
            elif inside and line.strip() and not line.startswith("#"):
                entries.append(i)
        for i, line in zip(entries, [lines[i] for i in reversed(entries)]):
            lines[i] = line
        return "\n".join(lines)
    return rewrite


def _pairs_last(text):
    # every shipped [pairs] section has one entry, so the section moves instead
    start = text.find("[pairs]\n")
    end = text.find("\n[", start)
    if start < 0 or end < 0:  # no [pairs] section, or it is the last already
        return text
    return text[:start] + text[end + 1:] + "\n" + text[start:end] + "\n"


def _cover_names_apart(text):
    """Gamma3pp's cover variables v1..v4 as _z0.._z3, the names `Subalgebra`
    gives the variables it renames apart: in its stratum file and in the
    claims over it."""
    def rename(part):
        return re.sub(r"\bv([1-4])\b", lambda m: f"_z{int(m[1]) - 1}", part)
    if "[label]\nGamma3pp\n" in text:
        return rename(text)
    return "".join(rename(claim) if "where: Gamma3pp\n" in claim else claim
                   for claim in re.split(r"(?m)^(?=\[claim\]$)", text))


# one rewrite of each kind that keeps the mathematics of every data file:
# Gamma3p's S3 from (w1 w2) and (w2 w3) in place of (w1 w2) and (w1 w2 w3)
_REWRITES = {
    "vars": _reverse_entries("vars"),
    "ring": _reverse_entries("ring"),
    "restrict": _reverse_entries("restrict"),
    "pairs": _pairs_last,
    "group": lambda text: text.replace("w1 -> w2; w2 -> w3; w3 -> w1",
                                       "w1 -> w1; w2 -> w3; w3 -> w2"),
    "names": _cover_names_apart,
}


@pytest.mark.parametrize("kind", _REWRITES)
def test_a_stratum_file_written_another_way_keeps_every_verdict(tmp_path, claim_rows, kind):
    root = _data_copy(tmp_path)
    changed = []
    for path in sorted((root / "strata").glob("*.stratum")) + [root / CLAIMS_FILE]:
        text = path.read_text()
        path.write_text(_REWRITES[kind](text))
        if path.read_text() != text:
            changed.append(path.name)
    assert changed and changed != [CLAIMS_FILE]
    runner = chowpipeline.ClaimRunner(run_pipeline(root=root / "strata"))
    verdicts = {claim.id: runner.run(claim) for claim in load_claims(path=root / CLAIMS_FILE)}
    assert ({i: (row["status"], row["ok"]) for i, row in verdicts.items()}
            == {i: (row["status"], row["ok"]) for i, row in claim_rows.items()})
