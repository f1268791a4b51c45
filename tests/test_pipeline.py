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

from chowcheck import chowpipeline, invariants
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
from chowcheck.exprparser import ParseError, parse_document, parse_polynomial

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
                              "error": "unknown claim kind 'bogus'"}]


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
    assert error == "claim field 'point' gives no value for t2"


def test_sweep_reports_an_evaluation_point_item_without_equals(tmp_path):
    error = _sweep_error(tmp_path, "kind: evaluate\nwhere: Gamma1\n"
                         "expr: t1 + t2\npoint: t1=1; t2\nvalue: 1\n")
    assert error == "claim field 'point': item 't2' has no '='"


def test_sweep_reports_a_kernel_image_without_arrow(tmp_path):
    error = _sweep_error(tmp_path, "kind: map_kernel_equal\nvars: u(1)\n"
                         "tvars: t(1)\nimages: u = t\nrhs: 0\n")
    assert error == "claim field 'images': item 'u = t' has no '->'"


def test_sweep_reports_a_missing_claim_field(tmp_path):
    error = _sweep_error(tmp_path, "kind: evaluate\nwhere: Gamma1\n"
                         "expr: t1 + t2\nvalue: 1\n")
    assert error == "claim is missing the 'point' field"


def test_sweep_reports_a_non_integer_count(tmp_path):
    error = _sweep_error(tmp_path, "kind: zero_dim\nwhere: Gamma1\n"
                         "gens: t1; t2\ncount: x\n")
    assert error == "claim field 'count' must be an integer, not 'x'"


def test_sweep_reports_a_non_integer_degree(tmp_path):
    error = _sweep_error(tmp_path, "kind: dimension\nspace: ring:Gamma1\n"
                         "degree: two\nvalue: 1\n")
    assert error == "claim field 'degree' must be an integer, not 'two'"


def test_sweep_reports_a_source_variable_without_image(tmp_path):
    error = _sweep_error(tmp_path, "kind: map_kernel_equal\nvars: u(1); w(1)\n"
                         "tvars: t(1)\nimages: u -> t\nrhs: 0\n")
    assert error == "claim field 'images' gives no image for w"


def test_sweep_reports_an_unknown_stage(tmp_path):
    error = _sweep_error(tmp_path, "kind: surjectivity\nstage: Gamma9\n"
                         "dmax: 4\n")
    assert error == "no stage with label 'Gamma9'"


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


def test_sweep_reports_a_pair_display_tag_without_restriction(tmp_path):
    error = _sweep_error(tmp_path, "kind: pair_display\nwhere: Gamma1\n"
                         "tag: zz\na_side: t1 + t2\n")
    assert error == "Gamma1 gives no restriction for zz"


def test_sweep_reports_an_image_for_a_name_that_is_not_a_source_variable(tmp_path):
    error = _sweep_error(tmp_path, "kind: map_kernel_equal\nvars: u(1)\n"
                         "tvars: t(1)\nimages: u -> t; w -> t\nrhs: 0\n")
    assert error == ("claim field 'images' gives an image for w, "
                     "which is not a source variable")


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
    # the sweeps read the store the main run glued at the default convention
    steps = _count_calls(monkeypatch, "induction_step",
                         key=lambda prev, stratum, **kw: stratum.label)
    verify_paper()
    assert steps == {"Gamma1": 2, "Gamma2": 4, "Gamma3p": 1, "Gamma3pp": 1}


def test_verify_paper_builds_and_sweeps_one_action_per_stratum_file(monkeypatch):
    actions = _count_calls(monkeypatch, "GroupAction")
    # the generator sweep asks for the degree-1 invariants once per run
    sweeps = _count_calls(monkeypatch, "invariant_basis", module=invariants,
                          key=lambda action, degree: (id(action), degree))
    verify_paper()
    assert sum(actions.values()) == len(chowpipeline.STRATUM_FILES) == 4
    assert [n for (_, degree), n in sweeps.items() if degree == 1] == [1] * 4


_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _parse_key(text, table, env=None, functions=None):
    """What a parse result depends on: the text, the table, the action
    behind `functions` and the value of each name of the text `env` binds."""
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


def test_a_parse_is_shared_by_conventions_that_agree_on_the_names_it_reads():
    store = chowpipeline.Artifacts(SignConvention(),
                                   *chowpipeline._load_inputs())
    minus, plus = (chowpipeline.ClaimRunner(store.under(SignConvention(e1, -1, -1, 1)))
                   for e1 in (-1, 1))
    # Gamma1 reads e1, so the two runners read two strata of one spec
    assert minus.artifacts.stratum("Gamma1") is not plus.artifacts.stratum("Gamma1")
    assert minus.psi("Gamma1", "e1*t1") != plus.psi("Gamma1", "e1*t1")
    assert minus.psi("Gamma1", "t1 + t2") is plus.psi("Gamma1", "t1 + t2")
    base = store.base
    assert minus.parse_in(base, "e1*k2") == -plus.parse_in(base, "e1*k2")
    assert minus.parse_in(base, "e2*k2") is plus.parse_in(base, "e2*k2")


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
    assert errors == {"expected ')' at line 1, column 12"}


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
    # a fresh action: the strata of one spec share theirs, and the baseline
    # must not find its generator sweep already kept on it
    invariant_presentation(GroupAction(spec.table, spec.group_specs),
                           names=alone.ring_names, generators=alone.ring_forms)
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
