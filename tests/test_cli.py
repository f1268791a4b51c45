"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from chowcheck.cli import main

DATA = Path(__file__).resolve().parents[1] / "src" / "chowcheck" / "data"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def sym2(tmp_path):
    return write(tmp_path, "sym2.ideal", """\
[kind]
ideal

[vars]
t1
t2

[relations]
t1 + t2
t1*t2
""")


@pytest.fixture
def swap_action(tmp_path):
    return write(tmp_path, "swap.action", """\
[kind]
action

[vars]
t1
t2

[group]
t1 -> t2; t2 -> t1
""")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gb_lex(sym2, capsys):
    code, out, err = run(capsys, ["gb", sym2, "--order", "lex"])
    assert code == 0
    assert out == "{t1 + t2, t2^2}\n"
    assert err == ""


def test_gb_out_flag_writes_file(sym2, capsys, tmp_path):
    target = tmp_path / "basis.txt"
    code, out, _ = run(capsys, ["gb", sym2, "--order", "lex", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == "{t1 + t2, t2^2}\n"


def test_nf_and_member(sym2, capsys):
    code, out, _ = run(capsys, ["nf", sym2, "--element", "t1^2 + t2^2"])
    assert code == 0
    assert out == "0\n"
    code, out, _ = run(capsys, ["member", sym2, "--element", "t1^2 + t2^2"])
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, ["member", sym2, "--element", "t1"])
    assert (code, out) == (0, "false\n")


@pytest.fixture
def huge(tmp_path):
    return write(tmp_path, "huge.ideal", """\
[kind]
ideal

[vars]
x
y

[relations]
x^4294967296 - y
""")


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_exponents_past_any_field_width_keep_their_answers(huge, capsys, order):
    # 2^32 does not fit a 32-bit packed field: the width is picked from
    # every exponent and row value of the input, not from packed sums
    code, out, err = run(capsys, ["gb", huge, "--order", order])
    assert (code, out, err) == (0, "{x^4294967296 - y}\n", "")
    code, out, err = run(capsys, ["nf", huge, "--order", order,
                                  "--element", "x^4294967297 + x^2147483648*y"])
    assert (code, out, err) == (0, "x^2147483648*y + x*y\n", "")


def test_elim_twisted_cubic(tmp_path, capsys):
    doc = write(tmp_path, "cubic.ideal", """\
[kind]
ideal

[vars]
t
x
y

[relations]
x - t^2
y - t^3
""")
    code, out, _ = run(capsys, ["elim", doc, "--drop", "t"])
    assert code == 0
    assert out == "{x^3 - y^2}\n"


def test_kernel(tmp_path, capsys):
    doc = write(tmp_path, "power.morph", """\
[kind]
morphism

[source]
a
b(2)

[target]
x

[images]
a: x
b: x^2
""")
    code, out, _ = run(capsys, ["kernel", doc])
    assert code == 0
    assert out == "{a^2 - b}\n"


def test_colon_and_nzd(tmp_path, capsys):
    axes = write(tmp_path, "axes.ideal", """\
[kind]
ideal

[vars]
x
y

[relations]
x*y
""")
    code, out, _ = run(capsys, ["colon", axes, "--element", "x"])
    assert (code, out) == (0, "{y}\n")
    code, out, _ = run(capsys, ["nzd", axes, "--element", "x"])
    assert code == 0
    assert out == "false\nwitness: y\n"

    circle = write(tmp_path, "circle.ideal", """\
[kind]
ideal

[vars]
x
y

[relations]
x^2 + y^2
""")
    code, out, _ = run(capsys, ["nzd", circle, "--element", "x"])
    assert (code, out) == (0, "true\n")


def test_intersect(tmp_path, capsys):
    x_axis = write(tmp_path, "a.ideal",
                   "[kind]\nideal\n\n[vars]\nx\ny\n\n[relations]\nx\n")
    y_axis = write(tmp_path, "b.ideal",
                   "[kind]\nideal\n\n[vars]\nx\ny\n\n[relations]\ny\n")
    code, out, _ = run(capsys, ["intersect", x_axis, y_axis])
    assert (code, out) == (0, "{x*y}\n")


def test_subalg(tmp_path, capsys):
    doc = write(tmp_path, "sym.morph", """\
[kind]
morphism

[source]
k1
k2(2)

[target]
t1
t2

[images]
k1: t1 + t2
k2: t1*t2
""")
    code, out, _ = run(capsys, ["subalg", doc, "--element", "t1^2 + t2^2"])
    assert code == 0
    assert out == "true\nexpression: k1^2 - 2*k2\n"
    code, out, _ = run(capsys, ["subalg", doc, "--element", "t1"])
    assert (code, out) == (0, "false\n")


def test_kernel_and_subalg_accept_names_shared_by_source_and_target(tmp_path, capsys):
    # the source tag x is the image x + y, not the target variable x
    doc = write(tmp_path, "shared.morph", """\
[kind]
morphism

[source]
x
s(2)

[target]
x
y

[images]
x: x + y
s: x*y
""")
    code, out, _ = run(capsys, ["subalg", doc, "--element", "x^2 + y^2"])
    assert (code, out) == (0, "true\nexpression: x^2 - 2*s\n")
    code, out, _ = run(capsys, ["kernel", doc])
    assert (code, out) == (0, "{}\n")


def test_subalg_rejects_relations(tmp_path, capsys):
    doc = write(tmp_path, "quot.morph", """\
[kind]
morphism

[source]
k1

[target]
t1

[images]
k1: t1

[relations]
t1^2
""")
    code, _, err = run(capsys, ["subalg", doc, "--element", "t1"])
    assert code == 2
    assert "free ambient ring" in err


def test_reynolds(swap_action, capsys):
    code, out, _ = run(capsys, ["reynolds", swap_action, "--element", "t1"])
    assert (code, out) == (0, "1/2*t1 + 1/2*t2\n")


def test_invgen(swap_action, capsys):
    code, out, _ = run(capsys, ["invgen", swap_action])
    assert code == 0
    assert out == "t1 + t2\nt1^2 + t2^2\n"


def test_invpres_on_packaged_stratum(capsys):
    stratum = str(DATA / "strata" / "gamma2.stratum")
    code, out, _ = run(capsys, ["invpres", stratum])
    assert code == 0
    assert "z1^2*z4 + z3^2 - 2*z2*z4" in out
    assert "[kind]" in out and "presentation" in out


def test_invpres_with_z_named_variables(tmp_path, capsys):
    action = write(tmp_path, "zswap.action", """\
[kind]
action

[vars]
z0
z1

[group]
z0 -> z1; z1 -> z0
""")
    code, out, err = run(capsys, ["invpres", action])
    assert (code, err) == (0, "")
    assert out == ("[kind]\npresentation\n[vars]\nz2(1)\nz3(2)\n")
    code, out, err = run(capsys, ["invpres", action, "--names", "z0,z1"])
    assert (code, err) == (0, "")
    assert "z0(1)\nz1(2)" in out


def test_invpres_names_renames_the_basis_it_already_reduced(tmp_path, capsys, monkeypatch):
    from chowcheck import groebner
    action = write(tmp_path, "s3.action", "[kind]\naction\n[vars]\nx\ny\nz\n"
                   "[group]\nx -> y; y -> x; z -> z\nx -> y; y -> z; z -> x\n")
    runs = []
    real = groebner.buchberger
    monkeypatch.setattr(groebner, "buchberger",
                        lambda *args, **kwargs: runs.append(1) or real(*args, **kwargs))
    named = run(capsys, ["invpres", action, "--names", "p1,p2,p3"])
    named_runs, runs[:] = len(runs), []
    default = run(capsys, ["invpres", action])
    assert named_runs == len(runs) > 0
    assert named == (0, default[1].replace("z", "p"), "")


@pytest.mark.parametrize("stratum", sorted(p.name for p in (DATA / "strata").glob("*.stratum")))
def test_invpres_names_print_the_default_presentation_renamed(stratum, capsys):
    path = str(DATA / "strata" / stratum)
    code, default, _ = run(capsys, ["invpres", path])
    tags = re.findall(r"^(\w+)\(", default, re.M)
    assert code == 0 and tags == [f"z{i}" for i in range(1, len(tags) + 1)]
    names = ",".join(f"p{i}" for i in range(1, len(tags) + 1))
    assert run(capsys, ["invpres", path, "--names", names]) == (
        0, re.sub(r"\bz(\d+)\b", r"p\1", default), "")
    code, out, err = run(capsys, ["invpres", path, "--names", "p1"])
    assert (code, out, err) == (2, "", "error: one name per generator is required\n")


def test_invpres_rejects_a_name_its_output_could_not_parse_back(swap_action, capsys):
    # the table takes the parser's identifiers only, so printed output reads back
    assert run(capsys, ["invpres", swap_action, "--names", "a,b²"]) == (
        2, "", "error: bad variable name 'b²'\n")


@pytest.mark.parametrize("vars_, group, gens, pres", [
    ("y(3)", "y -> -y", "y^2\n", "z1(6)\n"),
    ("x(1)\ny(2)", "x -> -x; y -> -y", "x^2\nx*y\ny^2\n",
     "z1(2)\nz2(3)\nz3(4)\n[relations]\nz2^2 - z1*z3\n"),
], ids=["y3", "x1-y2"])
def test_invgen_and_invpres_on_weighted_variables(tmp_path, capsys, vars_, group,
                                                  gens, pres):
    action = write(tmp_path, "weighted.action",
                   f"[kind]\naction\n\n[vars]\n{vars_}\n\n[group]\n{group}\n")
    assert run(capsys, ["invgen", action]) == (0, gens, "")
    assert run(capsys, ["invpres", action]) == (
        0, "[kind]\npresentation\n[vars]\n" + pres, "")


def test_fiber(tmp_path, capsys):
    alpha = write(tmp_path, "alpha.morph", """\
[kind]
morphism

[source]
x

[target]
x

[images]
x: x

[relations]
x^2
""")
    beta = write(tmp_path, "beta.morph", """\
[kind]
morphism

[source]
x

[target]
x

[images]
x: x

[relations]
x^3
""")
    code, out, _ = run(capsys, ["fiber", alpha, beta])
    assert code == 0
    assert "x^3" in out


def test_dims(tmp_path, capsys):
    doc = write(tmp_path, "line.pres", """\
[kind]
presentation

[vars]
k1
k2(2)

[relations]
k1^2
""")
    code, out, _ = run(capsys, ["dims", doc, "--dmax", "4"])
    assert code == 0
    assert out == "0: 1\n1: 1\n2: 1\n3: 1\n4: 1\n"


def test_dims_with_a_high_pure_power(tmp_path, capsys):
    doc = write(tmp_path, "power.pres", """\
[kind]
presentation

[vars]
x
y

[relations]
x^1000
x*y
""")
    code, out, _ = run(capsys, ["dims", doc, "--dmax", "1001"])
    assert code == 0
    assert out.splitlines()[998:] == ["998: 2", "999: 2", "1000: 1", "1001: 1"]


@pytest.mark.parametrize("command", ["dims", "verify-paper"])
def test_negative_dmax_exits_2(tmp_path, capsys, command):
    argv = [command, "--dmax", "-1"]
    if command == "dims":
        argv.insert(1, write(tmp_path, "free.pres", "[kind]\npresentation\n[vars]\nk1\n"))
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "error: --dmax must be a nonnegative integer, got -1" in err


@pytest.mark.parametrize("argv", [
    ["gb", "/nonexistent/path.ideal"],
    ["gb"],  # missing required positional
    ["nf"],  # missing --element
    ["bogus-subcommand"],
    [],
])
def test_argparse_and_io_failures_exit_2(argv, capsys):
    code = main(argv)
    capsys.readouterr()
    assert code == 2


def test_wrong_kind_exits_2(sym2, swap_action, capsys):
    code, _, err = run(capsys, ["kernel", sym2])
    assert code == 2
    assert "error:" in err
    assert "expected a morphism document, got 'ideal'" in err
    # the article follows the first kind named
    code, _, err = run(capsys, ["dims", swap_action])
    assert code == 2
    assert "expected an ideal or presentation document, got 'action'" in err
    code, _, err = run(capsys, ["invgen", sym2])
    assert code == 2
    assert "expected an action or stratum document, got 'ideal'" in err


def test_unknown_drop_variable_exits_2(sym2, capsys):
    code, _, err = run(capsys, ["elim", sym2, "--drop", "zz"])
    assert code == 2
    assert "zz" in err


def test_unknown_weight_name_exits_2_naming_its_line(tmp_path, capsys):
    path = write(tmp_path, "weighted.ideal", "[kind]\nideal\n[vars]\nx\n"
                 "[weights]\nz: 2\n[relations]\nx^2\n")
    code, out, err = run(capsys, ["gb", path])
    assert (code, out, err) == (2, "", f"error: {path}: unknown variable 'z' at line 6\n")


@pytest.mark.parametrize("weight", ["3/2", "0", "-2"])
def test_a_name_colon_weight_must_be_a_positive_integer(tmp_path, capsys, weight):
    path = write(tmp_path, "weighted.pres", "[kind]\npresentation\n[vars]\n"
                 f"y\nx: {weight}\n[relations]\nx^2\n")
    code, out, err = run(capsys, ["dims", path])
    assert (code, out, err) == (
        2, "", f"error: {path}: weight of x must be a positive integer at line 5\n")


def test_bad_relation_reports_the_column_of_its_line(tmp_path, capsys):
    path = write(tmp_path, "cut.ideal", "[kind]\nideal\n[vars]\nx\n"
                 "[relations]\n   x^2 +\n")
    code, out, err = run(capsys, ["gb", path])
    assert (code, out) == (2, "")
    assert "at line 6, column 9" in err  # the end of the line, not of the value


def test_bad_image_reports_the_column_of_its_line(tmp_path, capsys):
    path = write(tmp_path, "cut.morph", "[kind]\nmorphism\n[source]\nk1\n"
                 "[target]\nt1\n\n[images]\nk1:    t1 +\n")
    code, out, err = run(capsys, ["kernel", path])
    assert (code, out) == (2, "")
    assert "at line 9, column 12" in err


def test_bad_element_expression_exits_2(sym2, capsys):
    code, _, err = run(capsys, ["nf", sym2, "--element", "t1 +"])
    assert code == 2
    assert "error:" in err


def test_bad_order_choice_exits_2(sym2, capsys):
    code = main(["gb", sym2, "--order", "fancy"])
    capsys.readouterr()
    assert code == 2


def test_verify_paper_below_the_claimed_degrees_is_an_input_error(capsys):
    # the shipped surjectivity claims read dmax 12, which a --dmax 8 run never checks
    code, out, err = run(capsys, ["verify-paper", "--dmax", "8"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.endswith(
        "paper.claims: claim field 'dmax' must lie in 0..8, the degrees this run checks, "
        "not 12 at line 317\n")


def test_bad_convention_exits_2(capsys):
    code, _, err = run(capsys, ["verify-paper", "--convention", "sideways"])
    assert code == 2
    assert "error:" in err


def test_verify_paper_reduced_run(tmp_path, capsys):
    strata = tmp_path / "strata"
    shutil.copytree(DATA / "strata", strata)
    claims = write(tmp_path, "small.claims", """\
[kind]
claims

[claim]
id: one-node-ring-free
kind: free_ring
space: result:Gamma1
vars: k1(1); k2(2)

[claim]
id: one-node-chern-nzd
kind: nzd
where: Gamma1
expr: k1

[claim]
id: one-node-assumption
kind: assumption
stage: Gamma1
statement: the glued ring is the fiber product of the two restriction maps
expect: assumed
""")
    out_file = tmp_path / "report.json"
    code, out, _ = run(capsys, [
        "verify-paper", str(strata), claims,
        "--convention=-1,-1,-1", "--dmax", "8",
        "--format", "machine", "--out", str(out_file),
    ])
    assert code == 0
    assert out == ""
    report = json.loads(out_file.read_text(encoding="utf-8"))
    assert report["status"] == "OK"
    assert report["all_as_expected"] is True
    assert [row["status"] for row in report["claims"]] == [
        "PASS", "PASS", "ASSUMED"]
    assert "timing" not in report


@pytest.mark.parametrize("second, message", [
    ("id: b\nkind: free_ring\nexpect: fial\n",
     "claim b: expect must be pass, fail or assumed, not 'fial' at line 9"),
    ("id: a\nkind: free_ring\n", "claim a is stated more than once at line 7"),
    ("kind: free_ring\n", "claim is missing the 'id' field at line 6"),
    ("id: b\nkind: free_ring\nnote: x\nnote: y\n",
     "[claim] gives note more than once at line 10"),
], ids=["misspelled-expect", "repeated-id", "missing-id", "repeated-field"])
def test_verify_paper_exits_2_on_a_bad_claims_file(tmp_path, capsys, second, message):
    claims = write(tmp_path, "bad.claims", "[kind]\nclaims\n[claim]\nid: a\n"
                   "kind: free_ring\n[claim]\n" + second)
    code, out, err = run(capsys, ["verify-paper", str(DATA / "strata"), claims])
    assert (code, out, err) == (2, "", f"error: {claims}: {message}\n")


def test_verify_paper_exits_2_on_a_bare_ring_entry_naming_its_line(tmp_path, capsys):
    strata = tmp_path / "strata"
    shutil.copytree(DATA / "strata", strata)
    gamma1 = strata / "gamma1.stratum"
    lines = gamma1.read_text().splitlines()
    line = lines.index("k1(1): e1*(t1 + t2)") + 1
    lines[line - 1] = "e1*(t1 + t2)"
    gamma1.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, ["verify-paper", str(strata)])
    assert (code, out) == (2, "")
    assert err == (f"error: {gamma1}: entries in [ring] must look like "
                   f"`name(weight): form` at line {line}\n")


def test_verify_paper_exits_2_on_a_restriction_given_twice_naming_its_line(tmp_path,
                                                                           capsys):
    strata = tmp_path / "strata"
    shutil.copytree(DATA / "strata", strata)
    gamma2 = strata / "gamma2.stratum"
    lines = gamma2.read_text().splitlines()
    line = lines.index("k1: e1*U1") + 2
    lines.insert(line - 1, "k1: 0")
    gamma2.write_text("\n".join(lines) + "\n")
    assert run(capsys, ["verify-paper", str(strata)]) == (
        2, "", f"error: {gamma2}: [restrict] gives k1 more than once at line {line}\n")


def test_verify_paper_exits_2_on_a_ring_name_given_twice_in_two_spellings(tmp_path,
                                                                          capsys):
    strata = tmp_path / "strata"
    shutil.copytree(DATA / "strata", strata)
    gamma2 = strata / "gamma2.stratum"
    lines = gamma2.read_text().splitlines()
    line = lines.index("k1(1): e1*U1") + 2
    lines.insert(line - 1, "k1: e1*U1")  # the same name, its weight left implicit
    gamma2.write_text("\n".join(lines) + "\n")
    assert run(capsys, ["verify-paper", str(strata)]) == (
        2, "", f"error: {gamma2}: [ring] gives k1 more than once at line {line}\n")


def test_verify_paper_exits_2_on_an_evaluation_point_naming_a_variable_twice(tmp_path,
                                                                            capsys):
    text = (DATA / "paper.claims").read_text()
    old = "point: v1=1; v2=0; v3=0; v4=1\n"
    assert text.count(old) == 1
    line = text[:text.index(old)].count("\n") + 1
    claims = write(tmp_path, "bad.claims",
                   text.replace(old, "point: v1=5; v1=1; v2=0; v3=0; v4=1; v9=7\n"))
    assert run(capsys, ["verify-paper", str(DATA / "strata"), claims]) == (
        2, "", f"error: {claims}: claim field 'point' gives v1 more than once "
               f"at line {line}\n")


@pytest.mark.parametrize("command, kind, section", [
    ("gb", "ideal", "relation"), ("dims", "presentation", "relatoins"),
])
def test_a_misspelled_section_exits_2_naming_its_file_and_line(tmp_path, capsys,
                                                               command, kind, section):
    path = write(tmp_path, f"bad.{kind}",
                 f"[kind]\n{kind}\n[vars]\nx\ny\n[{section}]\nx*y\n")
    assert run(capsys, [command, path]) == (
        2, "", f"error: {path}: {kind} documents have no section [{section}] at line 6\n")


def test_gb_exits_2_on_a_repeated_section_naming_its_second_header(tmp_path, capsys):
    path = write(tmp_path, "twice.ideal",
                 "[kind]\nideal\n[vars]\nx\n[relations]\nx^2\n[vars]\ny\n")
    assert run(capsys, ["gb", path]) == (
        2, "", f"error: {path}: section [vars] appears more than once at line 7\n")


def test_a_file_that_is_not_utf8_text_exits_2_naming_it(tmp_path, capsys):
    path = tmp_path / "latin1.ideal"
    path.write_bytes(b"[kind]\nideal\n[vars]\nx\xff\n")
    assert run(capsys, ["gb", str(path)]) == (
        2, "", f"error: {path}: not UTF-8 text at byte 21\n")


@pytest.mark.parametrize("line, old, new, message", [
    (17, "k1(1): e1*(t1 + t2)", "k1(1): e1*(t1 + t2))",
     "unexpected trailing input ')' at line 17, column 20"),
    (4, "stratum", "ideal", "expected a stratum document, got 'ideal' at line 4"),
], ids=["stray-paren", "wrong-kind"])
def test_verify_paper_exits_2_naming_the_stratum_file_and_line(tmp_path, capsys, line,
                                                               old, new, message):
    strata = tmp_path / "strata"
    shutil.copytree(DATA / "strata", strata)
    gamma1 = strata / "gamma1.stratum"
    lines = gamma1.read_text().splitlines()
    assert lines[line - 1] == old
    lines[line - 1] = new
    gamma1.write_text("\n".join(lines) + "\n")
    assert run(capsys, ["verify-paper", str(strata)]) == (
        2, "", f"error: {gamma1}: {message}\n")


@pytest.mark.parametrize("group", ["t1 -> t2; t2 -> t1; zz -> t1",
                                   "t1 -> zz; t2 -> t1"], ids=["source", "image"])
def test_invpres_exits_2_on_a_group_entry_naming_an_unknown_variable(tmp_path, capsys,
                                                                    group):
    doc = write(tmp_path, "bad.action",
                f"[kind]\naction\n[vars]\nt1\nt2\n[group]\n{group}\n")
    assert run(capsys, ["invpres", doc]) == (
        2, "", f"error: {doc}: group generator: unknown variable 'zz'\n")


def _count_parsers(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


def test_later_calls_reuse_the_parser_of_the_first(sym2, capsys, monkeypatch):
    run(capsys, ["gb", sym2])
    built = _count_parsers(monkeypatch)
    assert run(capsys, ["gb"])[0] == 2
    helps = [run(capsys, ["--help"]) for _ in range(2)]
    assert helps[0] == helps[1] and helps[0][0] == 0 and "verify-paper" in helps[0][1]
    assert run(capsys, ["gb", sym2])[:2] == (0, "{t2^2, t1 + t2}\n")
    assert run(capsys, ["nf", sym2, "--element", "t1"])[:2] == (0, "-t2\n")
    assert run(capsys, ["member", sym2, "--element", "t1*t2"])[:2] == (0, "true\n")
    assert built == []


def test_defaults_do_not_leak_between_calls(tmp_path, capsys):
    doc = write(tmp_path, "free.pres", "[kind]\npresentation\n[vars]\nk1\n")
    assert run(capsys, ["dims", doc, "--dmax", "3"])[:2] == (0, "0: 1\n1: 1\n2: 1\n3: 1\n")
    code, out, _ = run(capsys, ["dims", doc])
    assert (code, out) == (0, "".join(f"{d}: 1\n" for d in range(13)))


def test_importing_the_cli_builds_no_parser():
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counted(self, *a, **k):\n"
             "    built.append(1)\n"
             "    init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counted\n"
             "import chowcheck.cli\n"
             "print(len(built))\n")
    env = dict(os.environ, PYTHONPATH=str(DATA.parents[1]))
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0\n")


def _argument_surface(parser):
    """Every action of `parser` and of each subcommand's parser, in order:
    the fields that decide parsing, usage and help text, but not layout."""
    def actions(p):
        rows = [[p.prog, p.description, getattr(p.get_default("func"), "__name__", None)]]
        for a in p._actions:
            choices = a.choices
            if isinstance(choices, dict):  # the subcommands, with their help
                choices = [[c.dest, c.help] for c in a._choices_actions]
            rows.append([a.option_strings, a.dest, a.metavar, a.help, a.default,
                         a.required, list(choices) if choices else choices, a.nargs,
                         getattr(a.type, "__name__", a.type)])
        return rows

    sub = next(a for a in parser._actions if isinstance(a.choices, dict))
    return [actions(parser)] + [[name, actions(p)] for name, p in sub.choices.items()]


def test_the_argument_surface_is_pinned():
    from chowcheck.cli import build_parser
    surface = _argument_surface(build_parser())
    assert [row[0] for row in surface[1:]] == [
        "gb", "nf", "member", "elim", "kernel", "colon", "nzd", "intersect", "subalg",
        "reynolds", "invgen", "invpres", "fiber", "dims", "verify-paper"]
    text = json.dumps(surface, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4cdf1a66b3abc90f76268fac9d54748fb2b4b693a849c1309cf51119c7e3c2a8"), text
