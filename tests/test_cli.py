"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import json
import os
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


def test_wrong_kind_exits_2(sym2, capsys):
    code, _, err = run(capsys, ["kernel", sym2])
    assert code == 2
    assert "error:" in err


def test_unknown_drop_variable_exits_2(sym2, capsys):
    code, _, err = run(capsys, ["elim", sym2, "--drop", "zz"])
    assert code == 2
    assert "zz" in err


def test_unknown_weight_name_exits_2_naming_its_line(tmp_path, capsys):
    path = write(tmp_path, "weighted.ideal", "[kind]\nideal\n[vars]\nx\n"
                 "[weights]\nz: 2\n[relations]\nx^2\n")
    code, out, err = run(capsys, ["gb", path])
    assert (code, out, err) == (2, "", "error: unknown variable 'z' at line 6\n")


def test_bad_element_expression_exits_2(sym2, capsys):
    code, _, err = run(capsys, ["nf", sym2, "--element", "t1 +"])
    assert code == 2
    assert "error:" in err


def test_bad_order_choice_exits_2(sym2, capsys):
    code = main(["gb", sym2, "--order", "fancy"])
    capsys.readouterr()
    assert code == 2


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
