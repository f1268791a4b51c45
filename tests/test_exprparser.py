"""Parsing, printing and the sectioned document format."""

from fractions import Fraction

import pytest

from chowcheck.exprparser import (
    ParseError,
    parse_document,
    parse_map,
    parse_polynomial,
    parse_rational,
    parse_vartable,
    read_document,
    split_list,
    split_pairs,
)
from chowcheck.polyarith import Polynomial, VarTable

XY = VarTable(["x", "y"])


def p(text, table=XY, env=None):
    return parse_polynomial(text, table, env)


def test_literals_and_precedence():
    x = Polynomial.variable(XY, "x")
    y = Polynomial.variable(XY, "y")
    assert p("0").is_zero()
    assert p("3/6") == Fraction(1, 2)
    assert p("2*x + y") == 2 * x + y
    # ^ binds tighter than *, which binds tighter than +/-
    assert p("2*x^3*y + 1") == 2 * x**3 * y + 1
    assert p("x - y - x") == -y
    assert p("-x^2") == -(x**2)
    assert p("(x + y)^2") == x**2 + 2 * x * y + y**2
    assert p("1/2*(x - y)*(x + y)") == Fraction(1, 2) * (x**2 - y**2)
    assert p("- - x") == x
    assert p("2 - 1") == 1


def test_whitespace_insensitive():
    assert p(" x +\t2*y ") == p("x+2*y")


def test_env_symbols_and_functions():
    table = VarTable(["t1", "t2"])
    t1 = Polynomial.variable(table, "t1")
    t2 = Polynomial.variable(table, "t2")
    env = {"e1": -1, "ETA": t1 * t2}
    assert parse_polynomial("e1*(t1 + ETA)", table, env) == -(t1 + t1 * t2)
    swap = {"t1": t2, "t2": t1}
    functions = {"transfer": lambda f: f + f.substitute(swap, target=table)}
    got = parse_polynomial("transfer(t1^2)", table, env, functions)
    assert got == t1**2 + t2**2


@pytest.mark.parametrize(
    "bad",
    [
        "x +",
        "x ^ y",
        "x^-2",
        "2x",          # implicit multiplication is forbidden
        "x y",
        "bogus + 1",
        "(x",
        "x / y",       # division only inside rational literals
        "",
        "x^(2)",
    ],
)
def test_rejects_malformed_expressions(bad):
    with pytest.raises(ParseError):
        p(bad)


def test_diagnostics_carry_position():
    try:
        p("x + bogus*y")
    except ParseError as exc:
        assert "bogus" in str(exc) and "column 5" in str(exc)
    else:
        raise AssertionError("expected a ParseError")


def test_parse_rational():
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("5") == 5
    with pytest.raises(ParseError):
        parse_rational("x")


def test_print_parse_round_trip_hand_cases():
    cases = ["x^2 - y", "-x - 1", "1/2*x*y + 2/3", "0", "x^4 - 2*x^2*y^2 + y^4"]
    for text in cases:
        f = p(text)
        assert p(str(f)) == f
        assert str(f) == text  # the cases are written in canonical form


def test_document_structure():
    doc = parse_document(
        """
        # a comment
        [kind]
        ideal
        [vars]
        x
        y  # trailing comment
        [relations]
        x^2 - y
        """
    )
    assert doc.kind == "ideal"
    table = parse_vartable(doc.section("vars", required=True))
    assert table.names == ("x", "y")
    rels = [e.value for e in doc.section("relations")]
    assert rels == ["x^2 - y"]


def test_document_errors():
    with pytest.raises(ParseError):
        parse_document("")
    with pytest.raises(ParseError):
        parse_document("x: 1\n[kind]\nideal")  # content before first section
    with pytest.raises(ParseError):
        parse_document("[vars]\nx")  # must start with [kind]
    with pytest.raises(ParseError):
        parse_document("[kind]\nwidget")  # unknown kind
    with pytest.raises(ParseError, match="unknown document kind 'polynomial'"):
        parse_document("[kind]\npolynomial")  # no loader reads one
    doc = parse_document("[kind]\nideal\n[vars]\nx\n[vars]\ny")
    with pytest.raises(ParseError):
        doc.section("vars")  # duplicate section


def test_vartable_entry_forms():
    doc = parse_document("[kind]\npresentation\n[vars]\nk1(1)\nk2: 2\neta")
    table = parse_vartable(doc.section("vars", required=True))
    assert table.names == ("k1", "k2", "eta")
    assert table.weights == (1, 2, 1)


def test_split_list():
    assert split_list("a; b ;; c;") == ["a", "b", "c"]
    assert split_list("  ") == []


def test_keyed_entries_split_on_first_colon():
    doc = parse_document("[kind]\nclaims\n[claim]\nnote: uses x: y notation")
    (entry,) = doc.section("claim")
    assert entry.key == "note"
    assert entry.value == "uses x: y notation"


def test_a_map_reads_each_name_once():
    pairs = split_pairs("a -> x + 1; b -> -a;", "->", 4)
    assert pairs == [("a", "x + 1", 4), ("b", "-a", 4)]
    assert parse_map(pairs, "[group]") == {"a": "x + 1", "b": "-a"}
    assert parse_map(pairs, "m", ("b", "a")) == {"a": "x + 1", "b": "-a"}


@pytest.mark.parametrize("text, names, message", [
    ("a = 1; a = 2", None, "m gives a more than once at line 4"),
    ("a = 1; c = 2", ("a", "b"), "m names c, not one of a, b at line 4"),
    ("a = 1", ("a", "b"), "m gives no value for b"),
    ("a = 1; b", ("a", "b"), "item 'b' has no '=' at line 4"),
], ids=["repeated", "unknown", "left-out", "no-separator"])
def test_a_map_rejects_a_name_given_twice_unknown_or_left_out(text, names, message):
    with pytest.raises(ParseError) as err:
        parse_map(split_pairs(text, "=", 4), "m", names)
    assert str(err.value) == message


def test_a_keyed_section_rejects_a_repeated_key_at_its_line():
    doc = parse_document("[kind]\nstratum\n[restrict]\nk1: t1\nk2: t2\nk1: 0\n")
    with pytest.raises(ParseError, match=r"^\[restrict\] gives k1 more than once at line 6$"):
        doc.keyed("restrict", "tag: form")


@pytest.mark.parametrize("kind, section", [
    ("ideal", "relation"), ("presentation", "relatoins"), ("ideal", "group"),
    ("morphism", "vars"), ("action", "relations"), ("claims", "other"),
])
def test_a_section_outside_its_kind_is_a_parse_error_at_its_header(tmp_path, kind,
                                                                   section):
    path = tmp_path / "doc.txt"
    path.write_text(f"[kind]\n{kind}\n\n[{section}]\nx\n")
    with pytest.raises(ParseError) as err:
        with read_document(path, (kind,)):
            pass
    assert str(err.value) == f"{path}: {kind} documents have no section [{section}] at line 4"
