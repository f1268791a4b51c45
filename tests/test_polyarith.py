"""Exact polynomial arithmetic, variable tables and monomial orders."""

from fractions import Fraction

import pytest

from chowcheck.polyarith import MonomialOrder, Polynomial, VarTable


def poly(table, text):
    from chowcheck.exprparser import parse_polynomial

    return parse_polynomial(text, table)


def test_vartable_rejects_duplicates_and_bad_weights():
    with pytest.raises(ValueError):
        VarTable(["x", "x"])
    with pytest.raises(ValueError):
        VarTable(["x"], [0])
    with pytest.raises(ValueError):
        VarTable(["x", "y"], [1])


def test_vartable_lookup():
    table = VarTable(["k1", "k2"], [1, 2])
    assert table.index("k2") == 1
    assert table.weight("k2") == 2
    with pytest.raises(ValueError):
        table.index("k3")


def test_ring_identities():
    table = VarTable(["x", "y"])
    x = Polynomial.variable(table, "x")
    y = Polynomial.variable(table, "y")
    zero = Polynomial.zero(table)
    one = Polynomial.one(table)
    f = 2 * x * y - y**2 + 3
    assert f + zero == f
    assert f * one == f
    assert f - f == zero
    assert f * zero == zero
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x + y) ** 3 == x**3 + 3 * x**2 * y + 3 * x * y**2 + y**3


def test_rational_coefficients_stay_exact():
    table = VarTable(["x"])
    x = Polynomial.variable(table, "x")
    f = Fraction(1, 3) * x + Fraction(1, 6) * x
    assert f == Fraction(1, 2) * x
    assert f.terms == {(1,): Fraction(1, 2)}
    g = Fraction(2, 4) * x
    assert str(g) == "1/2*x"


def test_pow_rejects_negative_exponent():
    table = VarTable(["x"])
    x = Polynomial.variable(table, "x")
    with pytest.raises(ValueError):
        x ** (-1)


def test_mixed_table_arithmetic_rejected():
    a = VarTable(["x"])
    b = VarTable(["y"])
    with pytest.raises(ValueError):
        Polynomial.variable(a, "x") + Polynomial.variable(b, "y")


def test_degrees_and_homogeneity():
    table = VarTable(["k1", "g2"], [1, 2])
    f = poly(table, "k1^2 + g2")
    assert f.is_homogeneous() and f.weighted_degree() == 2
    assert max(map(sum, f.terms)) == 2
    g = poly(table, "k1 + g2")
    assert not g.is_homogeneous()
    assert Polynomial.zero(table).is_homogeneous()


def test_substitute_is_a_ring_map():
    src = VarTable(["u", "v"])
    dst = VarTable(["x", "y"])
    x = Polynomial.variable(dst, "x")
    y = Polynomial.variable(dst, "y")
    images = {"u": x + y, "v": x * y}
    f = poly(src, "u^2 - 2*v")
    g = poly(src, "u*v + 1")
    assert (f * g).substitute(images, target=dst) == (
        f.substitute(images, target=dst) * g.substitute(images, target=dst)
    )
    assert (f + g).substitute(images, target=dst) == (
        f.substitute(images, target=dst) + g.substitute(images, target=dst)
    )
    assert f.substitute(images, target=dst) == x**2 + y**2


def test_rename_moves_between_tables():
    src = VarTable(["t1", "t2"])
    dst = VarTable(["t2", "t1", "r"])
    f = poly(src, "t1^2 - t2")
    g = f.rename(dst)
    assert str(g) == "t1^2 - t2"
    assert g.context is dst


def test_monomial_orders_disagree_where_expected():
    table = VarTable(["x", "y", "z"])
    lex = MonomialOrder.lex()
    grlex = MonomialOrder.grlex()
    grevlex = MonomialOrder.grevlex()
    # x > y^2 under lex but not under the graded orders
    assert lex.key((1, 0, 0)) > lex.key((0, 2, 0))
    assert grlex.key((1, 0, 0)) < grlex.key((0, 2, 0))
    # the classical grlex/grevlex split: x*y^2*z vs x^2*z^2
    a, b = (1, 2, 1), (2, 0, 2)
    assert grlex.key(a) < grlex.key(b)
    assert grevlex.key(a) > grevlex.key(b)
    # grevlex prefers the monomial with less of the LAST variable
    c, d = (1, 1, 0), (0, 0, 2)
    assert grevlex.key(c) > grevlex.key(d)
    assert table is not None


def test_wgrevlex_ranks_by_weighted_degree():
    order = MonomialOrder.wgrevlex((1, 2))
    # y (weight 2) beats x (weight 1) and even x^1 y^0 vs x^0 y^1
    assert order.key((0, 1)) > order.key((1, 0))
    assert order.key((3, 0)) > order.key((0, 1))
    with pytest.raises(ValueError):
        MonomialOrder.wgrevlex((1, 0))


def test_leading_data_under_order():
    table = VarTable(["x", "y"])
    f = poly(table, "2*x*y^2 + x^2 - y")
    assert f.leading_monomial(MonomialOrder.lex()) == (2, 0)
    assert f.leading_monomial(MonomialOrder.grevlex()) == (1, 2)
    assert f.terms[f.leading_monomial(MonomialOrder.grevlex())] == 2


def test_str_canonical_form():
    table = VarTable(["t1", "t2"])
    assert str(poly(table, "t2 + t1")) == "t1 + t2"
    assert str(Polynomial.zero(table)) == "0"
    assert str(poly(table, "-t1 - 1")) == "-t1 - 1"
    assert str(poly(table, "t1*t2*2 - t1^2")) == "-t1^2 + 2*t1*t2"


def test_equal_polynomials_hash_equal_whatever_built_them():
    # the hash is kept after its first use, so this holds only because no
    # polynomial is changed once constructed
    table = VarTable(["x", "y"], [1, 2])
    x = Polynomial.variable(table, "x")
    y = Polynomial.variable(table, "y")
    built = Polynomial(table, {(2, 0): 1, (0, 1): Fraction(-3, 2)})
    computed = x * x - Fraction(3, 2) * y
    parsed = poly(table, "x^2 - 3/2*y")
    cancelled = (x + y) ** 2 - 2 * x * y - y * y - Fraction(3, 2) * y
    assert built == computed == parsed == cancelled
    assert len({hash(p) for p in (built, computed, parsed, cancelled)}) == 1
    memo = {built: "first"}
    for p in (computed, parsed, cancelled):
        memo[p] = memo.get(p, "") + "+"
    assert memo == {built: "first+++"}
    other = VarTable(["x", "y"], [1, 1])
    moved = built.rename(other)
    assert moved != built and len({built: 0, moved: 1}) == 2


def _owned_entry_points():
    """Each entry point that takes a value over the (x, y) table: the call on
    the value, the error it raises for a value of another table, the name it
    gives the value, and, where it takes a plain number as a constant, a
    check of that."""
    from chowcheck.exprparser import parse_polynomial
    from chowcheck.groebner import (Ideal, Subalgebra, buchberger, ideal_quotient,
                                    intersect)
    from chowcheck.invariants import GroupAction, InvariantError
    from chowcheck.ringpres import Morphism, Presentation, PresentationError

    xy = VarTable(["x", "y"])
    x = Polynomial.variable(xy, "x")
    ring, k1 = Presentation(xy), Presentation(VarTable(["k1"]))
    swap = GroupAction(xy, [{"x": "y", "y": "x"}])

    def collapses():  # a nonzero constant relation is the unit ideal
        with pytest.raises(PresentationError, match="collapse the ring to zero"):
            Presentation(xy, [2])
        return True

    return {
        "add": (lambda p: x + p, ValueError, "polynomial", None),
        "sub": (lambda p: x - p, ValueError, "polynomial", None),
        "mul": (lambda p: x * p, ValueError, "polynomial", None),
        "substitute": (lambda p: x.substitute({"x": p}, target=xy), ValueError, "image of x",
                       lambda: x.substitute({"x": 2}, target=xy) == Polynomial.constant(xy, 2)),
        "buchberger": (lambda p: buchberger([x, p]), ValueError, "generator", None),
        "Ideal": (lambda p: Ideal(xy, [p]), ValueError, "generator",
                  lambda: Ideal(xy, [3]).gens == (Polynomial.constant(xy, 3),)),
        "member": (lambda p: Ideal(xy, [x]).member(p), ValueError, "polynomial", None),
        "normal_form": (lambda p: Ideal(xy, [x]).normal_form(p), ValueError, "polynomial", None),
        "intersect": (lambda p: intersect(Ideal(xy, [x]), Ideal(p.context, [p])), ValueError,
                      "ideal", None),
        "ideal_quotient": (lambda p: ideal_quotient(Ideal(xy, [x]), p), ValueError,
                           "polynomial", None),
        "Subalgebra": (lambda p: Subalgebra(xy, [("a", p)]), ValueError, "generator",
                       lambda: Subalgebra(xy, [("a", 2)]).gens
                       == (("a", Polynomial.constant(xy, 2)),)),
        "Subalgebra-relations": (lambda p: Subalgebra(xy, [("a", x)], None,
                                                      Ideal(p.context, [p])),
                                 ValueError, "relation ideal", None),
        "express": (lambda p: Subalgebra(xy, [("a", x)]).express(p), ValueError,
                    "polynomial", None),
        "Presentation": (lambda p: Presentation(xy, [p]), PresentationError, "relation",
                         collapses),
        "Presentation-ideal": (lambda p: Presentation(xy, Ideal(p.context, [p])),
                               PresentationError, "relation ideal", None),
        "Morphism": (lambda p: Morphism(k1, ring, {"k1": p}), PresentationError,
                     "image of k1",
                     lambda: Morphism(k1, ring, {"k1": 0}).images == {"k1": Polynomial.zero(xy)}),
        "Morphism-call": (lambda p: Morphism(k1, ring, {"k1": x})(p), PresentationError,
                          "argument", None),
        "act": (lambda p: swap.act(swap.generators[0], p), InvariantError, "polynomial", None),
        "transfer": (lambda p: swap.transfer(p), InvariantError, "polynomial", None),
        "parse-env": (lambda p: parse_polynomial("p", xy, {"p": p}), ValueError,
                      "polynomial", None),
    }


@pytest.mark.parametrize("entry", list(_owned_entry_points()))
def test_every_entry_point_rejects_a_value_of_another_table_in_one_wording(entry):
    # y over (y, x) has the exponents of x over (x, y): read in the wrong
    # table it would pass for x
    call, error, what, takes_a_number = _owned_entry_points()[entry]
    y = Polynomial.variable(VarTable(["y", "x"]), "y")
    with pytest.raises(error, match=f"^{what} lives in a different variable table$"):
        call(y)
    if takes_a_number is not None:
        assert takes_a_number()


def test_a_table_owns_numbers_and_its_own_values_and_leaves_the_rest():
    xy = VarTable(["x", "y"])
    x = Polynomial.variable(xy, "x")
    assert xy.own(Fraction(1, 2)) == Polynomial.constant(xy, Fraction(1, 2))
    assert xy.own(x) is x
    assert xy.own("x") == "x"
    assert VarTable(["x", "y"]).own(x) is x  # equal tables are one table
    with pytest.raises(KeyError, match="thing lives in a different variable table"):
        VarTable(["x", "y"], [1, 2]).own(x, "thing", KeyError)
