"""Graded presentations, morphisms, fiber products, graded certification."""

from fractions import Fraction

import pytest

from chowcheck.exprparser import parse_polynomial
from chowcheck.groebner import Ideal, standard_monomials
from chowcheck.linalg import sparse_rank
from chowcheck.polyarith import MonomialOrder, Polynomial, VarTable
from chowcheck.ringpres import (
    Morphism,
    Presentation,
    PresentationError,
    apply_quotient,
    fiber_product,
    graded_surjectivity,
    pair_image_rank,
)


def pres(names, weights, *relations):
    table = VarTable(names, weights)
    return Presentation(table, [parse_polynomial(t, table) for t in relations])


def test_presentation_requires_homogeneous_relations():
    with pytest.raises(PresentationError):
        pres(["k1", "k2"], [1, 2], "k1 + k2")
    p = pres(["k1", "k2"], [1, 2], "k1^2 - k2")
    assert not p.is_free()


def test_presentation_rejects_collapse_to_zero():
    with pytest.raises(PresentationError):
        table = VarTable(["x"])
        Presentation(table, [Polynomial.one(table)])


def test_free_presentation_dims():
    p = pres(["k1", "k2"], [1, 2])
    # Q[k1, k2] with weights 1, 2: dims 1, 1, 2, 2, 3, 3, ...
    assert [p.dim(d) for d in range(6)] == [1, 1, 2, 2, 3, 3]
    assert p.is_free()


def test_quotient_dims_drop():
    p = pres(["x", "y"], [1, 1], "x*y")
    assert [p.dim(d) for d in range(5)] == [1, 2, 2, 2, 2]
    q = p.quotient([parse_polynomial("y^2", p.table)])
    assert [q.dim(d) for d in range(5)] == [1, 2, 1, 1, 1]
    assert q.dim(3) == 1
    p = pres(["x", "y"], [1, 1], "x^1000", "x*y")
    # x^d and y^d below degree 1000, only y^d from there on
    dims = p.dims(1001)
    assert dims[:3] == [1, 2, 2]
    assert dims[998:] == [2, 2, 1, 1]
    assert p.dim(999) == 2 and p.dim(1000) == 1 and p.dim(-1) == 0


def test_normal_form_and_is_zero():
    p = pres(["x", "y"], [1, 1], "x^2 - y^2")
    f = parse_polynomial("x^2", p.table)
    assert p.normal_form(f) == parse_polynomial("y^2", p.table)
    assert p.is_zero(parse_polynomial("x^2 - y^2", p.table))


def test_morphism_validation():
    src = pres(["a"], [2])
    dst = pres(["x"], [1])
    with pytest.raises(PresentationError):
        Morphism(src, dst, {"a": Polynomial.variable(dst.table, "x")})  # weight 1 != 2
    with pytest.raises(PresentationError):
        Morphism(src, dst, {})  # missing image
    ok = Morphism(src, dst, {"a": parse_polynomial("x^2", dst.table)})
    assert str(ok(Polynomial.variable(src.table, "a"))) == "x^2"


def test_morphism_respects_relations():
    src = pres(["a"], [1], "a^2")
    dst = pres(["x"], [1])
    with pytest.raises(PresentationError):
        Morphism(src, dst, {"a": Polynomial.variable(dst.table, "x")})
    nil = pres(["x"], [1], "x^2")
    ok = Morphism(src, nil, {"a": Polynomial.variable(nil.table, "x")})
    assert ok(Polynomial.variable(src.table, "a") ** 2).is_zero()


def test_morphism_kernel():
    src = pres(["a", "b"], [1, 2])
    dst = pres(["x"], [1], "x^3")
    phi = Morphism(src, dst, {
        "a": Polynomial.variable(dst.table, "x"),
        "b": parse_polynomial("x^2", dst.table),
    })
    ker = phi.kernel()
    expected = [parse_polynomial(t, src.table) for t in ("a^2 - b", "a^3", "a*b", "b^2")]
    for f in expected:
        assert ker.member(f)
    assert not ker.member(Polynomial.variable(src.table, "a"))
    assert phi.killed_names() == []


def test_fiber_product_of_two_restrictions():
    """Present the image of Q[x] inside Q[x]/(x^2) x Q[x]/(x^3)."""
    source = pres(["x"], [1])
    a = pres(["u"], [1], "u^2")
    b = pres(["v"], [1], "v^3")
    alpha = Morphism(source, a, {"x": Polynomial.variable(a.table, "u")})
    beta = Morphism(source, b, {"x": Polynomial.variable(b.table, "v")})
    glued = fiber_product(alpha, beta)
    # relations = ker alpha ∩ ker beta = (x^2) ∩ (x^3) = (x^3)
    rels = glued.relations.groebner(glued.order)
    assert [str(g) for g in rels] == ["x^3"]


def test_fiber_product_requires_free_source():
    source = pres(["x"], [1], "x^2")
    a = pres(["u"], [1], "u^2")
    alpha = Morphism(source, a, {"x": Polynomial.variable(a.table, "u")})
    with pytest.raises(PresentationError):
        fiber_product(alpha, alpha)


def test_pair_image_rank_and_graded_surjectivity():
    """The one-node gluing shape: A = Q[k1,k2], bottom = A/(k1), prev = Q[k2]."""
    tags = pres(["k1", "k2"], [1, 2])
    a = pres(["k1", "k2"], [1, 2])
    prev = pres(["k2"], [2])
    bottom = a.quotient([Polynomial.variable(a.table, "k1")])
    alpha = Morphism(tags, a, {
        "k1": Polynomial.variable(a.table, "k1"),
        "k2": Polynomial.variable(a.table, "k2"),
    })
    beta = Morphism(tags, prev, {
        "k1": Polynomial.zero(prev.table),
        "k2": Polynomial.variable(prev.table, "k2"),
    })
    glued = fiber_product(alpha, beta)
    assert glued.is_free()  # ker alpha = 0
    assert pair_image_rank(alpha, beta, [2]) == [2]  # k1^2 and k2 stay independent
    rows = graded_surjectivity(glued, alpha, beta, bottom, range(7))
    for row in rows:
        assert row["pair_rank"] == row["fiber_dim"] == row["quotient_dim"]
        assert row["certified"]
    assert [row["quotient_dim"] for row in rows] == [1, 1, 2, 2, 3, 3, 4]


def pair_rank_from_scratch(alpha, beta, degree):
    """The count as a plain loop: one full image per tag monomial, then a rank."""
    table = alpha.source.table
    rows = []
    for m in standard_monomials(Ideal(table, ()), degree,
                                MonomialOrder.wgrevlex(table.weights)):
        f = Polynomial(table, {m: Fraction(1)})
        row = {("A",) + k: v for k, v in alpha(f).terms.items()}
        row.update({("C",) + k: v for k, v in beta(f).terms.items()})
        rows.append(row)
    return sparse_rank(rows)


def test_pair_image_rank_matches_the_from_scratch_count(artifacts):
    """Every gluing stage of the default convention, in any degree order."""
    for stage in artifacts.stages:
        alpha, beta = stage["alpha"], stage["beta"]
        for degrees in (list(range(13)), [5, 2], [3]):
            assert pair_image_rank(alpha, beta, degrees) == [
                pair_rank_from_scratch(alpha, beta, d) for d in degrees]


def test_apply_quotient_lifts_prev_relations():
    """Relations of the beta side lift to the glued presentation."""
    tags = pres(["x"], [1])
    a = pres(["u"], [1], "u^2")
    prev = pres(["x"], [1])  # free prev ring sharing the tag name
    alpha = Morphism(tags, a, {"x": Polynomial.variable(a.table, "u")})
    beta = Morphism(tags, prev, {"x": Polynomial.variable(prev.table, "x")})
    glued = fiber_product(alpha, beta)  # ker alpha ∩ ker beta = (x^2) ∩ 0 = 0
    assert glued.is_free()
    prev_rel = parse_polynomial("x^3", prev.table)
    result, notes = apply_quotient(glued, alpha, beta, [prev_rel])
    assert len(notes) == 1 and notes[0]["correction"] is None
    assert [str(g) for g in result.relations.groebner(result.order)] == ["x^3"]
