"""Graded presentations, morphisms, fiber products, graded certification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from chowcheck import ringpres
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
    glued, ker_alpha, ker_beta = fiber_product(alpha, beta)
    # relations = ker alpha ∩ ker beta = (x^2) ∩ (x^3) = (x^3)
    for ideal, gens in ((glued.relations, ["x^3"]), (ker_alpha, ["x^2"]),
                        (ker_beta, ["x^3"])):
        assert [str(g) for g in ideal.groebner(glued.order)] == gens


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
    glued = fiber_product(alpha, beta)[0]
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


@st.composite
def homogeneous(draw, table, degree, denominators):
    """A weighted-homogeneous polynomial of `degree` over `table`, zero only
    when there is no monomial of that degree, with coefficients n/d for d
    drawn from `denominators`."""
    monos = standard_monomials(Ideal(table, ()), degree,
                               MonomialOrder.wgrevlex(table.weights))
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=3,
                           unique=True)) if monos else []
    return Polynomial(table, {
        m: Fraction(draw(st.integers(-3, 3).filter(bool)), draw(st.sampled_from(denominators)))
        for m in chosen})


@st.composite
def tag_maps(draw):
    """Two maps out of one free weighted tag ring into targets of the same
    weights, each with or without relations.  Alpha's coefficients have
    denominators 2 and 4; a beta image is either drawn with denominators 3
    and 9 or is the alpha image times 1/3 or 2/9, which ties the two sides
    together so that their common lift decides the rank, or is zero."""
    tag_weights = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    tags = Presentation(VarTable([f"k{i}" for i in range(len(tag_weights))], tag_weights))
    weights = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    targets = []
    for side in "ac":
        table = VarTable([f"{side}{i}" for i in range(len(weights))], weights)
        relations = [draw(homogeneous(table, draw(st.integers(1, 3)), [1, 2]))
                     for _ in range(draw(st.integers(0, 1)))]
        targets.append(Presentation(table, relations))
    a, c = targets
    alpha_images, beta_images = {}, {}
    for name, w in zip(tags.table.names, tag_weights):
        image = alpha_images[name] = draw(homogeneous(a.table, w, [1, 2, 4]))
        factor = draw(st.sampled_from([None, 0, Fraction(1, 3), Fraction(2, 9)]))
        if factor is None:
            beta_images[name] = draw(homogeneous(c.table, w, [1, 3, 9]))
        else:
            beta_images[name] = Polynomial(c.table, {m: v * factor
                                                     for m, v in image.terms.items()})
    return Morphism(tags, a, alpha_images), Morphism(tags, c, beta_images)


@settings(max_examples=80, deadline=None)
@given(tag_maps(), st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_pair_image_rank_matches_the_from_scratch_count_on_drawn_maps(maps, degrees):
    alpha, beta = maps
    assert pair_image_rank(alpha, beta, degrees) == [
        pair_rank_from_scratch(alpha, beta, d) for d in degrees]


def test_pair_image_rank_restarts_at_double_width(monkeypatch):
    """k^2 maps to x^(2^31), past 32-bit fields: the call starts again once
    with both packings at 64 bits, and the targets' own packed bases stay
    as they were."""
    n = 2**30
    tags = pres(["k"], [n])
    a, c = pres(["x"], [1]), pres(["y"], [1])
    alpha = Morphism(tags, a, {"k": Polynomial(a.table, {(n,): 1})})
    beta = Morphism(tags, c, {"k": Polynomial(c.table, {(n,): 1})})
    widths = []
    inner = ringpres._pair_ranks

    def spy(table, maps, lifts, reds, degrees):
        widths.append([red.packing.width for red in reds])
        return inner(table, maps, lifts, reds, degrees)

    monkeypatch.setattr(ringpres, "_pair_ranks", spy)
    assert pair_image_rank(alpha, beta, [2**31]) == [1]
    assert widths == [[32, 32], [64, 64]]
    assert a.relations.groebner(a.order).packing.width == 32


def test_apply_quotient_lifts_prev_relations():
    """Relations of the beta side lift to the glued presentation."""
    tags = pres(["x"], [1])
    a = pres(["u"], [1], "u^2")
    prev = pres(["x"], [1])  # free prev ring sharing the tag name
    alpha = Morphism(tags, a, {"x": Polynomial.variable(a.table, "u")})
    beta = Morphism(tags, prev, {"x": Polynomial.variable(prev.table, "x")})
    glued = fiber_product(alpha, beta)[0]  # ker alpha ∩ ker beta = (x^2) ∩ 0 = 0
    assert glued.is_free()
    prev_rel = parse_polynomial("x^3", prev.table)
    result, notes = apply_quotient(glued, alpha, beta, [prev_rel])
    assert len(notes) == 1 and notes[0]["correction"] is None
    assert [str(g) for g in result.relations.groebner(result.order)] == ["x^3"]
