"""Graded presentations, morphisms, fiber products, graded certification."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from chowcheck import groebner
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
from oracles import transport_correction


def pres(names, weights, *relations):
    table = VarTable(names, weights)
    return Presentation(table, [parse_polynomial(t, table) for t in relations])


def test_regular_quotient_reads_the_gate_off_hilbert_numerators():
    p = pres(["x", "y"], [1, 1], "x*y")
    x = Polynomial.variable(p.table, "x")
    y = Polynomial.variable(p.table, "y")
    # x kills y; x + y is regular, and Q[x, y]/(x*y, x + y) is Q[x]/(x^2)
    quotient, regular = p.regular_quotient(x)
    assert not regular and [quotient.dim(d) for d in range(3)] == [1, 1, 1]
    quotient, regular = p.regular_quotient(x + y)
    assert regular and [quotient.dim(d) for d in range(3)] == [1, 1, 0]
    assert p.series.numerator == {0: 1, 2: -1}
    assert quotient.series.numerator == {0: 1, 1: -1, 2: -1, 3: 1}
    # zero is never regular; a relation of the ring is zero there
    assert not p.regular_quotient(Polynomial.zero(p.table))[1]
    assert not p.regular_quotient(x * y)[1]
    free = pres(["k1", "k2"], [1, 2])
    assert free.regular_quotient(parse_polynomial("k1^2 + k2", free.table))[1]
    with pytest.raises(PresentationError, match="not weighted-homogeneous"):
        free.regular_quotient(parse_polynomial("k1 + k2", free.table))
    with pytest.raises(PresentationError, match="collapse"):
        free.regular_quotient(Polynomial.constant(free.table, 3))


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
    dims = [p.dim(d) for d in range(1002)]
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
def tag_maps(draw, scale=1):
    """Two maps out of one free weighted tag ring.  Alpha goes into a target
    of drawn weights, with or without relations, its coefficients with
    denominators 2 and 4.  Beta is a projection: it kills a drawn subset of
    the tags and sends each of the rest to its namesake in a free target,
    whose variables come in a drawn order.  Every weight is 1 or 2 times
    `scale`."""
    tag_weights = [scale * w for w in draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))]
    names = [f"k{i}" for i in range(len(tag_weights))]
    tags = Presentation(VarTable(names, tag_weights))
    weights = [scale * w for w in draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))]
    table = VarTable([f"a{i}" for i in range(len(weights))], weights)
    a = Presentation(table, [draw(homogeneous(table, scale * draw(st.integers(1, 3)), [1, 2]))
                             for _ in range(draw(st.integers(0, 1)))])
    kept = draw(st.permutations([n for n in names if draw(st.booleans())]))
    c = Presentation(VarTable(kept, [tags.table.weight(n) for n in kept]))
    alpha_images = {n: draw(homogeneous(a.table, w, [1, 2, 4]))
                    for n, w in zip(names, tag_weights)}
    beta_images = {n: Polynomial.variable(c.table, n) if n in kept
                   else Polynomial.zero(c.table) for n in names}
    return Morphism(tags, a, alpha_images), Morphism(tags, c, beta_images)


@settings(max_examples=80, deadline=None)
@given(tag_maps(), st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_pair_image_rank_matches_the_from_scratch_count_on_drawn_maps(maps, degrees):
    alpha, beta = maps
    assert pair_image_rank(alpha, beta, degrees) == [
        pair_rank_from_scratch(alpha, beta, d) for d in degrees]


@settings(max_examples=60, deadline=None)
@given(tag_maps(), st.data())
def test_apply_quotient_corrects_as_the_fraction_path_does(maps, data):
    """A relation of beta's side whose naive lift fails gets the correction
    the Fraction path finds, or no correction on both paths."""
    alpha, beta = maps
    c = beta.target.table
    extra = data.draw(homogeneous(c, data.draw(st.integers(1, 4)), [1, 3]))
    assume(not alpha(extra.rename(alpha.source.table)).is_zero())
    expected = transport_correction(alpha, beta, extra)
    if expected is None:
        with pytest.raises(PresentationError, match="cannot be transported"):
            apply_quotient(alpha.source, alpha, beta, [extra])
    else:
        (note,) = apply_quotient(alpha.source, alpha, beta, [extra])[1]
        assert note["correction"] == str(expected)


def _build_widths(monkeypatch) -> list:
    """The field width of each degree build of the alpha rows, in order."""
    widths = []
    inner = groebner.ImageRows._build

    def spy(self, red, d):
        widths.append(red.packing.width)
        return inner(self, red, d)

    monkeypatch.setattr(groebner.ImageRows, "_build", spy)
    return widths


def test_pair_image_rank_restarts_at_double_width(monkeypatch):
    """k^2 maps to x^(2^31), past 32-bit fields: the alpha rows are built
    once more with the packing at 64 bits, and the target's own packed
    basis stays as it was."""
    n = 2**30
    tags = pres(["k"], [n])
    a, c = pres(["x"], [1]), pres(["y"], [1])
    alpha = Morphism(tags, a, {"k": Polynomial(a.table, {(n,): 1})})
    beta = Morphism(tags, c, {"k": Polynomial.zero(c.table)})
    widths = _build_widths(monkeypatch)
    assert pair_image_rank(alpha, beta, [2**31]) == [1]
    assert widths == [32, 64]
    assert a.relations.groebner(a.order).packing.width == 32


WIDE = 2**29  # a 32-bit field holds degrees 0..3 * WIDE; degree 4 * WIDE sets its guard


@settings(max_examples=40, deadline=None)
@given(tag_maps(WIDE), st.data())
def test_alpha_rows_past_32_bit_fields_match_the_oracles(maps, data):
    """Weights 2^29 and 2^30: the target's basis and the tag images fit
    32-bit fields, but a degree-2^31 product of images sets a guard bit.
    The rows are then built once more at 64 bits, every degree requested
    after that too, and the ranks and the transport match the plain
    count and the Fraction path."""
    alpha, beta = maps
    assume(any(alpha.images[n].terms for n in beta.killed_names()))
    degrees = data.draw(st.lists(st.integers(0, 3), max_size=3))
    degrees.insert(data.draw(st.integers(0, len(degrees))), 4)
    degrees = [WIDE * d for d in degrees]
    expected = [pair_rank_from_scratch(alpha, beta, d) for d in degrees]
    before = len(set(degrees[:degrees.index(4 * WIDE)]))  # built at 32 bits, then dropped
    with pytest.MonkeyPatch.context() as mp:
        widths = _build_widths(mp)
        assert pair_image_rank(alpha, beta, degrees) == expected
        assert widths[:before + 1] == [32] * (before + 1)
        assert widths[before + 1:] and set(widths[before + 1:]) == {64}
        extra = data.draw(homogeneous(beta.target.table, 4 * WIDE, [1, 3]))
        if alpha(extra.rename(alpha.source.table)).is_zero():
            return
        correction = transport_correction(alpha, beta, extra)
        widths.clear()
        if correction is None:
            with pytest.raises(PresentationError, match="cannot be transported"):
                apply_quotient(alpha.source, alpha, beta, [extra])
        else:
            (note,) = apply_quotient(alpha.source, alpha, beta, [extra])[1]
            assert note["correction"] == str(correction)
        assert widths == [32, 64]


def test_pair_ranks_and_transport_need_beta_a_projection():
    """Beta must kill each tag or send it to a variable of its own in a free
    ring, and the transport needs that variable to be the tag's namesake;
    anything else is a domain error, not a KeyError or a wrong lift."""
    tags = pres(["k1", "k2"], [1, 1])
    a = pres(["u"], [1])
    alpha = Morphism(tags, a, {n: Polynomial.variable(a.table, "u") for n in ("k1", "k2")})
    bound = pres(["k1", "k2"], [1, 1], "k1*k2")
    onto_relations = Morphism(tags, bound, {n: Polynomial.variable(bound.table, n)
                                            for n in ("k1", "k2")})
    one = pres(["y"], [1])
    merged = Morphism(tags, one, {n: Polynomial.variable(one.table, "y")
                                  for n in ("k1", "k2")})
    for beta in (onto_relations, merged):
        with pytest.raises(PresentationError, match="variable of its own in a free ring"):
            pair_image_rank(alpha, beta, [2])
        with pytest.raises(PresentationError, match="variable of its own in a free ring"):
            apply_quotient(Presentation(tags.table), alpha, beta, [])
    # a projection that swaps the names: ranks are fine, but renaming an
    # extra would lift k1^2 to a tag polynomial that beta sends to k2^2
    free = pres(["k1", "k2"], [1, 1])
    swapped = Morphism(tags, free, {"k1": Polynomial.variable(free.table, "k2"),
                                    "k2": Polynomial.variable(free.table, "k1")})
    assert pair_image_rank(alpha, swapped, [2]) == [3]
    with pytest.raises(PresentationError, match="does not send a tag k1 to the variable k1"):
        apply_quotient(Presentation(tags.table), alpha, swapped,
                       [parse_polynomial("k1^2", free.table)])


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


def test_a_presentation_keeps_the_ideal_it_is_given_and_checks_it():
    table = VarTable(["a", "b"], [1, 2])
    ideal = Ideal(table, [parse_polynomial("a^2 - b", table)])
    assert Presentation(table, ideal).relations is ideal
    assert Presentation(table, Ideal(table, [])).is_free()
    bad = [(table, Ideal(table, [parse_polynomial("a - b", table)]), "not weighted-homogeneous"),
           (table, Ideal(table, [Polynomial.constant(table, 2)]), "collapse the ring"),
           (VarTable(["a", "b"]), ideal, "different variable table"),
           (VarTable(["a", "b"]), Ideal(VarTable(["b", "a"]), []), "different variable table")]
    for where, relations, message in bad:
        with pytest.raises(PresentationError, match=message):
            Presentation(where, relations)
