"""Graded presentations, morphisms, fiber products, graded certification."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from chowcheck import groebner, ringpres
from chowcheck.exprparser import parse_polynomial
from chowcheck.groebner import Ideal, intersect, standard_monomials
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
from oracles import pair_rank_from_scratch, transport_correction


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


def test_fiber_product_of_two_restrictions():
    """Present the image of Q[x] inside Q[x]/(x^2) x Q[x]/(x^3)."""
    source = pres(["x"], [1])
    a = pres(["u"], [1], "u^2")
    b = pres(["v"], [1], "v^3")
    alpha = Morphism(source, a, {"x": Polynomial.variable(a.table, "u")})
    beta = Morphism(source, b, {"x": Polynomial.variable(b.table, "v")})
    glued = fiber_product(alpha, beta)
    # relations = ker alpha ∩ ker beta = (x^2) ∩ (x^3) = (x^3)
    for ideal, gens in ((glued.relations, ["x^3"]), (alpha.kernel(), ["x^2"]),
                        (beta.kernel(), ["x^3"])):
        assert [str(g) for g in ideal.groebner(glued.order)] == gens


def test_fiber_product_requires_free_source():
    source = pres(["x"], [1], "x^2")
    a = pres(["u"], [1], "u^2")
    alpha = Morphism(source, a, {"x": Polynomial.variable(a.table, "u")})
    with pytest.raises(PresentationError):
        fiber_product(alpha, alpha)


def fiber(alpha, killed):
    """The fiber of a gluing as a stage presents it: ker alpha intersected
    with the ideal of the killed tags, the kernel of the projection."""
    tags = alpha.source.table
    return Presentation(tags, intersect(alpha.kernel(), Ideal(
        tags, [Polynomial.variable(tags, n) for n in killed])))


def test_pair_image_rank_and_graded_surjectivity():
    """The one-node gluing shape: A = Q[k1,k2], bottom = A/(k1), k1 killed."""
    tags = pres(["k1", "k2"], [1, 2])
    a = pres(["k1", "k2"], [1, 2])
    bottom = a.quotient([Polynomial.variable(a.table, "k1")])
    alpha = Morphism(tags, a, {
        "k1": Polynomial.variable(a.table, "k1"),
        "k2": Polynomial.variable(a.table, "k2"),
    })
    glued = fiber(alpha, ["k1"])
    assert glued.is_free()  # ker alpha = 0
    assert pair_image_rank(alpha, ["k1"], [2], bottom) == [2]  # k1^2 and k2 stay independent
    rows = graded_surjectivity(glued, alpha, ["k1"], bottom, range(7))
    for row in rows:
        assert row["pair_rank"] == row["fiber_dim"] == row["quotient_dim"]
        assert row["certified"]
    assert [row["quotient_dim"] for row in rows] == [1, 1, 2, 2, 3, 3, 4]


def test_pair_image_rank_matches_the_from_scratch_count(artifacts):
    """Every gluing stage of the default convention, in any degree order."""
    for stage in artifacts.stages:
        alpha, killed = stage.alpha, stage.killed
        for degrees in (list(range(13)), [5, 2], [3]):
            assert pair_image_rank(alpha, killed, degrees, stage.bottom) == [
                pair_rank_from_scratch(alpha, killed, d) for d in degrees]


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
    """A map alpha out of one free weighted tag ring, a drawn subset of its
    tags killed, and the table of the kept tags in a drawn order, over
    which relations to transport are drawn.  Alpha goes into a target of
    drawn weights, with or without relations, its coefficients with
    denominators 2 and 4.  Every weight is 1 or 2 times `scale`."""
    tag_weights = [scale * w for w in draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))]
    names = [f"k{i}" for i in range(len(tag_weights))]
    tags = Presentation(VarTable(names, tag_weights))
    weights = [scale * w for w in draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))]
    table = VarTable([f"a{i}" for i in range(len(weights))], weights)
    a = Presentation(table, [draw(homogeneous(table, scale * draw(st.integers(1, 3)), [1, 2]))
                             for _ in range(draw(st.integers(0, 1)))])
    kept = draw(st.permutations([n for n in names if draw(st.booleans())]))
    alpha_images = {n: draw(homogeneous(a.table, w, [1, 2, 4]))
                    for n, w in zip(names, tag_weights)}
    return (Morphism(tags, a, alpha_images), [n for n in names if n not in kept],
            VarTable(kept, [tags.table.weight(n) for n in kept]))


@settings(max_examples=80, deadline=None)
@given(tag_maps(), st.lists(st.integers(0, 4), min_size=1, max_size=4))
def test_pair_image_rank_matches_the_from_scratch_count_on_drawn_maps(maps, degrees):
    """With alpha's target as the bottom, which proves a ceiling only when
    every killed tag's image is zero there, and with alpha's target modulo
    the killed tags' images, under which the ceiling holds and a degree
    may be counted mod 2."""
    alpha, killed, _ = maps
    expected = [pair_rank_from_scratch(alpha, killed, d) for d in degrees]
    for bottom in (alpha.target, alpha.target.quotient(alpha.images[n] for n in killed)):
        assert pair_image_rank(alpha, killed, degrees, bottom) == expected


def _rational_ranks(monkeypatch) -> list:
    """The number of rows of each `sparse_rank` call the recount makes."""
    sizes = []
    monkeypatch.setattr(ringpres, "sparse_rank",
                        lambda rows: sizes.append(len(rows)) or sparse_rank(rows))
    return sizes


def test_a_gf2_rank_below_the_ceiling_falls_back_to_the_rational_rank(monkeypatch):
    """x + y and x - y have rank 2 over Q but agree mod 2: the ceiling
    dim A_1 - dim B_1 = 2 is not reached, and the rows are ranked over Q."""
    tags = pres(["k1", "k2", "k3"], [1, 1, 1])
    a = pres(["x", "y"], [1, 1])
    x, y = (Polynomial.variable(a.table, n) for n in ("x", "y"))
    alpha = Morphism(tags, a, {"k1": x + y, "k2": x - y, "k3": x})
    sizes = _rational_ranks(monkeypatch)
    assert pair_image_rank(alpha, ["k1", "k2"], [1], a.quotient([x + y, x - y])) == [3]
    assert sizes == [2]


def test_a_killed_tag_alive_in_the_bottom_is_ranked_over_q(monkeypatch):
    """The one-node shape with bottom A/(k2): k1 survives there, so no
    degree is counted mod 2, and degree 1 has pair rank 1 against an
    expected fiber dimension of 0."""
    tags = pres(["k1", "k2"], [1, 2])
    a = pres(["k1", "k2"], [1, 2])
    alpha = Morphism(tags, a, {n: Polynomial.variable(a.table, n) for n in ("k1", "k2")})
    bottom = a.quotient([Polynomial.variable(a.table, "k2")])
    sizes = _rational_ranks(monkeypatch)
    rows = graded_surjectivity(fiber(alpha, ["k1"]), alpha, ["k1"], bottom, range(4))
    assert len(sizes) == 4
    assert [row["pair_rank"] for row in rows] == [
        pair_rank_from_scratch(alpha, ["k1"], d) for d in range(4)]
    assert (rows[1]["pair_rank"], rows[1]["fiber_dim"], rows[1]["certified"]) == (1, 0, False)


# a bottom ring over another table proves no ceiling: every degree is
# ranked over Q, and no graded dimension of it or of alpha's target is read
NO_CEILING = pres([], [])


def test_a_bottom_that_is_not_a_quotient_of_alpha_target_is_not_a_ceiling(monkeypatch):
    """A = Q[x, y, z]/(z).  Over another table, or with z alive in it, the
    bottom ring is no quotient of A.  With z alive, dim A_1 - dim B_1 = 1
    equals the GF(2) rank of x + y and x - y, so trusting that bound would
    undercount; the rows are ranked over Q instead."""
    tags = pres(["k1", "k2"], [1, 1])
    a = pres(["x", "y", "z"], [1, 1, 1], "z")
    x, y = (Polynomial.variable(a.table, n) for n in ("x", "y"))
    alpha = Morphism(tags, a, {"k1": x + y, "k2": x - y})
    for bottom in (Presentation(a.table, [x, y]), pres(["u"], [1]), NO_CEILING):
        sizes = _rational_ranks(monkeypatch)
        assert pair_image_rank(alpha, ["k1", "k2"], [1], bottom) == [2]
        assert sizes == [2]


@settings(max_examples=60, deadline=None)
@given(tag_maps(), st.data())
def test_apply_quotient_corrects_as_the_fraction_path_does(maps, data):
    """A relation of the kept tags whose naive lift fails gets the
    correction the Fraction path finds, or no correction on both paths."""
    alpha, killed, kept = maps
    extra = data.draw(homogeneous(kept, data.draw(st.integers(1, 4)), [1, 3]))
    assume(not alpha(extra.rename(alpha.source.table)).is_zero())
    expected = transport_correction(alpha, killed, extra)
    if expected is None:
        with pytest.raises(PresentationError, match="cannot be transported"):
            apply_quotient(alpha.source, alpha, killed, [extra])
    else:
        (note,) = apply_quotient(alpha.source, alpha, killed, [extra])[1]
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
    a = pres(["x"], [1])
    alpha = Morphism(tags, a, {"k": Polynomial(a.table, {(n,): 1})})
    widths = _build_widths(monkeypatch)
    assert pair_image_rank(alpha, ["k"], [2**31], NO_CEILING) == [1]
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
    alpha, killed, kept = maps
    assume(any(alpha.images[n].terms for n in killed))
    degrees = data.draw(st.lists(st.integers(0, 3), max_size=3))
    degrees.insert(data.draw(st.integers(0, len(degrees))), 4)
    degrees = [WIDE * d for d in degrees]
    expected = [pair_rank_from_scratch(alpha, killed, d) for d in degrees]
    before = len(set(degrees[:degrees.index(4 * WIDE)]))  # built at 32 bits, then dropped
    with pytest.MonkeyPatch.context() as mp:
        widths = _build_widths(mp)
        assert pair_image_rank(alpha, killed, degrees, NO_CEILING) == expected
        assert widths[:before + 1] == [32] * (before + 1)
        assert widths[before + 1:] and set(widths[before + 1:]) == {64}
        extra = data.draw(homogeneous(kept, 4 * WIDE, [1, 3]))
        if alpha(extra.rename(alpha.source.table)).is_zero():
            return
        correction = transport_correction(alpha, killed, extra)
        widths.clear()
        if correction is None:
            with pytest.raises(PresentationError, match="cannot be transported"):
                apply_quotient(alpha.source, alpha, killed, [extra])
        else:
            (note,) = apply_quotient(alpha.source, alpha, killed, [extra])[1]
            assert note["correction"] == str(correction)
        assert widths == [32, 64]


def test_pair_ranks_and_transport_need_tags_to_kill_and_kept_extras():
    """Any set of killed tags defines the projection, so what can still be
    malformed is a killed name that is no tag and an extra that names a
    killed tag or no tag; each is a domain error, not a KeyError, a
    ValueError or a wrong lift."""
    tags = pres(["k1", "k2"], [1, 1])
    a = pres(["u"], [1])
    alpha = Morphism(tags, a, {n: Polynomial.variable(a.table, "u") for n in ("k1", "k2")})
    glued = Presentation(tags.table)
    for call in (lambda: pair_image_rank(alpha, ["k3"], [2], a),
                 lambda: graded_surjectivity(glued, alpha, ["k3"], a, [2]),
                 lambda: apply_quotient(glued, alpha, ["k3"], [])):
        with pytest.raises(PresentationError, match="killed name k3 is not a tag"):
            call()
    free = pres(["k1", "k2", "y"], [1, 1, 1])
    for text, name in (("k1^2", "k1"), ("k2^2 - k1*k2", "k1"), ("y*k2", "y")):
        with pytest.raises(PresentationError, match=f"relation names {name}, not a kept tag"):
            apply_quotient(glued, alpha, ["k1"], [parse_polynomial(text, free.table)])
    # a table that merely lists a killed tag is fine: only the names used count
    _, (note,) = apply_quotient(glued, alpha, ["k1"], [parse_polynomial("k2^3", free.table)])
    assert (note["lift"], note["correction"]) == ("-k1^3 + k2^3", "k1^3")


def test_apply_quotient_lifts_prev_relations():
    """Relations of the kept tags lift to the glued presentation."""
    tags = pres(["x"], [1])
    a = pres(["u"], [1], "u^2")
    alpha = Morphism(tags, a, {"x": Polynomial.variable(a.table, "u")})
    glued = fiber(alpha, [])  # ker alpha ∩ (no killed tags) = (x^2) ∩ 0 = 0
    assert glued.is_free()
    prev_rel = parse_polynomial("x^3", pres(["x"], [1]).table)  # a free prev ring sharing the name
    result, notes = apply_quotient(glued, alpha, [], [prev_rel])
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
