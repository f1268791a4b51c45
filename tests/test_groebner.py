"""Groebner bases and the ideal-theoretic operations built on them."""

import json
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

from chowcheck import groebner
from chowcheck.exprparser import parse_polynomial
from chowcheck.groebner import (
    Ideal,
    Subalgebra,
    buchberger,
    eliminate,
    exact_divide,
    hilbert_numerator,
    ideal_equal,
    ideal_quotient,
    intersect,
    map_kernel,
    reduce_full,
    standard_monomials,
    subalgebra_member,
    zero_dimensional,
)
from chowcheck.polyarith import MonomialOrder, Polynomial, VarTable
from oracles import brute_force_member

LEX = MonomialOrder.lex()
GREVLEX = MonomialOrder.grevlex()

REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs.json"


def polys(table, *texts):
    return [parse_polynomial(t, table) for t in texts]


def test_symmetric_pair_lex_basis():
    table = VarTable(["t1", "t2"])
    gens = polys(table, "t1 + t2", "t1*t2")
    gb = buchberger(gens, LEX)
    assert [str(g) for g in gb] == ["t1 + t2", "t2^2"]


def test_reduced_basis_is_monic_and_selfreduced():
    table = VarTable(["x", "y", "z"])
    gens = polys(table, "x^2 + y", "2*x*y + z", "3*y^2 - z^2 + x")
    for order in (LEX, GREVLEX, MonomialOrder.grlex()):
        gb = buchberger(gens, order)
        for i, g in enumerate(gb):
            assert g.leading_coefficient(order) == 1
            rest = gb[:i] + gb[i + 1 :]
            assert reduce_full(g, rest, order) == g


def test_groebner_idempotent():
    table = VarTable(["x", "y"])
    gens = polys(table, "x^3 - 2*x*y", "x^2*y - 2*y^2 + x")
    gb = buchberger(gens, GREVLEX)
    assert buchberger(gb, GREVLEX) == gb


def test_normal_form_is_linear_and_detects_members():
    table = VarTable(["x", "y"])
    I = Ideal(table, polys(table, "x^2 - y", "y^2 - 1"))
    f, g = polys(table, "x^4", "x*y + 3")
    nf = I.normal_form
    assert nf(f + g) == nf(nf(f) + nf(g))
    assert nf(f) == Polynomial.one(table)  # x^4 = (x^2)^2 -> y^2 -> 1
    assert I.member(f - 1)
    assert not I.member(Polynomial.variable(table, "x"))


def test_normal_form_quotients_certify_reduction():
    table = VarTable(["x", "y"])
    I = Ideal(table, polys(table, "x^2 - y", "x*y - 1"))
    f = parse_polynomial("x^3*y - x + y^2", table)
    gb = I.groebner(GREVLEX)
    r, qs = reduce_full(f, gb, GREVLEX, with_quotients=True)
    rebuilt = r
    for q, g in zip(qs, gb):
        rebuilt = rebuilt + q * g
    assert rebuilt == f


def test_trivial_and_zero_ideals():
    table = VarTable(["x"])
    assert Ideal(table, []).is_zero()


def test_exact_divide():
    table = VarTable(["x", "y"])
    f, g = polys(table, "x^2 - y^2", "x - y")
    assert exact_divide(f, g) == parse_polynomial("x + y", table)
    with pytest.raises(ValueError):
        exact_divide(parse_polynomial("x^2 + y", table), g)


def test_ideal_equal_and_membership_orders_agree():
    table = VarTable(["x", "y"])
    I = Ideal(table, polys(table, "x^2 - y", "x*y - y"))
    J = Ideal(table, polys(table, "x*y - y", "x^2 - y", "x^3 - y^2"))
    assert ideal_equal(I, J)
    probe = parse_polynomial("x^3 - y^2 + x*y - y", table)
    assert I.member(probe, LEX) == I.member(probe, GREVLEX) == True  # noqa: E712


def test_eliminate_projects_onto_kept_variables():
    table = VarTable(["t", "x", "y"])
    # the twisted cubic: x = t^2, y = t^3
    I = Ideal(table, polys(table, "x - t^2", "y - t^3"))
    J = eliminate(I, ["t"])
    assert J.context.names == ("x", "y")
    expected = Ideal(J.context, [parse_polynomial("x^3 - y^2", J.context)])
    assert ideal_equal(J, expected)


def test_eliminate_keeps_weights_and_rejects_unknowns():
    table = VarTable(["a", "b", "c"], [1, 2, 3])
    I = Ideal(table, polys(table, "b - a^2", "c - a*b"))
    J = eliminate(I, ["a"])
    assert J.context.names == ("b", "c") and J.context.weights == (2, 3)
    with pytest.raises(ValueError):
        eliminate(I, ["nope"])


def test_map_kernel_of_symmetric_functions():
    target = VarTable(["t1", "t2"])
    source = VarTable(["s1", "s2"], [1, 2])
    images = {
        "s1": parse_polynomial("t1 + t2", target),
        "s2": parse_polynomial("t1*t2", target),
    }
    assert map_kernel(source, images, target=target).is_zero()
    # add a dependent generator: p2 = s1^2 - 2 s2
    source3 = VarTable(["s1", "s2", "p2"], [1, 2, 2])
    images["p2"] = parse_polynomial("t1^2 + t2^2", target)
    ker = map_kernel(source3, images, target=target)
    expected = Ideal(source3, [parse_polynomial("p2 - s1^2 + 2*s2", source3)])
    assert ideal_equal(ker, expected)


def test_map_kernel_merges_shared_names():
    """Source variables that are also target variables map identically."""
    target = VarTable(["k1", "g2"], [1, 2])
    source = VarTable(["k1", "k2", "g2"], [1, 2, 2])
    images = {
        "k1": Polynomial.variable(target, "k1"),
        "g2": Polynomial.variable(target, "g2"),
        "k2": parse_polynomial("k1^2 - 2*g2", target),
    }
    ker = map_kernel(source, images, target=target)
    expected = Ideal(source, [parse_polynomial("k2 - k1^2 + 2*g2", source)])
    assert ideal_equal(ker, expected)


def test_map_kernel_modulo_target_ideal():
    target = VarTable(["u"])
    source = VarTable(["a"])
    images = {"a": Polynomial.variable(target, "u")}
    square = Ideal(target, [parse_polynomial("u^2", target)])
    ker = map_kernel(source, images, target_ideal=square, target=target)
    expected = Ideal(source, [parse_polynomial("a^2", source)])
    assert ideal_equal(ker, expected)


def test_intersect():
    table = VarTable(["x", "y"])
    I = Ideal(table, polys(table, "x"))
    J = Ideal(table, polys(table, "y"))
    assert ideal_equal(intersect(I, J), Ideal(table, polys(table, "x*y")))
    diag = Ideal(table, polys(table, "x - y"))
    axes = Ideal(table, polys(table, "x*y"))
    both = intersect(diag, axes)
    assert ideal_equal(both, Ideal(table, polys(table, "x^2*y - x*y^2")))
    # I ∩ J sits inside both
    for g in both.gens:
        assert diag.member(g) and axes.member(g)


def test_an_intersection_packs_its_handed_over_basis_when_first_read(monkeypatch):
    # neither elimination packs the basis it hands over: nobody reads the
    # inner one, and the outer one is packed by its first reader
    packed, of = [], groebner._Reducers.of
    monkeypatch.setattr(groebner._Reducers, "of",
                        staticmethod(lambda *args: packed.append(args) or of(*args)))
    table = VarTable(["x", "y", "z"])
    both = intersect(Ideal(table, polys(table, "x*y")), Ideal(table, polys(table, "y*z")))
    assert packed == []
    order = MonomialOrder.wgrevlex(table.weights)
    assert both.groebner(order) is both.groebner(order) == tuple(polys(table, "x*y*z"))
    assert len(packed) == 1


def test_a_known_basis_is_widened_for_an_extra_that_does_not_fit():
    # the parent's basis is packed in 32-bit fields, into which x^(2^32 + 1) would spill
    table = VarTable(["x", "y"])
    x, y = (Polynomial.variable(table, n) for n in table.names)
    parent = Ideal(table, [x * y])
    assert parent.groebner(GREVLEX).packing.width == 32
    big = Polynomial(table, {(2**32 + 1, 0): 1})
    extended = parent.extended([big])
    assert extended.groebner(GREVLEX).packing.width == 64
    assert list(extended.groebner(GREVLEX)) == list(buchberger([x * y, big], GREVLEX))


def test_colon_and_nonzerodivisors():
    table = VarTable(["x", "y"])
    I = Ideal(table, polys(table, "x*y"))
    x = Polynomial.variable(table, "x")
    y = Polynomial.variable(table, "y")
    colon = ideal_quotient(I, x)
    assert ideal_equal(colon, Ideal(table, [y]))
    # containment f * (I : f) <= I
    for g in colon.gens:
        assert I.member(g * x)


def test_colon_of_a_non_homogeneous_ideal_finishes():
    # Without homogenizing inside intersect, this ran for minutes: the
    # elimination basis grew coefficients of tens of thousands of bits.
    table = VarTable(["x1", "x2", "x3"])
    I = Ideal(table, polys(table, "-31/4*x1^2*x2^3 + 31/4*x1^3*x3",
                           "-22/3*x1^2*x3^2 + 8",
                           "-19/6*x2^3*x3^3 + 3/2*x1*x2^3 - 7*x3^3"))
    f = parse_polynomial("4*x1^2*x2^2*x3^2 - 9/2*x1*x2*x3 - 15/2*x3^3", table)
    t0 = perf_counter()
    colon = ideal_quotient(I, f)
    assert perf_counter() - t0 < 30.0
    for g in colon.gens:
        assert I.member(g * f)
    for g in I.gens:
        assert colon.member(g)


def test_subalgebra_member_both_ways():
    table = VarTable(["t1", "t2"])
    gens = [
        ("z1", parse_polynomial("t1 + t2", table)),
        ("z2", parse_polynomial("t1^2 + t2^2", table)),
    ]
    inside = parse_polynomial("t1*t2", table)
    # one Subalgebra answers for every form, off one basis
    span = Subalgebra(table, gens)
    expr = subalgebra_member(inside, span)
    assert expr is not None
    images = {"z1": gens[0][1], "z2": gens[1][1]}
    assert expr.substitute(images, target=table) == inside
    assert subalgebra_member(Polynomial.variable(table, "t1"), span) is None
    assert len(span.graph._gb) == 1


def test_subalgebra_member_custom_tag_table():
    table = VarTable(["t"])
    tags = VarTable(["a"], [2])
    expr = subalgebra_member(
        parse_polynomial("t^4", table),
        Subalgebra(table, [("a", parse_polynomial("t^2", table))], tags),
    )
    assert expr is not None and expr.context is tags
    assert str(expr) == "a^2"


def test_zero_dimensional_counts_points_with_multiplicity():
    table = VarTable(["x", "y"])
    I = Ideal(table, polys(table, "x^2", "y^3"))
    finite, count = zero_dimensional(I)
    assert finite and count == 6
    line = Ideal(table, polys(table, "x"))
    finite, count = zero_dimensional(line)
    assert not finite and count is None
    # 1, x, ..., x^999 and y
    power = Ideal(table, polys(table, "x^1000", "x*y", "y^2"))
    assert zero_dimensional(power) == (True, 1001)


def test_zero_dimensional_edge_ideals():
    table = VarTable(["x", "y"])
    assert zero_dimensional(Ideal(table, [1])) == (True, 0)
    assert zero_dimensional(Ideal(table, [])) == (False, None)
    assert zero_dimensional(Ideal(VarTable([]), [])) == (True, 1)


def test_hilbert_numerator_fixed_cases():
    assert hilbert_numerator([], (1, 2)) == {0: 1}
    assert hilbert_numerator([(0, 0)], (1, 1)) == {}  # the unit ideal
    assert hilbert_numerator([(1, 0), (0, 2)], (2, 3)) == {0: 1, 2: -1, 6: -1, 8: 1}
    # no two generators coprime: 1 - 3t^2 + 2t^3
    assert hilbert_numerator([(1, 1, 0), (1, 0, 1), (0, 1, 1)], (1, 1, 1)) == {
        0: 1, 2: -3, 3: 2}
    # the pivot is the lower median x, below the pure power x^2; x^2 itself
    # would leave I + (p) = I and never return
    assert hilbert_numerator([(2, 0), (1, 1)], (1, 1)) == {0: 1, 2: -2, 3: 1}
    # a high pure power splits in one step, not one step per exponent
    assert hilbert_numerator([(2000, 0), (1, 1)], (1, 1)) == {
        0: 1, 2: -1, 2000: -1, 2001: 1}
    # non-minimal and repeated generators change nothing
    assert hilbert_numerator([(2, 0), (1, 1), (3, 1), (1, 1)], (1, 1)) == {
        0: 1, 2: -2, 3: 1}


def test_standard_monomials():
    table = VarTable(["x", "y"])
    I = Ideal(table, polys(table, "x^2 - y"))
    # mod x^2 = y (weights 1,1): degree-2 standard monomials are x*y, y^2
    assert standard_monomials(I, 2) == [(1, 1), (0, 2)]


def test_standard_monomials_weighted():
    table = VarTable(["k1", "k2"], [1, 2])
    I = Ideal(table, [])
    assert len(standard_monomials(I, 4, MonomialOrder.wgrevlex((1, 2)))) == 3


def test_brute_force_member_agrees_on_crafted_cases():
    table = VarTable(["x", "y"])
    gens = polys(table, "x^2 - y", "x*y - 1")
    I = Ideal(table, gens)
    member = gens[0] * parse_polynomial("x + 2", table) + gens[1] * 3
    assert brute_force_member(member, gens, slack=4)
    assert I.member(member)
    assert not brute_force_member(Polynomial.variable(table, "x"), gens, slack=4)
    assert not I.member(Polynomial.variable(table, "x"))
    assert brute_force_member(Polynomial.zero(table), gens)


REF_IDEALS = json.loads(REFS.read_text())["ideals"]


@pytest.mark.parametrize("case", REF_IDEALS,
                         ids=[f"{c['name']}-{c['order']}" for c in REF_IDEALS])
def test_buchberger_matches_the_reference_basis(case):
    # The reference bases were computed by sympy, an independent engine.
    # katsura and cyclic are not homogeneous, so they take the signature
    # path; the weighted kernels take Gebauer-Moeller.
    table = VarTable(case["vars"], case["weights"])
    order = {"lex": LEX, "grevlex": GREVLEX,
             "wgrevlex": MonomialOrder.wgrevlex(table.weights)}[case["order"]]

    def monic(terms):
        p = Polynomial(table, {tuple(m): Fraction(c) for m, c in terms})
        return p * (1 / p.leading_coefficient(order))

    t0 = perf_counter()
    gb = buchberger([monic(g) for g in case["gens"]], order)
    elapsed = perf_counter() - t0
    assert sorted(gb, key=str) == sorted((monic(g) for g in case["gb"]), key=str)
    assert elapsed < 5.0


def test_the_pair_update_leaves_the_work_of_a_fixed_input_unchanged(artifacts, monkeypatch):
    """The final relation ideal's generators: 237 reductions, 163 of them
    to zero, for a basis of 37.  The same basis with fewer pairs pruned
    (no chain criterion) takes 245 and 171."""
    from chowcheck import groebner
    final = artifacts.final
    counts = [0, 0]
    reduce = groebner._reduce

    def counted(work, *args, **kwargs):
        rem, scale = reduce(work, *args, **kwargs)
        counts[0] += 1
        counts[1] += not rem
        return rem, scale

    monkeypatch.setattr(groebner, "_reduce", counted)
    basis = buchberger(final.relations.gens, final.order)
    assert basis == final.relations.groebner(final.order)
    assert (len(final.relations.gens), len(basis)) == (41, 37)
    assert counts == [237, 163]


def test_a_guard_bit_set_mid_run_redoes_the_call_at_double_width(monkeypatch):
    # every input exponent fits a 32-bit field, but the S-polynomial
    # reduces to x^4000000000 - 1, which does not
    from chowcheck import groebner
    widths = []
    doubled = groebner._Packing.doubled

    def spy(self):
        widths.append(self.width)
        return doubled(self)

    monkeypatch.setattr(groebner._Packing, "doubled", spy)
    table = VarTable(["y", "x"])
    gens = polys(table, "y - x^2000000000", "y^2 - 1")
    assert [str(g) for g in buchberger(gens, LEX)] == [
        "-x^2000000000 + y", "x^4000000000 - 1"]
    assert widths == [32]
    del widths[:]
    f = parse_polynomial("x^2000000000*y", table)
    r, (q,) = reduce_full(f, gens[:1], LEX, with_quotients=True)
    assert str(r) == "x^4000000000"
    assert q * gens[0] + r == f
    assert widths == [32]


def test_the_field_width_holds_every_exponent_and_row_value():
    from chowcheck.groebner import _Packing
    wide = MonomialOrder.wgrevlex((1, 4))
    assert _Packing.for_input(LEX, 2, [(2**31 - 1, 0)]).width == 32
    assert _Packing.for_input(LEX, 2, [(2**31, 0)]).width == 64
    # every exponent fits 32 bits, the weighted degree does not
    assert _Packing.for_input(wide, 2, [(0, 2**29)]).width == 64
    assert _Packing.for_input(wide, 2, [(0, 2**29 - 1)]).width == 32


def test_a_singular_top_reducible_result_is_kept():
    # discarding the result of the S-pair that is singular top-reducible
    # returned [x1*x2^2 + x2^2, x2*x3 + 1]: x1 + 1 was never found
    table = VarTable(["x1", "x2", "x3"])
    gens = polys(table, "x1*x2^2*x3^2 + 1", "x2^3*x3 + x2^2")
    assert [str(g) for g in buchberger(gens, GREVLEX)] == ["x2*x3 + 1", "x1 + 1"]


@pytest.mark.parametrize("name, zeros, reductions", [("katsura-5", 5, 80), ("cyclic-5", 6, 100)])
def test_signature_criteria_skip_useless_s_pairs(monkeypatch, name, zeros, reductions):
    # Gebauer-Moeller reduces 48 of katsura-5's and 65 of cyclic-5's
    # S-pairs to zero under grevlex, in 114 and 147 reductions; without the
    # rewrite criterion cyclic-5 takes 135
    from chowcheck import groebner
    case = next(c for c in REF_IDEALS if (c["name"], c["order"]) == (name, "grevlex"))
    table = VarTable(case["vars"], case["weights"])
    gens = [Polynomial(table, {tuple(m): Fraction(c) for m, c in terms})
            for terms in case["gens"]]
    assert not all(g.is_homogeneous() for g in gens)
    remainders = []
    reduce = groebner._reduce

    def spy(*args, **kwargs):
        out = reduce(*args, **kwargs)
        remainders.append(out[0])
        return out

    monkeypatch.setattr(groebner, "_reduce", spy)
    assert len(buchberger(gens, GREVLEX)) == len(case["gb"])
    assert sum(not r for r in remainders) <= zeros
    assert len(remainders) <= reductions


def test_a_koszul_signature_past_the_field_width_redoes_the_call(monkeypatch):
    # the inputs fit 32-bit fields; lm(g) * sig(h) for the two elements
    # x^1200000000 - y and y^2 - 1 has degree 2400000001, which does not
    from chowcheck import groebner
    widths = []
    doubled = groebner._Packing.doubled

    def spy(self):
        widths.append(self.width)
        return doubled(self)

    monkeypatch.setattr(groebner._Packing, "doubled", spy)
    table = VarTable(["x", "y"])
    gens = polys(table, "x^1200000000 - y", "x^1200000000*y - 1")
    assert [str(g) for g in buchberger(gens, GREVLEX)] == ["x^1200000000 - y", "y^2 - 1"]
    assert widths == [32]


def test_a_small_non_homogeneous_kernel_finishes_and_matches_sympy():
    # Gebauer-Moeller with smallest-lcm-first pairs ran past 10 s on this
    # graph; sympy's lex elimination of the same graph is the reference
    sympy = pytest.importorskip("sympy")
    source = VarTable(["b", "x"], [2, 2])
    target = VarTable(["x", "y", "z"], [1, 2, 2])
    images = {"b": "13/2*x*y^2*z^2 - 15/2*x^2*z^2 - 38/5*y*z^2", "x": "-4*y"}
    relations = ["2*x^2*y^2*z^2 - 7/2*x^2*y*z - 5*y*z", "25/6*x^2*z^2 - 9/4*y"]
    t0 = perf_counter()
    kernel = map_kernel(source, {n: parse_polynomial(t, target) for n, t in images.items()},
                        target, Ideal(target, polys(target, *relations)))
    assert perf_counter() - t0 < 2.0

    t = sympy.symbols("t0 t1 t2")
    b, x = sympy.symbols("b x")
    on_t = dict(zip(target.names, t))
    graph = [sympy.sympify(r.replace("^", "**"), locals=on_t) for r in relations]
    graph += [sympy.Symbol(n) - sympy.sympify(f.replace("^", "**"), locals=on_t)
              for n, f in images.items()]
    full = sympy.groebner(graph, *t, b, x, order="lex")
    expected = [g for g in full.exprs if not g.free_symbols & set(t)]
    ours = [sympy.sympify(str(g).replace("^", "**")) for g in kernel.gens]
    assert list(sympy.groebner(ours, b, x, order="lex").exprs) == expected


def reference_gens(name):
    """The generators of one grevlex reference ideal, as listed."""
    case = next(c for c in REF_IDEALS if (c["name"], c["order"]) == (name, "grevlex"))
    table = VarTable(case["vars"], case["weights"])
    return [Polynomial(table, {tuple(m): Fraction(c) for m, c in terms})
            for terms in case["gens"]]


@pytest.mark.parametrize("name, size", [("katsura-5", 22), ("cyclic-5", 20)])
def test_the_final_interreduction_is_one_pass(monkeypatch, name, size):
    # only an element with a smaller leading monomial can reduce a tail, so
    # one pass by increasing leading monomial reduces each element once; a
    # loop until nothing changes makes a second, confirming round (44, 40)
    from chowcheck import groebner
    unbounded = []
    reduce = groebner._reduce

    def spy(*args, bound=None, **kwargs):
        unbounded.append(bound is None)
        return reduce(*args, bound=bound, **kwargs)

    monkeypatch.setattr(groebner, "_reduce", spy)
    assert len(buchberger(reference_gens(name), GREVLEX)) == size
    assert sum(unbounded) == size


def test_member_and_normal_form_reduce_with_the_basis_buchberger_packed(monkeypatch):
    # the basis stays packed from buchberger to the normal form: nothing is
    # packed again, and only the remainder is unpacked
    from chowcheck import groebner
    gens = reference_gens("katsura-5")
    x = Polynomial.variable(gens[0].context, gens[0].context.names[0])
    calls = {"of": 0, "polynomial": 0}
    of, polynomial = groebner._Reducers.of, groebner._Packing.polynomial

    def counting_of(*args):
        calls["of"] += 1
        return of(*args)

    def counting_polynomial(self, *args):
        calls["polynomial"] += 1
        return polynomial(self, *args)

    monkeypatch.setattr(groebner._Reducers, "of", staticmethod(counting_of))
    monkeypatch.setattr(groebner._Packing, "polynomial", counting_polynomial)
    I = Ideal(gens[0].context, gens)
    assert I.member(gens[0] * gens[1] - x * gens[2])
    assert calls["of"] == 0 and calls["polynomial"] <= 1
    calls["polynomial"] = 0
    assert not I.normal_form(x * gens[1] + x).is_zero()
    assert calls["of"] == 0 and calls["polynomial"] <= 1
    assert I.groebner(GREVLEX) == buchberger(gens, GREVLEX)


def test_an_ideal_computes_its_basis_through_buchberger_once_per_order(monkeypatch):
    from chowcheck import groebner
    runs = []
    real = groebner.buchberger

    def counting(gens, order=groebner.GREVLEX):
        runs.append(order.tag)
        return real(gens, order)

    monkeypatch.setattr(groebner, "buchberger", counting)
    table = VarTable(["x", "y"])
    I = Ideal(table, polys(table, "x^2 - y", "x*y - 1"))
    f = parse_polynomial("x^3*y - x + y^2", table)
    I.groebner(GREVLEX)
    I.member(f, GREVLEX)
    I.normal_form(f, GREVLEX)
    assert runs == [GREVLEX.tag]


def test_membership_and_normal_form_reject_a_polynomial_of_another_table():
    # y over (y, x) has the exponents of x over (x, y): read in the wrong
    # table it would be a member of (x)
    xy, yx = VarTable(["x", "y"]), VarTable(["y", "x"])
    I = Ideal(xy, [Polynomial.variable(xy, "x")])
    y = Polynomial.variable(yx, "y")
    for ask in (I.member, I.normal_form):
        with pytest.raises(ValueError, match="polynomial lives in a different variable table"):
            ask(y)
    assert not I.member(Polynomial.variable(xy, "y"))


def test_member_stops_at_the_first_term_no_leading_monomial_divides(monkeypatch):
    from chowcheck import groebner
    remainders = []
    real = groebner._reduce

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        remainders.append(len(out[0]))
        return out

    monkeypatch.setattr(groebner, "_reduce", spy)
    table = VarTable(["x", "y", "z"])
    I = Ideal(table, polys(table, "x^2 - y*z"))
    I.groebner(GREVLEX)
    remainders.clear()
    f = parse_polynomial("y^4 + x^3 + y^2*z + z^3 + y + z", table)
    assert not I.member(f)
    # the test stops at y^4; the full remainder has six terms
    assert remainders == [1] and len(I.normal_form(f).terms) == 6
    assert I.member(f - I.normal_form(f))
