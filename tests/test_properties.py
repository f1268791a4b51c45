"""Property-based suites: algebra laws that must hold for any input."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chowcheck.chowpipeline import minimal_generators
from chowcheck.exprparser import parse_polynomial
from chowcheck.groebner import (
    Ideal,
    _block_order,
    _Packing,
    buchberger,
    ideal_equal,
    ideal_quotient,
    map_kernel,
    reduce_full,
    standard_monomials,
    zero_dimensional,
)
from chowcheck.invariants import GroupAction, invariant_basis, molien_series
from chowcheck.linalg import SparseEchelon, independent_rows, solve_linear, sparse_rank
from chowcheck.polyarith import MonomialOrder, Polynomial, VarTable, mono_div, mono_mul
from chowcheck.ringpres import Presentation
from oracles import brute_force_member, count_standard_monomials, kernel_by_elimination

LEX = MonomialOrder.lex()
GREVLEX = MonomialOrder.grevlex()

TABLE3 = VarTable(["x1", "x2", "x3"])

coeffs = st.fractions(
    min_value=-8, max_value=8, max_denominator=6
).filter(lambda q: q != 0)

monomials3 = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)


@st.composite
def polynomials(draw, table=TABLE3, max_terms=5):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = draw(monomials3)[: len(table)]
        c = draw(coeffs)
        terms[mono] = terms.get(mono, Fraction(0)) + c
    return Polynomial(table, {m: c for m, c in terms.items() if c})


@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + (-f) == Polynomial.zero(TABLE3)


@given(polynomials())
def test_print_parse_round_trip(f):
    assert parse_polynomial(str(f), TABLE3) == f


@given(polynomials(), polynomials())
def test_substitution_composes(f, g):
    target = VarTable(["y1", "y2"])
    first = {
        "x1": parse_polynomial("y1 + y2", target),
        "x2": parse_polynomial("y1*y2", target),
        "x3": parse_polynomial("y2^2", target),
    }
    last = VarTable(["z"])
    second = {
        "y1": parse_polynomial("z^2", last),
        "y2": parse_polynomial("z - 1", last),
    }
    composed = {k: v.substitute(second, target=last) for k, v in first.items()}
    via_steps = f.substitute(first, target=target).substitute(second, target=last)
    assert via_steps == f.substitute(composed, target=last)
    assert (f * g).substitute(first, target=target) == (
        f.substitute(first, target=target) * g.substitute(first, target=target)
    )


@st.composite
def small_ideals(draw, max_gens=3):
    gens = draw(st.lists(polynomials(max_terms=3), min_size=1, max_size=max_gens))
    gens = [g for g in gens if not g.is_zero()]
    return gens


@settings(max_examples=25, deadline=None)
@given(small_ideals())
# discarding singular top-reducible results loses x1 + 1 from this basis
@example([parse_polynomial("x1*x2^2*x3^2 + 1", TABLE3),
          parse_polynomial("x2^3*x3 + x2^2", TABLE3)])
def test_groebner_idempotent_and_monic(gens):
    gb = buchberger(gens, GREVLEX)
    assert buchberger(gb, GREVLEX) == gb
    for g in gb:
        assert g.leading_coefficient(GREVLEX) == 1


# lex draws have at most two generators: three-generator lex draws took
# sympy up to 95 s, two at most 0.05 s
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["grevlex", "lex"]).flatmap(lambda name: st.tuples(
    st.just(name), small_ideals(max_gens=3 if name == "grevlex" else 2))))
def test_non_homogeneous_bases_match_sympy(case):
    sympy = pytest.importorskip("sympy")
    name, gens = case
    assume(not all(g.is_homogeneous() for g in gens))
    xs = sympy.symbols(TABLE3.names)

    def to_sympy(p):
        return sympy.Poly(sum((sympy.Rational(c.numerator, c.denominator)
                               * math.prod(x**e for x, e in zip(xs, m))
                               for m, c in p.terms.items()), sympy.Integer(0)),
                          *xs, domain=sympy.QQ)

    expected = sympy.groebner([to_sympy(g) for g in gens], *xs, order=name,
                              domain=sympy.QQ)
    ours = buchberger(gens, {"grevlex": GREVLEX, "lex": LEX}[name])
    assert {to_sympy(g) for g in ours} == set(expected.polys)


@settings(max_examples=25, deadline=None)
@given(small_ideals(), polynomials())
def test_membership_order_independent(gens, f):
    I = Ideal(TABLE3, gens)
    J = Ideal(TABLE3, gens)
    assert I.member(f, GREVLEX) == J.member(f, LEX)


@settings(max_examples=25, deadline=None)
@given(small_ideals(), polynomials())
def test_normal_form_is_idempotent_and_member_iff_zero(gens, f):
    I = Ideal(TABLE3, gens)
    nf = I.normal_form(f)
    assert I.normal_form(nf) == nf
    assert I.member(f) == nf.is_zero()
    assert I.member(f - nf)


@settings(max_examples=20, deadline=None)
@given(small_ideals(), polynomials(max_terms=3))
def test_colon_containment(gens, f):
    if f.is_zero():
        return
    I = Ideal(TABLE3, gens)
    colon = ideal_quotient(I, f)
    for g in colon.gens:
        assert I.member(g * f)
    # I is always contained in (I : f)
    for g in I.gens:
        assert colon.member(g)


@settings(max_examples=20, deadline=None)
@given(polynomials(), polynomials())
def test_reynolds_laws_random(f, g):
    action = GroupAction(
        TABLE3,
        [
            {"x1": "x2", "x2": "x1", "x3": "-x3"},
        ],
    )
    rf = action.reynolds(f)
    assert action.reynolds(rf) == rf
    assert action.is_invariant(rf)
    assert action.transfer(f) == action.order * rf
    # averaging is linear
    assert action.reynolds(f + g) == rf + action.reynolds(g)
    # and a projector onto invariants: R(inv * f) = inv * R(f)
    inv = parse_polynomial("x1*x2", TABLE3)
    assert action.reynolds(inv * f) == inv * rf


@st.composite
def signed_permutations(draw, n=3):
    images = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return tuple(zip(images, signs))


@settings(max_examples=60, deadline=None)
@given(st.lists(signed_permutations(), max_size=3), polynomials(),
       st.sampled_from(["raw", "group", "first generator"]))
def test_invariance_under_the_generators_is_invariance_under_the_group(gens, f, kind):
    action = GroupAction(TABLE3, gens)
    if kind == "group":
        f = action.reynolds(f)
    elif kind == "first generator":
        f = GroupAction(TABLE3, gens[:1]).reynolds(f)
    fixed = all(action.act(g, f) == f for g in action.elements)
    assert action.is_invariant(f) == fixed
    if kind == "group":
        assert fixed


def _random_poly(rng, table, max_deg, max_terms=4):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * len(table)
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(len(table))] += 1
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        key = tuple(mono)
        terms[key] = terms.get(key, Fraction(0)) + c
    return Polynomial(table, {m: c for m, c in terms.items() if c})


def brute_force_oracle_cases(n_cases=220, seed=20260814):
    """Deterministic randomized membership comparison; returns stats.

    Constructed members carry cofactors of degree <= 1 by construction, so
    the bounded brute-force search is complete for them at slack 4; random
    probes escalate the slack before being allowed to disagree.
    """
    rng = random.Random(seed)
    ran = agreements = 0
    for case in range(n_cases):
        n_vars = rng.randint(1, 3)
        table = VarTable([f"x{i+1}" for i in range(n_vars)])
        gens = [_random_poly(rng, table, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = Ideal(table, gens)
        if case % 2 == 0:
            f = Polynomial.zero(table)
            for g in gens:
                f = f + _random_poly(rng, table, 1) * g
        else:
            f = _random_poly(rng, table, 4)
        gb_says = I.member(f)
        brute = brute_force_member(f, gens, slack=3)
        if gb_says and not brute:
            # inconclusive at small slack; a certificate must exist by
            # linearity of the reduction, so search wider before failing
            brute = brute_force_member(f, gens, slack=6)
        ran += 1
        agreements += gb_says == brute
    return ran, agreements


def test_brute_force_membership_oracle_agreement():
    ran, agreements = brute_force_oracle_cases()
    assert ran >= 200
    assert agreements == ran  # zero failures


@settings(max_examples=30, deadline=None)
@given(small_ideals(), polynomials())
def test_reduction_certificate(gens, f):
    gb = buchberger(gens, GREVLEX)
    # raw generators: not monic, not reduced, one scaled by 3/7, and a zero
    # entry that must keep its place in the quotient list
    raw = [Polynomial.zero(TABLE3)] + list(gens)
    if gens:
        raw[1] = raw[1] * Fraction(3, 7)
    for basis in (gb, raw):
        r, qs = reduce_full(f, basis, GREVLEX, with_quotients=True)
        assert reduce_full(f, basis, GREVLEX) == r
        assert len(qs) == len(basis)
        rebuilt = r
        for q, g in zip(qs, basis):
            rebuilt = rebuilt + q * g
        assert rebuilt == f
        lms = [g.leading_monomial(GREVLEX) for g in basis if not g.is_zero()]
        assert not any(mono_div(m, lm) is not None for m in r.terms for lm in lms)
    assert qs[0].is_zero()


sparse_vectors = st.dictionaries(st.integers(0, 3), st.integers(-2, 2).map(Fraction),
                                 max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(sparse_vectors, max_size=6), sparse_vectors, st.booleans())
def test_sparse_solve_linear(columns, rhs, combine):
    if combine and columns:  # make rhs a combination of the columns
        rhs = {}
        for j, col in enumerate(columns):
            for k, v in col.items():
                rhs[k] = rhs.get(k, 0) + (j - 1) * v
    x = solve_linear(columns, rhs)
    rank = sparse_rank(columns)
    assert (x is None) == (sparse_rank(columns + [rhs]) > rank)
    dependent = [sparse_rank(columns[:j + 1]) == sparse_rank(columns[:j])
                 for j in range(len(columns))]
    assert independent_rows(columns) == [j for j, d in enumerate(dependent) if not d]
    if x is None:
        return
    assert len(x) == len(columns)
    total = {}
    for xj, col in zip(x, columns):
        for k, v in col.items():
            total[k] = total.get(k, 0) + xj * v
    assert {k: v for k, v in total.items() if v} == {k: v for k, v in rhs.items() if v}
    assert all(xj == 0 for xj, d in zip(x, dependent) if d)


class FractionEchelon:
    """Reference eliminator on Fraction rows: monic pivot rows, largest key
    first, the plain textbook elimination."""

    def __init__(self):
        self.pivots = {}

    def reduce(self, row):
        row = {k: v for k, v in row.items() if v}
        while row:
            lead = max(row)
            prow = self.pivots.get(lead)
            if prow is None:
                break
            c = row.pop(lead)
            for k, v in prow.items():
                if k != lead:
                    row[k] = row.get(k, Fraction(0)) - c * v
                    if not row[k]:
                        del row[k]
        return row

    def add(self, row):
        row = self.reduce(row)
        if not row:
            return False
        c = row[max(row)]
        self.pivots[max(row)] = {k: v / c for k, v in row.items()}
        return True


fraction_rows = st.dictionaries(
    st.integers(0, 5), st.fractions(min_value=-9, max_value=9, max_denominator=7),
    max_size=5)


@settings(max_examples=200, deadline=None)
@given(st.lists(fraction_rows, max_size=8), fraction_rows)
def test_fraction_free_echelon_matches_a_fraction_eliminator(rows, probe):
    """The same rows are also fed as plain ints, each scaled by the lcm of
    its denominators: the int echelon keeps the same primitive pivot rows
    and reduces each row to the same vector times that scale."""
    echelon, reference, ints = SparseEchelon(), FractionEchelon(), SparseEchelon()
    for row in rows + [probe]:
        scale = math.lcm(*(v.denominator for v in row.values()))
        int_row = {k: int(v * scale) for k, v in row.items()}
        assert all(type(v) is int for v in int_row.values())
        reduced = echelon.reduce(row)
        assert reduced == reference.reduce(row)
        assert all(isinstance(v, Fraction) for v in reduced.values())
        assert ints.reduce(int_row) == {k: v * scale for k, v in reduced.items()}
        added = echelon.add(row)
        assert added == reference.add(row) == ints.add(int_row)
    assert len(echelon) == len(reference.pivots) == sparse_rank(rows + [probe])
    assert set(echelon.pivots) == set(reference.pivots)
    assert ints.pivots == echelon.pivots


# ---------------------------------------------------------------------------
# weighted-homogeneous ideals: degree-first pair selection and minimal
# generators by degreewise linear algebra

@st.composite
def homogeneous_presentations(draw):
    weights = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
    table = VarTable(["a", "b", "c"], weights)
    gens = []
    for _ in range(draw(st.integers(1, 4))):
        degree = draw(st.integers(1, 4))
        monos = standard_monomials(Ideal(table, ()), degree, GREVLEX)
        if not monos:
            continue
        chosen = draw(st.lists(st.sampled_from(monos), min_size=min(2, len(monos)),
                               max_size=3, unique=True))
        gens.append(Polynomial(table, {m: draw(coeffs) for m in chosen}))
    return Presentation(table, gens)


def membership_loop(pres):
    """Keep each reduced-basis element the kept ones do not generate,
    deciding membership with a fresh Groebner basis every time."""
    order = pres.order
    basis = sorted(pres.relations.groebner(order),
                   key=lambda g: (g.weighted_degree(), str(g)))
    selected = []
    for g in basis:
        if selected and Ideal(pres.table, selected).member(g, order):
            continue
        selected.append(g)
    return selected


@settings(max_examples=50, deadline=None)
@given(homogeneous_presentations())
def test_minimal_generators_match_the_membership_loop(pres):
    assert minimal_generators(pres) == membership_loop(pres)


def test_minimal_generators_drop_a_generated_basis_element():
    table = VarTable(["x", "y"])
    pres = Presentation(table, [parse_polynomial(t, table)
                                for t in ("x^2 + y^2", "x*y")])
    assert sorted(str(g) for g in pres.relations.groebner(pres.order)) == [
        "x*y", "x^2 + y^2", "y^3"]
    assert [str(g) for g in minimal_generators(pres)] == ["x*y", "x^2 + y^2"]
    assert minimal_generators(pres) == membership_loop(pres)


def test_minimal_generators_with_a_huge_degree():
    """Weight 2^30 puts the degree rows of x^2 + y^2 and x*y at 2^31, past
    32-bit fields, so the packed rows are wide; y^3 = y*(x^2 + y^2) -
    x*(x*y) is still found redundant."""
    table = VarTable(["x", "y"], [2**30, 2**30])
    pres = Presentation(table, [parse_polynomial(t, table)
                                for t in ("x^2 + y^2", "x*y")])
    assert pres.relations.groebner(pres.order).packing.width == 64
    assert sorted(str(g) for g in pres.relations.groebner(pres.order)) == [
        "x*y", "x^2 + y^2", "y^3"]
    assert [str(g) for g in minimal_generators(pres)] == ["x*y", "x^2 + y^2"]
    assert minimal_generators(pres) == membership_loop(pres)


def test_minimal_generators_of_a_huge_degree_piece_cost_its_size():
    """The degree-2^31 piece has two monomials, x^(2^31) and y; walking
    the weight-1 variable's exponents one by one would take 2^31 steps."""
    table = VarTable(["x", "y"], [1, 2**31])
    pres = Presentation(table, [parse_polynomial(t, table)
                                for t in ("x^2147483648 + y", "x*y")])
    assert len(pres.relations.groebner(pres.order)) == 3
    assert [str(g) for g in minimal_generators(pres)] == ["x^2147483648 + y", "x*y"]


@settings(max_examples=25, deadline=None)
@given(homogeneous_presentations().flatmap(
    lambda pres: st.tuples(st.just(pres),
                           st.permutations(list(pres.relations.gens)))))
def test_homogeneous_basis_ignores_generator_order(case):
    pres, shuffled = case
    for order in (pres.order, LEX):
        assert buchberger(shuffled, order) == buchberger(pres.relations.gens, order)


# ---------------------------------------------------------------------------
# kernels of ring maps: one Subalgebra graph against the textbook elimination

@st.composite
def ring_maps(draw):
    """(source, images, target, target_ideal) for a small ring map.

    Source names are drawn from a pool that overlaps the target's, and each
    image is a bare or scaled target variable, a constant or a short
    polynomial."""
    def weighted(names):
        n = len(names)
        return VarTable(names, draw(st.lists(st.integers(1, 2), min_size=n, max_size=n)))

    target_names = ["x", "y", "z"][: draw(st.integers(1, 3))]
    target = weighted(target_names)
    source_names = draw(st.lists(st.sampled_from(["x", "y", "a", "b"]), min_size=1,
                                 max_size=3, unique=True))
    source = weighted(source_names)
    # exponents up to 2: the slowest of 1000 timed draws took 0.08 s
    monos = st.tuples(*[st.integers(0, 2)] * len(target_names))

    def short_polys():
        return st.dictionaries(monos, coeffs, max_size=3).map(
            lambda terms: Polynomial(target, terms))

    images = {}
    for name in source_names:
        kind = draw(st.sampled_from(["bare", "scaled", "constant", "poly"]))
        if kind in ("bare", "scaled"):
            images[name] = Polynomial.variable(target, draw(st.sampled_from(target_names)))
            if kind == "scaled":
                images[name] = images[name] * draw(coeffs)
        elif kind == "constant":
            images[name] = draw(st.integers(-2, 2))
        else:
            images[name] = draw(short_polys())
    relations = draw(st.one_of(st.none(), st.lists(short_polys(), min_size=1, max_size=2)))
    target_ideal = None if relations is None else Ideal(target, relations)
    return source, images, target, target_ideal


@settings(max_examples=150, deadline=None)
@given(ring_maps())
def test_map_kernel_matches_elimination_of_the_full_graph(case):
    source, images, target, target_ideal = case
    kernel = map_kernel(source, images, target, target_ideal)
    assert ideal_equal(kernel, kernel_by_elimination(source, images, target, target_ideal))


@st.composite
def packing_cases(draw):
    """An order of every kind, two exponent vectors and a field width: 32
    bits with exponents that always fit, or 8 bits, where sums overflow."""
    n = draw(st.integers(1, 5))
    weights = st.lists(st.integers(1, 3), min_size=n, max_size=n)
    kind = draw(st.sampled_from(["lex", "grlex", "grevlex", "wgrevlex", "block"]))
    if kind == "wgrevlex":
        order = MonomialOrder.wgrevlex(draw(weights))
    elif kind == "block":
        w = draw(weights)
        split = draw(st.integers(0, n - 1))
        order = _block_order(tuple(w[:split]), tuple(w[split:]))
    else:
        order = getattr(MonomialOrder, kind)()
    width, top = draw(st.sampled_from([(32, 1 << 20), (8, 12)]))
    vector = st.lists(st.integers(0, top), min_size=n, max_size=n).map(tuple)
    return order, _Packing(order, n, width), draw(vector), draw(vector)


@settings(max_examples=400, deadline=None)
@given(packing_cases())
def test_packed_monomials_follow_the_order_and_the_exponents(case):
    order, pk, a, b = case
    assume(pk.fits([a, b]))
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a
    assert (pa < pb) == (order.key(a) < order.key(b))
    assert (pa == pb) == (a == b)
    assert (not (pa - pb) & pk.guard) == (mono_div(a, b) is not None)
    product = mono_mul(a, b)
    if pk.fits([product]):
        assert pa + pb == pk.pack(product)
    else:
        assert (pa + pb) & pk.guard


# ---------------------------------------------------------------------------
# graded dimensions from Hilbert series, against monomial walks

@st.composite
def weighted_ideals(draw):
    """A weighted table of 2-4 variables (weights 1-3) and an ideal over
    it: monomials, or weighted-homogeneous polynomials, or nothing."""
    n = draw(st.integers(2, 4))
    weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    table = VarTable([f"x{i}" for i in range(n)], weights)
    if draw(st.booleans()):
        exps = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
        monos = draw(st.lists(exps, max_size=5))
        return table, [Polynomial(table, {tuple(m): Fraction(1)}) for m in monos]
    gens = []
    for _ in range(draw(st.integers(0, 3))):
        monos = standard_monomials(Ideal(table, ()), draw(st.integers(1, 5)), GREVLEX)
        if not monos:
            continue
        chosen = draw(st.lists(st.sampled_from(monos), min_size=1,
                               max_size=3, unique=True))
        gens.append(Polynomial(table, {m: draw(coeffs) for m in chosen}))
    return table, gens


@settings(max_examples=80, deadline=None)
@given(weighted_ideals(), st.permutations(range(-1, 13)))
def test_dimensions_from_the_hilbert_series_match_the_monomial_walk(case, degrees):
    table, gens = case
    pres = Presentation(table, gens)
    for d in degrees:  # any order: the series is expanded as far as asked
        assert pres.dim(d) == len(standard_monomials(pres.relations, d, pres.order))
    assert pres.dims(12) == [pres.dim(d) for d in range(13)]


@settings(max_examples=80, deadline=None)
@given(weighted_ideals(), st.integers(-1, 9), st.sampled_from(["wgrevlex", "lex"]))
def test_standard_monomials_match_a_brute_force_enumeration(case, degree, kind):
    table, gens = case
    weights = table.weights
    order = MonomialOrder.wgrevlex(weights) if kind == "wgrevlex" else LEX
    box = product(*(range(max(degree, 0) // w + 1) for w in weights))
    piece = [m for m in box if sum(e * w for e, w in zip(m, weights)) == degree]
    for I in (Ideal(table, ()), Ideal(table, gens)):
        lms = [g.leading_monomial(order) for g in I.groebner(order)] if I.gens else []
        want = sorted((m for m in piece
                       if not any(mono_div(m, lm) is not None for lm in lms)),
                      key=order.key, reverse=True)
        assert standard_monomials(I, degree, order) == want


@st.composite
def finite_ideals(draw):
    """Monomial ideals in 1-4 variables, with a pure power of each variable
    or not, and short random polynomials in three."""
    if draw(st.booleans()):
        return draw(small_ideals())
    n = draw(st.integers(1, 4))
    table = VarTable([f"x{i}" for i in range(n)])
    monos = draw(st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n),
                          max_size=5))
    for i in range(n):
        if draw(st.booleans()):
            monos.append([draw(st.integers(1, 4)) if j == i else 0 for j in range(n)])
    return [Polynomial(table, {tuple(m): Fraction(1)}) for m in monos]


@settings(max_examples=60, deadline=None)
@given(finite_ideals())
def test_zero_dimensional_count_matches_the_box_walk(gens):
    table = gens[0].context if gens else TABLE3
    I = Ideal(table, gens)
    count = count_standard_monomials(I, GREVLEX)
    assert zero_dimensional(I) == (count is not None, count)


@st.composite
def signed_permutation_groups(draw):
    """Up to two weight-preserving signed permutations of 1-3 variables."""
    n = draw(st.integers(1, 3))
    weights = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    table = VarTable([f"y{i}" for i in range(n)], weights)
    gens = []
    for _ in range(draw(st.integers(0, 2))):
        images = list(range(n))
        for w in set(weights):
            block = [i for i in range(n) if weights[i] == w]
            for i, j in zip(block, draw(st.permutations(block))):
                images[i] = j
        signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
        gens.append(tuple(zip(images, signs)))
    return GroupAction(table, gens)


@settings(max_examples=40, deadline=None)
@given(signed_permutation_groups())
def test_molien_series_counts_the_invariant_basis(action):
    assert molien_series(action, 6) == [len(invariant_basis(action, d))
                                        for d in range(7)]
