"""Finite groups acting on variables by signed permutations.

An element sends each variable to plus or minus another variable of the
same weight; the group is closed off from its generators by breadth-first
search.  An element sends a monomial to plus or minus a monomial, so the
Reynolds and transfer operators and the per-degree bases of invariants
(one orbit sum per orbit) are signed bookkeeping on exponent tuples.  On
top sit the Molien series, a minimal generator sweep for the invariant
algebra through the weighted Noether bound that skips every degree its
generators already fill to the Molien count, and a presentation of that
algebra whose relations come from one `Subalgebra` and whose graded
dimensions, matched to the Molien series through that bound, prove it complete.
"""

from __future__ import annotations

from fractions import Fraction

from .polyarith import MonomialOrder, Polynomial, VarTable
from .groebner import (
    Ideal,
    Subalgebra,
    _fresh_names,
    hilbert_numerator,
    hilbert_series,
    standard_monomials,
    subalgebra_member,
)
from .ringpres import Presentation


class InvariantError(ValueError):
    pass


def _parse_signed_name(text: str):
    text = text.strip()
    sign = 1
    while text and text[0] in "+-":
        if text[0] == "-":
            sign = -sign
        text = text[1:].strip()
    if not text:
        raise InvariantError("empty variable name in group generator")
    return text, sign


class GroupAction:
    """A finite group of signed variable permutations of one table.

    Elements are tuples over variable positions: element[i] == (j, s)
    means the i-th variable maps to s times the j-th one.  The generators
    are kept too: a form fixed by each of them is fixed by the group.
    """

    __slots__ = ("table", "generators", "elements")

    def __init__(self, table: VarTable, generators):
        self.table = table
        self.generators = gens = tuple(self._element(g) for g in generators)
        identity = tuple((i, 1) for i in range(len(table)))
        seen = {identity}
        queue = [identity]
        while queue:
            cur = queue.pop()
            for g in gens:
                nxt = _compose(g, cur)
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        self.elements = tuple(sorted(seen))

    def _element(self, spec) -> tuple:
        table = self.table
        if isinstance(spec, dict):
            pairs = {}
            for src, dst in spec.items():
                name, sign = _parse_signed_name(dst)
                try:
                    pairs[table.index(src)] = (table.index(name), sign)
                except ValueError as exc:  # either side may name no variable
                    raise InvariantError(f"group generator: {exc}") from None
        else:
            pairs = {i: (j, s) for i, (j, s) in enumerate(spec)}
        if sorted(pairs) != list(range(len(table))):
            raise InvariantError("group generator must map every variable")
        images = [pairs[i] for i in range(len(table))]
        if sorted(j for j, _ in images) != list(range(len(table))):
            raise InvariantError("group generator is not a permutation")
        for i, (j, s) in enumerate(images):
            if s not in (1, -1):
                raise InvariantError("signs must be +1 or -1")
            if table.weights[i] != table.weights[j]:
                raise InvariantError("group generator does not preserve weights")
        return tuple(images)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def degree_bound(self) -> int:
        """Noether's bound, |G| times the largest weight: the invariants
        are generated by Reynolds images of monomials of degree <= |G|."""
        return self.order * max(self.table.weights, default=1)

    def act(self, element: tuple, poly: Polynomial) -> Polynomial:
        if poly.context != self.table:
            raise InvariantError("polynomial lives in a different variable table")
        terms = {}
        for mono, coeff in poly.terms.items():
            key, sign = _image(element, mono)
            terms[key] = sign * coeff
        return Polynomial(self.table, terms)

    def transfer(self, poly: Polynomial) -> Polynomial:
        """Sum of the whole orbit, with multiplicity |stabilizer|."""
        if poly.context != self.table:
            raise InvariantError("polynomial lives in a different variable table")
        terms = {}
        for g in self.elements:
            for mono, coeff in poly.terms.items():
                key, sign = _image(g, mono)
                val = terms.get(key, 0) + sign * coeff
                if val:
                    terms[key] = val
                else:
                    del terms[key]
        return Polynomial(self.table, terms)

    def reynolds(self, poly: Polynomial) -> Polynomial:
        return self.transfer(poly) * Fraction(1, self.order)

    def is_invariant(self, poly: Polynomial) -> bool:
        return all(self.act(g, poly) == poly for g in self.generators)


def _image(element: tuple, mono: tuple):
    """(image, sign): the element sends the monomial to sign * image."""
    exps = [0] * len(mono)
    sign = 1
    for (j, s), e in zip(element, mono):
        exps[j] = e
        if s < 0 and e % 2:
            sign = -sign
    return tuple(exps), sign


def _compose(g: tuple, h: tuple) -> tuple:
    """Element acting as: apply h first, then g."""
    out = []
    for j, s in h:
        j2, s2 = g[j]
        out.append((j2, s * s2))
    return tuple(out)


def invariant_basis(action: GroupAction, degree: int) -> list:
    """Monic basis of the degree piece of the invariants.

    The degree monomials are walked in decreasing order, one orbit per
    monomial not met before.  A signed permutation sends a monomial to
    plus or minus a monomial, so each orbit sum is signed counts over
    exponent tuples; it vanishes exactly when some stabilizer element
    flips the sign, and is otherwise kept, divided by its coefficient at
    the orbit's first (largest) monomial.  Distinct orbits have disjoint
    supports, so the kept sums are independent and span the invariants.
    """
    table = action.table
    order = MonomialOrder.wgrevlex(table.weights)
    seen = set()
    basis = []
    for m in standard_monomials(Ideal(table, ()), degree, order):
        if m in seen:
            continue
        counts = {}
        for g in action.elements:
            key, sign = _image(g, m)
            counts[key] = counts.get(key, 0) + sign
        seen.update(counts)
        lead = counts[m]
        if lead:
            basis.append(Polynomial(table, {k: Fraction(c, lead)
                                            for k, c in counts.items()}))
    return basis


def molien_series(action: GroupAction, dmax: int) -> list:
    """Dimensions of the invariants in each weighted degree 0..dmax.

    Molien's formula, (1/|G|) sum over g of 1/det(1 - g t), from the group
    elements alone (Stanley, Bull. AMS 1, 1979).  For a signed permutation
    det(1 - g t) factors over the cycles of g: a cycle of length L through
    variables of weight w whose signs multiply to s gives 1 - s t^(wL).
    """
    weights = action.table.weights
    total = [0] * (dmax + 1)
    for g in action.elements:
        series = [1] + [0] * dmax
        seen = set()
        for start in range(len(g)):
            if start in seen:
                continue
            step, sign, i = 0, 1, start
            while i not in seen:
                seen.add(i)
                i, s = g[i]
                sign *= s
                step += weights[start]
            for d in range(step, dmax + 1):
                series[d] += sign * series[d - step]
        total = [a + b for a, b in zip(total, series)]
    if any(v % action.order for v in total):
        raise InvariantError("Molien coefficients must be integers")
    return [v // action.order for v in total]


def algebra_generators(action: GroupAction) -> list:
    """Minimal generators of the invariant algebra, swept degree by degree.

    The sweep runs through `GroupAction.degree_bound`; within a degree,
    candidates are taken in the deterministic invariant_basis order and
    kept when they are not already expressible in the generators found so
    far.  A degree is skipped when the generators found so far already
    span as many dimensions there as the Molien series counts: they span
    a subspace of the invariants, so no candidate could be kept.
    """
    return [g for _, g in _generator_span(action).gens]


def _generator_span(action: GroupAction) -> Subalgebra:
    """The generators of `algebra_generators` as one `Subalgebra`."""
    bound = action.degree_bound
    molien = molien_series(action, bound)
    selected = []
    span = None  # one Subalgebra per state of `selected`
    for d in range(1, bound + 1):
        if not molien[d]:
            continue
        if selected:
            span = span or _span(action, selected)
            if _spanned(span, d) == molien[d]:
                continue
        for f in invariant_basis(action, d):
            if selected:
                span = span or _span(action, selected)
                if subalgebra_member(f, span) is not None:
                    continue
            selected.append(f)
            span = None
    return span or _span(action, selected)


def _span(action: GroupAction, selected: list) -> Subalgebra:
    names = _fresh_names("z", len(selected), set(action.table.names), start=1)
    return Subalgebra(action.table, list(zip(names, selected)))


def _spanned(span: Subalgebra, degree: int) -> int:
    """Dimension of the degree piece of the subalgebra of homogeneous
    generators, read off the leading monomials of the tag-only part of its
    graph basis: under the block order that part is a basis of the kernel
    over the tags, whose weights are the generators' degrees."""
    tags = len(span.tag_table)
    lms = [g.leading_monomial(span.order) for g in span.graph.groebner(span.order)]
    kernel = [m[-tags:] for m in lms if not any(m[:-tags])]
    weights = span.tag_table.weights
    return hilbert_series(hilbert_numerator(kernel, weights), weights, degree)[degree]


def invariant_presentation(action: GroupAction,
                           span: Subalgebra | None = None) -> Presentation:
    """Present the invariant algebra by generators and relations.

    The relations are the kernel of the evaluation map onto the generators
    of `span`, so the presentation has the graded dimensions of their
    span.  Each generator is checked to be invariant, so the span lies in
    the invariants, which are generated in degree at most D =
    `degree_bound`: presented dimensions equal to the Molien series
    through D prove that the span is the whole invariant algebra.  The
    comparison runs through D + 2 and names the first degree off.  `span`
    defaults to the sweep's own `Subalgebra` (tags z1, z2, ..., skipping
    the action's names); a caller that builds one over the action's table
    keeps reading its basis for membership tests.
    """
    if span is None:
        span = _generator_span(action)
    for _, f in span.gens:
        if f.weighted_degree() < 1 or not f.is_homogeneous():
            raise InvariantError("generators must be homogeneous of positive degree")
        if not action.is_invariant(f):
            raise InvariantError(f"generator is not invariant: {f}")
    pres = Presentation(span.tag_table, span.kernel().gens)
    for d, expected in enumerate(molien_series(action, action.degree_bound + 2)):
        got = pres.dim(d)
        if expected != got:
            raise InvariantError(
                f"generators miss the invariants in degree {d}: "
                f"dimension {got} presented, {expected} invariant"
            )
    return pres
