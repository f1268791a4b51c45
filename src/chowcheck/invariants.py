"""Finite groups acting on variables by signed permutations.

An element sends each variable to plus or minus another variable of the
same weight; the group is closed off from its generators by breadth-first
search.  An element sends a monomial to plus or minus a monomial, so the
Reynolds and transfer operators and the per-degree bases of invariants
(one orbit sum per orbit) are signed bookkeeping on exponent tuples.  On
top sit the exact Molien series, a minimal generator sweep for the
invariant algebra that visits only the degrees where its span falls short
of it, and a presentation of that algebra whose relations come from one
`Subalgebra` and whose Hilbert series, equal to Molien's, proves it complete.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction

from .polyarith import MonomialOrder, Polynomial, VarTable
from .groebner import (
    HilbertSeries,
    Ideal,
    Subalgebra,
    _fresh_names,
    standard_monomials,
    subalgebra_member,
)
from .ringpres import Presentation


class InvariantError(ValueError):
    pass


def _parse_signed_name(text: str):
    signs, name = re.fullmatch(r"([-+\s]*)(.*)", text, re.S).groups()
    if not name.strip():
        raise InvariantError("empty variable name in group generator")
    return name.strip(), (-1) ** signs.count("-")


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

    def act(self, element: tuple, poly: Polynomial) -> Polynomial:
        poly = self.table.own(poly, "polynomial", InvariantError)
        terms = {}
        for mono, coeff in poly.terms.items():
            key, sign = _image(element, mono)
            terms[key] = sign * coeff
        return Polynomial(self.table, terms)

    def transfer(self, poly: Polynomial) -> Polynomial:
        """Sum of the whole orbit, with multiplicity |stabilizer|."""
        poly = self.table.own(poly, "polynomial", InvariantError)
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


def molien_series(action: GroupAction) -> HilbertSeries:
    """The Hilbert series of the invariants, as an exact rational function.

    Molien's formula, (1/|G|) sum over g of 1/det(1 - g t) (Stanley, Bull.
    AMS 1, 1979), one term per cycle type: a cycle of a signed permutation
    of length L through variables of weight w whose signs multiply to s
    gives a factor 1 - s t^k of det(1 - g t), k = wL, and 1/(1 + t^k) is
    (1 - t^k)/(1 - t^2k).
    """
    weights = action.table.weights
    types = Counter()
    for g in action.elements:
        cycles, seen = [], set()
        for start in range(len(g)):
            step, sign, i = 0, 1, start
            while i not in seen:
                seen.add(i)
                i, s = g[i]
                sign *= s
                step += weights[start]
            if step:  # a cycle not walked before
                cycles.append((step, sign))
        types[tuple(sorted(cycles))] += 1
    terms = []
    for cycles, count in types.items():
        numerator = Counter({0: count})
        for k, s in cycles:
            if s < 0:  # times 1 - t^k
                numerator.subtract({d + k: c for d, c in numerator.items()})
        terms.append(HilbertSeries(numerator, [k if s > 0 else 2 * k for k, s in cycles]))
    total = HilbertSeries.sum(terms)
    if any(c % action.order for c in total.numerator.values()):
        raise InvariantError("Molien coefficients must be integers")
    return HilbertSeries({k: c // action.order for k, c in total.numerator.items()},
                         total.weights)


def algebra_generators(action: GroupAction) -> list:
    """Minimal generators of the invariant algebra, swept degree by degree.

    The sweep visits only the lowest degree where the span of the
    generators found so far falls short of the Molien series, and stops
    when none is left.  There, candidates are taken in invariant_basis
    order and kept when they are not already expressible in the generators.
    """
    return [g for _, g in _generator_span(action, molien_series(action))[0].gens]


def _generator_span(action: GroupAction, molien: HilbertSeries) -> tuple:
    """The generators of `algebra_generators` as one `Subalgebra`, and the
    presentation of the algebra they span: the kernel over their tags."""
    selected, span = [], None  # one Subalgebra per state of `selected`
    pres = Presentation(VarTable(()))  # no generators span the constants
    while (d := pres.series.first_difference(molien)) is not None:
        known = len(selected)
        for f in invariant_basis(action, d):
            if selected:
                span = span or _span(action, selected)
                if subalgebra_member(f, span) is not None:
                    continue
            selected.append(f)
            span = None
        if len(selected) == known:  # no new generator: a wrong kernel, named by the caller
            break
        span = span or _span(action, selected)
        pres = Presentation(span.tag_table, span.kernel())
    return span or _span(action, selected), pres


def _span(action: GroupAction, selected: list) -> Subalgebra:
    names = _fresh_names("z", len(selected), set(action.table.names), start=1)
    return Subalgebra(action.table, list(zip(names, selected)))


def invariant_presentation(action: GroupAction,
                           span: Subalgebra | None = None) -> Presentation:
    """Present the invariant algebra by generators and relations.

    The relations are the kernel of the evaluation map onto the generators
    of `span`, each checked to be invariant, so the presentation's Hilbert
    series equals the Molien series exactly when the span is the whole
    invariant algebra; otherwise the first degree off is named.  `span`
    defaults to the sweep's own (tags z1, z2, ..., skipping the action's
    names), whose presentation the sweep has built; a caller that builds
    one keeps reading its basis.
    """
    molien = molien_series(action)
    span, pres = _generator_span(action, molien) if span is None else (span, None)
    for _, f in span.gens:
        if f.weighted_degree() < 1 or not f.is_homogeneous():
            raise InvariantError("generators must be homogeneous of positive degree")
        if not action.is_invariant(f):
            raise InvariantError(f"generator is not invariant: {f}")
    pres = pres or Presentation(span.tag_table, span.kernel())
    d = pres.series.first_difference(molien)
    if d is not None:
        raise InvariantError(
            f"generators miss the invariants in degree {d}: "
            f"dimension {pres.dim(d)} presented, {molien.dim(d)} invariant"
        )
    return pres
