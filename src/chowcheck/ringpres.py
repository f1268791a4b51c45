"""Finitely presented graded rings, graded maps, and fiber products.

A presentation is Q[x_1..x_n]/I with positive integer weights on the
variables and weighted-homogeneous relations.  Maps are determined by
generator images and are checked to preserve the grading and to kill the
source relations.  The fiber product of two maps out of a common free tag
ring is presented by the intersection of their kernels; relations that
only exist on one side of a fiber square are transported across it by
`apply_quotient`, solving for a correction supported on the tags the other
side kills whenever the naive lift fails.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .polyarith import MonomialOrder, Polynomial, VarTable
from .groebner import (
    Ideal,
    _Overflow,
    _reduce,
    hilbert_numerator,
    intersect,
    map_kernel,
    standard_monomials,
)
from .linalg import SparseEchelon, solve_linear


class PresentationError(ValueError):
    pass


class Presentation:
    """Q[table]/relations with weighted-homogeneous relations; relations
    that generate the unit ideal are rejected.  Graded dimensions are read
    off one Hilbert series, built on first use from the leading monomials
    of the cached basis and expanded as far as asked."""

    __slots__ = ("table", "relations", "order", "_numerator", "_series")

    def __init__(self, table: VarTable, relations=()):
        self.table = table
        rels = []
        for rel in relations:
            if isinstance(rel, (int, Fraction)):
                rel = Polynomial.constant(table, rel)
            if rel.context != table:
                raise PresentationError("relation lives in a different variable table")
            if rel.is_zero():
                continue
            if not rel.is_homogeneous():
                raise PresentationError(f"relation is not weighted-homogeneous: {rel}")
            rels.append(rel)
        self.relations = Ideal(table, rels)
        self.order = MonomialOrder.wgrevlex(table.weights)
        self._numerator = None
        self._series = []
        if rels and self.relations.is_trivial(self.order):
            raise PresentationError("relations collapse the ring to zero")

    def is_free(self) -> bool:
        return self.relations.is_zero()

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.relations.normal_form(f, self.order)

    def is_zero(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def dim(self, degree: int) -> int:
        """Dimension of the degree piece as a Q-vector space."""
        if degree < 0:
            return 0
        self._expand(degree)
        return self._series[degree]

    def dims(self, dmax: int) -> list:
        """Dimensions of the degree pieces 0..dmax."""
        self._expand(dmax)
        return self._series[:max(dmax + 1, 0)]

    def _expand(self, dmax: int) -> None:
        """Make `_series` hold the Hilbert series N(t) / prod(1 - t^w)
        through at least t^dmax, N the numerator of the leading term
        ideal (`hilbert_numerator`)."""
        if dmax >= len(self._series):
            if self._numerator is None:
                gb = self.relations.groebner(self.order) if self.relations.gens else ()
                self._numerator = hilbert_numerator(
                    [g.leading_monomial(self.order) for g in gb], self.table.weights)
            top = max(dmax, 2 * len(self._series))
            series = [0] * (top + 1)
            for k, c in self._numerator.items():
                if k <= top:
                    series[k] = c
            for w in self.table.weights:
                for d in range(w, top + 1):
                    series[d] += series[d - w]
            self._series = series

    def quotient(self, extra_relations) -> "Presentation":
        return Presentation(self.table, list(self.relations.gens) + list(extra_relations))

    def __repr__(self):
        return f"Presentation({self.table!r}, {len(self.relations.gens)} relations)"


class Morphism:
    """Graded ring map Presentation -> Presentation given by generator images."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: Presentation, target: Presentation, images: dict):
        self.source = source
        self.target = target
        fixed = {}
        for name in source.table.names:
            if name not in images:
                raise PresentationError(f"no image given for generator {name}")
            img = images[name]
            if isinstance(img, (int, Fraction)):
                img = Polynomial.constant(target.table, img)
            if img.context != target.table:
                raise PresentationError(f"image of {name} lives in the wrong table")
            fixed[name] = img
        self.images = fixed
        for name, img in fixed.items():
            if img.is_zero():
                continue
            w = source.table.weight(name)
            if not img.is_homogeneous() or img.weighted_degree() != w:
                raise PresentationError(
                    f"image of {name} is not homogeneous of weight {w}: {img}"
                )
        for rel in source.relations.gens:
            if not self.target.is_zero(self._raw(rel)):
                raise PresentationError(f"relation does not map to zero: {rel}")

    def _raw(self, f: Polynomial) -> Polynomial:
        return f.substitute(self.images, target=self.target.table)

    def __call__(self, f: Polynomial) -> Polynomial:
        if f.context != self.source.table:
            raise PresentationError("argument lives in a different variable table")
        return self.target.normal_form(self._raw(f))

    def kernel(self) -> Ideal:
        """Kernel as an ideal over the source table (full preimage of 0)."""
        return map_kernel(self.source.table, self.images, self.target.table,
                          self.target.relations)

    def killed_names(self):
        return [n for n in self.source.table.names if self.images[n].is_zero()]


def fiber_product(alpha: Morphism, beta: Morphism) -> tuple:
    """Present the image of the common source inside target(alpha) x target(beta).

    Both maps must leave the same free tag ring.  The relation ideal is the
    intersection of the two kernels.  Returns the presentation and the
    kernels of alpha and beta.
    """
    if alpha.source is not beta.source and alpha.source.table != beta.source.table:
        raise PresentationError("fiber product needs a common source")
    if not alpha.source.is_free():
        raise PresentationError("fiber product source must be free")
    ker_alpha, ker_beta = alpha.kernel(), beta.kernel()
    fiber = Presentation(alpha.source.table, intersect(ker_alpha, ker_beta).gens)
    return fiber, ker_alpha, ker_beta


def pair_image_rank(alpha: Morphism, beta: Morphism, degrees) -> list:
    """Ranks of the spans of the images of degree-d tag monomials in A_d x C_d,
    one per d in `degrees`.

    This is the honest linear-system count: one row per monomial in the
    tags, coordinates running over both targets at once.  It runs on
    packed integer terms throughout.  Tag i maps to (L_i alpha(x_i),
    L_i beta(x_i)), with L_i the lcm of the denominators on both sides, so
    every row is the rational row times one non-zero integer and the
    ranks are unchanged.  Unreduced images are built incrementally and
    kept for the whole call, raw[m] = raw[m / x_i] * gen_i with x_i the
    last variable of m, filled on demand so `degrees` may come in any
    order; only the row that enters the eliminator is put in normal form,
    against the packed basis each target keeps (`Ideal.groebner`).  A
    product that sets a guard bit restarts the call with both packings at
    double width.
    """
    table = alpha.source.table
    degrees = list(degrees)
    maps = (alpha, beta)
    lifts = [math.lcm(*(c.denominator for f in maps for c in f.images[n].terms.values()))
             for n in table.names]
    reds = [f.target.relations.groebner(f.target.order).fitting(
                [m for n in table.names for m in f.images[n].terms])
            for f in maps]
    while True:
        try:
            return _pair_ranks(table, maps, lifts, reds, degrees)
        except _Overflow:
            reds = [red.doubled() for red in reds]


def _times(f: dict, g: dict, guard: int) -> dict:
    """Product of packed integer terms; _Overflow when a guard bit is set."""
    out = {}
    for k, c in f.items():
        for q, d in g.items():
            kq = k + q
            old = out.get(kq)
            if old is None:
                if kq & guard:
                    raise _Overflow
                out[kq] = c * d
            else:
                out[kq] = old + c * d
    return {k: c for k, c in out.items() if c}


def _image(m: tuple, raw: dict, gens, ga: int, gc: int) -> tuple:
    """raw[m] = raw[m / x_i] * gen_i, x_i the last variable of m, on demand."""
    got = raw.get(m)
    if got is None:
        i = max(j for j, e in enumerate(m) if e)
        a, c = _image(m[:i] + (m[i] - 1,) + m[i + 1:], raw, gens, ga, gc)
        got = raw[m] = (_times(a, gens[i][0], ga), _times(c, gens[i][1], gc))
    return got


def _pair_ranks(table, maps, lifts, reds, degrees) -> list:
    red_a, red_c = reds
    ea, ga = red_a.entries, red_a.packing.guard
    ec, gc = red_c.entries, red_c.packing.guard
    gens = [tuple({red.packing.pack(m): c.numerator * (lift // c.denominator)
                   for m, c in f.images[n].terms.items()}
                  for f, red in zip(maps, reds))
            for n, lift in zip(table.names, lifts)]
    raw = {(0,) * len(table): ({0: 1}, {0: 1})}
    free = Ideal(table, ())
    order = MonomialOrder.wgrevlex(table.weights)
    ranks = []
    for d in degrees:
        echelon = SparseEchelon()
        for m in standard_monomials(free, d, order):
            a, c = _image(m, raw, gens, ga, gc)
            rem_a, s_a = _reduce(dict(a), ea, ga)
            rem_c, s_c = _reduce(dict(c), ec, gc)
            g = math.gcd(s_a, s_c)
            s_a, s_c = s_a // g, s_c // g
            row = {2 * k: v * s_c for k, v in rem_a.items()}
            row.update({2 * k + 1: v * s_a for k, v in rem_c.items()})
            echelon.add(row)
        ranks.append(len(echelon))
    return ranks


def graded_surjectivity(fiber: Presentation, alpha: Morphism, beta: Morphism,
                        bottom: Presentation, degrees) -> list:
    """Certify degreewise that the tags generate the whole fiber ring.

    For each degree d the expected fiber dimension is
    dim A_d + dim C_d - dim B_d (valid because the projection of A onto the
    bottom ring is onto), the independent linear-system rank of the tag
    images is counted by one `pair_image_rank` call over all the degrees,
    and the quotient presentation's own graded dimension is read off its
    Hilbert series.  All three must agree for the degree to be
    certified.
    """
    degrees = list(degrees)
    out = []
    for d, rank_d in zip(degrees, pair_image_rank(alpha, beta, degrees)):
        expected = alpha.target.dim(d) + beta.target.dim(d) - bottom.dim(d)
        quotient_d = fiber.dim(d)
        out.append({
            "degree": d,
            "pair_rank": rank_d,
            "fiber_dim": expected,
            "quotient_dim": quotient_d,
            "certified": rank_d == expected and quotient_d == expected,
        })
    return out


def apply_quotient(fiber: Presentation, alpha: Morphism, beta: Morphism,
                   extras) -> tuple:
    """Impose relations of the beta side on a fiber presentation.

    Each extra is a polynomial over the beta target table (all of whose
    variables must also be tags) that holds in the beta-side ring and whose
    alpha-side counterpart is zero.  The naive lift renames it into the tag
    ring; when its alpha image is nonzero the difference is solved for as a
    combination of same-degree monomials supported on tags that beta kills,
    so the corrected lift dies on both sides.  Returns the quotient
    presentation and one note per extra.
    """
    table = fiber.table
    killed = set(beta.killed_names())
    for name in beta.target.table.names:
        if name not in set(table.names):
            raise PresentationError(f"beta-side variable {name} is not a tag")
    order = MonomialOrder.wgrevlex(table.weights)
    lifts = []
    notes = []
    for extra in extras:
        naive = extra.rename(table)
        resid = alpha(naive)
        if resid.is_zero():
            lifts.append(naive)
            notes.append({"relation": str(extra), "lift": str(naive),
                          "correction": None})
            continue
        d = naive.weighted_degree()
        candidates = [m for m in standard_monomials(Ideal(table, ()), d, order)
                      if any(m[i] for i, n in enumerate(table.names) if n in killed)]
        images = [alpha(Polynomial(table, {m: Fraction(1)})).terms for m in candidates]
        sol = solve_linear(images, resid.terms)
        if sol is None:
            raise PresentationError(
                f"relation cannot be transported across the fiber square: {extra}"
            )
        correction = Polynomial(table, {m: c for m, c in zip(candidates, sol) if c})
        lift = naive - correction
        if not alpha(lift).is_zero() or not beta(correction).is_zero():
            raise PresentationError(f"correction failed to stay on one side: {extra}")
        lifts.append(lift)
        notes.append({"relation": str(extra), "lift": str(lift),
                      "correction": str(correction)})
    return fiber.quotient(lifts), notes
