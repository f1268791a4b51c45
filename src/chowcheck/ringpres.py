"""Finitely presented graded rings, graded maps, and fiber products.

A presentation is Q[x_1..x_n]/I with positive integer weights on the
variables and weighted-homogeneous relations.  A quotient by extra
relations extends the reduced basis its ring already holds, so a glued ring
or a bottom ring costs the pairs of the new relations only.  Maps are
determined by generator images and are checked to preserve the grading and
to kill the source relations.  The fiber product of two maps out of a
common free tag ring is presented by the intersection of their kernels.
A gluing's other side is the projection that kills a given set of tags and
keeps the rest, so it takes those `killed` tags in place of a map: the
alpha images of the tag monomials with a killed tag (`_alpha_rows`, rows
that `groebner.ImageRows` packs and reduces) serve two jobs, each call
building its own: the pair-image rank is counted from alpha alone
(`pair_image_rank`), and a relation of the kept tags whose naive lift
fails is corrected over the rows of its degree (`apply_quotient`)."""

from __future__ import annotations

from .polyarith import MonomialOrder, Polynomial, VarTable
from .groebner import (
    HilbertSeries,
    Ideal,
    ImageRows,
    hilbert_numerator,
    intersect,
    map_kernel,
)
from .linalg import gf2_rank, solve_linear, sparse_rank


class PresentationError(ValueError):
    pass


class Presentation:
    """Q[table]/relations with weighted-homogeneous relations; relations
    that generate the unit ideal are rejected.  `relations` is a list of
    polynomials or an `Ideal` over the table, which is kept as it is, so a
    basis it already holds under the presentation's order (a kernel's or an
    intersection's) is not computed again.  A quotient extends the basis
    its ring already holds (`Ideal.extended`).  Graded dimensions are read
    off one `HilbertSeries`, built on first use from the leading monomials
    of the cached basis."""

    __slots__ = ("table", "relations", "order", "_series")

    def __init__(self, table: VarTable, relations=()):
        self.table = table
        if not isinstance(relations, Ideal):
            relations = Ideal(table, [table.own(rel, "relation", PresentationError)
                                      for rel in relations])
        self.relations = table.own(relations, "relation ideal", PresentationError)
        for rel in relations.gens:
            if not rel.is_homogeneous():
                raise PresentationError(f"relation is not weighted-homogeneous: {rel}")
            if rel.is_constant():  # in positive weights, the one way to the unit ideal
                raise PresentationError("relations collapse the ring to zero")
        self.order = MonomialOrder.wgrevlex(table.weights)
        self._series = None

    def is_free(self) -> bool:
        return self.relations.is_zero()

    def normal_form(self, f: Polynomial) -> Polynomial:
        return self.relations.normal_form(f, self.order)

    def is_zero(self, f: Polynomial) -> bool:
        return self.relations.member(f, self.order)

    @property
    def series(self) -> HilbertSeries:
        """The Hilbert series, read off the cached basis's leading monomials."""
        if self._series is None:
            gb = self.relations.groebner(self.order) if self.relations.gens else ()
            self._series = HilbertSeries(hilbert_numerator(
                [g.leading_monomial(self.order) for g in gb], self.table.weights),
                self.table.weights)
        return self._series

    def dim(self, degree: int) -> int:
        """Dimension of the degree piece as a Q-vector space."""
        return 0 if degree < 0 else self.series.dim(degree)

    def regular_quotient(self, f: Polynomial) -> tuple:
        """R/(f), R this ring, and whether f is a non-zero-divisor on R.

        For f homogeneous of degree c > 0, 0 -> (0:f)(-c) -> R(-c) -f-> R
        -> R/(f) -> 0 is exact, so HS(R/(f)) - (1 - t^c) HS(R) is
        t^c HS(0:f), zero only when (0:f) is, so f is regular exactly when
        the two series agree in every degree.  Zero is not regular; a
        non-homogeneous f or a unit raises PresentationError.  This ring's
        series is read first, so the quotient's basis extends its basis."""
        quotient, series = self.quotient([f]), self.series
        return quotient, not f.is_zero() and quotient.series.first_difference(
            HilbertSeries.sum([series, series.shifted(f.weighted_degree(), -1)])) is None

    def quotient(self, extra_relations) -> "Presentation":
        """This ring modulo the extra relations, by the relation ideal
        `extended` from this one's, so its basis extends the one this
        ring holds."""
        return Presentation(self.table, self.relations.extended(
            self.table.own(rel, "relation", PresentationError) for rel in extra_relations))

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
            fixed[name] = target.table.own(images[name], f"image of {name}", PresentationError)
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
        f = self.source.table.own(f, "argument", PresentationError)
        return self.target.normal_form(self._raw(f))

    def kernel(self) -> Ideal:
        """Kernel as an ideal over the source table (full preimage of 0)."""
        return map_kernel(self.source.table, self.images, self.target.table,
                          self.target.relations)


def fiber_product(alpha: Morphism, beta: Morphism) -> Presentation:
    """Present the image of the common source inside target(alpha) x target(beta).

    Both maps must leave the same free tag ring.  The relation ideal is the
    intersection of the two kernels.
    """
    if alpha.source is not beta.source and alpha.source.table != beta.source.table:
        raise PresentationError("fiber product needs a common source")
    if not alpha.source.is_free():
        raise PresentationError("fiber product source must be free")
    return Presentation(alpha.source.table, intersect(alpha.kernel(), beta.kernel()))


def _alpha_rows(alpha: Morphism, killed) -> ImageRows:
    """The `ImageRows` of alpha on the tag monomials with a `killed` tag; a
    killed name that is not a tag is a `PresentationError`."""
    tags = alpha.source.table
    for name in killed:
        if name not in tags.names:
            raise PresentationError(f"killed name {name} is not a tag")
    at = [tags.index(n) for n in killed]
    return ImageRows(tags, [alpha.images[n] for n in tags.names], alpha.target.relations,
                     alpha.target.order, lambda m: any(m[i] for i in at))


def pair_image_rank(alpha: Morphism, killed, degrees, bottom: Presentation) -> list:
    """Ranks of the spans of the images of degree-d tag monomials in A_d x C_d,
    one per d in `degrees`, C the free ring of the tags not `killed`.

    The monomials free of killed tags go to distinct monomials of C and the
    others to zero there, so the pair matrix is block triangular: its rank
    is the number of degree-d monomials, less the alpha rows
    (`_alpha_rows`), plus their rank.  A row is its rational image times a
    nonzero rational, with integer entries, so `gf2_rank` <= rank.  When
    `bottom` is a quotient of A (A's table, A's relations zero in it) in
    which every killed tag's image dies, each row alpha(t) * alpha(m / t),
    t killed, lies in the kernel of the onto map A -> bottom, so
    rank <= dim A_d - dim bottom_d.  A degree whose GF(2) rank reaches that
    ceiling has that rank; any other is ranked by `sparse_rank`, so no rank
    depends on `bottom`."""
    rows, a = _alpha_rows(alpha, killed), alpha.target
    proved = bottom.table == a.table and all(
        map(bottom.is_zero, a.relations.gens)) and all(
        bottom.is_zero(alpha.images[n]) for n in killed)
    ranks = []
    for d in degrees:
        size, built = rows.rows(d)
        vectors = [row for _, row, _ in built]
        ceiling = a.dim(d) - bottom.dim(d) if proved else None
        rank = ceiling if proved and gf2_rank(vectors) == ceiling else sparse_rank(vectors)
        ranks.append(size - len(built) + rank)
    return ranks


def graded_surjectivity(fiber: Presentation, alpha: Morphism, killed,
                        bottom: Presentation, degrees) -> list:
    """Certify degreewise that the tags generate the whole fiber ring.

    For each degree d the expected fiber dimension is
    dim A_d + dim C_d - dim B_d (valid because the projection of A onto the
    bottom ring is onto), C the free ring of the tags not `killed`, whose
    dimensions are read off its free series on their weights.  The
    independent linear-system rank of the tag images is counted by one
    `pair_image_rank` call over all the degrees, and the quotient
    presentation's own graded dimension is read off its Hilbert series.
    All three must agree for the degree to be certified.  The count is
    handed `bottom`, so it ranks mod 2 below the ceiling dim A_d - dim B_d,
    which every killed tag dying in B proves.
    """
    degrees = list(degrees)
    tags = alpha.source.table
    kept = HilbertSeries({0: 1}, [w for n, w in zip(tags.names, tags.weights)
                                  if n not in killed])
    out = []
    for d, rank_d in zip(degrees, pair_image_rank(alpha, killed, degrees, bottom)):
        expected = alpha.target.dim(d) + kept.dim(d) - bottom.dim(d)
        quotient_d = fiber.dim(d)
        out.append({"degree": d, "pair_rank": rank_d, "fiber_dim": expected,
                    "quotient_dim": quotient_d,
                    "certified": rank_d == expected and quotient_d == expected})
    return out


def apply_quotient(fiber: Presentation, alpha: Morphism, killed, extras) -> tuple:
    """Impose relations of the kept tags, the tags not `killed`, on a fiber
    presentation.

    Each extra is a polynomial in kept tags only (a name that is not one is
    a `PresentationError`) that holds on the projection's side and whose
    alpha-side counterpart is zero.  The naive lift renames it into the tag
    ring; when its alpha image is nonzero the difference is solved for over
    the alpha rows of its degree (`_alpha_rows`), the monomials with a
    killed tag, and y_m maps back to x_m = y_m * s_m * L^m
    (`ImageRows.scale`), so the corrected lift dies on both sides: alpha
    kills it, and every monomial of the correction has a killed tag.
    Returns the quotient presentation and one note per extra."""
    table = fiber.table
    rows = _alpha_rows(alpha, killed)
    kept = set(table.names) - set(killed)
    lifts, notes = [], []
    for extra in extras:
        stray = sorted(extra.support_names() - kept)
        if stray:
            raise PresentationError(f"relation names {stray[0]}, not a kept tag: {extra}")
        lift = naive = extra.rename(table)
        resid = alpha(naive)
        correction = None
        if not resid.is_zero():
            _, built = rows.rows(naive.weighted_degree())
            sol = solve_linear([row for _, row, _ in built], rows.key(resid))
            if sol is None:
                raise PresentationError(
                    f"relation cannot be transported across the fiber square: {extra}")
            correction = Polynomial(table, {m: y * rows.scale(m, s)
                                            for (m, _, s), y in zip(built, sol) if y})
            lift = naive - correction
            if not alpha(lift).is_zero() or not all(map(rows.keep, correction.terms)):
                raise PresentationError(f"correction failed to stay on one side: {extra}")
        lifts.append(lift)
        notes.append({"relation": str(extra), "lift": str(lift),
                      "correction": None if correction is None else str(correction)})
    return fiber.quotient(lifts), notes
