"""Groebner bases over Q and the ideal operations built on them.

The engine is Buchberger's algorithm with the Gebauer-Moeller pair update
(coprime, chain and equal-lcm criteria).  S-pairs are taken smallest lcm
first; when every input generator is weighted-homogeneous under its table's
weights, pairs are taken by the weighted degree of their lcm first (the
normal strategy for homogeneous input), so each degree is finished before
the next begins whatever the monomial order.  Reduced bases are unique
per (ideal, order) and cached write-once on the Ideal object.

There is one reduction loop, `_reduce`: fraction-free, on primitive integer
coefficient dicts, with optional quotients.  Buchberger reduces S-polynomials
with it and builds reduced monic bases only at the end; `reduce_full`
clears the denominators of its input, runs the same loop and scales the
remainder and quotients back to exact rationals.

Derived operations follow the standard eliminations.  `Subalgebra` is the
one builder of a graph ideal (tag - generator, tags ordered after the
renamed-apart originals): its basis gives both the kernel of a ring map
(`map_kernel`) and subalgebra membership (`express`).  Intersections use
the one-tag trick on homogenized generators, colon ideals intersection
with a principal ideal.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from heapq import heappush, heappop

from .polyarith import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    VarTable,
    mono_coprime,
    mono_div,
    mono_lcm,
    mono_mul,
)


# ---------------------------------------------------------------------------
# the reduction kernel

def _int_terms(poly: Polynomial):
    """(terms, lift): poly with denominators cleared and content stripped,
    and the factor lift with terms == lift * poly; ({}, 1) for zero."""
    if not poly.terms:
        return {}, Fraction(1)
    den = 1
    for c in poly.terms.values():
        den = den * c.denominator // math.gcd(den, c.denominator)
    terms = {m: c.numerator * (den // c.denominator) for m, c in poly.terms.items()}
    g = math.gcd(*terms.values())
    if g > 1:
        terms = {m: c // g for m, c in terms.items()}
    return terms, Fraction(den, g)


def _strip(terms: dict, keyfn) -> dict:
    """Divide by the content and normalise the leading sign to positive."""
    if not terms:
        return terms
    g = math.gcd(*terms.values())
    if terms[max(terms, key=keyfn)] < 0:
        g = -g
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
    return terms


def _reduce(work: dict, reducers, key, quotients=None):
    """Fully reduce integer terms modulo reducers, fraction-free.

    `work` is consumed.  `reducers` is a list of (lmkey, lm, lc, terms, i)
    sorted by lmkey; each term is reduced by the first reducer whose
    leading monomial divides it.  Returns (rem, scale), where scale times
    the input equals rem plus an integer combination of the reducers.
    With `quotients`, a list of dicts indexed by i, that combination is
    recorded there already divided by scale, so that
    input = sum(quotients[i] * terms_i) + rem / scale.
    """
    rem = {}
    scale = 1
    agenda = sorted((key(m), m) for m in work)
    while agenda:
        _, m = agenda.pop()
        c = work.get(m)
        if not c:
            work.pop(m, None)
            continue
        for entry in reducers:
            q = mono_div(m, entry[1])
            if q is not None:
                break
        else:
            rem[m] = c
            del work[m]
            continue
        lc = entry[2]
        d = math.gcd(c, lc)
        s = lc // d
        t = c // d
        if s != 1:
            for mm in work:
                work[mm] *= s
            for mm in rem:
                rem[mm] *= s
            scale *= s
        if quotients is not None:
            qd = quotients[entry[4]]
            qd[q] = qd.get(q, 0) + Fraction(t, scale)
        for gm, gc in entry[3].items():
            mm = mono_mul(gm, q)
            old = work.get(mm)
            if old is None:
                v = -t * gc
                if v:
                    work[mm] = v
                    insort(agenda, (key(mm), mm))
            else:
                v = old - t * gc
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    return rem, scale


class _Engine:
    """Buchberger state for one monomial order and one variable count."""

    def __init__(self, order: MonomialOrder):
        self.order = order
        self._keys = {}

    def key(self, mono):
        k = self._keys.get(mono)
        if k is None:
            k = self.order.key(mono)
            self._keys[mono] = k
        return k

    def reducer(self, terms: dict, i: int):
        """The (lmkey, lm, lc, terms, i) entry `_reduce` expects."""
        lm = max(terms, key=self.key)
        return (self.key(lm), lm, terms[lm], terms, i)

    def reduce_int(self, p: dict, reducers) -> dict:
        """Remainder of integer terms modulo reducers, primitive with positive
        leading coefficient; membership in the generated ideal is preserved
        up to a nonzero rational factor."""
        rem, _ = _reduce(dict(p), reducers, self.key)
        return _strip(rem, self.key)

    def spoly(self, f, g) -> dict:
        """S-polynomial of primitive integer term dicts, fraction-free."""
        lmf, lcf, tf = f
        lmg, lcg, tg = g
        L = mono_lcm(lmf, lmg)
        qf = mono_div(L, lmf)
        qg = mono_div(L, lmg)
        d = math.gcd(lcf, lcg)
        a = lcg // d
        b = lcf // d
        out = {}
        for m, c in tf.items():
            out[mono_mul(m, qf)] = a * c
        for m, c in tg.items():
            mm = mono_mul(m, qg)
            v = out.get(mm, 0) - b * c
            if v:
                out[mm] = v
            else:
                out.pop(mm, None)
        return out


def buchberger(gens, order: MonomialOrder = GREVLEX):
    """Reduced monic Groebner basis, sorted by decreasing leading monomial."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    context = gens[0].context
    for g in gens:
        if g.context != context:
            raise ValueError("generators live in different variable tables")
    eng = _Engine(order)
    key = eng.key
    if all(g.is_homogeneous() for g in gens):
        weights = context.weights

        def pair_key(L, Lk):
            return (sum(e * w for e, w in zip(L, weights)), Lk)
    else:
        def pair_key(L, Lk):
            return Lk

    lead = []      # per element: (lmkey, lm, lc, terms, index)
    alive = set()
    reducers = []  # alive + dead, sorted by lmkey; duplicates of `lead`
    pairs = []     # heap of (pair_key, i, j)
    pair_live = {} # (i,j) -> lcm monomial

    def push_element(terms):
        """Insert a fully reduced nonzero element, run the pair update."""
        t = len(lead)
        entry = eng.reducer(terms, t)
        lm = entry[1]
        # Gebauer-Moeller update for the new index t
        cand = []
        for i in sorted(alive):
            L = mono_lcm(lead[i][1], lm)
            cand.append((key(L), L, i))
        cand.sort()
        kept = []
        while cand:
            Lk, L, i = cand.pop(0)
            cop = mono_coprime(lead[i][1], lm)
            if not cop:
                dominated = any(
                    mono_div(L, L2) is not None for _, L2, _ in cand
                ) or any(mono_div(L, L2) is not None for _, L2, _ in kept)
                if dominated:
                    continue
            kept.append((Lk, L, i))
        # chain criterion against surviving old pairs
        for (i, j), L in list(pair_live.items()):
            if (
                mono_div(L, lm) is not None
                and mono_lcm(lead[i][1], lm) != L
                and mono_lcm(lead[j][1], lm) != L
            ):
                del pair_live[(i, j)]
        for Lk, L, i in kept:
            if mono_coprime(lead[i][1], lm):
                continue
            pair_live[(i, t)] = L
            heappush(pairs, (pair_key(L, Lk), i, t))
        for i in list(alive):
            if mono_div(lead[i][1], lm) is not None:
                alive.discard(i)
        lead.append(entry)
        alive.add(t)
        insort(reducers, entry, key=lambda e: e[0])

    for g in sorted(gens, key=lambda p: key(p.leading_monomial(order))):
        r = eng.reduce_int(_int_terms(g)[0], reducers)
        if r:
            push_element(r)

    while pairs:
        _, i, j = heappop(pairs)
        if pair_live.pop((i, j), None) is None:
            continue
        s = eng.spoly(
            (lead[i][1], lead[i][2], lead[i][3]),
            (lead[j][1], lead[j][2], lead[j][3]),
        )
        r = eng.reduce_int(s, reducers)
        if r:
            push_element(r)

    # interreduce the minimal generators to the unique reduced basis
    minimal = sorted(alive, key=lambda i: lead[i][0])
    basis = {i: lead[i][3] for i in minimal}
    changed = True
    while changed:
        changed = False
        for i in minimal:
            others = sorted((eng.reducer(t, j) for j, t in basis.items() if j != i),
                            key=lambda e: e[0])
            r = eng.reduce_int(basis[i], others)
            if r != basis[i]:
                basis[i] = r
                changed = True

    out = []
    for i in minimal:
        terms = basis[i]
        lm = max(terms, key=key)
        lc = terms[lm]
        poly = Polynomial(context, {m: Fraction(c, lc) for m, c in terms.items()})
        out.append(poly)
    out.sort(key=lambda p: key(p.leading_monomial(order)), reverse=True)
    return tuple(out)


# ---------------------------------------------------------------------------
# reduction with exact coefficients

def reduce_full(f: Polynomial, basis, order: MonomialOrder = GREVLEX, with_quotients=False):
    """Remainder of f modulo a list of polynomials (top and tail reduction).

    Returns the remainder, or (remainder, quotients) with `with_quotients`,
    where f = sum(q_i * basis_i) + remainder exactly.  The reduction runs
    on integer terms; the remainder and quotients are scaled back at the end.
    """
    context = f.context
    eng = _Engine(order)
    reducers = []
    lifts = {}
    for i, g in enumerate(basis):
        terms, lifts[i] = _int_terms(g)
        if terms:
            reducers.append(eng.reducer(terms, i))
    reducers.sort(key=lambda e: e[0])
    work, lift = _int_terms(f)
    quotients = [{} for _ in basis] if with_quotients else None
    rem, scale = _reduce(work, reducers, eng.key, quotients)
    unit = 1 / (lift * scale)
    r = Polynomial(context, {m: c * unit for m, c in rem.items()})
    if with_quotients:
        return r, [Polynomial(context, {m: c * lifts[i] / lift for m, c in qd.items()})
                   for i, qd in enumerate(quotients)]
    return r


def exact_divide(p: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient p/f when f divides p exactly, else ValueError."""
    if f.is_zero():
        raise ValueError("division by the zero polynomial")
    r, qs = reduce_full(p, [f], GREVLEX, with_quotients=True)
    if not r.is_zero():
        raise ValueError("polynomial is not divisible")
    return qs[0]


# ---------------------------------------------------------------------------
# ideals

class Ideal:
    """Finitely generated ideal in Q[context] with cached reduced bases."""

    __slots__ = ("context", "gens", "_gb")

    def __init__(self, context: VarTable, gens):
        self.context = context
        clean = []
        for g in gens:
            if isinstance(g, (int, Fraction)):
                g = Polynomial.constant(context, g)
            if g.context != context:
                raise ValueError("generator lives in a different variable table")
            if not g.is_zero():
                clean.append(g)
        self.gens = tuple(clean)
        self._gb = {}

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inside})"

    def groebner(self, order: MonomialOrder = GREVLEX):
        """Reduced monic basis; cached write-once per order."""
        cached = self._gb.get(order.tag)
        if cached is None:
            cached = buchberger(self.gens, order)
            self._gb[order.tag] = cached
        return cached

    def normal_form(self, f: Polynomial, order: MonomialOrder = GREVLEX, with_quotients=False):
        return reduce_full(f, self.groebner(order), order, with_quotients)

    def member(self, f: Polynomial, order: MonomialOrder = GREVLEX) -> bool:
        return self.normal_form(f, order).is_zero()

    def is_trivial(self) -> bool:
        """True when the ideal is the whole ring."""
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def is_zero(self) -> bool:
        return not self.gens


def ideal_equal(I: Ideal, J: Ideal, order: MonomialOrder = GREVLEX) -> bool:
    """Compare reduced bases under one fixed order."""
    if I.context != J.context:
        return False
    return list(I.groebner(order)) == list(J.groebner(order))


# ---------------------------------------------------------------------------
# variable bookkeeping for eliminations

def _fresh_names(base: str, n: int, taken, start: int = 0) -> list:
    """n names base<k>, k counting up from `start`, skipping names in `taken`."""
    names = []
    i = start
    for _ in range(n):
        while True:
            cand = f"{base}{i}"
            i += 1
            if cand not in taken:
                names.append(cand)
                break
    return names


def _block_order(left_weights, right_weights) -> MonomialOrder:
    return MonomialOrder.block(
        len(left_weights),
        MonomialOrder.wgrevlex(left_weights) if left_weights else MonomialOrder.grevlex(),
        MonomialOrder.wgrevlex(right_weights),
    )


def eliminate(I: Ideal, drop) -> Ideal:
    """Generators of I intersected with Q[kept variables].

    The result lives in the VarTable of kept variables (original relative
    order and weights).
    """
    drop = list(drop)
    ctx = I.context
    for name in drop:
        ctx.index(name)
    dropset = set(drop)
    if len(dropset) != len(drop):
        raise ValueError("duplicate variable in elimination list")
    kept = [n for n in ctx.names if n not in dropset]
    dropped = [n for n in ctx.names if n in dropset]
    wd = tuple(ctx.weight(n) for n in dropped)
    wk = tuple(ctx.weight(n) for n in kept)
    perm = VarTable(dropped + kept, wd + wk)
    kept_table = VarTable(kept, wk)
    order = _block_order(wd, wk)
    gens = [g.rename(perm) for g in I.gens]
    gb = buchberger(gens, order)
    keptset = set(kept)
    out = []
    for g in gb:
        if g.support_names() <= keptset:
            out.append(g.rename(kept_table))
    return Ideal(kept_table, out)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I intersected with J via the auxiliary variable trick, homogenized.

    Every generator is homogenized by a new variable h of weight 1, so
    K = t*I^h + (h - t)*J^h is weighted-homogeneous and its elimination
    basis is built degree by degree; on non-homogeneous input the plain
    trick t*I + (1 - t)*J can swell coefficients past ten thousand bits
    in a few variables.  The part of K free of t lies between
    h*(I^h cap J^h) and I^h cap J^h, and setting h = 1 maps both onto
    I cap J.
    """
    ctx = I.context
    if J.context != ctx:
        raise ValueError("ideals live in different variable tables")
    if I.is_zero() or J.is_zero():
        return Ideal(ctx, [])
    tname = _fresh_names("_t", 1, set(ctx.names))[0]
    hname = _fresh_names("_h", 1, set(ctx.names))[0]
    table = VarTable((tname,) + ctx.names + (hname,), (1,) + ctx.weights + (1,))
    t = Polynomial.variable(table, tname)
    h = Polynomial.variable(table, hname)

    def homogenize(f):
        d = f.weighted_degree()
        return Polynomial(table, {
            (0,) + m + (d - sum(e * w for e, w in zip(m, ctx.weights)),): c
            for m, c in f.terms.items()
        })

    gens = [t * homogenize(f) for f in I.gens]
    gens += [(h - t) * homogenize(g) for g in J.gens]
    elim = eliminate(Ideal(table, gens), [tname])
    dehomogenize = {n: Polynomial.variable(ctx, n) for n in ctx.names}
    dehomogenize[hname] = Polynomial.one(ctx)
    return Ideal(ctx, [g.substitute(dehomogenize, target=ctx) for g in elim.gens])


def ideal_quotient(I: Ideal, f: Polynomial) -> Ideal:
    """Colon ideal (I : f) via intersection with the principal ideal (f)."""
    if f.context != I.context:
        raise ValueError("polynomial lives in a different variable table")
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    H = intersect(I, Ideal(I.context, [f]))
    return Ideal(I.context, [exact_divide(g, f) for g in H.gens])


def is_nonzerodivisor(f: Polynomial, I: Ideal) -> bool:
    """True when f is a non-zero-divisor on Q[context]/I."""
    return ideal_equal(ideal_quotient(I, f), I)


class Subalgebra:
    """Named generators over one table and the graph ideal of their tags.

    `gens` is a list of (name, Polynomial or constant) over `context`; the
    names are tag variables.  The graph ideal holds tag - generator for
    every pair, plus the generators of `relations` (an Ideal over
    `context`) when the generators live in a quotient ring.  The variables
    of `context` are renamed apart from the tags, so the two may share
    names, and ordered before them in a block order (Cox-Little-O'Shea,
    IVA 7.3).  One reduced basis then answers both questions: its tag-only
    part generates the kernel of Q[tags] -> Q[context]/relations
    (`kernel`), and a normal form that lands in the tags expresses a form
    in the generators (`express`).  A tag whose generator is a bare
    variable is identified with that variable instead of getting a graph
    generator, one tag per variable, which keeps the graph small for
    restriction-style maps.  Tags are weighted by the weighted degree of
    each generator unless a tag table is given.  The basis is computed on
    first use and kept on the object.
    """

    __slots__ = ("context", "tag_table", "graph", "order", "_rename")

    def __init__(self, context: VarTable, gens, tag_table: VarTable | None = None,
                 relations: Ideal | None = None):
        names = []
        images = []
        for n, g in gens:
            if isinstance(g, (int, Fraction)):
                g = Polynomial.constant(context, g)
            if g.context != context:
                raise ValueError("generator lives in a different variable table")
            names.append(n)
            images.append(g)
        if tag_table is None:
            tag_table = VarTable(names, [max(g.weighted_degree(), 1) for g in images])
        rename = {}  # context variable -> its name in the graph table
        for n, g in zip(names, images):
            if len(g.terms) != 1:
                continue
            (mono, c), = g.terms.items()
            if c != 1 or sum(mono) != 1:
                continue
            var = context.names[mono.index(1)]
            if var not in rename:
                rename[var] = n
        shared = set(rename.values())
        elim = [v for v in context.names if v not in rename]
        rename.update(zip(elim, _fresh_names("_z", len(elim), set(tag_table.names))))
        welim = tuple(context.weight(v) for v in elim)
        combined = VarTable(tuple(rename[v] for v in elim) + tag_table.names,
                            welim + tag_table.weights)
        graph = []
        if relations is not None:
            if relations.context != context:
                raise ValueError("relations live in a different variable table")
            graph = [g.rename(combined, rename) for g in relations.gens]
        for n, g in zip(names, images):
            if n not in shared:
                graph.append(Polynomial.variable(combined, n) - g.rename(combined, rename))
        self.context = context
        self.tag_table = tag_table
        self.graph = Ideal(combined, graph)
        self.order = _block_order(welim, tag_table.weights)
        self._rename = rename

    def kernel(self) -> Ideal:
        """Relations among the generators, as an ideal over the tag table."""
        tags = set(self.tag_table.names)
        return Ideal(self.tag_table, [g.rename(self.tag_table)
                                      for g in self.graph.groebner(self.order)
                                      if g.support_names() <= tags])

    def express(self, f: Polynomial):
        """f as a Polynomial over the tag table, or None when not a member."""
        if f.context != self.context:
            raise ValueError("polynomial lives in a different variable table")
        nf = self.graph.normal_form(f.rename(self.graph.context, self._rename), self.order)
        if nf.support_names() <= set(self.tag_table.names):
            return nf.rename(self.tag_table)
        return None


def map_kernel(source: VarTable, images: dict, target: VarTable,
               target_ideal: Ideal | None = None) -> Ideal:
    """Kernel of the ring map Q[source] -> Q[target]/target_ideal.

    `images` maps each source variable name to a Polynomial over `target`
    (or a constant).  The kernel is the tag-only part of the graph basis
    of one `Subalgebra` whose tags are the source variables.
    """
    missing = [n for n in source.names if n not in images]
    if missing:
        raise ValueError(f"no image given for {missing[0]!r}")
    gens = [(n, images[n]) for n in source.names]
    return Subalgebra(target, gens, source, target_ideal).kernel()


def subalgebra_member(f: Polynomial, gens, tag_table: VarTable | None = None):
    """Express f in the subalgebra generated by named polynomials.

    `gens` is a list of (name, Polynomial) over f's table, or a Subalgebra
    already built for them when many forms are tested against one list.
    Returns the expression as a Polynomial over the tag table or None when
    f is not a member.
    """
    if isinstance(gens, Subalgebra):
        if tag_table is not None:
            raise ValueError("a Subalgebra already carries its tag table")
        return gens.express(f)
    return Subalgebra(f.context, gens, tag_table).express(f)


def zero_dimensional(I: Ideal, order: MonomialOrder = GREVLEX):
    """(True, count of standard monomials) for 0-dimensional I, else (False, None)."""
    gb = I.groebner(order)
    if not gb:
        return (False, None) if len(I.context) else (True, 1)
    if len(gb) == 1 and gb[0].is_constant():
        return True, 0
    n = len(I.context)
    lms = [g.leading_monomial(order) for g in gb]
    bounds = [None] * n
    for lm in lms:
        support = [i for i, e in enumerate(lm) if e]
        if len(support) == 1:
            i = support[0]
            e = lm[i]
            if bounds[i] is None or e < bounds[i]:
                bounds[i] = e
    if any(b is None for b in bounds):
        return False, None
    total = 0
    stack = [(0, [0] * n)]
    while stack:
        i, exps = stack.pop()
        if i == n:
            m = tuple(exps)
            if not any(mono_div(m, lm) is not None for lm in lms):
                total += 1
            continue
        for e in range(bounds[i]):
            stack.append((i + 1, exps[:i] + [e] + [0] * (n - i - 1)))
    return True, total


def standard_monomials(I: Ideal, degree: int, order: MonomialOrder = GREVLEX):
    """Monomials of exact weighted degree not in the leading term ideal.

    Sorted decreasingly in the order; this is the canonical linear basis of
    the degree piece of Q[context]/I.  An ideal without generators has
    every monomial standard, and no basis is computed for it.
    """
    lms = [g.leading_monomial(order) for g in I.groebner(order)] if I.gens else []
    ctx = I.context
    n = len(ctx)
    w = ctx.weights
    out = []

    def walk(i, acc, exps):
        if i == n:
            if acc == degree:
                m = tuple(exps)
                if not any(mono_div(m, lm) is not None for lm in lms):
                    out.append(m)
            return
        remaining = degree - acc
        # weights are positive so the exponent range is finite
        for e in range(remaining // w[i] + 1):
            exps.append(e)
            walk(i + 1, acc + e * w[i], exps)
            exps.pop()

    walk(0, 0, [])
    out.sort(key=order.key, reverse=True)
    return out
