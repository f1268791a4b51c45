"""Groebner bases over Q and the ideal operations built on them.

`buchberger` has two paths, chosen by the input alone.  When every input
generator is weighted-homogeneous under its table's weights, it runs
Buchberger's algorithm with the Gebauer-Moeller pair update (coprime, chain
and equal-lcm criteria), S-pairs by the weighted degree of their lcm first,
so each degree is finished before the next begins whatever the monomial
order.  The inputs join that loop by weighted degree, each after every
pair of its degree; one reduces to zero exactly when the inputs before it
generate it, and `irredundant` returns the others, a minimal generating
set.  Any other input runs a signature-based algorithm (Eder-Faugere,
J. Symb. Comput. 80, 2017).  Input i has signature (lm_i, i), and t*e_i
has (t*lm_i, i): the Schreyer order (Roune-Stillman, ISSAC 2012), compared
as tuples.  S-pairs come from one heap in increasing signature, each
signature at most once, and every reduction is regular: a reducer may act
only where its multiple has a smaller signature.  Three criteria skip a
pair before it is reduced: a known syzygy signature of the same index
divides its signature (the Koszul signatures of every two elements, and
every reduction to zero); an element added after the pair's generator has
the same index and a signature that divides the pair's (the rewrite
criterion, "add" order); and two equal sides (a singular pair).  A result
that is singular top-reducible is kept as an element, not discarded: on
(x1*x2^2*x3^2 + 1, x2^3*x3 + x2^2) under grevlex, discarding it loses the
leading monomial x1 of the basis.  Both paths end in one interreduction
pass, so the answer is the unique reduced monic basis per (ideal, order),
cached write-once on the Ideal object.  An ideal whose generators are
already that basis holds it from the start: a kernel and an intersection
of weighted-homogeneous ideals hand over the basis their elimination
computed (`_with_basis`), so no Buchberger run makes it again, and it is
packed when first read.  An ideal `extended` by extra generators from one
that holds its basis extends that basis: the known elements enter the
Gebauer-Moeller loop finished, and only pairs with a new element are
formed.

Inside the kernel a monomial is one int (the packed exponent vectors of
Monagan-Pearce, CASC 2007).  Fixed-width fields hold, most significant
first, the rows of the order's key and then the exponents; the top bit of
each field is a guard.  So multiplying is `a + b`, ints compare in the
monomial order, and b divides a exactly when `(a - b) & guard == 0`.  The
width is picked from the input so that every row value and exponent fits
below its guard; a product that sets a guard bit mid-run makes the whole
call start again at double width, so the width never changes an answer.
Polynomials are packed once on entry; a basis is unpacked when read.

There is one reduction loop, `_reduce`: fraction-free, on primitive integer
coefficient dicts over packed monomials, with optional quotients.
Both Buchberger paths reduce S-polynomials with it (the signature path
with a signature bound), and one pass of it by increasing leading monomial
interreduces their result; `reduce_full` clears the denominators of its
input, runs the same loop and scales the remainder and quotients back to
exact rationals, and `Ideal.member` runs it only up to the first term no
leading monomial divides.  The reduced basis leaves `buchberger` as the primitive
integer reducers of that pass (`_Reducers`), and an Ideal keeps that one
object per order: normal forms reduce with it as it is, and its monic
polynomials are built only when a caller reads the basis.  `ImageRows`
reduces the packed images of a graded map's source monomials with the same
entries, degree by degree, and keys a target form and scales a row back as
its callers need, so no module outside this one reads a packing.  Every
restart at double width goes through one helper, `_widened`.

Derived operations follow the elimination theorem, through one
elimination: `Subalgebra`'s graph ideal (tag - generator, tags ordered
after the renamed-apart originals), whose basis gives the kernel of a ring
map (`map_kernel`; `eliminate` is the kernel of an inclusion) and
subalgebra membership (`express`).  Intersections eliminate one tag from
homogenized generators, colon ideals intersect with a principal ideal.
`Ideal.groebner` is the one place a basis is made.

Counting is done on leading term ideals without listing monomials:
`hilbert_numerator` gives the numerator of the Hilbert series of a
monomial ideal by Bigatti's pivot recursion, which `zero_dimensional`
reads; `HilbertSeries` keeps it over its denominator weights, so two
series compare exactly, in every degree, over a common denominator.
`standard_monomials` lists the monomials for the callers that need them.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import Counter
from fractions import Fraction
from functools import reduce
from heapq import heappush, heappop
from operator import itemgetter, mul, or_

from .polyarith import (
    GREVLEX,
    MonomialOrder,
    Polynomial,
    VarTable,
    mono_div,
    mono_lcm,
)


# ---------------------------------------------------------------------------
# packed monomials

class _Overflow(Exception):
    """A packed monomial would set a guard bit: `_widened` doubles the width."""


def _largest_field(order: MonomialOrder, monos) -> int:
    """The largest exponent or row value of any of `monos`."""
    key = order.key
    top = 0
    for m in monos:
        if m:
            top = max(top, *m, *key(m))
    return top


class _Packing:
    """Monomials of one order and variable count as ints of guarded fields.

    The rows are the order's key evaluated at the unit vectors, so packed
    ints compare exactly as `order.key` does.  Every field must stay below
    its guard bit; `fits` checks that for input monomials, and any sum of
    two packed monomials either fits or sets a guard bit (no field spills).
    """

    __slots__ = ("order", "n", "width", "guard", "limit", "cols", "_shifts", "_mask")

    def __init__(self, order: MonomialOrder, n: int, width: int):
        zero = (0,) * n
        units = [order.key(zero[:i] + (1,) + zero[i + 1:]) for i in range(n)]
        nrows = len(order.key(zero))
        fields = nrows + n
        self.order = order
        self.n = n
        self.width = width
        self.limit = 1 << (width - 1)
        self.guard = sum(self.limit << (j * width) for j in range(fields))
        self._shifts = tuple((n - 1 - i) * width for i in range(n))
        self.cols = tuple(
            sum(v << ((fields - 1 - k) * width) for k, v in enumerate(row)) + (1 << s)
            for row, s in zip(units, self._shifts))
        self._mask = (1 << width) - 1

    @staticmethod
    def for_input(order: MonomialOrder, n: int, monos) -> "_Packing":
        """The narrowest packing (32-bit fields or wider) whose fields hold
        every exponent and every row value of `monos`."""
        top = _largest_field(order, monos)
        width = 32
        while top >> (width - 1):
            width *= 2
        return _Packing(order, n, width)

    def doubled(self) -> "_Packing":
        return _Packing(self.order, self.n, 2 * self.width)

    def fits(self, monos) -> bool:
        return _largest_field(self.order, monos) < self.limit

    def pack(self, mono: tuple) -> int:
        return sum(map(mul, mono, self.cols))

    def unpack(self, packed: int) -> tuple:
        mask = self._mask
        return tuple((packed >> s) & mask for s in self._shifts)

    def int_terms(self, poly: Polynomial):
        """(terms, lift): poly packed, with denominators cleared and content
        stripped, and the factor lift with terms == lift * poly; ({}, 1)
        for zero."""
        if not poly.terms:
            return {}, Fraction(1)
        den = 1
        for c in poly.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        pack = self.pack
        terms = {pack(m): c.numerator * (den // c.denominator)
                 for m, c in poly.terms.items()}
        g = math.gcd(*terms.values())
        if g > 1:
            terms = {m: c // g for m, c in terms.items()}
        return terms, Fraction(den, g)

    def polynomial(self, context: VarTable, terms: dict, unit) -> Polynomial:
        unpack = self.unpack
        return Polynomial(context, {unpack(m): c * unit for m, c in terms.items()})


# ---------------------------------------------------------------------------
# the reduction kernel

def _strip(terms: dict) -> dict:
    """Divide by the content and normalise the leading sign to positive."""
    if not terms:
        return terms
    g = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
    return terms


def _reducer(terms: dict, i: int) -> tuple:
    """The (lm, lc, terms, i) entry `_reduce` expects."""
    lm = max(terms)
    return (lm, terms[lm], terms, i)


def _reduce(work: dict, reducers, guard: int, quotients=None, bound=None, stop=False):
    """Fully reduce packed integer terms modulo reducers, fraction-free.

    `work` is consumed.  `reducers` is a list of (lm, lc, terms, i) sorted
    by lm; each term is reduced by the first reducer whose leading monomial
    divides it.  Returns (rem, scale), where scale times the input equals
    rem plus an integer combination of the reducers.  With `quotients`, a
    list of dicts indexed by i, that combination is recorded there already
    divided by scale, so that
    input = sum(quotients[i] * terms_i) + rem / scale.
    With a signature `bound` (value, index), the reduction is regular: each
    reducer also carries its signature (lm, lc, terms, i, value, index),
    and reduces a term m only when (m - lm + value, index) < bound.
    With `stop`, it returns at the first term no reducer divides: that term
    is the leading term of the full remainder, so rem is then that term
    alone, and empty exactly when the input reduces to zero (membership).
    Raises _Overflow when a product sets a guard bit.
    """
    rem = {}
    scale = 1
    agenda = sorted(work)
    while agenda:
        m = agenda.pop()
        c = work.get(m)
        if not c:
            work.pop(m, None)
            continue
        for entry in reducers:
            if not (m - entry[0]) & guard:
                if bound is None:
                    break
                v = m - entry[0] + entry[4]
                if v & guard:
                    raise _Overflow
                if (v, entry[5]) < bound:
                    break
        else:
            rem[m] = c
            if stop:
                break
            del work[m]
            continue
        q = m - entry[0]
        lc = entry[1]
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
            qd = quotients[entry[3]]
            qd[q] = qd.get(q, 0) + Fraction(t, scale)
        for gm, gc in entry[2].items():
            mm = gm + q
            old = work.get(mm)
            if old is None:
                if mm & guard:
                    raise _Overflow
                work[mm] = -t * gc
                insort(agenda, mm)
            else:
                v = old - t * gc
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    return rem, scale


def _spoly(f, g, qf: int, qg: int, guard: int) -> dict:
    """S-polynomial of reducer entries f and g, fraction-free; qf and qg
    are the packed cofactors of their leading monomials in the lcm."""
    lcf, tf = f[1], f[2]
    lcg, tg = g[1], g[2]
    d = math.gcd(lcf, lcg)
    a = lcg // d
    b = lcf // d
    out = {}
    for m, c in tf.items():
        mm = m + qf
        if mm & guard:
            raise _Overflow
        out[mm] = a * c
    for m, c in tg.items():
        mm = m + qg
        if mm & guard:
            raise _Overflow
        v = out.get(mm, 0) - b * c
        if v:
            out[mm] = v
        else:
            out.pop(mm, None)
    return out


def _times(f: dict, g: dict, guard: int) -> dict:
    """Product of packed integer terms; _Overflow when a guard bit is set."""
    out = {}
    for k, c in f.items():
        for q, d in g.items():
            kq = k + q
            out[kq] = out.get(kq, 0) + c * d
    if any(k & guard for k in out):
        raise _Overflow
    return {k: c for k, c in out.items() if c}


def _widened(start, attempt):
    """attempt(start), run again on `start.doubled()` (a packing, or a basis
    packed at double width) each time it raises _Overflow."""
    while True:
        try:
            return attempt(start)
        except _Overflow:
            start = start.doubled()


def _packed_run(gens, order: MonomialOrder, run, known=None):
    """run(packed, pk, entries) on the nonzero `gens` packed as primitive
    integer terms, in their order, at the width of `known` (a packed basis,
    whose entries are passed on) or the narrowest that fits them; a gen that
    does not fit the known basis's width, or a product that sets a guard
    bit, starts the run again at double width."""
    context = gens[0].context
    for g in gens:
        context.own(g, "generator")
    monos = [m for g in gens for m in g.terms]

    def attempt(red):
        pk = red.packing
        if known is not None and not pk.fits(monos):
            raise _Overflow
        return run([pk.int_terms(g)[0] for g in gens], pk, red.entries)
    return _widened(known or _Reducers(_Packing.for_input(order, len(context), monos),
                                       [], [], context), attempt)


def buchberger(gens, order: MonomialOrder = GREVLEX, known=None):
    """Reduced monic Groebner basis, sorted by decreasing leading monomial.

    Weighted-homogeneous input runs `_gebauer_moeller`, any other input
    `_signature_elements`, each on the inputs by increasing leading
    monomial; both feed `_reduced_basis`, whose packed `_Reducers` is the
    answer (`()` when no generator is nonzero).  `known` is the reduced
    basis under `order` of a weighted-homogeneous ideal, packed as an Ideal
    keeps it; its elements join `_gebauer_moeller` as finished ones and the
    weighted-homogeneous `gens` as inputs, so the answer is the basis of
    the sum of the two ideals.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return known or ()
    context = gens[0].context
    homogeneous = all(g.is_homogeneous() for g in gens)
    if known is not None and not homogeneous:
        raise ValueError("a known basis extends only by weighted-homogeneous generators")

    def run(packed, pk, known):
        packed.sort(key=max)
        if homogeneous:
            elements = _gebauer_moeller(packed, pk, context.weights, known)[0]
        else:
            elements = _signature_elements(packed, pk)
        return _reduced_basis(elements, pk, context)
    return _packed_run(gens, order, run, known)


def irredundant(gens, order: MonomialOrder = GREVLEX) -> list:
    """The weighted-homogeneous `gens` that the ones before them do not
    generate, in their order, where `gens` are taken by weighted degree and
    in their order within one degree: a minimal generating set of their
    ideal (Kreuzer-Robbiano, Computational Commutative Algebra 2, 2005).
    ValueError for a non-homogeneous input."""
    gens = [g for g in gens if not g.is_zero()]
    if not all(g.is_homogeneous() for g in gens):
        raise ValueError("irredundant generators need weighted-homogeneous input")
    if not gens:
        return []
    weights = gens[0].context.weights
    needed = _packed_run(gens, order,
                         lambda packed, pk, _: _gebauer_moeller(packed, pk, weights)[1])
    return [gens[k] for k in sorted(needed)]


def _gebauer_moeller(packed, pk: _Packing, weights, known=()):
    """(elements, needed) for a weighted-homogeneous ideal: S-pairs by the
    weighted degree of their lcm first, pruned by the Gebauer-Moeller
    update, and `elements` minimal basis elements.  The inputs go by
    weighted degree, in their order within one degree; one of degree d is
    reduced after every pair of degree at most d and before any other, so
    the elements then are a d-truncated basis of the ideal of the inputs
    before it, and it reduces to zero exactly when those generate it.
    `needed` lists the indices of the inputs that do not.  The entries of
    `known`, a Groebner basis of an ideal added to the inputs', are
    finished elements from the start: every S-pair of two of them reduces
    to zero already, so none is formed, and the update is incremental from
    there (Gebauer-Moeller, J. Symb. Comput. 6, 1988)."""
    guard = pk.guard
    pack = pk.pack
    lead = []      # per element: (lm, lc, terms, index)
    lms = []       # per element: its leading monomial as an exponent tuple
    supports = []  # per element: bit k set when its lm contains variable k
    alive = set()
    reducers = []  # alive + dead, sorted by lm; duplicates of `lead`
    pairs = []     # heap of ((degree, packed lcm), i, j)
    pair_live = {} # (i,j) -> packed lcm

    def push_element(terms, finished=False):
        """Insert a fully reduced nonzero element; run the pair update
        unless it is `finished`."""
        t = len(lead)
        entry = _reducer(terms, t)
        lmp = entry[0]
        lm = pk.unpack(lmp)
        support = sum(1 << k for k, e in enumerate(lm) if e)
        lcms = {}  # old index -> packed lcm of its lm and lm, taken once

        def lcm(i):
            Lp = lcms.get(i)
            if Lp is None:
                Lp = lcms[i] = pack(tuple(map(max, lms[i], lm)))
            return Lp

        # Gebauer-Moeller update for the new index t.  A packed divisor is
        # never larger, so in the sorted candidates only an equal next
        # lcm can divide one; the kept ones are scanned in full
        cand = [] if finished else sorted((lcm(i), i) for i in alive)
        if any(Lp & guard for Lp, _ in cand):
            raise _Overflow
        kept = []
        for k, (Lp, i) in enumerate(cand):
            if supports[i] & support and (
                    k + 1 < len(cand) and cand[k + 1][0] == Lp
                    or any(not (Lp - c) & guard for c, _ in kept)):
                continue
            kept.append((Lp, i))
        # chain criterion against surviving old pairs
        for (i, j), Lp in list(pair_live.items()):
            if not (Lp - lmp) & guard and lcm(i) != Lp and lcm(j) != Lp:
                del pair_live[(i, j)]
        for Lp, i in kept:
            if supports[i] & support:
                pair_live[(i, t)] = Lp
                degree = sum(map(mul, map(max, lms[i], lm), weights))
                heappush(pairs, ((degree, Lp), i, t))
        for i in list(alive):
            if not (lead[i][0] - lmp) & guard:
                alive.discard(i)
        lead.append(entry)
        lms.append(lm)
        supports.append(support)
        alive.add(t)
        insort(reducers, entry, key=itemgetter(0))

    for entry in known:
        push_element(entry[2], finished=True)
    # popped from the end: by degree, then in input order
    inputs = sorted(((sum(map(mul, pk.unpack(max(terms)), weights)), k)
                     for k, terms in enumerate(packed)), reverse=True)
    needed = []
    while inputs or pairs:
        if inputs and (not pairs or pairs[0][0][0] > inputs[-1][0]):
            k = inputs.pop()[1]
            work = dict(packed[k])
        else:
            (_, Lp), i, j = heappop(pairs)
            if pair_live.pop((i, j), None) is None:
                continue
            k = None
            work = _spoly(lead[i], lead[j], Lp - lead[i][0], Lp - lead[j][0], guard)
        r = _strip(_reduce(work, reducers, guard)[0])
        if r:
            push_element(r)
            if k is not None:
                needed.append(k)
    return [lead[i][2] for i in alive], needed


def _add_syzygy(found: list, value: int, guard: int):
    """Keep `found` the minimal syzygy signature values of one index."""
    if any(not (value - s) & guard for s in found):
        return
    found[:] = [s for s in found if (s - value) & guard]
    found.append(value)


def _signature_elements(packed, pk: _Packing):
    """Basis elements of any ideal, by regular reductions in increasing
    signature (Schreyer order), with the syzygy, rewrite and singular-pair
    criteria of the module docstring."""
    guard = pk.guard
    lead = []      # per element: (lm, lc, terms, number, signature value, index)
    lms = []       # per element: its leading monomial as an exponent tuple
    reducers = []  # `lead` sorted by lm
    syz = [[] for _ in packed]  # per index: minimal syzygy signature values
    # (signature value, index, generator, other, packed lcm); generator -1
    # is the input of that index itself.  `packed` is sorted by lm, so the
    # list is already a heap.
    heap = [(max(terms), i, -1, -1, 0) for i, terms in enumerate(packed)]
    last = None
    while heap:
        v, i, k, j, L = heappop(heap)
        sig = (v, i)
        if sig == last or any(not (v - s) & guard for s in syz[i]):
            continue
        if any(e[5] == i and not (v - e[4]) & guard for e in lead[k + 1:]):
            continue
        last = sig
        if k < 0:
            work = dict(packed[i])
        else:
            work = _spoly(lead[k], lead[j], L - lead[k][0], L - lead[j][0], guard)
        r = _strip(_reduce(work, reducers, guard, bound=sig)[0])
        if not r:
            _add_syzygy(syz[i], v, guard)
            continue
        # a singular top-reducible r is kept as an element: discarding it
        # can lose a leading monomial of the reduced basis
        t = len(lead)
        lm = max(r)
        lmt = pk.unpack(lm)
        for h, (hm, _, _, _, hv, hi) in enumerate(lead):
            # the Koszul syzygy r*e_h - h*e_r, then the S-pair of r and h
            a, b = (lm + hv, hi), (hm + v, i)
            if (a[0] | b[0]) & guard:
                raise _Overflow
            if a != b:
                _add_syzygy(syz[max(a, b)[1]], max(a, b)[0], guard)
            Lh = pk.pack(mono_lcm(lms[h], lmt))
            a, b = (Lh - lm + v, i), (Lh - hm + hv, hi)
            if (Lh | a[0] | b[0]) & guard:
                raise _Overflow
            if a > b:
                heappush(heap, (*a, t, h, Lh))
            elif b > a:
                heappush(heap, (*b, h, t, Lh))
        entry = (lm, r[lm], r, t, v, i)
        lead.append(entry)
        lms.append(lmt)
        insort(reducers, entry, key=itemgetter(0))
    return [entry[2] for entry in lead]


def _reduced_basis(elements, pk: _Packing, context: VarTable) -> "_Reducers":
    """The unique reduced monic basis, still packed, from elements whose
    leading monomials generate the leading ideal: one pass by increasing
    leading monomial keeps the minimal elements and reduces each modulo
    those kept before it.  That is enough, since a reducer divides a term
    only when its leading monomial is not larger than the term: only the
    earlier elements can reduce a tail, and reducing it changes none."""
    guard = pk.guard
    done = []  # (lm, lc, terms) by increasing lm; no index, no quotients
    for terms in sorted(elements, key=max):
        lm = max(terms)
        if all((lm - e[0]) & guard for e in done):
            r = _strip(_reduce(dict(terms), done, guard)[0])
            done.append((lm, r[lm], r))
    n = len(done)
    return _Reducers(pk, [(*e, n - 1 - p) for p, e in enumerate(done)],
                     [e[1] for e in reversed(done)], context)


# ---------------------------------------------------------------------------
# reduction with exact coefficients

class _Reducers:
    """A basis packed for `_reduce`, read as the tuple of its polynomials.

    `entries` are its reducers (lm, lc, terms, i) sorted by lm, i the place
    in the basis, and terms == lifts[i] * basis[i] (`_Packing.int_terms`).
    `buchberger` returns its reduced basis in this form, the lifts being the
    leading coefficients, and the monic polynomials are built on first
    read; `len` reads the lifts."""

    __slots__ = ("packing", "entries", "lifts", "context", "_basis")

    def __init__(self, packing: _Packing, entries, lifts, context, basis=None):
        self.packing = packing
        self.entries = entries
        self.lifts = lifts
        self.context = context
        self._basis = basis

    @staticmethod
    def of(basis, order: MonomialOrder, n: int) -> "_Reducers":
        basis = tuple(basis)
        pk = _Packing.for_input(order, n, (m for g in basis for m in g.terms))
        packed = [pk.int_terms(g) for g in basis]
        entries = sorted((_reducer(terms, i) for i, (terms, _) in enumerate(packed) if terms),
                         key=itemgetter(0))
        return _Reducers(pk, entries, [lift for _, lift in packed], None, basis)

    @property
    def basis(self) -> tuple:
        if self._basis is None:
            poly = self.packing.polynomial
            self._basis = tuple(poly(self.context, e[2], Fraction(1, e[1]))
                                for e in reversed(self.entries))
        return self._basis

    def __len__(self):
        return len(self.lifts)

    def __iter__(self):
        return iter(self.basis)

    def __getitem__(self, i):
        return self.basis[i]

    def __eq__(self, other):
        other = other.basis if isinstance(other, _Reducers) else other
        return self.basis == other if isinstance(other, tuple) else NotImplemented

    def doubled(self) -> "_Reducers":
        """The same basis at double width (a new object), its packed terms
        moved over: the wider packing orders them alike."""
        pk = self.packing.doubled()
        pack, unpack = pk.pack, self.packing.unpack
        entries = [(pack(unpack(lm)), lc, {pack(unpack(m)): c for m, c in terms.items()}, i)
                   for lm, lc, terms, i in self.entries]
        return _Reducers(pk, entries, self.lifts, self.context, self._basis)


def reduce_full(f: Polynomial, basis, order: MonomialOrder = GREVLEX, with_quotients=False):
    """Remainder of f modulo a list of polynomials (top and tail reduction).

    Returns the remainder, or (remainder, quotients) with `with_quotients`,
    where f = sum(q_i * basis_i) + remainder exactly.  `basis` may also be
    the packed reducers an Ideal keeps for its basis.  The reduction runs on
    packed integer terms; the remainder and quotients are scaled back at
    the end.
    """
    context = f.context
    red = basis if isinstance(basis, _Reducers) else _Reducers.of(basis, order, len(context))
    red, lift, quotients, rem, scale = _packed_reduce(f, red, with_quotients)
    pk = red.packing
    r = pk.polynomial(context, rem, 1 / (lift * scale))
    if with_quotients:
        return r, [pk.polynomial(context, qd, red.lifts[i] / lift)
                   for i, qd in enumerate(quotients)]
    return r


def _packed_reduce(f: Polynomial, red: _Reducers, with_quotients=False, stop=False):
    """(red, lift, quotients, rem, scale): `_reduce` of f packed by `red`,
    which is widened until f and every product fit; f's packed terms are
    lift * f (`_Packing.int_terms`)."""
    def attempt(red):
        if not red.packing.fits(f.terms):
            raise _Overflow
        work, lift = red.packing.int_terms(f)
        quotients = [{} for _ in range(len(red))] if with_quotients else None
        return (red, lift, quotients,
                *_reduce(work, red.entries, red.packing.guard, quotients, stop=stop))
    return _widened(red, attempt)


def exact_divide(p: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient p/f when f divides p exactly, else ValueError."""
    if f.is_zero():
        raise ValueError("division by the zero polynomial")
    r, qs = reduce_full(p, [f], GREVLEX, with_quotients=True)
    if not r.is_zero():
        raise ValueError("polynomial is not divisible")
    return qs[0]


class ImageRows:
    """The images of the monomials of Q[source] under a graded map into
    Q[target]/ideal, by degree, as packed integer rows.

    `rows(d)` gives the number of degree-d monomials and, for each m that
    `keep` accepts, (m, row, s): row is image(m) packed and reduced by the
    basis of `ideal` under `order`, and equals s * L^m * image(m) there
    (`scale`).  Gen i is L_i times the image of x_i (`_Packing.int_terms`);
    raw[m] = raw[m / x_i] * gen_i, x_i the last variable of m, is built on
    first use and kept.  A product that sets a guard bit drops every raw
    image and row, and builds again at double width (`_widened`)."""

    __slots__ = ("source", "images", "keep", "red", "gens", "lifts", "raw", "built")

    def __init__(self, source: VarTable, images, ideal: Ideal, order: MonomialOrder, keep):
        self.source = source
        self.images = images
        self.keep = keep
        _widened(ideal.groebner(order), self._pack)

    def _pack(self, red: _Reducers):
        if not red.packing.fits(m for f in self.images for m in f.terms):
            raise _Overflow
        self.red = red
        self.gens, self.lifts = zip(*map(red.packing.int_terms, self.images))
        self.raw = {(0,) * len(self.gens): {0: 1}}
        self.built = {}

    def rows(self, d: int) -> tuple:
        """(number of degree-d source monomials, [(m, row, s)])."""
        if d not in self.built:
            _widened(self.red, lambda red: self._build(red, d))
        return self.built[d]

    def _build(self, red: _Reducers, d: int):
        if red is not self.red:
            self._pack(red)
        guard = red.packing.guard
        monos = standard_monomials(Ideal(self.source, ()), d,
                                   MonomialOrder.wgrevlex(self.source.weights))
        self.built[d] = len(monos), [(m, *_reduce(dict(self._image(m, guard)), red.entries, guard))
                                     for m in monos if self.keep(m)]

    def _image(self, m: tuple, guard: int) -> dict:
        got = self.raw.get(m)
        if got is None:
            i = max(j for j, e in enumerate(m) if e)
            got = self.raw[m] = _times(self._image(m[:i] + (m[i] - 1,) + m[i + 1:], guard),
                                       self.gens[i], guard)
        return got

    def key(self, f: Polynomial) -> dict:
        """f, of the degree of the rows last returned, keyed as they are: under
        a degree order every monomial of one degree fits once one does."""
        pack = self.red.packing.pack
        return {pack(m): c for m, c in f.terms.items()}

    def scale(self, m: tuple, s) -> Fraction:
        """s * L^m, the factor that maps the row of m back to its image."""
        return s * math.prod(map(pow, self.lifts, m))


# ---------------------------------------------------------------------------
# ideals

class Ideal:
    """Finitely generated ideal in Q[context] with cached reduced bases.
    An ideal made by `extended` records the ideal it extends, whose
    generators come first in its own."""

    __slots__ = ("context", "gens", "_gb", "_parent")

    def __init__(self, context: VarTable, gens):
        self.context = context
        gens = [context.own(g, "generator") for g in gens]
        self.gens = tuple(g for g in gens if not g.is_zero())
        self._gb = {}
        self._parent = None

    def extended(self, extra) -> "Ideal":
        """This ideal plus the `extra` generators, recording this one as its
        parent, so a basis the parent holds is extended, not made again."""
        ideal = Ideal(self.context, self.gens + tuple(extra))
        ideal._parent = self
        return ideal

    def __repr__(self):
        inside = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inside})"

    def groebner(self, order: MonomialOrder = GREVLEX) -> _Reducers:
        """Reduced monic basis, cached write-once per order as `buchberger`
        packed it, or packed on first read from the basis `_with_basis`
        handed over; its polynomials are built only when read, and a wider
        packing is a new one (`doubled`).  When the parent of an `extended`
        ideal already holds its basis under `order` and every generator is
        weighted-homogeneous, `buchberger` extends that basis by the extra
        generators; otherwise it runs on all of them."""
        cached = self._gb.get(order.tag)
        if isinstance(cached, _Reducers):
            return cached
        if cached is None:
            parent = self._parent
            if (parent is not None and order.tag in parent._gb
                    and all(g.is_homogeneous() for g in self.gens)):
                cached = buchberger(self.gens[len(parent.gens):], order,
                                    known=parent.groebner(order))
            else:
                cached = buchberger(self.gens, order)
        if not isinstance(cached, _Reducers):
            # handed over, or no generators and no basis: the packing then
            # comes from the table
            cached = _Reducers.of(cached, order, len(self.context))
        self._gb[order.tag] = cached
        return cached

    def normal_form(self, f: Polynomial, order: MonomialOrder = GREVLEX) -> Polynomial:
        """Remainder modulo the reduced basis, via `reduce_full` on its
        packed entries."""
        return reduce_full(self.context.own(f), self.groebner(order), order)

    def member(self, f: Polynomial, order: MonomialOrder = GREVLEX) -> bool:
        """Whether f reduces to zero modulo the reduced basis; the reduction
        stops at the first term no leading monomial divides."""
        return not _packed_reduce(self.context.own(f), self.groebner(order), stop=True)[3]

    def is_zero(self) -> bool:
        return not self.gens


def _with_basis(context: VarTable, basis, order: MonomialOrder) -> Ideal:
    """The ideal of `basis`, its reduced monic basis under `order` sorted by
    decreasing leading monomial, holding it as that basis so that no
    Buchberger run computes it again; `Ideal.groebner` packs it on first
    read."""
    ideal = Ideal(context, basis)
    ideal._gb[order.tag] = ideal.gens
    return ideal


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


def eliminate(I: Ideal, drop) -> Ideal:
    """I intersected with Q[kept variables], over their VarTable (original
    relative order and weights): the kernel of Q[kept] -> Q[context]/I, each
    kept variable its own tag (`map_kernel`), so it holds its reduced basis
    under wgrevlex(kept weights)."""
    drop = list(drop)
    ctx = I.context
    for name in drop:
        ctx.index(name)
    if len(set(drop)) != len(drop):
        raise ValueError("duplicate variable in elimination list")
    kept = [n for n in ctx.names if n not in drop]
    table = VarTable(kept, [ctx.weight(n) for n in kept])
    return map_kernel(table, {n: Polynomial.variable(ctx, n) for n in kept}, ctx, I)


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I intersected with J via the auxiliary variable trick, homogenized.

    Every generator is homogenized by a new variable h of weight 1, so
    K = t*I^h + (h - t)*J^h is weighted-homogeneous and its elimination
    basis is built degree by degree; on non-homogeneous input the plain
    trick t*I + (1 - t)*J can swell coefficients past ten thousand bits
    in a few variables.  The part of K free of t lies between
    h*(I^h cap J^h) and I^h cap J^h, and setting h = 1 maps both onto
    I cap J.

    When every generator of I and J is weighted-homogeneous, homogenizing
    changes none, and the result holds its reduced basis under
    wgrevlex(weights).  For f in K free of t, write f = t*a + (h - t)*b
    with a in I and b in J over Q[t, x, h]; t = 0 gives f = h*b(0) in h*J,
    and t = h gives f = h*a(h) in h*I, so f is in h*(I cap J) as h is a
    non-zero-divisor; conversely h*g = t*g + (h - t)*g is in K for g in
    I cap J.  So K cap Q[x, h] = h*(I cap J), whose reduced basis under the
    elimination order is h times that of I cap J, the order on h-free
    monomials being wgrevlex(weights).  Setting h = 1 gives exactly that
    basis, sorted and monic (`_with_basis`).
    """
    ctx = I.context
    ctx.own(J, "ideal")
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
    basis = [g.substitute(dehomogenize, target=ctx) for g in elim.gens]
    if all(f.is_homogeneous() for f in I.gens + J.gens):
        return _with_basis(ctx, basis, MonomialOrder.wgrevlex(ctx.weights))
    return Ideal(ctx, basis)


def ideal_quotient(I: Ideal, f: Polynomial) -> Ideal:
    """Colon ideal (I : f) via intersection with the principal ideal (f)."""
    f = I.context.own(f)
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    H = intersect(I, Ideal(I.context, [f]))
    return Ideal(I.context, [exact_divide(g, f) for g in H.gens])


class Subalgebra:
    """Named generators over one table and the graph ideal of their tags.

    `gens` is a list of (name, Polynomial or constant) over `context`; the
    names are tag variables, and the pairs are kept as `gens`.  The graph
    ideal holds tag - generator for every pair, plus the generators of
    `relations` (an Ideal over `context`) when the generators live in a
    quotient ring.  The variables of `context` are renamed apart from the
    tags, so the two may share names, and ordered before them in a block
    order (Cox-Little-O'Shea, IVA 7.3).  One reduced basis then answers
    both questions: its tag-only part generates the kernel of
    Q[tags] -> Q[context]/relations (`kernel`, the one elimination: every
    `map_kernel` and `eliminate`), and a normal form that lands in the
    tags expresses a form in the generators (`express`).  A tag whose
    generator is a bare variable is identified with that variable instead
    of getting a graph generator, one tag per variable, which keeps the
    graph small for restriction-style maps and an elimination's kept
    variables out of it.  Tags are weighted by the weighted degree of each
    generator unless a tag table is given.  The basis is computed on first
    use and kept on the object.
    """

    __slots__ = ("context", "gens", "tag_table", "graph", "order", "_rename")

    def __init__(self, context: VarTable, gens, tag_table: VarTable | None = None,
                 relations: Ideal | None = None):
        names = [n for n, _ in gens]
        images = [context.own(g, "generator") for _, g in gens]
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
            graph = [g.rename(combined, rename)
                     for g in context.own(relations, "relation ideal").gens]
        for n, g in zip(names, images):
            if n not in shared:
                graph.append(Polynomial.variable(combined, n) - g.rename(combined, rename))
        self.context = context
        self.gens = tuple(zip(names, images))
        self.tag_table = tag_table
        self.graph = Ideal(combined, graph)
        self.order = MonomialOrder.block(len(welim), MonomialOrder.wgrevlex(welim),
                                         MonomialOrder.wgrevlex(tag_table.weights))
        self._rename = rename

    def kernel(self) -> Ideal:
        """Relations among the generators, as an ideal over the tag table
        holding its reduced basis under wgrevlex(tag weights): the order
        restricts to that on tag monomials, so by the elimination theorem
        (Cox-Little-O'Shea, IVA 3.1) the tag-only part of the graph's
        reduced basis is the kernel's (`_with_basis`)."""
        tags = set(self.tag_table.names)
        return _with_basis(self.tag_table, [g.rename(self.tag_table)
                                            for g in self.graph.groebner(self.order)
                                            if g.support_names() <= tags],
                           MonomialOrder.wgrevlex(self.tag_table.weights))

    def express(self, f: Polynomial):
        """f as a Polynomial over the tag table, or None when not a member."""
        f = self.context.own(f)
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


def subalgebra_member(f: Polynomial, span: Subalgebra):
    """Express f in the subalgebra `span` generates: a Polynomial over its
    tag table, or None when f is not a member."""
    return span.express(f)


def zero_dimensional(I: Ideal, order: MonomialOrder = GREVLEX):
    """(True, count of standard monomials) for 0-dimensional I, else (False, None).

    I is 0-dimensional when every variable has a pure power (or 1) among
    the leading monomials.  The count is then the value at t = 1 of the
    Hilbert series of the leading term ideal under unit weights, the
    polynomial N(t) / (1 - t)^n, read off the numerator's coefficients c_k
    as (-1)^n * sum(c_k * binomial(k, n)).
    """
    lms = [g.leading_monomial(order) for g in I.groebner(order)]
    n = len(I.context)
    for i in range(n):
        if all(any(m[:i] + m[i + 1:]) for m in lms):
            return False, None
    numerator = hilbert_numerator(lms, (1,) * n)
    return True, (-1) ** n * sum(c * math.comb(k, n) for k, c in numerator.items())


def standard_monomials(I: Ideal, degree: int, order: MonomialOrder = GREVLEX):
    """Monomials of exact weighted degree not in the leading term ideal.

    Sorted decreasingly in the order; this is the canonical linear basis of
    the degree piece of Q[context]/I.  An ideal without generators has
    every monomial standard, and no basis is computed for it.  The walk
    takes the heaviest variables first and solves the lightest exponent
    from the degree left, so a piece costs about its size, not its degree.
    """
    lms = [g.leading_monomial(order) for g in I.groebner(order)] if I.gens else []
    w = I.context.weights
    if not w or degree < 0:
        return [()] if degree == 0 else []
    *walked, last = sorted(range(len(w)), key=lambda i: -w[i])
    out = []
    stack = [(0, degree, (0,) * len(w))]  # (variables walked, degree left, exponents)
    while stack:
        k, remaining, exps = stack.pop()
        if k < len(walked):
            i = walked[k]
            stack.extend((k + 1, remaining - e * w[i], exps[:i] + (e,) + exps[i + 1:])
                         for e in range(remaining // w[i] + 1))
            continue
        e, rest = divmod(remaining, w[last])
        m = exps[:last] + (e,) + exps[last + 1:]
        if not rest and not any(mono_div(m, lm) is not None for lm in lms):
            out.append(m)
    out.sort(key=order.key, reverse=True)
    return out


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals

def _add_shifted(p: dict, q: dict, shift: int, sign: int) -> dict:
    """p + sign * t^shift * q on {degree: coefficient} dicts."""
    out = dict(p)
    for k, c in q.items():
        v = out.get(k + shift, 0) + sign * c
        if v:
            out[k + shift] = v
        else:
            out.pop(k + shift, None)
    return out


def hilbert_numerator(leading_monomials, weights) -> dict:
    """The numerator N(t) of the Hilbert series of a monomial ideal.

    The series of Q[x]/(leading_monomials) is N(t) / prod(1 - t^w_i) with
    x_i of weight w_i; N comes back as {degree: nonzero integer}, and is
    {0: 1} for no generators.  Bigatti's pivot recursion (JPAA 119, 1997)
    on the minimal generators: pairwise coprime generators m give
    prod(1 - t^deg m); otherwise, for a power p of the variable found in
    the most generators, N(I) = N(I + (p)) + t^deg p * N(I : p).  The
    exponent of p is the lower median of that variable's exponents.  A
    pure power of the variable among the minimal generators has the
    strictly largest exponent, so the lower median of two or more stays
    below it and p is never in I.  Each branch then holds at most about
    half as many generators divisible by the variable, and no more of any
    other, so the depth is bounded by the generators, not the exponents.
    """
    gens = []
    for m in sorted(set(leading_monomials), key=sum):
        if not any(mono_div(m, g) is not None for g in gens):
            gens.append(m)
    counts = [sum(1 for m in gens if m[i]) for i in range(len(weights))]
    top = max(counts, default=0)
    if top < 2:
        out = {0: 1}
        for m in gens:
            out = _add_shifted(out, out, sum(map(mul, m, weights)), -1)
        return out
    i = counts.index(top)
    exps = sorted(m[i] for m in gens if m[i])
    e = exps[(len(exps) - 1) // 2]
    pivot = tuple(e if j == i else 0 for j in range(len(weights)))
    larger = [pivot] + [m for m in gens if m[i] < e]
    colon = [m[:i] + (max(m[i] - e, 0),) + m[i + 1:] for m in gens]
    return _add_shifted(hilbert_numerator(larger, weights),
                        hilbert_numerator(colon, weights), e * weights[i], 1)


class HilbertSeries:
    """N(t) / prod(1 - t^w): an integer numerator {degree: coefficient} over
    sorted denominator weights, its coefficients expanded on first use."""

    __slots__ = ("numerator", "weights", "_dims")

    def __init__(self, numerator: dict, weights=()):
        self.numerator = {k: c for k, c in numerator.items() if c}
        self.weights = tuple(sorted(weights))
        self._dims = []

    def shifted(self, c: int, sign: int = 1) -> "HilbertSeries":
        """sign * t^c times this series."""
        return HilbertSeries({k + c: sign * v for k, v in self.numerator.items()},
                             self.weights)

    @staticmethod
    def sum(terms) -> "HilbertSeries":
        """The sum of a list of series, over their least common denominator."""
        own = [Counter(s.weights) for s in terms]
        common = reduce(or_, own, Counter())
        total = Counter()
        for s, weights in zip(terms, own):
            numerator = s.numerator
            for w in (common - weights).elements():
                numerator = _add_shifted(numerator, numerator, w, -1)
            total.update(numerator)
        return HilbertSeries(total, common.elements())

    def first_difference(self, other: "HilbertSeries"):
        """The lowest degree where the series differ, else None: their
        difference's denominator starts with 1, so it is its numerator's."""
        gap = HilbertSeries.sum([self, other.shifted(0, -1)]).numerator
        return min(gap) if gap else None

    def dim(self, degree: int) -> int:
        """The coefficient of t^degree."""
        if degree >= len(self._dims):
            top = max(degree, 2 * len(self._dims))
            dims = [self.numerator.get(k, 0) for k in range(top + 1)]
            for w in self.weights:
                for d in range(w, top + 1):
                    dims[d] += dims[d - w]
            self._dims = dims
        return self._dims[degree] if degree >= 0 else 0
