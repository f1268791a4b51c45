"""Sparse multivariate polynomials with exact rational coefficients.

Everything downstream (Groebner bases, invariant theory, the verification
pipeline) is built on the three types defined here: VarTable, MonomialOrder
and Polynomial.  Monomials are plain tuples of non-negative integer
exponents, indexed by position in the owning VarTable.  All coefficient
arithmetic uses fractions.Fraction, so results are exact by construction.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, Mapping

Coeff = Fraction

# a variable name: the one grammar of the table, the parser and the printer
NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficient must be int or Fraction, got {type(value).__name__}")


class VarTable:
    """Ordered list of variable names with positive integer weights."""

    __slots__ = ("names", "weights", "_position")

    def __init__(self, names: Iterable[str], weights: Iterable[int] | None = None):
        names = tuple(names)
        if weights is None:
            weights = tuple(1 for _ in names)
        else:
            weights = tuple(weights)
        if len(weights) != len(names):
            raise ValueError("names and weights must have equal length")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable name")
        for n in names:
            if not NAME.fullmatch(n):
                raise ValueError(f"bad variable name {n!r}")
        for w in weights:
            if not isinstance(w, int) or w <= 0:
                raise ValueError(f"weights must be positive integers, got {w!r}")
        self.names = names
        self.weights = weights
        self._position = {n: i for i, n in enumerate(names)}

    def __len__(self):
        return len(self.names)

    def __eq__(self, other):
        return (
            isinstance(other, VarTable)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        pairs = ", ".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"VarTable({pairs})"

    def index(self, name: str) -> int:
        try:
            return self._position[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def weight(self, name: str) -> int:
        return self.weights[self.index(name)]

    def own(self, value, what="polynomial", error=ValueError):
        """`value` as an element over this table: a number becomes a
        constant, a polynomial or ideal of another table raises `error`
        naming it as `what`, and anything else comes back unchanged."""
        if isinstance(value, (int, Fraction)):
            return Polynomial.constant(self, value)
        if getattr(value, "context", self) != self:
            raise error(f"{what} lives in a different variable table")
        return value


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))

def mono_div(a: tuple, b: tuple):
    """a / b as a monomial, or None when b does not divide a."""
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)

def mono_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(x if x > y else y for x, y in zip(a, b))

class MonomialOrder:
    """Admissible monomial order, exposed as a sort key on exponent tuples.

    Keys compare so that bigger key means bigger monomial.  Every key is a
    flat tuple of linear forms in the exponents with non-negative integer
    coefficients (the rows of a matrix order), so the Groebner kernel
    derives its packed rows from `key` itself, by evaluating it at unit
    vectors.  Supported kinds: lex (the exponents), grlex (degree, then the
    exponents), (w)grevlex (weighted degree, then the weighted prefix sums
    from the longest down: a smaller last exponent means a bigger prefix)
    and block(split, left, right), which concatenates the keys of the first
    `split` exponents under `left` and of the rest under `right`.  Block
    orders with the eliminated variables in the left block are elimination
    orders.
    """

    __slots__ = ("tag", "_key")

    def __init__(self, tag, key):
        self.tag = tag
        self._key = key

    @staticmethod
    def lex() -> "MonomialOrder":
        return MonomialOrder(("lex",), tuple)

    @staticmethod
    def grlex() -> "MonomialOrder":
        return MonomialOrder(("grlex",), lambda e: (sum(e),) + tuple(e))

    @staticmethod
    def grevlex() -> "MonomialOrder":
        return MonomialOrder(("grevlex",), lambda e: tuple(accumulate(e))[::-1])

    @staticmethod
    def wgrevlex(weights) -> "MonomialOrder":
        """Grevlex refined by weighted degree; admissible for positive weights."""
        weights = tuple(weights)
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        def key(e):
            return tuple(accumulate(map(mul, e, weights)))[::-1]
        return MonomialOrder(("wgrevlex", weights), key)

    @staticmethod
    def block(split: int, left: "MonomialOrder", right: "MonomialOrder") -> "MonomialOrder":
        lk, rk = left._key, right._key
        def key(e):
            return lk(e[:split]) + rk(e[split:])
        return MonomialOrder(("block", split, left.tag, right.tag), key)

    def key(self, exps: tuple):
        return self._key(exps)

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and self.tag == other.tag

    def __hash__(self):
        return hash(self.tag)

    def __repr__(self):
        return f"MonomialOrder{self.tag!r}"


GREVLEX = MonomialOrder.grevlex()


class Polynomial:
    """Immutable sparse polynomial over Q attached to a VarTable.

    Never mutated once constructed: its hash is computed once and kept.
    """

    __slots__ = ("context", "terms", "_hash")

    def __init__(self, context: VarTable, terms: Mapping[tuple, Coeff] | None = None):
        self.context = context
        clean = {}
        if terms:
            n = len(context)
            for mono, c in terms.items():
                c = _coeff(c)
                if not c:
                    continue
                if len(mono) != n:
                    raise ValueError("exponent tuple has wrong arity")
                clean[mono] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(context: VarTable) -> "Polynomial":
        return Polynomial(context)

    @staticmethod
    def constant(context: VarTable, c) -> "Polynomial":
        p = Polynomial(context)
        c = _coeff(c)
        if c:
            p.terms[(0,) * len(context)] = c
        return p

    @staticmethod
    def one(context: VarTable) -> "Polynomial":
        return Polynomial.constant(context, 1)

    @staticmethod
    def variable(context: VarTable, name: str) -> "Polynomial":
        i = context.index(name)
        mono = tuple(1 if j == i else 0 for j in range(len(context)))
        return Polynomial(context, {mono: Fraction(1)})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Maximum combinatorial degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def weighted_degree(self) -> int:
        """Maximum degree under the context weights, -1 for zero."""
        if not self.terms:
            return -1
        w = self.context.weights
        return max(sum(e * wi for e, wi in zip(m, w)) for m in self.terms)

    def is_homogeneous(self) -> bool:
        """True when every term has the same weighted degree (zero counts)."""
        w = self.context.weights
        degs = {sum(e * wi for e, wi in zip(m, w)) for m in self.terms}
        return len(degs) <= 1

    def leading_monomial(self, order: MonomialOrder = GREVLEX) -> tuple:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = GREVLEX) -> Fraction:
        return self.terms[self.leading_monomial(order)]

    def coefficient(self, mono: tuple) -> Fraction:
        return self.terms.get(mono, Fraction(0))

    def monomials(self, order: MonomialOrder = GREVLEX):
        """Monomials in decreasing order."""
        return sorted(self.terms, key=order.key, reverse=True)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial) or other.context != self.context:
            other = self.context.own(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m)
            if s is None:
                terms[m] = c
            else:
                s = s + c
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        out = Polynomial(self.context)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Polynomial(self.context)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            out = Polynomial(self.context)
            if c:
                out.terms = {m: v * c for m, v in self.terms.items()}
            return out
        if other.context != self.context:
            self.context.own(other)  # raises
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        terms: dict = {}
        get = terms.get
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = tuple(x + y for x, y in zip(ma, mb))
                s = get(m)
                if s is None:
                    terms[m] = ca * cb
                else:
                    s = s + ca * cb
                    if s:
                        terms[m] = s
                    else:
                        del terms[m]
        out = Polynomial(self.context)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Polynomial.one(self.context)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.context.own(other)
        return (
            isinstance(other, Polynomial)
            and self.context == other.context
            and self.terms == other.terms
        )

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.context, frozenset(self.terms.items())))
            return self._hash

    # -- substitution and context moves ------------------------------------

    def substitute(self, mapping: Mapping[str, "Polynomial"], target: VarTable | None = None) -> "Polynomial":
        """Ring morphism: replace each variable by the mapped polynomial.

        Values must all live in one target VarTable (constants allowed).
        Unmapped variables must exist in the target under the same name.
        """
        if target is None:
            for v in mapping.values():
                if isinstance(v, Polynomial):
                    target = v.context
                    break
        if target is None:
            target = self.context
        images = [Polynomial.variable(target, name) if mapping.get(name) is None
                  else target.own(mapping[name], f"image of {name}")
                  for name in self.context.names]
        # cache powers per variable to keep repeated exponents cheap
        powers: list[dict[int, Polynomial]] = [{} for _ in images]
        out = Polynomial.zero(target)
        for mono in sorted(self.terms, key=GREVLEX.key):
            c = self.terms[mono]
            piece = Polynomial.constant(target, c)
            for i, e in enumerate(mono):
                if not e:
                    continue
                cache = powers[i]
                p = cache.get(e)
                if p is None:
                    p = images[i] ** e
                    cache[e] = p
                piece = piece * p
            out = out + piece
        return out

    def rename(self, target: VarTable, name_map: Mapping[str, str] | None = None) -> "Polynomial":
        """Re-express in another VarTable by variable name.

        Every variable with a nonzero exponent must map to a target name
        (identity by default).  Weights are not required to agree; callers
        that care about grading must check separately.
        """
        n = len(target)
        slot = []
        for name in self.context.names:
            tname = name_map.get(name, name) if name_map else name
            slot.append(target._position.get(tname))
        terms = {}
        for mono, c in self.terms.items():
            out = [0] * n
            for i, e in enumerate(mono):
                if not e:
                    continue
                j = slot[i]
                if j is None:
                    raise ValueError(
                        f"variable {self.context.names[i]!r} has no image in target table"
                    )
                out[j] += e
            key = tuple(out)
            terms[key] = terms.get(key, Fraction(0)) + c
        return Polynomial(target, terms)

    def support_names(self) -> set:
        """Names of variables that occur with a nonzero exponent."""
        used = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    used.add(self.context.names[i])
        return used

    # -- printing ----------------------------------------------------------

    def __str__(self):
        """Canonical rendering: terms in decreasing grevlex order."""
        if not self.terms:
            return "0"
        names = self.context.names
        chunks = []
        for mono in self.monomials(GREVLEX):
            c = self.terms[mono]
            factors = []
            for name, e in zip(names, mono):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            if not factors:
                body = str(abs(c))
            else:
                body = "*".join(factors)
                a = abs(c)
                if a != 1:
                    body = f"{a}*{body}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"<poly {self}>"
