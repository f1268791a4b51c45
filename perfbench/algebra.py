"""Exact polynomial helpers the benchmark uses to build inputs and check outputs.

A polynomial is a dict from exponent tuples to Fractions.  Nothing here
imports chowcheck: references come from sympy (stored once in refs.json)
and from the closed forms below, so a check never trusts the code it checks.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# monomial orders, as sort keys where a bigger key is a bigger monomial

def order_key(name: str, weights):
    if name == "lex":
        return lambda e: e
    if name == "grevlex":
        return lambda e: (sum(e), tuple(-x for x in reversed(e)))
    if name == "wgrevlex":
        w = tuple(weights)
        return lambda e: (sum(x * v for x, v in zip(e, w)),
                          tuple(-x for x in reversed(e)))
    raise ValueError(f"unknown order {name!r}")


def lead(p: dict, key):
    return max(p, key=key)


def monic(p: dict, key) -> dict:
    c = p[lead(p, key)]
    return {m: v / c for m, v in p.items()}


# ---------------------------------------------------------------------------
# arithmetic

def add(p: dict, q: dict, c=1) -> dict:
    out = dict(p)
    for m, v in q.items():
        s = out.get(m, 0) + c * v
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def mul(p: dict, q: dict) -> dict:
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def scale_vars(p: dict, factors) -> dict:
    """Substitute x_i -> factors[i] * x_i."""
    out = {}
    for m, c in p.items():
        for e, f in zip(m, factors):
            c *= f ** e
        out[m] = c
    return out


def divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def reduce(p: dict, basis, key) -> dict:
    """Remainder of p modulo a monic basis (full reduction)."""
    heads = [(lead(g, key), g) for g in basis]
    p = dict(p)
    rem = {}
    while p:
        m = lead(p, key)
        c = p[m]
        for lm, g in heads:
            if divides(lm, m):
                q = tuple(a - b for a, b in zip(m, lm))
                p = add(p, {tuple(a + b for a, b in zip(gm, q)): gc
                            for gm, gc in g.items()}, -c)
                break
        else:
            rem[m] = c
            del p[m]
    return rem


def is_groebner(basis, key) -> bool:
    """Buchberger's criterion: every S-polynomial reduces to zero."""
    basis = [monic(g, key) for g in basis]
    for i, f in enumerate(basis):
        for g in basis[i + 1:]:
            lf, lg = lead(f, key), lead(g, key)
            lcm = tuple(max(a, b) for a, b in zip(lf, lg))
            if all(a == 0 or b == 0 for a, b in zip(lf, lg)):
                continue
            sf = {tuple(a + b - c for a, b, c in zip(m, lcm, lf)): v for m, v in f.items()}
            sg = {tuple(a + b - c for a, b, c in zip(m, lcm, lg)): v for m, v in g.items()}
            if reduce(add(sf, sg, -1), basis, key):
                return False
    return True


def same_basis(got, want, key) -> bool:
    """Equality of reduced Groebner bases, each element taken monic."""
    norm = lambda ps: sorted(sorted(monic(p, key).items()) for p in ps)
    return norm(got) == norm(want)


def graded_dims(weights, leads, dmax: int):
    """Count monomials of each weighted degree that no leading monomial divides."""
    dims = [0] * (dmax + 1)

    def walk(i, deg, exps):
        if i == len(weights):
            if not any(divides(lm, tuple(exps)) for lm in leads):
                dims[deg] += 1
            return
        for e in range((dmax - deg) // weights[i] + 1):
            exps.append(e)
            walk(i + 1, deg + e * weights[i], exps)
            exps.pop()

    walk(0, 0, [])
    return dims


# ---------------------------------------------------------------------------
# text: chowcheck's canonical polynomial syntax, both ways

def fmt(p: dict, names) -> str:
    """Print a polynomial; zero exponents are left out, never written x^0."""
    if not p:
        return "0"
    chunks = []
    for m in sorted(p, reverse=True):
        c = p[m]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, m) if e]
        a = abs(c)
        body = "*".join(([str(a)] if a != 1 or not factors else []) + factors)
        sign = "-" if c < 0 else "+"
        chunks.append((sign, body))
    text = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    return text + "".join(f" {s} {b}" for s, b in chunks[1:])


_TERM = re.compile(r"\s*([+-])?\s*([^+-]+)")


def parse(text: str, names) -> dict:
    """Parse one polynomial printed in chowcheck's canonical form."""
    index = {n: i for i, n in enumerate(names)}
    out = {}
    text = text.strip()
    if text == "0":
        return out
    pos = 0
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match:
            raise ValueError(f"cannot parse {text!r}")
        pos = match.end()
        sign = -1 if match.group(1) == "-" else 1
        coeff = Fraction(sign)
        exps = [0] * len(names)
        for factor in match.group(2).strip().split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            exps[index[name]] += int(power) if power else 1
        m = tuple(exps)
        out[m] = out.get(m, 0) + coeff
    return {m: c for m, c in out.items() if c}


def parse_list(text: str, names):
    """Parse chowcheck's `{f1, f2, ...}` basis output."""
    inner = text.strip()
    if not (inner.startswith("{") and inner.endswith("}")):
        raise ValueError(f"expected a braced list, got {text[:60]!r}")
    inner = inner[1:-1].strip()
    return [parse(t, names) for t in inner.split(",")] if inner else []


def decode(terms) -> dict:
    return {tuple(m): Fraction(c) for m, c in terms}


# ---------------------------------------------------------------------------
# Molien series of a finite group of signed permutations

def group_closure(generators):
    """All elements of the group; an element maps i to (j, sign)."""
    n = len(generators[0])
    identity = tuple((i, 1) for i in range(n))
    seen = {identity}
    todo = [identity]
    while todo:
        cur = todo.pop()
        for g in generators:
            # apply cur, then g
            nxt = tuple((g[j][0], s * g[j][1]) for j, s in cur)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def molien(generators, weights, dmax: int):
    """Dimensions of the invariants in each weighted degree 0..dmax, exactly.

    For a signed permutation matrix g, det(1 - g T) factors over the cycles
    of g: a cycle of length L through variables of weight w whose signs
    multiply to s contributes 1 - s t^(wL).
    """
    group = group_closure(generators)
    total = [Fraction(0)] * (dmax + 1)
    for g in group:
        series = [Fraction(0)] * (dmax + 1)
        series[0] = Fraction(1)
        seen = set()
        for start in range(len(g)):
            if start in seen:
                continue
            length, sign, i = 0, 1, start
            while i not in seen:
                seen.add(i)
                j, s = g[i]
                sign *= s
                length += 1
                i = j
            step = weights[start] * length
            # multiply by 1 / (1 - sign t^step)
            for d in range(step, dmax + 1):
                series[d] += sign * series[d - step]
        total = [a + b for a, b in zip(total, series)]
    out = [v / len(group) for v in total]
    if any(v.denominator != 1 for v in out):
        raise ValueError("Molien coefficients must be integers")
    return [int(v) for v in out]


def all_monomials(weights, degree: int):
    """Exponent tuples of exact weighted degree."""
    ranges = [range(degree // w + 1) for w in weights]
    return [e for e in product(*ranges)
            if sum(a * w for a, w in zip(e, weights)) == degree]
