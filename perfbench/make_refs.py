"""Build perfbench/refs.json: the ad-hoc instance pool and its sympy references.

Run once from the repository root (it takes about ten seconds):

    python3 perfbench/make_refs.py

Every Groebner basis, elimination, kernel and colon ideal stored here is
computed by sympy, never by chowcheck.  sympy has no weighted orders, so a
weighted-grevlex basis is computed as the grevlex basis of the ideal with
each x_i replaced by y_i^w_i: the substitution preserves the order and
maps reduced bases to reduced bases.  The benchmark itself does not import
sympy; it reads the stored results.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from pathlib import Path

import sympy

HERE = Path(__file__).resolve().parent
STRATA = HERE.parent / "src" / "chowcheck" / "data" / "strata"


def terms_of(expr, gens):
    poly = sympy.Poly(sympy.expand(expr), *gens, domain="QQ")
    return {tuple(m): Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}


def to_expr(terms, gens):
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[g ** e for g, e in zip(gens, m)])
                       for m, c in terms.items()])


def encode(p):
    return [[list(m), str(c)] for m, c in sorted(p.items())]


def basis(polys, gens, order, weights):
    """Reduced basis of the ideal under lex, grevlex or wgrevlex."""
    polys = [p for p in polys if p]
    if not polys:
        return []
    if order != "wgrevlex":
        gb = sympy.groebner([to_expr(p, gens) for p in polys], *gens,
                            order=order, domain="QQ")
        return [terms_of(g, gens) for g in gb.exprs]
    lifted = [{tuple(e * w for e, w in zip(m, weights)): c for m, c in p.items()}
              for p in polys]
    out = []
    for q in basis(lifted, gens, "grevlex", weights):
        assert all(e % w == 0 for m in q for e, w in zip(m, weights))
        out.append({tuple(e // w for e, w in zip(m, weights)): c
                    for m, c in q.items()})
    return out


def eliminate(polys, gens, drop, order, weights):
    """Basis, under `order`, of the ideal intersected with Q[kept variables]."""
    kept = [g for g in gens if g not in drop]
    full = list(drop) + kept
    gb = sympy.groebner([to_expr(p, gens) for p in polys], *full,
                        order="lex", domain="QQ")
    inside = [terms_of(g, kept) for g in gb.exprs if not (g.free_symbols & set(drop))]
    kept_weights = [w for g, w in zip(gens, weights) if g not in drop]
    return basis(inside, kept, order, kept_weights)


def colon(polys, f, gens, order, weights):
    """(I : f) = (I cap (f)) / f, with I cap (f) found by eliminating t."""
    t = sympy.Symbol("t_colon")
    exprs = [t * to_expr(p, gens) for p in polys] + [(1 - t) * to_expr(f, gens)]
    gb = sympy.groebner(exprs, t, *gens, order="lex", domain="QQ")
    fe = to_expr(f, gens)
    quotients = []
    for g in gb.exprs:
        if t in g.free_symbols:
            continue
        q, r = sympy.div(g, fe, *gens, domain="QQ")
        assert r == 0
        quotients.append(terms_of(q, gens))
    return basis(quotients, gens, order, weights)


def katsura(n):
    u = sympy.symbols(f"u0:{n + 1}")
    at = lambda i: u[abs(i)] if abs(i) <= n else 0
    eqs = [sum(at(i) for i in range(-n, n + 1)) - 1]
    for m in range(n):
        eqs.append(sum(at(l) * at(m - l) for l in range(-n, n + 1)) - u[m])
    return list(u), eqs


def cyclic(n):
    x = sympy.symbols(f"x0:{n}")
    eqs = [sum(sympy.Mul(*[x[(i + j) % n] for j in range(k)]) for i in range(n))
           for k in range(1, n)]
    eqs.append(sympy.Mul(*x) - 1)
    return list(x), eqs


# weighted-homogeneous ring maps; `group` names the action whose invariant
# ring the images generate, so the kernel presents that ring
def maps():
    x, y, z, s, t = sympy.symbols("x y z s t")
    e1, e2, e3 = x + y + z, x * y + y * z + z * x, x * y * z
    return [
        dict(name="power-sums", group="S3",
             source=[("p1", 1), ("p2", 2), ("p3", 3), ("p4", 4)],
             target=[(x, 1), (y, 1), (z, 1)],
             images=[x + y + z, x**2 + y**2 + z**2, x**3 + y**3 + z**3,
                     x**4 + y**4 + z**4]),
        dict(name="veronese", group="Z2diag3",
             source=[(f"q{i}{j}", 2) for i in range(3) for j in range(i, 3)],
             target=[(x, 1), (y, 1), (z, 1)],
             images=[a * b for i, a in enumerate((x, y, z))
                     for b in (x, y, z)[i:]]),
        dict(name="rotation", group="Z4rot",
             source=[("a", 2), ("b", 4), ("c", 4)],
             target=[(x, 1), (y, 1)],
             images=[x**2 + y**2, x**2 * y**2, x * y * (x**2 - y**2)]),
        dict(name="alternating", group="A3",
             source=[("c1", 1), ("c2", 2), ("c3", 3), ("d", 3)],
             target=[(x, 1), (y, 1), (z, 1)],
             images=[e1, e2, e3, (x - y) * (y - z) * (z - x)]),
        dict(name="normal-quartic", group=None,
             source=[(f"n{i}", 4) for i in range(5)],
             target=[(s, 1), (t, 1)],
             images=[s**(4 - i) * t**i for i in range(5)]),
        dict(name="weighted-curve", group=None,
             source=[("a", 2), ("b", 3), ("c", 4)],
             target=[(s, 1), (t, 2)],
             images=[s**2 + t, s * t + s**3, t**2 + 2 * s**2 * t]),
    ]


# small groups of signed permutations, as generator images (index, sign)
SMALL_GROUPS = {
    "S3": (["x", "y", "z"], [1, 1, 1],
           [[(1, 1), (0, 1), (2, 1)], [(1, 1), (2, 1), (0, 1)]]),
    "Z2diag3": (["x", "y", "z"], [1, 1, 1],
                [[(0, -1), (1, -1), (2, -1)]]),
    "Z4rot": (["x", "y"], [1, 1], [[(1, 1), (0, -1)]]),
    "A3": (["x", "y", "z"], [1, 1, 1], [[(1, 1), (2, 1), (0, 1)]]),
    "B2": (["x", "y"], [1, 1], [[(1, 1), (0, 1)], [(0, -1), (1, 1)]]),
}
# invpres on A3 takes about 12 s on this engine, enough to dominate a pass,
# so A3 enters the stream only through `dims` on its stored presentation
INVPRES_GROUPS = ("S3", "Z2diag3", "Z4rot", "B2")


def stratum_action(path):
    """[vars] and [group] of a packaged stratum file, with weights."""
    names, weights, gens, section = [], [], [], None
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            section = line.strip("[]")
            continue
        if section == "vars":
            m = re.fullmatch(r"(\w+)(?:\((\d+)\)|:\s*(\d+))?", line)
            names.append(m.group(1))
            weights.append(int(m.group(2) or m.group(3) or 1))
        elif section == "group":
            image = {}
            for piece in line.split(";"):
                src, dst = (p.strip() for p in piece.split("->"))
                sign = -1 if dst.startswith("-") else 1
                image[src] = (names.index(dst.lstrip("+-").strip()), sign)
            gens.append([image[n] for n in names])
    return {"name": path.stem, "vars": names, "weights": weights,
            "group": [[list(e) for e in g] for g in gens]}


def ideal_entry(name, gens, eqs, order, weights=None):
    weights = weights or [1] * len(gens)
    polys = [terms_of(e, gens) for e in eqs]
    print("ideal", name, order, flush=True)
    return {"name": name, "vars": [str(g) for g in gens], "weights": weights,
            "order": order, "gens": [encode(p) for p in polys],
            "gb": [encode(p) for p in basis(polys, gens, order, weights)]}


def main():
    refs = {"ideals": [], "elims": [], "kernels": [], "colons": [],
            "actions": [], "presentations": []}

    for n, order in ((3, "grevlex"), (4, "grevlex"), (5, "grevlex"), (3, "lex")):
        gens, eqs = katsura(n)
        refs["ideals"].append(ideal_entry(f"katsura-{n}", gens, eqs, order))
    for n, order in ((4, "grevlex"), (5, "grevlex"), (4, "lex")):
        gens, eqs = cyclic(n)
        refs["ideals"].append(ideal_entry(f"cyclic-{n}", gens, eqs, order))

    for spec in maps():
        src = sympy.symbols([n for n, _ in spec["source"]])
        sw = [w for _, w in spec["source"]]
        tgt = [v for v, _ in spec["target"]]
        tw = [w for _, w in spec["target"]]
        images = [terms_of(e, tgt) for e in spec["images"]]
        print("kernel", spec["name"], flush=True)
        graph = [terms_of(a - b, tgt + list(src))
                 for a, b in zip(src, spec["images"])]
        kernel = eliminate(graph, tgt + list(src), tgt, "wgrevlex", tw + sw)
        refs["kernels"].append({
            "name": spec["name"], "group": spec["group"],
            "source": [str(v) for v in src], "sweights": sw,
            "target": [str(v) for v in tgt], "tweights": tw,
            "images": [encode(p) for p in images],
            "kernel": [encode(p) for p in kernel]})
        refs["elims"].append({
            "name": spec["name"], "vars": [str(v) for v in tgt + list(src)],
            "weights": tw + sw, "order": "wgrevlex",
            "drop": [str(v) for v in tgt], "gens": [encode(p) for p in graph],
            "result": [encode(p) for p in kernel]})
        refs["ideals"].append(ideal_entry(
            f"kernel-{spec['name']}", list(src),
            [to_expr(p, src) for p in kernel], "wgrevlex", sw))
        if spec["group"]:
            names, weights, group = SMALL_GROUPS[spec["group"]]
            refs["presentations"].append({
                "name": spec["name"],
                "group": {"weights": weights,
                          "generators": [[list(e) for e in g] for g in group]},
                "vars": [str(v) for v in src], "weights": sw,
                "relations": [encode(p) for p in kernel]})

    gens, eqs = katsura(3)
    polys = [terms_of(e, gens) for e in eqs]
    print("elim katsura-3", flush=True)
    refs["elims"].append({
        "name": "katsura-3", "vars": [str(g) for g in gens], "weights": [1] * 4,
        "order": "grevlex", "drop": ["u0"], "gens": [encode(p) for p in polys],
        "result": [encode(p) for p in eliminate(polys, gens, gens[:1],
                                                "grevlex", [1] * 4)]})

    x, y, z = sympy.symbols("x y z")
    a, b, c = sympy.symbols("a b c")
    ku, keqs = katsura(3)
    n = sympy.symbols("n0:5")
    colon_cases = [
        ("two-lines", [x, y, z], [1, 1, 1], [x * y, x * z], y, "grevlex"),
        ("embedded", [x, y, z], [1, 1, 1], [x**2, x * y], y + z, "grevlex"),
        ("embedded-y", [x, y, z], [1, 1, 1], [x**2, x * y], y, "grevlex"),
        ("rotation", [a, b, c], [2, 4, 4], [c**2 - a**2 * b + 4 * b**2], a, "wgrevlex"),
        ("normal-quartic", list(n), [4] * 5,
         [n[i] * n[j + 1] - n[i + 1] * n[j] for i in range(4) for j in range(i + 1, 4)],
         n[0], "wgrevlex"),
        ("katsura-3", ku, [1] * 4, keqs, ku[1], "grevlex"),
    ]
    for name, gens, weights, eqs, f, order in colon_cases:
        print("colon", name, flush=True)
        polys = [terms_of(e, gens) for e in eqs]
        fp = terms_of(f, gens)
        refs["colons"].append({
            "name": name, "vars": [str(g) for g in gens], "weights": weights,
            "order": order, "gens": [encode(p) for p in polys], "f": encode(fp),
            "gb": [encode(p) for p in basis(polys, gens, order, weights)],
            "colon": [encode(p) for p in colon(polys, fp, gens, order, weights)]})

    for path in sorted(STRATA.glob("*.stratum")):
        refs["actions"].append(stratum_action(path))
    for name in INVPRES_GROUPS:
        names, weights, group = SMALL_GROUPS[name]
        refs["actions"].append({"name": name, "vars": names, "weights": weights,
                                "group": [[list(e) for e in g] for g in group]})

    # one line per instance keeps the file compact and diffable
    lines = [f"  {json.dumps(name)}: [\n" + ",\n".join(
        "    " + json.dumps(entry, separators=(",", ":")) for entry in entries)
        + "\n  ]" for name, entries in refs.items()]
    (HERE / "refs.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
