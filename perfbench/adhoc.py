"""The `adhoc` workload: a seeded stream of distinct CLI documents.

Each pass draws a fixed mix of subcommands over a pool of instances whose
cost on this engine is known (refs.json); the seed picks the variable
names, a diagonal rescaling x_i -> c_i x_i of every instance, the planted
elements and the order of the stream.  Rescaling maps leading monomials to
themselves, so the reference answer for the rescaled input is the stored
sympy answer rescaled the same way, and the pass costs about the same on
every seed.

Checks never use chowcheck: bases, eliminations, kernels and colon ideals
are compared to the rescaled sympy references; membership and normal forms
use elements planted as combinations of the generators plus standard
monomials; invariant rings and dimension tables are compared to Molien
series computed from the group matrices.
"""

from __future__ import annotations

import json
import random
import string
from fractions import Fraction
from pathlib import Path

import algebra as A

REFS = Path(__file__).resolve().parent / "refs.json"

# how many documents of each kind one pass sends, per pool entry
MIX = {
    "gb": 1, "member": 2, "nf": 1, "elim": 2, "kernel": 2,
    "colon": 2, "nzd": 2, "invpres": 2, "dims": 3,
}
# katsura-5 and cyclic-5 are sent more often: they are the non-homogeneous
# input a degree strategy must not slow down, and with these counts the
# slowest tenth of a pass is mostly documents of similar cost, which keeps
# verdict_p90_s from jumping between cost classes from run to run
REPEAT = {"katsura-5": 4, "cyclic-5": 2}
FACTORS = [Fraction(v) for v in (1, -1, 2, -2, "1/2", "-1/2")]
# chowcheck names invariant generators z0, z1, ... internally and rejects a
# user variable with such a name ("tag name collides with an original
# variable"), so the stream leaves out z; see CHANGES.md
LETTERS = [c for c in string.ascii_lowercase if c != "z"]


class Doc:
    """One request: the files it reads, its argv, and how to check its output."""

    def __init__(self, command, source, files, args, check):
        self.command = command
        self.source = source        # pool entry the document was drawn from
        self.files = files          # file name -> text
        self.args = args            # argv after the command, files by name
        self.check = check          # output text -> bool

    def argv(self, folder: Path):
        out = [self.command]
        for a in self.args:
            out.append(str(folder / a) if a in self.files else a)
        return out


def load_refs():
    return json.loads(REFS.read_text())


class Stream:
    def __init__(self, seed: int, refs):
        self.rng = random.Random(seed)
        self.refs = refs
        self.count = 0

    # -- shared helpers -------------------------------------------------------

    def names(self, n):
        picked = set()
        while len(picked) < n:
            picked.add(self.rng.choice(LETTERS) + str(self.rng.randrange(100)))
        out = sorted(picked)
        self.rng.shuffle(out)
        return out

    def factors(self, n):
        return [self.rng.choice(FACTORS) for _ in range(n)]

    def file(self, kind):
        self.count += 1
        return f"d{self.count:05d}.{kind}"

    @staticmethod
    def vars_section(names, weights):
        return "\n".join(n if w == 1 else f"{n}({w})" for n, w in zip(names, weights))

    def ideal_text(self, names, weights, polys):
        rels = "\n".join(A.fmt(p, names) for p in polys)
        return (f"[kind]\nideal\n\n[vars]\n{self.vars_section(names, weights)}\n\n"
                f"[relations]\n{rels}\n")

    def scaled(self, entry, key, factors):
        return [A.scale_vars(A.decode(p), factors) for p in entry[key]]

    def standard_monomials(self, weights, gb, order, count):
        key = A.order_key(order, weights)
        leads = [A.lead(g, key) for g in gb]
        found = []
        for degree in range(0, 8):
            for m in A.all_monomials(weights, degree):
                if not any(A.divides(lm, m) for lm in leads):
                    found.append(m)
            if len(found) >= 2 * count:
                break
        return self.rng.sample(found, min(count, len(found)))

    def planted_member(self, gens, nvars):
        """A combination of two generators with monomial multipliers."""
        total = {}
        for g in self.rng.sample(gens, min(2, len(gens))):
            mono = [0] * nvars
            if self.rng.random() < 0.5:
                mono[self.rng.randrange(nvars)] = 1
            c = Fraction(self.rng.choice((1, -1, 2, 3)), self.rng.choice((1, 2)))
            total = A.add(total, A.mul({tuple(mono): c}, g))
        return total

    # -- documents ------------------------------------------------------------

    def ideal_docs(self, entry, command):
        names = self.names(len(entry["vars"]))
        weights = entry["weights"]
        order = entry["order"]
        key = A.order_key(order, weights)
        c = self.factors(len(names))
        gens = self.scaled(entry, "gens", c)
        gb = [A.monic(g, key) for g in self.scaled(entry, "gb", c)]
        name = self.file("ideal")
        files = {name: self.ideal_text(names, weights, gens)}
        if command == "gb":
            return Doc("gb", entry["name"], files, [name, "--order", order],
                       lambda out: A.same_basis(A.parse_list(out, names), gb, key))
        element = self.planted_member(gens, len(names))
        rest = {}
        if command == "nf" or self.rng.random() < 0.5:
            for m in self.standard_monomials(weights, gb, order, 2):
                rest = A.add(rest, {m: Fraction(self.rng.choice((1, -2, 3)))})
        element = A.add(element, rest)
        args = [name, f"--element={A.fmt(element, names)}", "--order", order]
        if command == "nf":
            return Doc("nf", entry["name"], files, args, lambda out: A.parse(out, names) == rest)
        want = "false\n" if rest else "true\n"
        return Doc("member", entry["name"], files, args, lambda out: out == want)

    def elim_doc(self, entry):
        names = self.names(len(entry["vars"]))
        weights = entry["weights"]
        c = self.factors(len(names))
        drop = [names[entry["vars"].index(v)] for v in entry["drop"]]
        kept = [(n, w, f) for n, w, f in zip(names, weights, c) if n not in drop]
        key = A.order_key(entry["order"], [w for _, w, _ in kept])
        want = [A.scale_vars(A.decode(p), [f for _, _, f in kept])
                for p in entry["result"]]
        name = self.file("ideal")
        files = {name: self.ideal_text(names, weights, self.scaled(entry, "gens", c))}
        kept_names = [n for n, _, _ in kept]
        return Doc("elim", entry["name"], files,
                   [name, "--drop", ",".join(drop), "--order", entry["order"]],
                   lambda out: A.same_basis(A.parse_list(out, kept_names), want, key))

    def kernel_doc(self, entry):
        src = self.names(len(entry["source"]) + len(entry["target"]))
        src, tgt = src[:len(entry["source"])], src[len(entry["source"]):]
        a = self.factors(len(src))
        c = self.factors(len(tgt))
        images = "\n".join(
            f"{n}: {A.fmt({m: v * f for m, v in A.scale_vars(A.decode(p), c).items()}, tgt)}"
            for n, f, p in zip(src, a, entry["images"]))
        text = (f"[kind]\nmorphism\n\n[source]\n{self.vars_section(src, entry['sweights'])}\n\n"
                f"[target]\n{self.vars_section(tgt, entry['tweights'])}\n\n"
                f"[images]\n{images}\n")
        want = self.scaled(entry, "kernel", [1 / f for f in a])
        key = A.order_key("wgrevlex", entry["sweights"])
        name = self.file("morphism")
        return Doc("kernel", entry["name"], {name: text}, [name, "--order", "wgrevlex"],
                   lambda out: A.same_basis(A.parse_list(out, src), want, key))

    def colon_doc(self, entry, command):
        names = self.names(len(entry["vars"]))
        weights = entry["weights"]
        order = entry["order"]
        key = A.order_key(order, weights)
        c = self.factors(len(names))
        gens = self.scaled(entry, "gens", c)
        f = A.scale_vars(A.decode(entry["f"]), c)
        f = {m: v * self.rng.choice(FACTORS) for m, v in f.items()}
        colon = [A.monic(g, key) for g in self.scaled(entry, "colon", c)]
        gb = [A.monic(g, key) for g in self.scaled(entry, "gb", c)]
        name = self.file("ideal")
        files = {name: self.ideal_text(names, weights, gens)}
        args = [name, f"--element={A.fmt(f, names)}", "--order", order]
        if command == "colon":
            return Doc("colon", entry["name"], files, args,
                       lambda out: A.same_basis(A.parse_list(out, names), colon, key))
        regular = A.same_basis(colon, gb, key)

        def check(out):
            if regular:
                return out == "true\n"
            head, _, witness = out.partition("\nwitness: ")
            if head != "false" or not witness.endswith("\n"):
                return False
            g = A.parse(witness, names)
            return (not A.reduce(A.mul(g, f), gb, key)
                    and bool(A.reduce(g, gb, key)))
        return Doc("nzd", entry["name"], files, args, check)

    def action_doc(self, entry):
        names = self.names(len(entry["vars"]))
        weights = entry["weights"]
        group = [[tuple(e) for e in g] for g in entry["group"]]
        lines = []
        for g in group:
            lines.append("; ".join(
                f"{names[i]} -> {'-' if s < 0 else ''}{names[j]}"
                for i, (j, s) in enumerate(g)))
        text = (f"[kind]\naction\n\n[vars]\n{self.vars_section(names, weights)}\n\n"
                f"[group]\n" + "\n".join(lines) + "\n")
        dmax = 12
        want = A.molien(group, weights, dmax)
        name = self.file("action")
        return Doc("invpres", entry["name"], {name: text}, [name],
                   lambda out: check_presentation(out, want, dmax))

    def dims_doc(self, entry):
        names = self.names(len(entry["vars"]))
        weights = entry["weights"]
        c = self.factors(len(names))
        rels = "\n".join(A.fmt(p, names) for p in self.scaled(entry, "relations", c))
        text = (f"[kind]\npresentation\n\n[vars]\n{self.vars_section(names, weights)}\n\n"
                f"[relations]\n{rels}\n")
        group = entry["group"]
        dmax = self.rng.randrange(10, 15)
        want = A.molien([[tuple(e) for e in g] for g in group["generators"]],
                        group["weights"], dmax)
        expected = "".join(f"{d}: {n}\n" for d, n in enumerate(want))
        name = self.file("pres")
        return Doc("dims", entry["name"], {name: text}, [name, "--dmax", str(dmax)],
                   lambda out: out == expected)

    # -- one pass -------------------------------------------------------------

    def next_pass(self):
        refs = self.refs
        docs = []
        for command in ("gb", "member", "nf"):
            for entry in refs["ideals"]:
                count = MIX[command] * REPEAT.get(entry["name"], 1)
                docs += [self.ideal_docs(entry, command) for _ in range(count)]
        for entry in refs["elims"]:
            docs += [self.elim_doc(entry) for _ in range(MIX["elim"])]
        for entry in refs["kernels"]:
            docs += [self.kernel_doc(entry) for _ in range(MIX["kernel"])]
        for command in ("colon", "nzd"):
            for entry in refs["colons"]:
                docs += [self.colon_doc(entry, command) for _ in range(MIX[command])]
        for entry in refs["actions"]:
            docs += [self.action_doc(entry) for _ in range(MIX["invpres"])]
        for entry in refs["presentations"]:
            docs += [self.dims_doc(entry) for _ in range(MIX["dims"])]
        self.rng.shuffle(docs)
        return docs


def check_presentation(out: str, want, dmax: int) -> bool:
    """invpres output: a Groebner basis whose Hilbert function is the Molien series."""
    sections, current = {}, None
    for line in out.splitlines():
        if line.startswith("["):
            current = sections.setdefault(line.strip("[]"), [])
        elif line.strip():
            current.append(line.strip())
    names, weights = [], []
    for item in sections.get("vars", []):
        name, _, w = item.partition("(")
        names.append(name)
        weights.append(int(w.rstrip(")")) if w else 1)
    rels = [A.parse(r, names) for r in sections.get("relations", [])]
    key = A.order_key("wgrevlex", weights)
    if rels and not A.is_groebner(rels, key):
        return False
    return A.graded_dims(weights, [A.lead(r, key) for r in rels], dmax) == want
