"""Staged reconstruction of a boundary-stratified intersection ring.

The computation builds one ring per stage.  Each stage is driven by a
stratum data file: variables of a finite cover, a finite group of signed
permutations, invariant coordinates for the closed stratum's ring, the top
Chern class of its normal directions, and restriction formulas for every
ambient generator.  The stage glues the previous ring to the stratum ring
along the quotient by the top Chern class (checked to be a non-zero-divisor
first), presents the glued ring by the intersection of the stratum-side
kernel with the ideal of the new tags, which the other side kills,
transports the previous relations across the square, and certifies
degreewise that the chosen generators span everything.

Sign conventions enter as the symbols e1, e2, e3 (kappa-class pullbacks)
and eg (pushforward classes).  Built pieces live in an `Artifacts` store:
a stratum is built the first time something reads it, and a stage is
glued, with all stages before it in file order, the first time something
reads it; every later reader of a failed piece gets the same error.  A
stratum is keyed by the values of the sign symbols its spec texts read,
and a stage by its content, what a `Stage` reads, so conventions
that yield equal stages share one gluing.  A `Stratum` is lazy too: its
forms and invariance checks are built at once, the rest on first read,
and strata of one spec share its action, parses and invariance checks.
Every data file is read by `exprparser.read_document`, so an input error
in one, found while it is read, when a stratum first parses its texts or
builds its action, or when a claim reads a field, names the file.
`run_pipeline` is a store with every stage glued and certified;
`verify_paper` runs its claims and its sign sweeps on that one store, so
the sweeps build only what their claims read and the main run lacks: a
`Stage` builds its generation certificate, kernel presentations and
minimal relations only when read.  Claims
extracted from the source text are data: each one is evaluated against the
computed objects and compared to its expected status, so known misprints
are flagged exactly, with corrected forms verified alongside.
"""

from __future__ import annotations

import json
from collections import Counter
from copy import copy
from importlib import resources
from itertools import product
from pathlib import Path
from time import perf_counter

from .polyarith import NAME, MonomialOrder, Polynomial, VarTable
from .groebner import (
    HilbertSeries,
    Ideal,
    Subalgebra,
    ideal_equal,
    intersect,
    irredundant,
    map_kernel,
    subalgebra_member,
    zero_dimensional,
)
from .exprparser import (
    Document,
    Entry,
    ParseError,
    doc_polynomials,
    doc_vars,
    in_file,
    parse_declaration,
    parse_group,
    parse_map,
    parse_polynomial,
    parse_rational,
    parse_vartable,
    read_document,
    split_list,
)
from .invariants import GroupAction, InvariantError, invariant_presentation
from .ringpres import (
    Morphism,
    Presentation,
    PresentationError,
    apply_quotient,
    graded_surjectivity,
)


SIGN_NAMES = ("e1", "e2", "e3", "eg")

STRATUM_FILES = ("gamma1.stratum", "gamma2.stratum", "gamma3p.stratum",
                 "gamma3pp.stratum")
BASE_FILE = "base.pres"
CLAIMS_FILE = "paper.claims"


class PipelineError(ValueError):
    pass


# errors that belong to one claim or stage; anything else is a bug
_DOMAIN_ERRORS = (PipelineError, PresentationError, InvariantError, ParseError)


def _once(built: dict, key, build):
    """`built[key]`, made by `build()` on the first call.

    A domain error raised by `build` is kept in its place and raised again
    to every later caller, so a failed piece is never rebuilt.
    """
    if key not in built:
        try:
            built[key] = build()
        except _DOMAIN_ERRORS as exc:
            built[key] = exc
    value = built[key]
    if isinstance(value, Exception):
        raise value
    return value


def _piece(build):
    """A property kept by `_once` in the object's `_pieces`, a failure too."""
    return property(lambda self: _once(self._pieces, build.__name__, lambda: build(self)),
                    doc=build.__doc__)


def _parsed(built: dict, source, entry: Entry, table: VarTable, env: dict, functions=None):
    """The entry's text parsed from its place in the file `source`, kept in
    `built` under the text, the table, the function names and the value of
    each name of the text that `env` binds.  Only a parse that succeeds is
    kept, so a failing text fails at each place it is read.  A memo given
    `functions` must be the spec's, whose one action they come from."""
    text = entry.value
    reads = tuple((name, env[name]) for name in NAME.findall(text) if name in env)
    key = ("parse", text, table, tuple(functions or ()), reads)
    if key not in built:
        with in_file(source):
            built[key] = parse_polynomial(text, table, env, functions, entry.line, entry.col)
    return built[key]


class SignConvention:
    """One choice of the four sign symbols, each +1 or -1."""

    __slots__ = ("values",)

    def __init__(self, e1=-1, e2=-1, e3=-1, eg=1):
        vals = (e1, e2, e3, eg)
        if any(v not in (1, -1) for v in vals):
            raise PipelineError("signs must be +1 or -1")
        self.values = dict(zip(SIGN_NAMES, vals))

    @staticmethod
    def parse(text: str) -> "SignConvention":
        parts = [p.strip() for p in text.replace("(", "").replace(")", "").split(",")]
        if len(parts) not in (3, 4):
            raise PipelineError("convention needs 3 or 4 comma-separated signs")
        try:
            nums = [int(p) for p in parts]
        except ValueError as exc:
            raise PipelineError(f"bad sign in convention: {text!r}") from exc
        if len(nums) == 3:
            nums.append(1)
        return SignConvention(*nums)

    @staticmethod
    def all() -> list:
        return [SignConvention(*signs) for signs in product((-1, 1), repeat=4)]

    @property
    def label(self) -> str:
        return ",".join(f"{n}={v:+d}" for n, v in self.values.items())

    def __eq__(self, other):
        return isinstance(other, SignConvention) and self.values == other.values

    def __repr__(self):
        return f"SignConvention({self.label})"


# ---------------------------------------------------------------------------
# data loading

def _data_path(name: str, root=None):
    """The data file `name` in `root` (by default the package's data) or in
    its strata/ folder."""
    base = resources.files("chowcheck").joinpath("data") if root is None else Path(root)
    for candidate in (base.joinpath(name), base.joinpath("strata", name)):
        if candidate.is_file():
            return candidate
    raise PipelineError(f"missing data file {name!r}"
                        + ("" if root is None else f" under {root}"))


class StratumSpec:
    """Raw, convention-independent contents of one stratum file, and the
    `algebra` memo its strata share: their action, parses and invariance checks."""

    def __init__(self, doc: Document):
        self.source = doc.source
        self.label = doc.single("label").value
        self.table = doc_vars(doc)
        self.group_specs = parse_group(doc.section("group", required=True))
        # the texts a `Stratum` parses, as entries: each parse names its place
        self.defs = doc.keyed("defs", "name: form")
        ring = doc.keyed("ring", "name(weight): form", required=True).values()
        declared = [(parse_declaration(e.key, e.line), e) for e in ring]  # k1(1) is k1
        self.ring = parse_map(((n, (w, e), e.line) for (n, w), e in declared), "[ring]")
        first = {}  # name -> the section declaring it; a text reads a repeat's later one
        for section, entries in (("vars", dict.fromkeys(self.table.names)), ("defs", self.defs),
                                 ("ring", {n: e for n, (_, e) in self.ring.items()})):
            for name, e in entries.items():  # e is None in [vars], never a repeat
                if name in SIGN_NAMES:
                    raise PipelineError(f"{self.label}: [{section}] name {name} "
                                        "is reserved for a sign symbol")
                if name in first:
                    raise ParseError(f"{self.label}: [{section}] name {name} is already "
                                     f"declared in [{first[name]}]", e.line)
                first[name] = section
        self.top = doc.single("top")
        self.restrict = doc.keyed("restrict", "tag: form", required=True)
        self.pairs = doc.keyed("pairs", "tag: form")
        self.new = parse_vartable(doc.section("new", required=True))
        order_entry = doc.single("tags", required=False)
        self.tag_order = (split_list(order_entry.value)
                          if order_entry is not None else None)
        # the sign symbols named by the texts a `Stratum` parses
        self.signs_read = frozenset(
            name for e in [*self.defs.values(), *(e for _, e in self.ring.values()),
                           self.top, *self.restrict.values(), *self.pairs.values()]
            for name in NAME.findall(e.value) if name in SIGN_NAMES)
        self.algebra = {}

    @staticmethod
    def load(name: str, root=None) -> "StratumSpec":
        with read_document(_data_path(name, root), ("stratum",)) as doc:
            return StratumSpec(doc)


class Stratum:
    """A stratum spec materialised under one sign convention.

    The forms and their weight and invariance checks are built at once; the
    ring presentation, the coordinate subalgebra, the restriction
    coordinates and the gluing pairs on first read, each kept by `_once`,
    a failure too.  A parse or group error names the spec's file.  The spec's
    `algebra` memo holds what the strata of one spec share: its group
    action, every text they parse (`_parsed`) and every form that passed
    its invariance check; a failing form is checked again, and fails, in
    each stratum that reads it.
    """

    def __init__(self, spec: StratumSpec, convention: SignConvention):
        self.spec = spec
        self.convention = convention
        self.label = spec.label
        self.table = spec.table
        self._pieces = {}
        with in_file(spec.source):
            self.action = _once(spec.algebra, ("action",), lambda:
                                GroupAction(spec.table, spec.group_specs))
        self.functions = {"transfer": self.action.transfer,
                          "reynolds": self.action.reynolds}
        self.env = dict(convention.values)
        for name, e in spec.defs.items():
            self.env[name] = self._psi(e)
        self.ring_names = list(spec.ring)
        self.ring_forms = [self._psi(e) for _, e in spec.ring.values()]
        for (name, (weight, _)), form in zip(spec.ring.items(), self.ring_forms):
            self._require_invariant(f"ring coordinate {name}", form)
            if form.weighted_degree() != weight:
                raise PipelineError(
                    f"{self.label}: ring coordinate {name} is declared of weight "
                    f"{weight}, but its form has degree {form.weighted_degree()}")
        self.top_form = self._psi(spec.top)
        self._require_invariant("top Chern form", self.top_form)
        self.restrictions = {tag: self._psi(e) for tag, e in spec.restrict.items()}
        for tag, form in self.restrictions.items():
            self._require_invariant(f"restriction of {tag}", form)

    @_piece
    def ring(self) -> Presentation:
        return invariant_presentation(self.action, self._coordinates)

    @_piece
    def _coordinates(self) -> Subalgebra:
        """The ring coordinates as one Subalgebra: `ring` presents it and
        `coordinates_of` reads the same basis."""
        return Subalgebra(self.table, list(zip(self.ring_names, self.ring_forms)))

    @_piece
    def restriction_coords(self) -> dict:
        return {tag: self.coordinates_of(form) for tag, form in self.restrictions.items()}

    @_piece
    def top_coords(self) -> Polynomial:
        """The top Chern class in the ring coordinates."""
        return self.coordinates_of(self.top_form)

    @_piece
    def pair_overrides(self) -> dict:
        pair_env = dict(self.convention.values)
        pair_env.update(self.restriction_coords)
        return {tag: self._form(e, self.ring.table, pair_env)
                for tag, e in self.spec.pairs.items()}

    def _form(self, entry: Entry, table: VarTable, env: dict, functions=None) -> Polynomial:
        """A spec entry's text, by `_parsed` from its place in the spec's file."""
        return _parsed(self.spec.algebra, self.spec.source, entry, table, env, functions)

    def _psi(self, entry: Entry) -> Polynomial:
        return self._form(entry, self.table, self.env, self.functions)

    def _require_invariant(self, what: str, form: Polynomial) -> None:
        if ("invariant", form) in self.spec.algebra:  # passed for another stratum
            return
        for element in self.action.generators:
            if self.action.act(element, form) != form:
                moved = ", ".join(
                    f"{src} -> {'-' if sign < 0 else ''}{self.table.names[j]}"
                    for src, (j, sign) in zip(self.table.names, element)
                )
                raise PipelineError(
                    f"{self.label}: {what} is not invariant under ({moved})"
                )
        self.spec.algebra["invariant", form] = True

    def coordinates_of(self, form: Polynomial) -> Polynomial:
        """Express an invariant form in the ring coordinates."""
        expr = subalgebra_member(form, self._coordinates)
        if expr is None:
            raise PipelineError(
                f"form is not in the coordinate ring of {self.label}: {form}"
            )
        return expr


def load_base(name: str = BASE_FILE, root=None) -> Presentation:
    with read_document(_data_path(name, root), ("presentation",)) as doc:
        table = doc_vars(doc)
        return Presentation(table, doc_polynomials(doc, "relations", table))


# ---------------------------------------------------------------------------
# one induction step

class Stage:
    """The previous ring glued with one stratum over the bottom ring
    A/(top Chern class), whose Hilbert series is the non-zero-divisor gate.

    Built at once: the map `alpha` of the tags, each tag restricted into
    the stratum coordinates, with a displayed gluing pair used when it
    agrees over the bottom and a fallback otherwise (`pairs`); the new tags
    `killed`, which the other side, restriction to the open complement,
    kills; the check that the square commutes, every previous relation and
    every new tag restricting to zero on the bottom; the fiber `fiber` from
    `ker_alpha` and `ker_beta`, the ideal of the killed tags; the glued
    ring `result` with the previous relations lifted (`lifts`); and the
    check that its Hilbert series is the previous ring's plus the stratum
    ring's shifted by the top class's degree.  Built on first read, a
    failure kept too: `surjectivity`, `keralpha`, `kerbeta`, `minimal`.
    `report()` is the stage's report entry.
    """

    def __init__(self, prev: Presentation, stratum: Stratum, dmax: int):
        A = stratum.ring
        ctop = stratum.top_coords
        self.label, self.top_chern, self.dmax = stratum.label, str(ctop), dmax
        self._pieces = {}
        self.bottom, gate = A.regular_quotient(ctop)
        if not gate:
            raise PipelineError(f"top Chern class of {stratum.label} is a zero divisor; "
                                "the gluing square does not apply")

        names = list(prev.table.names) + list(stratum.spec.new.names)
        weights = list(prev.table.weights) + list(stratum.spec.new.weights)
        if stratum.spec.tag_order is not None:
            by_name = dict(zip(names, weights))
            if sorted(stratum.spec.tag_order) != sorted(names):
                raise PipelineError(f"tag order of {stratum.label} must permute {sorted(names)}")
            names = list(stratum.spec.tag_order)
            weights = [by_name[n] for n in names]
        try:
            tags = VarTable(names, weights)
        except ValueError as exc:
            raise PipelineError(f"{stratum.label}: bad [new] entry: {exc}") from None

        alpha_images = {}
        self.pairs = []
        for tag in names:
            if tag not in stratum.restrictions:
                raise PipelineError(f"{stratum.label} gives no restriction for {tag}")
            true_side = stratum.restriction_coords[tag]
            override = stratum.pair_overrides.get(tag)
            if override is None:
                row = {"source": "restriction"}
            elif self.bottom.is_zero(override - true_side):
                row = {"source": "displayed", "differs_from_restriction": override != true_side}
            else:
                row = {"source": "fallback", "rejected": str(override)}
            alpha_images[tag] = override if row["source"] == "displayed" else true_side
            self.pairs.append({"tag": tag, "a_side": str(alpha_images[tag]), **row})

        self.alpha = Morphism(Presentation(tags), A, alpha_images)
        self.killed = list(stratum.spec.new.names)

        # the square commutes: the previous relations and the new tags die in the bottom
        images = self.alpha.images
        dying = [(f"relation {rel}", rel.substitute(images, target=A.table))
                 for rel in prev.relations.gens]
        for what, image in dying + [(f"new tag {t}", images[t]) for t in self.killed]:
            if not self.bottom.is_zero(image):
                raise PipelineError(f"{stratum.label}: the restriction of {what} is not "
                                    "zero on the bottom ring")

        self.ker_alpha = self.alpha.kernel()
        self.ker_beta = Ideal(tags, [Polynomial.variable(tags, t) for t in self.killed])
        self.fiber = Presentation(tags, intersect(self.ker_alpha, self.ker_beta))
        self.result, self.lifts = apply_quotient(self.fiber, self.alpha, self.killed,
                                                 prev.relations.gens)
        # a non-zero-divisor top class of degree c gives HS(result) = HS(prev) + t^c HS(A)
        c = ctop.weighted_degree()
        d = self.result.series.first_difference(
            HilbertSeries.sum([prev.series, A.series.shifted(c)]))
        if d is not None:
            got, old, new = self.result.dim(d), prev.dim(d), A.dim(d - c)
            raise PipelineError(f"glued ring of {stratum.label} has dimension {got} in degree "
                                f"{d}, but the stratification gives {old} + {new}")

    @_piece
    def surjectivity(self) -> list:
        """The generation certificate, one `graded_surjectivity` row per
        degree 0..dmax, so a stage nobody certifies is never ranked."""
        return graded_surjectivity(self.fiber, self.alpha, self.killed, self.bottom,
                                   range(self.dmax + 1))

    @_piece
    def keralpha(self) -> Presentation:
        """`ker_alpha` presented with the basis it holds, as is `kerbeta`."""
        return Presentation(self.ker_alpha.context, self.ker_alpha)

    @_piece
    def kerbeta(self) -> Presentation:
        return Presentation(self.ker_beta.context, self.ker_beta)

    @_piece
    def minimal(self) -> list:
        return minimal_generators(self.result)

    def report(self) -> dict:
        """The stage's report entry, certified through dmax when every
        `surjectivity` row is, else through -1; a built stage passed the gate."""
        rows = self.surjectivity
        return {"label": self.label, "top_chern": self.top_chern, "nzd": True,
                "assumed": ["the glued ring is the fiber product of the two restrictions"],
                "pairs": self.pairs, "lifts": self.lifts,
                "result_relations": [str(g) for g in self.result.relations.gens],
                "surjectivity": rows,
                "certified_through": self.dmax if all(r["certified"] for r in rows) else -1}


induction_step = Stage  # `_glue` calls it by this name, which perfbench traces


# ---------------------------------------------------------------------------
# full pipeline

def _load_inputs(root=None) -> tuple:
    """The convention-independent inputs: stratum specs in file order, base."""
    specs = [StratumSpec.load(name, root=root) for name in STRATUM_FILES]
    return specs, load_base(root=root)


class Artifacts:
    """Everything one sign convention yields, each piece built on first read.

    `stratum(label)` materialises one stratum; `stage(label)` glues every
    stage through `label` in file order, taking its strata from `stratum`;
    `final` is the last stage's ring.  A stratum is keyed by its label and
    the values of the signs its spec texts read.  A stage is keyed by its
    content, exactly what a `Stage` reads: the label, the previous ring,
    the stratum's ring, its top class and restrictions in ring coordinates
    and its pair overrides.  Each view builds the key of a stage once, on
    its first read, and keeps the stage under its label.
    `under(convention)` reads the same store under another convention, so
    conventions that yield equal pieces share one build.  A stratum, a
    stratum piece or a gluing that fails keeps its error and raises it
    again to every later reader, a stage whose key reads that piece among
    them.  Claim texts read over a table are kept in the store by
    `_parsed`.  No stage holds a stratum, so a store is freed without the
    cycle collector.
    """

    def __init__(self, convention: SignConvention, specs, base: Presentation,
                 dmax: int = 12):
        self.convention = convention
        self.base = base
        self.dmax = dmax
        self.specs = {spec.label: spec for spec in specs}
        if len(self.specs) != len(specs):
            raise PipelineError("two stratum files share a label")
        self.labels = list(self.specs)
        self._built = {}
        self._stages = {}  # this view's stages by label

    def under(self, convention: SignConvention) -> "Artifacts":
        """This store, read under `convention`."""
        view = copy(self)
        view.convention = convention
        view._stages = {}
        return view

    def _signs(self, read) -> tuple:
        return tuple((name, value) for name, value in self.convention.values.items()
                     if name in read)

    def _spec(self, label: str) -> StratumSpec:
        spec = self.specs.get(label)
        if spec is None:
            raise PipelineError(f"no stage with label {label!r}")
        return spec

    def stratum(self, label: str) -> Stratum:
        spec = self._spec(label)
        return _once(self._built, ("stratum", label) + self._signs(spec.signs_read),
                     lambda: Stratum(spec, self.convention))

    def stage(self, label: str) -> Stage:
        """The stage keyed by what a `Stage` reads (the label fixes
        the spec), glued the first time any convention yields that key."""
        return _once(self._stages, label, lambda: self._glue(label))

    def _glue(self, label: str) -> Stage:
        self._spec(label)
        index = self.labels.index(label)
        prev = self.stage(self.labels[index - 1]).result if index else self.base
        stratum = self.stratum(label)
        A = stratum.ring
        key = ("stage", label, prev.table, prev.relations.gens, A.table,
               A.relations.gens, stratum.top_coords,
               tuple(stratum.restriction_coords.items()),
               tuple(stratum.pair_overrides.items()))
        return _once(self._built, key, lambda: induction_step(prev, stratum, self.dmax))

    @property
    def stages(self) -> list:
        """The stages under this convention, in file order."""
        return [self.stage(label) for label in self.labels]

    @property
    def final(self) -> Presentation:
        return self.stage(self.labels[-1]).result


def run_pipeline(convention: SignConvention | None = None, dmax: int = 12,
                 root=None) -> Artifacts:
    """Glue and certify every stage under one convention; returns the
    artifact store.

    `root` overrides the packaged data directory.
    """
    artifacts = Artifacts(convention or SignConvention(), *_load_inputs(root),
                          dmax=dmax)
    for label in artifacts.labels:
        artifacts.stage(label).surjectivity
    return artifacts


def minimal_generators(pres: Presentation) -> list:
    """Degree-increasing irredundant generating set of the relation ideal:
    `irredundant` over the reduced basis walked in (weighted degree, text)
    order, so each element is kept unless the ones before it generate it."""
    basis = sorted(pres.relations.groebner(pres.order),
                   key=lambda g: (g.weighted_degree(), str(g)))
    return irredundant(basis, pres.order)


# ---------------------------------------------------------------------------
# claims

_REQUIRED = object()  # Claim.get default: the field must be present


class Claim:
    source = None  # the claims file, set by `load_claims`

    def __init__(self, entries, line=None):
        self.line = line  # of the [claim] header
        for e in entries:
            if e.key is None:
                raise ParseError("claim entries need a key", e.line)
        self.fields = parse_map(((e.key, e, e.line) for e in entries), "[claim]")
        self.read = set()  # the keys asked for, so `ClaimRunner.run` finds the unread
        self.id = self.get("id")
        self.kind = self.get("kind")
        self.expect = self.get("expect", "pass")
        if self.expect.upper() not in ("PASS", "FAIL", "ASSUMED"):
            self.reject(f"claim {self.id}: expect must be pass, fail or "
                        f"assumed, not {self.expect!r}", "expect")
        self.note = self.get("note", "")
        self.sweep = self.get("sweep", None)
        self.read_at_load = frozenset(self.read)  # each run starts from these

    def get(self, key, default=_REQUIRED):
        self.read.add(key)
        if key in self.fields:
            return self.fields[key].value
        if default is _REQUIRED:
            self.reject(f"claim is missing the {key!r} field")
        return default

    def reject(self, message, key=None):
        """Raise an input error in the claims file, at field `key` or the header."""
        with in_file(self.source):
            raise ParseError(message, self.fields[key].line if key else self.line)

    def items(self, key, default=_REQUIRED) -> list:
        """The `;` items of field `key`, each an Entry at its own column."""
        return self.fields[key].pieces() if self.get(key, default) else []

    def map(self, key, sep, names) -> dict:
        """The `;` list field `key` of `names`, each once, by `parse_map`: {name: Entry}."""
        self.get(key)
        with in_file(self.source):
            return parse_map(((e.key, e, e.line) for e in self.fields[key].pieces(sep)),
                             f"claim field {key!r}", names)

    def number(self, key, parse=int, item=None):
        """Field `key`, or `item`, one of its items, by `int` or `parse_rational`."""
        text = self.get(key) if item is None else item.value
        try:
            return parse(text)
        except ValueError:
            what = "an integer" if parse is int else "a rational number"
            self.reject(f"claim field {key!r} must be {what}, not {text!r}", key)


def load_claims(name: str = CLAIMS_FILE, path=None) -> list:
    with read_document(_data_path(name) if path is None else path, ("claims",)) as doc:
        claims = {}
        for _, line, entries in doc.sections:  # every section is a [claim]
            claim = Claim(entries, line)
            if claim.id in claims:
                claim.reject(f"claim {claim.id} is stated more than once", "id")
            claim.source = doc.source
            claims[claim.id] = claim
    return list(claims.values())


def _membership_gaps(computed: Ideal, stated: Ideal, order) -> tuple:
    """The texts of the elements of the reduced basis of `computed` outside
    `stated`, and of the generators of `stated` outside `computed`."""
    return ([str(g) for g in computed.groebner(order) if not stated.member(g, order)],
            [str(g) for g in stated.gens if not computed.member(g, order)])


class ClaimRunner:
    """Evaluate claims against an `Artifacts` store.

    Each claim reads only what it needs: a stratum for `where:` claims and
    `ring:` spaces, the glued stage for `stage:` claims and the other stage
    spaces, the last stage for the final ring.
    """

    def __init__(self, artifacts: Artifacts):
        self.artifacts = artifacts
        self._details = True  # off in the sweep, which reads statuses only

    # -- helpers -----------------------------------------------------------

    def label(self, claim, key) -> str:
        """The claim's field `key`, which must be the label of a stage."""
        label = claim.get(key)
        if label not in self.artifacts.specs:
            claim.reject(f"no stage with label {label!r}", key)
        return label

    def where(self, claim) -> Stratum:
        """The stratum the claim's `where:` names."""
        return self.artifacts.stratum(self.label(claim, "where"))

    def parse(self, claim, key, table=None, item=None) -> Polynomial:
        """Claim field `key`, or `item`, one of its items, parsed from its place
        in the claims file: over `table` with the signs, kept in the store, or
        else over the `where:` stratum with its names and functions too."""
        claim.get(key)  # a field left out is an error at the claim's header
        built, env, functions = self.artifacts._built, self.artifacts.convention.values, None
        if table is None:
            stratum = self.where(claim)
            built, table, functions = stratum.spec.algebra, stratum.table, stratum.functions
            env = {**stratum.env, **env,  # the stratum may be shared by other signs
                   **dict(zip(stratum.ring_names, stratum.ring_forms)), **stratum.restrictions}
        return _parsed(built, claim.source, item or claim.fields[key], table, env, functions)

    @staticmethod
    def var_table(claim, key) -> VarTable:
        """The claim's `[vars]`-style list field `key` as a table, without signs."""
        items = claim.items(key)  # a missing field is not a bad table
        try:
            table = parse_vartable(items)
        except ParseError as exc:
            claim.reject(f"claim field {key!r}: {exc.message}", key)
        for name in sorted(set(table.names) & set(SIGN_NAMES)):
            claim.reject(f"claim field {key!r}: {name} is reserved for a sign symbol", key)
        return table

    @staticmethod
    def count(claim, got: int) -> tuple:
        """The verdict that `got` is the claim's `value:`, showing `got`."""
        return got == claim.number("value"), {"computed": got}

    def space(self, claim) -> Presentation:
        """The presentation the claim's `space:` names."""
        name = claim.get("space")
        kind, _, label = name.partition(":")
        if name == "final":
            return self.artifacts.final
        if label in self.artifacts.specs:
            if kind == "ring":
                return self.artifacts.stratum(label).ring
            if kind in ("result", "fiber", "bottom", "keralpha", "kerbeta"):
                return getattr(self.artifacts.stage(label), kind)
        claim.reject(f"unknown space {name!r}", "space")

    # -- claim kinds ---------------------------------------------------------

    def run(self, claim: Claim) -> dict:
        handler = getattr(self, "kind_" + claim.kind, None)
        if handler is None:
            claim.reject(f"unknown claim kind {claim.kind!r}", "kind")
        claim.read = set(claim.read_at_load)  # a sweep runs a claim once per convention
        passed, detail = handler(claim)
        for key in claim.fields:  # the first field the kind left unread is an error
            if key not in claim.read:
                claim.reject(f"claim field {key!r} is not read by a {claim.kind} claim", key)
        status = "ASSUMED" if passed is None else "PASS" if passed else "FAIL"
        ok = status == claim.expect.upper()
        if detail and "corrected_ok" in detail:
            ok = ok and detail["corrected_ok"]
        row = {"id": claim.id, "kind": claim.kind, "status": status,
               "expected": claim.expect.upper(), "ok": ok}
        if claim.note:
            row["note"] = claim.note
        if detail:
            row["detail"] = detail
        return row

    def kind_identity(self, claim):
        return self.parse(claim, "lhs") == self.parse(claim, "rhs"), None

    def kind_member(self, claim):
        pres = self.space(claim)
        f = self.parse(claim, "expr", pres.table)
        return pres.relations.member(f, pres.order), None

    def kind_ideal_equal(self, claim):
        pres = self.space(claim)
        rhs = Ideal(pres.table, [self.parse(claim, "rhs", pres.table, e)
                                 for e in claim.items("rhs", "")])
        if ideal_equal(pres.relations, rhs, pres.order):
            return True, None
        if not self._details:
            return False, None
        missing, extra = _membership_gaps(pres.relations, rhs, pres.order)
        return False, {"computed_not_in_stated": missing,
                       "stated_not_in_computed": extra}

    def kind_map_kernel_equal(self, claim):
        source = self.var_table(claim, "vars")
        # the images are read over the `where:` stratum, or over the `tvars:` table
        over = None if claim.get("where", None) else self.var_table(claim, "tvars")
        images = {name: self.parse(claim, "images", over, e)
                  for name, e in claim.map("images", "->", source.names).items()}
        kernel = map_kernel(source, images, self.where(claim).table if over is None else over)
        rhs = Ideal(source, [self.parse(claim, "rhs", source, e)
                             for e in claim.items("rhs", "")])
        return ideal_equal(kernel, rhs, MonomialOrder.wgrevlex(source.weights)), None

    def kind_evaluate(self, claim):
        stratum = self.where(claim)
        f = self.parse(claim, "expr")
        point = claim.map("point", "=", stratum.table.names)
        got = f.substitute({n: claim.number("point", parse_rational, e)
                            for n, e in point.items()})
        want = claim.number("value", parse_rational)
        return got.is_constant() and got.constant_value() == want, str(got)

    def kind_zero_dim(self, claim):
        stratum = self.where(claim)
        gens = [self.parse(claim, "gens", item=e) for e in claim.items("gens")]
        finite, count = zero_dimensional(Ideal(stratum.table, gens))
        want = claim.number("count")  # read even when the ideal is not zero-dimensional
        return finite and count == want, {"finite": finite, "count": count}

    def kind_pair_display(self, claim):
        stratum = self.where(claim)
        shown = self.parse(claim, "a_side")
        tag = claim.get("tag")
        if tag not in stratum.restrictions:
            claim.reject(f"{stratum.label} gives no restriction for {tag}", "tag")
        true_form = stratum.restrictions[tag]
        mode = claim.get("mode", "exact")
        if mode == "exact":
            return shown == true_form, None
        if mode != "bottom":
            claim.reject(f"claim field 'mode' must be exact or bottom, not {mode!r}", "mode")
        return Ideal(stratum.table, [stratum.top_form]).member(shown - true_form), None

    def kind_relation_row(self, claim):
        final = self.artifacts.final
        row = self.parse(claim, "row", final.table)
        in_ideal = final.relations.member(row, final.order)
        detail = {}
        if claim.get("corrected", None) is not None:
            cpoly = self.parse(claim, "corrected", final.table)
            detail["corrected_ok"] = final.relations.member(cpoly, final.order)
        return in_ideal, detail

    def kind_surjectivity(self, claim):
        label, dmax, bound = self.label(claim, "stage"), claim.number("dmax"), self.artifacts.dmax
        if not 0 <= dmax <= bound:  # the run certifies degrees 0..bound, no others
            claim.reject(f"claim field 'dmax' must lie in 0..{bound}, the degrees "
                         f"this run checks, not {dmax}", "dmax")
        rows = self.artifacts.stage(label).surjectivity
        return all(r["certified"] for r in rows if r["degree"] <= dmax), None

    def kind_dimension(self, claim):
        pres = self.space(claim)
        return self.count(claim, pres.dim(claim.number("degree")))

    def kind_nzd(self, claim):
        ring = self.where(claim).ring
        f = self.parse(claim, "expr", ring.table)
        if f.is_constant():  # R/(unit) is the zero ring, which is no Presentation
            return not f.is_zero(), None
        return ring.regular_quotient(f)[1], None

    def kind_generator_count(self, claim):
        return self.count(claim, len(self.artifacts.final.table))

    def kind_minimal_relation_count(self, claim):
        passed, detail = self.count(claim, len(self.artifacts.stages[-1].minimal))
        if claim.get("corrected", None) is not None:
            detail["corrected_ok"] = detail["computed"] == claim.number("corrected")
        return passed, detail

    def kind_free_ring(self, claim):
        pres = self.space(claim)
        table = self.var_table(claim, "vars")
        return pres.table == table and pres.relations.is_zero(), None

    def kind_lift_profile(self, claim):
        notes = self.artifacts.stage(self.label(claim, "stage")).lifts
        exact = sum(1 for n in notes if n["correction"] is None)
        corrected = len(notes) - exact
        want = (claim.number("exact"), claim.number("corrected"))
        return (exact, corrected) == want, {"exact": exact, "corrected": corrected}

    def kind_assumption(self, claim):
        # recorded, never evaluated: the hypothesis each gluing square rests on
        return None, {"stage": self.label(claim, "stage") if claim.get("stage", "") else "",
                      "statement": claim.get("statement", "")}


# ---------------------------------------------------------------------------
# sign-convention sweep

def convention_search(claims=None, conventions=None, dmax: int = 12,
                      root=None, store=None) -> dict:
    """Evaluate the claims as stated under every sign convention.

    A claim counts as passed when its raw status is PASS (its expectation
    annotation plays no role here).  Every convention reads one store,
    `store` (with its own dmax) or one over the specs and base read from
    `root`, which builds only the pieces the claims read, once per key.  A
    claim that cannot be evaluated, or that reads a stage whose
    construction failed, keeps an error row with that message.
    """
    if store is None:
        store = Artifacts(SignConvention(), *_load_inputs(root), dmax=dmax)
    if claims is None:
        claims = load_claims()
    claims = [c for c in claims if c.kind != "assumption"]
    rows = []
    for convention in (conventions if conventions is not None
                       else SignConvention.all()):
        row = {"convention": convention.label, "passed": [], "failed": [],
               "errors": []}
        runner = ClaimRunner(store.under(convention))
        runner._details = False
        for claim in claims:
            try:
                outcome = runner.run(claim)
                key = "passed" if outcome["status"] == "PASS" else "failed"
                row[key].append(claim.id)
            except _DOMAIN_ERRORS as exc:
                row["errors"].append({"id": claim.id, "error": str(exc)})
        row["pass_count"] = len(row["passed"])
        rows.append(row)
    best = max((r["pass_count"] for r in rows), default=0)
    pass_sets = [(r["convention"], frozenset(r["passed"])) for r in rows]
    maximal, seen = [], set()
    for _, subset in pass_sets:
        if subset in seen or any(subset < other for _, other in pass_sets):
            continue
        seen.add(subset)
        maximal.append({
            "claims": sorted(subset),
            "conventions": sorted(c for c, s in pass_sets if s == subset),
        })
    return {
        "claims": [c.id for c in claims],
        "rows": rows,
        "best_pass_count": best,
        "best_conventions": sorted(r["convention"] for r in rows
                                   if r["pass_count"] == best),
        "jointly_satisfiable": best == len(claims),
        "all_pass_conventions": sorted(r["convention"] for r in rows
                                       if r["pass_count"] == len(claims)),
        "maximal_pass_sets": maximal,
    }


# ---------------------------------------------------------------------------
# full verification and reports

def verify_paper(convention: SignConvention | None = None, dmax: int = 12,
                 strata_root=None, claims_path=None) -> dict:
    """Run the pipeline, evaluate every claim, and assemble the report."""
    timing = {}
    convention = convention or SignConvention()
    claims = load_claims(path=claims_path)  # a bad claims file fails before any work

    t0 = perf_counter()
    artifacts = run_pipeline(convention, dmax=dmax, root=strata_root)
    timing["pipeline_s"] = round(perf_counter() - t0, 3)

    t1 = perf_counter()
    runner = ClaimRunner(artifacts)
    outcomes = [runner.run(claim) for claim in claims]
    timing["claims_s"] = round(perf_counter() - t1, 3)

    t2 = perf_counter()
    final = artifacts.final
    minimal = artifacts.stages[-1].minimal
    profile = Counter(g.weighted_degree() for g in minimal)
    reduced = final.relations.groebner(final.order)

    theorem_rows = []
    stated = []
    for claim, outcome in zip(claims, outcomes):
        if claim.kind != "relation_row":
            continue
        entry = {
            "row": claim.get("row"),
            "status": outcome["status"],
            "corrected": claim.get("corrected", None),
        }
        detail = outcome.get("detail")
        if isinstance(detail, dict) and "corrected_ok" in detail:
            entry["corrected_ok"] = detail["corrected_ok"]
        theorem_rows.append(entry)
        key = "row" if outcome["status"] == "PASS" else "corrected"
        if key in claim.fields:
            stated.append(runner.parse(claim, key, final.table))
    gap, extra = _membership_gaps(final.relations, Ideal(final.table, stated),
                                  final.order)
    timing["analysis_s"] = round(perf_counter() - t2, 3)

    t3 = perf_counter()
    groups = {}
    for claim in claims:
        if claim.sweep:
            groups.setdefault(claim.sweep, []).append(claim)
    sign_search = {tag: convention_search(group, store=artifacts)
                   for tag, group in sorted(groups.items())}
    timing["sign_search_s"] = round(perf_counter() - t3, 3)

    status = ("OK" if all(o["status"] != "FAIL" for o in outcomes)
              else "DISCREPANCY")
    return {
        "format": "chowcheck-verification-report",
        "convention": convention.label,
        "dmax": dmax,
        "status": status,
        "all_as_expected": all(o["ok"] for o in outcomes),
        "claims": outcomes,
        "stages": [stage.report() for stage in artifacts.stages],
        "final": {
            "generators": [{"name": n, "weight": w} for n, w in
                           zip(final.table.names, final.table.weights)],
            "dims": [final.dim(d) for d in range(dmax + 1)],
            "theorem_rows": theorem_rows,
            "relation_analysis": {
                "displayed_rows": len(theorem_rows),
                "minimal_generator_count": len(minimal),
                "minimal_degree_profile": {str(d): c for d, c in
                                           sorted(profile.items())},
                "reduced_basis_size": len(reduced),
                "missing_from_displayed": gap,
                "displayed_not_in_computed": extra,
            },
        },
        "sign_search": sign_search,
        "timing": timing,
    }


def emit_report(report: dict, format: str = "text") -> str:
    """Serialise a verification report.

    The machine format is deterministic byte-for-byte across runs (it
    excludes timings); the text format is for reading and keeps them.
    """
    if format == "machine":
        stripped = {k: v for k, v in report.items() if k != "timing"}
        return json.dumps(stripped, indent=2, sort_keys=True) + "\n"
    if format != "text":
        raise PipelineError(f"unknown report format {format!r}")

    lines = []
    add = lines.append
    add("chowcheck verification report")
    add("=" * 64)
    add(f"convention: {report['convention']}")
    add(f"status: {report['status']}")
    add("matches the recorded expectations: "
        + ("yes" if report["all_as_expected"] else "NO"))
    add("")

    add("stages")
    add("-" * 64)
    for stage in report["stages"]:
        add(f"[{stage['label']}]")
        add(f"  top Chern class: {stage['top_chern']}")
        add("  non-zero-divisor gate: "
            + ("passed" if stage["nzd"] else "FAILED"))
        for item in stage["assumed"]:
            add(f"  assumed: {item}")
        for pair in stage["pairs"]:
            text = f"  pair {pair['tag']}: {pair['a_side']} [{pair['source']}]"
            if pair.get("differs_from_restriction"):
                text += " (differs from the restriction by a boundary term)"
            add(text)
            if "rejected" in pair:
                add(f"    rejected displayed value: {pair['rejected']}")
        for lift in stage["lifts"]:
            if lift["correction"] is None:
                add(f"  lift (exact): {lift['relation']}")
            else:
                add(f"  lift (corrected): {lift['relation']}")
                add(f"    correction: {lift['correction']}")
        add(f"  generation certified through degree {stage['certified_through']}")
        add("")

    add("claims")
    add("-" * 64)
    for row in report["claims"]:
        flag = "" if row["ok"] else "  <-- UNEXPECTED"
        add(f"{row['status']:<8} (expected {row['expected'].lower()})"
            f"  {row['id']}{flag}")
        if row.get("note"):
            add(f"         {row['note']}")
    add("")

    final = report["final"]
    add("final ring")
    add("-" * 64)
    gens = ", ".join(f"{g['name']}({g['weight']})"
                     for g in final["generators"])
    add(f"generators ({len(final['generators'])}): {gens}")
    add(f"graded dimensions 0..{report['dmax']}: {final['dims']}")
    add("")

    add("displayed relation table")
    add("-" * 64)
    for i, row in enumerate(final["theorem_rows"], start=1):
        add(f"row {i:2d}: {row['status']:<4}  {row['row']}")
        if row["status"] != "PASS" and row.get("corrected"):
            verdict = ("verified" if row.get("corrected_ok")
                       else "NOT verified")
            add(f"        corrected ({verdict}): {row['corrected']}")
    add("")

    analysis = final["relation_analysis"]
    add("relation ideal analysis")
    add("-" * 64)
    add(f"displayed rows: {analysis['displayed_rows']}")
    add(f"minimal homogeneous generators of the computed ideal: "
        f"{analysis['minimal_generator_count']}")
    profile = ", ".join(f"{d}: {c}" for d, c in
                        analysis["minimal_degree_profile"].items())
    add(f"  count by weight: {profile}")
    add(f"reduced basis size: {analysis['reduced_basis_size']}")
    missing = analysis["missing_from_displayed"]
    add(f"classes missing from the displayed rows (after corrections): "
        f"{len(missing)}")
    for g in missing:
        add(f"  {g}")
    extra = analysis["displayed_not_in_computed"]
    if extra:
        add("displayed rows outside the computed ideal:")
        for g in extra:
            add(f"  {g}")
    add("")

    if report["sign_search"]:
        add("sign-convention sweeps")
        add("-" * 64)
        for tag, sweep in report["sign_search"].items():
            add(f"group {tag!r}: {', '.join(sweep['claims'])}")
            if sweep["jointly_satisfiable"]:
                add("  jointly satisfiable under: "
                    + "; ".join(sweep["all_pass_conventions"]))
            else:
                add("  no single sign convention satisfies all of them; "
                    f"best is {sweep['best_pass_count']} of "
                    f"{len(sweep['claims'])} under: "
                    + "; ".join(sweep["best_conventions"]))
        add("")

    if "timing" in report:
        add("timing")
        add("-" * 64)
        for key, value in report["timing"].items():
            add(f"{key}: {value}")
        add("")
    return "\n".join(lines) + "\n"
