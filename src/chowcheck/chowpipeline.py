"""Staged reconstruction of a boundary-stratified intersection ring.

The computation builds one ring per stage.  Each stage is driven by a
stratum data file: variables of a finite cover, a finite group of signed
permutations, invariant coordinates for the closed stratum's ring, the top
Chern class of its normal directions, and restriction formulas for every
ambient generator.  The stage glues the previous ring to the stratum ring
along the quotient by the top Chern class (checked to be a non-zero-divisor
first), presents the glued ring by the intersection of the two kernels,
transports the previous relations across the square, and certifies
degreewise that the chosen generators span everything.

Sign conventions enter as the symbols e1, e2, e3 (kappa-class pullbacks)
and eg (pushforward classes).  Built pieces live in an `Artifacts` store:
a stratum is built the first time something reads it, and a stage is
glued, with all stages before it in file order, the first time something
reads it; a failure is kept and raised again to every later reader.  A
stratum is keyed by the values of the sign symbols its spec texts read.
The expensive pieces are keyed by content, so conventions that yield
equal pieces share one build: a stratum's ring presentation, coordinate
subalgebra and restriction coordinates by the forms they read (a memo on
the shared spec), a stage by what `induction_step` reads.  A `Stratum` is
lazy too: its forms and invariance checks are built at once, the rest on
first read.  `run_pipeline` is a store with every stage glued;
`verify_paper` runs its claims and its sign sweeps on that one store, so
the sweeps build only what their claims read and the main run lacks.  Claims
extracted from the source text are data: each one is evaluated against the
computed objects and compared to its expected status, so known misprints
are flagged exactly, with corrected forms verified alongside.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from copy import copy
from fractions import Fraction
from functools import cached_property
from importlib import resources
from itertools import product
from pathlib import Path
from time import perf_counter

from .polyarith import MonomialOrder, Polynomial, VarTable
from .groebner import (
    Ideal,
    Subalgebra,
    _Overflow,
    ideal_equal,
    is_nonzerodivisor,
    map_kernel,
    standard_monomials,
    subalgebra_member,
    zero_dimensional,
)
from .exprparser import (
    Document,
    ParseError,
    doc_polynomials,
    doc_vars,
    parse_document,
    parse_group,
    parse_name_weight,
    parse_polynomial,
    parse_rational,
    split_list,
)
from .invariants import GroupAction, InvariantError, invariant_presentation
from .linalg import SparseEchelon
from .ringpres import (
    Morphism,
    Presentation,
    PresentationError,
    apply_quotient,
    fiber_product,
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


def _parsed(built: dict, text: str, table: VarTable, env: dict, functions=None):
    """`parse_polynomial(text, table, env, functions)`, kept in `built` by
    `_once` under the text, the table, the function names and the value of
    each name of the text that `env` binds.  A memo given `functions` must
    be the spec's, whose one action they come from."""
    reads = tuple((name, env[name]) for name in _NAME_RE.findall(text) if name in env)
    return _once(built, ("parse", text, table, tuple(functions or ()), reads),
                 lambda: parse_polynomial(text, table, env, functions))


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

def _data_text(name: str, root=None) -> str:
    if root is not None:
        base = Path(root)
        for candidate in (base / name, base / "strata" / name):
            if candidate.is_file():
                return candidate.read_text()
        raise PipelineError(f"missing data file {name!r} under {root}")
    pkg = resources.files("chowcheck").joinpath("data")
    for candidate in (pkg.joinpath("strata", name), pkg.joinpath(name)):
        if candidate.is_file():
            return candidate.read_text()
    raise PipelineError(f"missing data file {name!r}")


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class StratumSpec:
    """Raw, convention-independent contents of one stratum file."""

    def __init__(self, doc: Document):
        if doc.kind != "stratum":
            raise PipelineError("expected a stratum document")
        self.label = doc.single("label").value
        self.table = doc_vars(doc)
        self.group_specs = parse_group(doc.section("group", required=True))
        self.defs = [(e.key, e.value) for e in (doc.section("defs") or [])]
        self.ring = []
        for e in doc.section("ring", required=True):
            name, weight = parse_name_weight(e.key, e.line)
            self.ring.append((name, weight, e.value))
        for section, names in (("vars", self.table.names),
                               ("defs", [n for n, _ in self.defs]),
                               ("ring", [n for n, _, _ in self.ring])):
            for name in names:
                if name in SIGN_NAMES:
                    raise PipelineError(f"{self.label}: [{section}] name {name} "
                                        "is reserved for a sign symbol")
        self.top = doc.single("top").value
        self.restrict = [(e.key, e.value) for e in doc.section("restrict", required=True)]
        self.pairs = {e.key: e.value for e in (doc.section("pairs") or [])}
        self.new = []
        for e in doc.section("new", required=True):
            self.new.append(parse_name_weight(e.key if e.key else e.value, e.line))
        order_entry = doc.single("tags", required=False)
        self.tag_order = (split_list(order_entry.value)
                          if order_entry is not None else None)
        # the algebra of its strata, keyed by the forms it is built from
        self.algebra = {}

    @staticmethod
    def load(name: str, root=None) -> "StratumSpec":
        return StratumSpec(parse_document(_data_text(name, root)))

    def signs_read(self) -> frozenset:
        """The sign symbols named by the texts a `Stratum` parses."""
        texts = ([t for _, t in self.defs] + [t for _, _, t in self.ring]
                 + [self.top] + [t for _, t in self.restrict]
                 + list(self.pairs.values()))
        return frozenset(name for text in texts for name in _NAME_RE.findall(text)
                         if name in SIGN_NAMES)


class Stratum:
    """A stratum spec materialised under one sign convention.

    The forms and their weight and invariance checks are built at once; the
    ring presentation, the coordinate subalgebra, the restriction
    coordinates and the gluing pairs on first read, each kept once built (a
    failed one is tried again on the next read, and the memos under it
    raise the errors they kept).  The first three read only forms, so they
    are kept in the spec's `algebra` memo, keyed by those forms (the spec
    fixes the label, ring names and weights), and strata whose forms agree
    share them whatever their signs.  The memo also keeps every text a
    stratum of the spec parses (`_parsed`) and every form that passed its
    invariance check; a failing form is checked again, and fails, in each
    stratum that reads it.
    """

    def __init__(self, spec: StratumSpec, convention: SignConvention):
        self.spec = spec
        self.convention = convention
        self.label = spec.label
        self.table = spec.table
        self.action = _once(spec.algebra, ("action",), lambda:
                            GroupAction(spec.table, spec.group_specs))
        self.functions = {"transfer": self.action.transfer,
                          "reynolds": self.action.reynolds}
        env = dict(convention.values)
        for name, text in spec.defs:
            env[name] = _parsed(spec.algebra, text, self.table, env, self.functions)
        self.env = env
        self.ring_names = [n for n, _, _ in spec.ring]
        self.ring_forms = [self._psi(text) for _, _, text in spec.ring]
        for (name, weight, _), form in zip(spec.ring, self.ring_forms):
            self._require_invariant(f"ring coordinate {name}", form)
            if form.weighted_degree() != weight:
                raise PipelineError(
                    f"{self.label}: ring coordinate {name} is declared of weight "
                    f"{weight}, but its form has degree {form.weighted_degree()}")
        self.top_form = self._psi(spec.top)
        self._require_invariant("top Chern form", self.top_form)
        self.restrictions = {}
        for tag, text in spec.restrict:
            form = self._psi(text)
            self._require_invariant(f"restriction of {tag}", form)
            self.restrictions[tag] = form

    @cached_property
    def ring(self) -> Presentation:
        return _once(self.spec.algebra, ("ring", *self.ring_forms), lambda:
                     invariant_presentation(self.action, generators=self._coordinates))

    @cached_property
    def _coordinates(self) -> Subalgebra:
        """The ring coordinates as one Subalgebra: `ring` presents it and
        `coordinates_of` reads the same basis."""
        return _once(self.spec.algebra, ("coordinates", *self.ring_forms), lambda:
                     Subalgebra(self.table, list(zip(self.ring_names, self.ring_forms))))

    @cached_property
    def restriction_coords(self) -> dict:
        key = ("restrict", *self.ring_forms, *self.restrictions.values())
        return _once(self.spec.algebra, key, lambda: {
            tag: self.coordinates_of(form) for tag, form in self.restrictions.items()})

    @cached_property
    def top_coords(self) -> Polynomial:
        """The top Chern class in the ring coordinates."""
        return self.coordinates_of(self.top_form)

    @cached_property
    def pair_overrides(self) -> dict:
        pair_env = dict(self.convention.values)
        pair_env.update(self.restriction_coords)
        return {tag: _parsed(self.spec.algebra, text, self.ring.table, pair_env)
                for tag, text in self.spec.pairs.items()}

    def _psi(self, text: str) -> Polynomial:
        return _parsed(self.spec.algebra, text, self.table, self.env, self.functions)

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
    doc = parse_document(_data_text(name, root))
    if doc.kind != "presentation":
        raise PipelineError("expected a presentation document")
    table = doc_vars(doc)
    return Presentation(table, doc_polynomials(doc, "relations", table))


# ---------------------------------------------------------------------------
# one induction step

def induction_step(prev: Presentation, stratum: Stratum, dmax: int = 12) -> dict:
    """Glue the previous ring with one stratum; returns the stage artifacts.

    Steps: non-zero-divisor gate for the top Chern class, restriction of
    every ambient generator into the stratum coordinates, validation of
    displayed gluing pairs against those restrictions (bottom-compatible
    overrides are used, incompatible ones fall back), the kernel
    intersection presenting the glued ring, transport of the previous
    relations, the Hilbert series check that the glued ring adds the
    stratum ring shifted by the degree of the top Chern class to the
    previous ring through `dmax`, and the degreewise generation certificate.
    """
    A = stratum.ring
    ctop = stratum.top_coords
    gate = is_nonzerodivisor(ctop, A.relations)
    info = {
        "label": stratum.label,
        "top_chern": str(ctop),
        "nzd": gate,
        "assumed": [
            "the glued ring is the fiber product of the two restrictions",
        ],
    }
    if not gate:
        raise PipelineError(
            f"top Chern class of {stratum.label} is a zero divisor; "
            "the gluing square does not apply"
        )
    B = A.quotient([ctop])
    p = Morphism(A, B, {n: Polynomial.variable(B.table, n) for n in A.table.names})

    names = list(prev.table.names) + [n for n, _ in stratum.spec.new]
    weights = list(prev.table.weights) + [w for _, w in stratum.spec.new]
    if stratum.spec.tag_order is not None:
        by_name = dict(zip(names, weights))
        if sorted(stratum.spec.tag_order) != sorted(names):
            raise PipelineError(
                f"tag order of {stratum.label} must permute {sorted(names)}"
            )
        names = list(stratum.spec.tag_order)
        weights = [by_name[n] for n in names]
    tags = VarTable(names, weights)
    free_tags = Presentation(tags, ())

    alpha_images = {}
    pair_rows = []
    for tag in names:
        if tag not in stratum.restrictions:
            raise PipelineError(f"{stratum.label} gives no restriction for {tag}")
        true_side = stratum.restriction_coords[tag]
        override = stratum.pair_overrides.get(tag)
        if override is None:
            alpha_images[tag] = true_side
            pair_rows.append({"tag": tag, "a_side": str(true_side),
                              "source": "restriction"})
            continue
        compatible = B.is_zero(p(override - true_side))
        if compatible:
            alpha_images[tag] = override
            pair_rows.append({"tag": tag, "a_side": str(override),
                              "source": "displayed",
                              "differs_from_restriction": override != true_side})
        else:
            alpha_images[tag] = true_side
            pair_rows.append({"tag": tag, "a_side": str(true_side),
                              "source": "fallback",
                              "rejected": str(override)})
    info["pairs"] = pair_rows

    prev_free = Presentation(prev.table)
    beta_images = {n: (Polynomial.variable(prev.table, n) if n in prev.table.names
                       else Polynomial.zero(prev.table)) for n in names}
    alpha = Morphism(free_tags, A, alpha_images)
    beta = Morphism(free_tags, prev_free, beta_images)

    # the previous ring must actually map to the bottom: relations die there
    phi_images = {n: p(alpha_images[n]) for n in prev.table.names}
    Morphism(prev, B, phi_images)

    fiber, ker_alpha, ker_beta = fiber_product(alpha, beta)
    result, lift_notes = apply_quotient(fiber, alpha, beta, prev.relations.gens)
    # the gluing square with a non-zero-divisor top class of degree c gives
    # HS(result) = HS(prev) + t^c HS(A), degree by degree
    c = ctop.weighted_degree()
    shifted = ([0] * c + A.dims(dmax - c))[:dmax + 1]
    for d, (got, old, new) in enumerate(zip(result.dims(dmax), prev.dims(dmax), shifted)):
        if got != old + new:
            raise PipelineError(
                f"glued ring of {stratum.label} has dimension {got} in degree {d}, "
                f"but the stratification gives {old} + {new}"
            )
    info["lifts"] = lift_notes
    info["surjectivity"] = graded_surjectivity(fiber, alpha, beta, B,
                                               range(0, dmax + 1))
    info["certified_through"] = dmax if all(
        row["certified"] for row in info["surjectivity"]) else -1
    info["result_relations"] = [str(g) for g in result.relations.gens]
    return {
        "info": info,
        "result": result,
        "fiber": fiber,
        "ker_alpha": ker_alpha,
        "ker_beta": ker_beta,
        "alpha": alpha,
        "beta": beta,
        "bottom": B,
    }


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
    `final` is the last stage's ring and `minimal` its minimal relations.
    A stratum is keyed by its label and the values of the signs its spec
    texts read.  A stage is keyed by its content, exactly what
    `induction_step` reads: the label, the previous ring, the stratum's
    ring, its top class and restrictions in ring coordinates and its pair
    overrides; a per-(label, convention) index points into that store.
    Pieces derived from one stage (the claims' kernel presentations,
    `minimal`) are kept in its dict.  `under(convention)` reads the same
    store under another convention, so conventions that yield equal pieces
    share one build.  A piece whose construction fails keeps its error and
    raises it again to every later reader.  Claim texts parsed without a
    stratum's functions are kept in the store by `_parsed`, keyed by the
    text, the table and the value of each name the text reads.  No stage
    holds a stratum, so a store is freed without the cycle collector.
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
        self._index = {}  # (label, signs) -> its stage, shared by equal content
        self._built = {}

    def under(self, convention: SignConvention) -> "Artifacts":
        """This store, read under `convention`."""
        view = copy(self)
        view.convention = convention
        return view

    def _signs(self, read=SIGN_NAMES) -> tuple:
        return tuple((name, value) for name, value in self.convention.values.items()
                     if name in read)

    def _spec(self, label: str) -> StratumSpec:
        spec = self.specs.get(label)
        if spec is None:
            raise PipelineError(f"no stage with label {label!r}")
        return spec

    def stratum(self, label: str) -> Stratum:
        spec = self._spec(label)
        return _once(self._built, ("stratum", label) + self._signs(spec.signs_read()),
                     lambda: Stratum(spec, self.convention))

    def stage(self, label: str) -> dict:
        self._spec(label)
        return _once(self._index, (label, self._signs()), lambda: self._glue(label))

    def _glue(self, label: str) -> dict:
        """The stage keyed by what `induction_step` reads (the label fixes
        the spec), glued the first time any convention yields that key."""
        index = self.labels.index(label)
        prev = self.stage(self.labels[index - 1])["result"] if index else self.base
        stratum = self.stratum(label)
        A = stratum.ring
        key = ("stage", label, prev.table, prev.relations.gens, A.table,
               A.relations.gens, stratum.top_coords,
               tuple(stratum.restriction_coords.items()),
               tuple(stratum.pair_overrides.items()))
        return _once(self._built, key,
                     lambda: induction_step(prev, stratum, dmax=self.dmax))

    @property
    def stages(self) -> list:
        """The stages glued under this convention, in file order."""
        built = (self._index.get((label, self._signs())) for label in self.labels)
        return [stage for stage in built if isinstance(stage, dict)]

    @property
    def final(self) -> Presentation:
        return self.stage(self.labels[-1])["result"]

    @property
    def minimal(self) -> list:
        # kept next to the last stage, like the claims' kernel presentations
        return _once(self.stage(self.labels[-1]), "minimal",
                     lambda: minimal_generators(self.final))


def run_pipeline(convention: SignConvention | None = None, dmax: int = 12,
                 root=None) -> Artifacts:
    """Glue every stage under one convention; returns the artifact store.

    `root` overrides the packaged data directory.
    """
    artifacts = Artifacts(convention or SignConvention(), *_load_inputs(root),
                          dmax=dmax)
    artifacts.final  # gluing the last stage glues every stage before it
    return artifacts


def minimal_generators(pres: Presentation) -> list:
    """Degree-increasing irredundant generating set of the relation ideal.

    The reduced basis is walked in (weighted degree, text) order and each
    element is kept unless the ones kept before it generate it.  Relations
    are homogeneous, so an element g of degree d is generated exactly when
    it lies in the Q-span of m*s over the kept elements s and the monomials
    m of degree d - deg s; one echelon per degree decides that.  The rows
    are the packed integer terms the relation ideal keeps for normal forms
    (`Ideal.groebner`), shifted by packed monomials; a shift that sets a
    guard bit redoes the call at double width.
    """
    red = pres.relations.groebner(pres.order)
    while True:
        try:
            return _minimal_generators(pres, red)
        except _Overflow:
            red = red.doubled()


def _minimal_generators(pres: Presentation, red) -> list:
    order = pres.order
    pk = red.packing
    guard = pk.guard
    free = Ideal(pres.table, ())
    terms = {entry[3]: entry[2] for entry in red.entries}
    degrees = [g.weighted_degree() for g in red.basis]
    selected = []
    degree = span = None
    for i in sorted(range(len(red.basis)), key=lambda i: (degrees[i], str(red.basis[i]))):
        d = degrees[i]
        if d != degree:
            degree, span = d, SparseEchelon()
            for s in selected:
                for m in standard_monomials(free, d - degrees[s], order):
                    q = pk.pack(m)
                    row = {k + q: c for k, c in terms[s].items()}
                    if any(k & guard for k in row):
                        raise _Overflow
                    span.add(row)
        if span.add(terms[i]):
            selected.append(i)
    return [red.basis[i] for i in selected]


# ---------------------------------------------------------------------------
# claims

_REQUIRED = object()  # Claim.get default: the field must be present


class Claim:
    def __init__(self, entries):
        fields = {}
        for e in entries:
            if e.key is None:
                raise ParseError("claim entries need a key", e.line)
            fields.setdefault(e.key, []).append(e.value)
        self.fields = fields
        self.id = self.get("id")
        self.kind = self.get("kind")
        self.expect = self.get("expect", "pass")
        self.note = self.get("note", "")

    def get(self, key, default=_REQUIRED):
        vals = self.fields.get(key)
        if vals is None:
            if default is _REQUIRED:
                raise PipelineError(f"claim is missing the {key!r} field")
            return default
        if len(vals) != 1:
            raise PipelineError(f"claim field {key!r} repeated")
        return vals[0]

    def get_int(self, key) -> int:
        text = self.get(key)
        try:
            return int(text)
        except ValueError:
            raise PipelineError(
                f"claim field {key!r} must be an integer, not {text!r}") from None


def load_claims(name: str = CLAIMS_FILE, path=None) -> list:
    if path is not None:
        text = Path(path).read_text()
    else:
        text = _data_text(name)
    doc = parse_document(text)
    if doc.kind != "claims":
        raise PipelineError("expected a claims document")
    return [Claim(entries) for entries in doc.all_sections("claim")]


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

    # -- helpers -----------------------------------------------------------

    def claim_env(self, stratum: Stratum) -> dict:
        env = dict(stratum.env)
        env.update(self.artifacts.convention.values)  # the stratum may be shared
        for name, form in zip(stratum.ring_names, stratum.ring_forms):
            env[name] = form
        for tag, form in stratum.restrictions.items():
            env[tag] = form
        return env

    def psi(self, label: str, text: str) -> Polynomial:
        stratum = self.artifacts.stratum(label)
        return _parsed(stratum.spec.algebra, text, stratum.table,
                       self.claim_env(stratum), stratum.functions)

    def where(self, claim) -> tuple:
        """The stratum the claim's `where:` names, and `psi` on it."""
        label = claim.get("where")
        return self.artifacts.stratum(label), lambda text: self.psi(label, text)

    @staticmethod
    def count(claim, got: int) -> tuple:
        """The verdict that `got` is the claim's `value:`, showing `got`."""
        return got == claim.get_int("value"), {"computed": got}

    def space(self, name: str) -> Presentation:
        if name == "final":
            return self.artifacts.final
        if ":" in name:
            kind, label = name.split(":", 1)
            if kind == "ring":
                return self.artifacts.stratum(label).ring
            if kind in ("result", "fiber", "bottom"):
                return self.artifacts.stage(label)[kind]
            if kind in ("keralpha", "kerbeta"):  # kept with the stage: one basis
                stage = self.artifacts.stage(label)
                ideal = stage["ker_" + kind[3:]]
                return _once(stage, kind, lambda: Presentation(ideal.context, ideal.gens))
        raise PipelineError(f"unknown space {name!r}")

    def parse_in(self, pres: Presentation, text: str) -> Polynomial:
        return _parsed(self.artifacts._built, text, pres.table,
                       dict(self.artifacts.convention.values))

    # -- claim kinds ---------------------------------------------------------

    def run(self, claim: Claim) -> dict:
        handler = getattr(self, "kind_" + claim.kind, None)
        if handler is None:
            raise PipelineError(f"unknown claim kind {claim.kind!r}")
        passed, detail = handler(claim)
        if passed is None:
            status = "ASSUMED"
        else:
            status = "PASS" if passed else "FAIL"
        ok = status == claim.expect.upper()
        if detail and "corrected_ok" in detail:
            ok = ok and detail["corrected_ok"]
        row = {
            "id": claim.id,
            "kind": claim.kind,
            "status": status,
            "expected": claim.expect.upper(),
            "ok": ok,
        }
        if claim.note:
            row["note"] = claim.note
        if detail:
            row["detail"] = detail
        return row

    def kind_identity(self, claim):
        _, psi = self.where(claim)
        return psi(claim.get("lhs")) == psi(claim.get("rhs")), None

    def kind_member(self, claim):
        pres = self.space(claim.get("space"))
        f = self.parse_in(pres, claim.get("expr"))
        return pres.relations.member(f, pres.order), None

    def kind_ideal_equal(self, claim):
        pres = self.space(claim.get("space"))
        rhs_texts = split_list(claim.get("rhs", ""))
        rhs = Ideal(pres.table, [self.parse_in(pres, t) for t in rhs_texts])
        if ideal_equal(pres.relations, rhs, pres.order):
            return True, None
        missing, extra = _membership_gaps(pres.relations, rhs, pres.order)
        return False, {"computed_not_in_stated": missing,
                       "stated_not_in_computed": extra}

    def _claim_tables(self, claim):
        """The source table, the target table and a parser into the target."""
        svars = [parse_name_weight(t) for t in split_list(claim.get("vars"))]
        source = VarTable([n for n, _ in svars], [w for _, w in svars])
        if claim.get("where", None):
            stratum, psi = self.where(claim)
            return source, stratum.table, psi
        tvars = [parse_name_weight(t) for t in split_list(claim.get("tvars"))]
        target = VarTable([n for n, _ in tvars], [w for _, w in tvars])
        return source, target, lambda text: _parsed(
            self.artifacts._built, text, target, dict(self.artifacts.convention.values))

    def kind_map_kernel_equal(self, claim):
        source, target, parse = self._claim_tables(claim)
        images = {}
        for item in split_list(claim.get("images")):
            if "->" not in item:
                raise PipelineError(f"claim field 'images': item {item!r} has no '->'")
            name, text = item.split("->", 1)
            name = name.strip()
            if name not in source.names:
                raise PipelineError(
                    f"claim field 'images' gives an image for {name}, "
                    "which is not a source variable")
            images[name] = parse(text.strip())
        missing = [n for n in source.names if n not in images]
        if missing:
            raise PipelineError(f"claim field 'images' gives no image for {missing[0]}")
        kernel = map_kernel(source, images, target=target)
        order = MonomialOrder.wgrevlex(source.weights)
        rhs = Ideal(source, [_parsed(self.artifacts._built, t, source, {})
                             for t in split_list(claim.get("rhs", ""))])
        return ideal_equal(kernel, rhs, order), None

    def kind_evaluate(self, claim):
        stratum, psi = self.where(claim)
        f = psi(claim.get("expr"))
        point = {}
        for item in split_list(claim.get("point")):
            if "=" not in item:
                raise PipelineError(f"claim field 'point': item {item!r} has no '='")
            name, val = item.split("=", 1)
            point[name.strip()] = Fraction(parse_rational(val.strip()))
        missing = [n for n in stratum.table.names if n not in point]
        if missing:
            raise PipelineError(f"claim field 'point' gives no value for {missing[0]}")
        mapping = {n: Polynomial.constant(stratum.table, point[n])
                   for n in stratum.table.names}
        got = f.substitute(mapping)
        want = parse_rational(claim.get("value"))
        return got.is_constant() and got.constant_value() == want, str(got)

    def kind_zero_dim(self, claim):
        stratum, psi = self.where(claim)
        gens = [psi(t) for t in split_list(claim.get("gens"))]
        finite, count = zero_dimensional(Ideal(stratum.table, gens))
        want = claim.get_int("count")
        return finite and count == want, {"finite": finite, "count": count}

    def kind_pair_display(self, claim):
        stratum, psi = self.where(claim)
        shown = psi(claim.get("a_side"))
        tag = claim.get("tag")
        if tag not in stratum.restrictions:
            raise PipelineError(f"{stratum.label} gives no restriction for {tag}")
        true_form = stratum.restrictions[tag]
        if claim.get("mode", "exact") == "bottom":
            diff = shown - true_form
            ok = Ideal(stratum.table, [stratum.top_form]).member(diff)
        else:
            ok = shown == true_form
        return ok, None

    def kind_relation_row(self, claim):
        final = self.artifacts.final
        row = self.parse_in(final, claim.get("row"))
        in_ideal = final.relations.member(row, final.order)
        detail = {}
        corrected = claim.get("corrected", None)
        if corrected is not None:
            cpoly = self.parse_in(final, corrected)
            detail["corrected_ok"] = final.relations.member(cpoly, final.order)
        return in_ideal, detail

    def kind_surjectivity(self, claim):
        stage = self.artifacts.stage(claim.get("stage"))
        dmax = claim.get_int("dmax")
        rows = [r for r in stage["info"]["surjectivity"] if r["degree"] <= dmax]
        ok = bool(rows) and all(r["certified"] for r in rows) and rows[-1][
            "degree"] == dmax
        return ok, None

    def kind_dimension(self, claim):
        pres = self.space(claim.get("space"))
        return self.count(claim, pres.dim(claim.get_int("degree")))

    def kind_nzd(self, claim):
        stratum, _ = self.where(claim)
        f = self.parse_in(stratum.ring, claim.get("expr"))
        return is_nonzerodivisor(f, stratum.ring.relations), None

    def kind_generator_count(self, claim):
        return self.count(claim, len(self.artifacts.final.table))

    def kind_minimal_relation_count(self, claim):
        passed, detail = self.count(claim, len(self.artifacts.minimal))
        if claim.get("corrected", None) is not None:
            detail["corrected_ok"] = detail["computed"] == claim.get_int("corrected")
        return passed, detail

    def kind_free_ring(self, claim):
        pres = self.space(claim.get("space"))
        decl = [parse_name_weight(t) for t in split_list(claim.get("vars"))]
        table = VarTable([n for n, _ in decl], [w for _, w in decl])
        return pres.table == table and pres.relations.is_zero(), None

    def kind_lift_profile(self, claim):
        notes = self.artifacts.stage(claim.get("stage"))["info"]["lifts"]
        exact = sum(1 for n in notes if n["correction"] is None)
        corrected = len(notes) - exact
        want = (claim.get_int("exact"), claim.get_int("corrected"))
        return (exact, corrected) == want, {"exact": exact,
                                            "corrected": corrected}

    def kind_assumption(self, claim):
        # recorded, never checked: the hypothesis each gluing square rests on
        return None, {"stage": claim.get("stage", ""),
                      "statement": claim.get("statement", "")}


# ---------------------------------------------------------------------------
# sign-convention sweep

def convention_search(claims=None, conventions=None, dmax: int = 12,
                      root=None) -> dict:
    """Evaluate the claims as stated under every sign convention.

    A claim counts as passed when its raw status is PASS (its expectation
    annotation plays no role here).  The stratum specs and the base are
    read once, from `root` when given, into the store `_sweep` reads.
    """
    store = Artifacts(SignConvention(), *_load_inputs(root), dmax=dmax)
    return _sweep(store, claims, conventions)


def _sweep(store: Artifacts, claims=None, conventions=None) -> dict:
    """`convention_search` on a store every convention reads: only the
    pieces the claims read are built, each once per distinct key.  A claim
    that cannot be evaluated, or that reads a stage whose construction
    failed, keeps an error row with that message."""
    if claims is None:
        claims = load_claims()
    claims = [c for c in claims if c.kind != "assumption"]
    rows = []
    for convention in (conventions if conventions is not None
                       else SignConvention.all()):
        row = {"convention": convention.label, "passed": [], "failed": [],
               "errors": []}
        runner = ClaimRunner(store.under(convention))
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

    t0 = perf_counter()
    artifacts = run_pipeline(convention, dmax=dmax, root=strata_root)
    timing["pipeline_s"] = round(perf_counter() - t0, 3)

    t1 = perf_counter()
    claims = load_claims(path=claims_path)
    runner = ClaimRunner(artifacts)
    outcomes = [runner.run(claim) for claim in claims]
    timing["claims_s"] = round(perf_counter() - t1, 3)

    t2 = perf_counter()
    final = artifacts.final
    minimal = artifacts.minimal
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
        text = (entry["row"] if outcome["status"] == "PASS"
                else entry["corrected"])
        if text is not None:
            stated.append(runner.parse_in(final, text))
    gap, extra = _membership_gaps(final.relations, Ideal(final.table, stated),
                                  final.order)
    timing["analysis_s"] = round(perf_counter() - t2, 3)

    t3 = perf_counter()
    groups = {}
    for claim in claims:
        tag = claim.get("sweep", None)
        if tag:
            groups.setdefault(tag, []).append(claim)
    sign_search = {tag: _sweep(artifacts, group)
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
        "stages": [stage["info"] for stage in artifacts.stages],
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
