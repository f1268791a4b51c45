"""Command-line front end for the polynomial kernel and the verification pipeline.

Subcommands cover the raw operations (Groebner bases, normal forms,
elimination, kernels, colon ideals, intersections, subalgebra membership),
the invariant-theory helpers (Reynolds averaging, invariant generators and
presentations), graded utilities (fiber products, dimension tables) and the
full paper verification (`verify-paper`).

Exit codes: 0 on success (for `verify-paper`: every claim behaves as
recorded and no row is FAIL), 1 when `verify-paper` finds discrepancies
(the report is still written), 2 on input errors.  All outputs are
deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .chowpipeline import (
    PipelineError,
    SignConvention,
    emit_report,
    verify_paper,
)
from .exprparser import (
    ParseError,
    doc_polynomials,
    doc_vars,
    parse_group,
    parse_map,
    parse_polynomial,
    parse_vartable,
    read_document,
)
from .groebner import (
    Ideal,
    Subalgebra,
    eliminate,
    ideal_quotient,
    intersect,
    map_kernel,
)
from .invariants import GroupAction, InvariantError, algebra_generators, invariant_presentation
from .polyarith import MonomialOrder, Polynomial, VarTable
from .ringpres import Morphism, Presentation, PresentationError, fiber_product

ORDER_NAMES = ("lex", "grlex", "grevlex", "wgrevlex")


class InputError(ValueError):
    """A problem with the invocation or an input document."""


# ---------------------------------------------------------------------------
# document loading: each through `read_document`, so every error names its file

def _load_ideal(path: str):
    """An ideal (or presentation) document: [vars] plus [relations]."""
    with read_document(path, ("ideal", "presentation")) as doc:
        table = doc_vars(doc)
        return table, Ideal(table, doc_polynomials(doc, "relations", table))


def _load_morphism(path: str):
    """A morphism document: [source], [target], [images], optional [relations].

    [relations] holds relations of the target ring.  Returns the source
    table, target table, image dictionary and target relation list.
    """
    with read_document(path, ("morphism",)) as doc:
        source = parse_vartable(doc.section("source", required=True))
        target = parse_vartable(doc.section("target", required=True))
        entries = doc.keyed("images", "name: polynomial", required=True)
        images = {name: parse_polynomial(e.value, target, line=e.line, col=e.col)
                  for name, e in parse_map(((k, e, e.line) for k, e in entries.items()),
                                           "[images]", source.names).items()}
        return source, target, images, doc_polynomials(doc, "relations", target)


def _load_action(path: str):
    """A group action: [vars] plus [group]; stratum files work unchanged."""
    with read_document(path, ("action", "stratum")) as doc:
        table = doc_vars(doc)
        return table, GroupAction(table, parse_group(doc.section("group", required=True)))


def _element(args, table: VarTable):
    return parse_polynomial(args.element, table)


def _order_for(name: str, table: VarTable) -> MonomialOrder:
    if name == "lex":
        return MonomialOrder.lex()
    if name == "grlex":
        return MonomialOrder.grlex()
    if name == "grevlex":
        return MonomialOrder.grevlex()
    if name == "wgrevlex":
        return MonomialOrder.wgrevlex(table.weights)
    raise InputError(f"unknown monomial order {name!r}")


# ---------------------------------------------------------------------------
# printers

def _braces(polys) -> str:
    return "{" + ", ".join(str(p) for p in polys) + "}\n"


def _presentation_text(table: VarTable, relations) -> str:
    lines = ["[kind]", "presentation", "[vars]"]
    for name, weight in zip(table.names, table.weights):
        lines.append(f"{name}({weight})")
    if relations:
        lines.append("[relations]")
        lines.extend(str(g) for g in relations)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (output text, exit code)

def cmd_gb(args):
    table, ideal = _load_ideal(args.ideal)
    return _braces(ideal.groebner(_order_for(args.order, table))), 0


def cmd_nf(args):
    table, ideal = _load_ideal(args.ideal)
    order = _order_for(args.order, table)
    return f"{ideal.normal_form(_element(args, table), order)}\n", 0


def cmd_member(args):
    table, ideal = _load_ideal(args.ideal)
    order = _order_for(args.order, table)
    inside = ideal.member(_element(args, table), order)
    return ("true" if inside else "false") + "\n", 0


def cmd_elim(args):
    table, ideal = _load_ideal(args.ideal)
    drop = [name.strip() for name in args.drop.split(",") if name.strip()]
    if not drop:
        raise InputError("--drop needs at least one variable name")
    kept = eliminate(ideal, drop)
    return _braces(kept.groebner(_order_for(args.order, kept.context))), 0


def cmd_kernel(args):
    source, target, images, relations = _load_morphism(args.morphism)
    kernel = map_kernel(source, images, target, Ideal(target, relations))
    return _braces(kernel.groebner(_order_for(args.order, source))), 0


def cmd_colon(args):
    table, ideal = _load_ideal(args.ideal)
    f = _element(args, table)
    if f.is_zero():
        raise InputError("--element must be nonzero")
    colon = ideal_quotient(ideal, f)
    return _braces(colon.groebner(_order_for(args.order, table))), 0


def cmd_nzd(args):
    table, ideal = _load_ideal(args.ideal)
    f = _element(args, table)
    if f.is_zero():
        raise InputError("--element must be nonzero")
    order = _order_for(args.order, table)
    colon = ideal_quotient(ideal, f)
    witness = next((g for g in colon.groebner(order)
                    if not ideal.member(g, order)), None)
    if witness is None:
        return "true\n", 0
    return f"false\nwitness: {witness}\n", 0


def cmd_intersect(args):
    table_a, left = _load_ideal(args.left)
    table_b, right = _load_ideal(args.right)
    if table_a != table_b:
        raise InputError("both ideals must declare the same [vars]")
    both = intersect(left, right)
    return _braces(both.groebner(_order_for(args.order, table_a))), 0


def cmd_subalg(args):
    source, target, images, relations = _load_morphism(args.morphism)
    if relations:
        raise InputError("subalgebra membership runs in a free ambient ring; "
                         "remove [relations]")
    f = _element(args, target)
    expression = Subalgebra(target, [(name, images[name]) for name in source.names],
                            source).express(f)
    if expression is None:
        return "false\n", 0
    return f"true\nexpression: {expression}\n", 0


def cmd_reynolds(args):
    table, action = _load_action(args.action)
    return f"{action.reynolds(_element(args, table))}\n", 0


def cmd_invgen(args):
    _, action = _load_action(args.action)
    generators = algebra_generators(action)
    return "".join(f"{g}\n" for g in generators), 0


def cmd_invpres(args):
    _, action = _load_action(args.action)
    pres = invariant_presentation(action)
    table, relations = pres.table, pres.relations.groebner(pres.order)
    if args.names:
        names = [n.strip() for n in args.names.split(",") if n.strip()]
        if len(names) != len(table):
            raise InputError("one name per generator is required")
        # renamed, not recomputed: wgrevlex reads only positions and weights
        table = VarTable(names, table.weights)
        relations = [Polynomial(table, g.terms) for g in relations]
    return _presentation_text(table, relations), 0


def cmd_fiber(args):
    a_source, a_target, a_images, a_relations = _load_morphism(args.alpha)
    b_source, b_target, b_images, b_relations = _load_morphism(args.beta)
    if a_source != b_source:
        raise InputError("the two morphisms must declare the same [source]")
    source = Presentation(a_source)
    alpha = Morphism(source, Presentation(a_target, a_relations), a_images)
    beta = Morphism(source, Presentation(b_target, b_relations), b_images)
    pres = fiber_product(alpha, beta)[0]
    return _presentation_text(pres.table, pres.relations.groebner(pres.order)), 0


def _require_dmax(args):
    if args.dmax < 0:
        raise InputError(f"--dmax must be a nonnegative integer, got {args.dmax}")


def cmd_dims(args):
    _require_dmax(args)
    table, ideal = _load_ideal(args.presentation)
    pres = Presentation(table, ideal.gens)
    lines = [f"{d}: {pres.dim(d)}" for d in range(args.dmax + 1)]
    return "\n".join(lines) + "\n", 0


def cmd_verify_paper(args):
    _require_dmax(args)
    convention = SignConvention.parse(args.convention) if args.convention else None
    report = verify_paper(convention=convention, dmax=args.dmax,
                          strata_root=args.strata, claims_path=args.claims)
    text = emit_report(report, format=args.format)
    clean = report["status"] == "OK" and report["all_as_expected"]
    return text, 0 if clean else 1


# ---------------------------------------------------------------------------
# argument wiring

def _command(sub, name, func, help, *positionals, element=None, options=(), order=False):
    """Add subcommand `name`: its positionals as `(dest, metavar, help)`, a
    required `--element` with help `element`, the `options` as
    `(name, add_argument keywords)`, `--order` if `order`, then `--out`."""
    p = sub.add_parser(name, help=help)
    for dest, metavar, text in positionals:
        p.add_argument(dest, metavar=metavar, help=text)
    if element is not None:
        p.add_argument("--element", required=True, metavar="EXPR", help=element)
    for option, keywords in options:
        p.add_argument(option, **keywords)
    if order:
        p.add_argument("--order", choices=ORDER_NAMES, default="grevlex",
                       help="monomial order for bases and normal forms "
                            "(default: grevlex; wgrevlex uses the declared "
                            "variable weights)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the output to PATH instead of stdout")
    p.set_defaults(func=func)


# built on the first call and reused: parse_args keeps no state between calls
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowcheck",
        description="Exact polynomial algebra over Q and step-by-step "
                    "verification of the stratified Chow ring computation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    ideal = ("ideal", "IDEAL", None)
    in_ideal = "polynomial in the ideal's variables"
    action = ("action", "ACTION", None)

    _command(sub, "gb", cmd_gb, "reduced Groebner basis of an ideal",
             ("ideal", "IDEAL", "ideal document path"), order=True)
    _command(sub, "nf", cmd_nf, "normal form of an element modulo an ideal",
             ideal, element=in_ideal, order=True)
    _command(sub, "member", cmd_member, "ideal membership test (true/false)",
             ideal, element=in_ideal, order=True)
    _command(sub, "elim", cmd_elim, "elimination ideal in the kept variables", ideal,
             options=[("--drop", dict(required=True, metavar="NAMES",
                                      help="comma-separated variables to eliminate"))],
             order=True)
    _command(sub, "kernel", cmd_kernel, "kernel of a ring map given by images",
             ("morphism", "MORPHISM", "morphism document path"), order=True)
    _command(sub, "colon", cmd_colon, "colon ideal (I : f)",
             ideal, element="the divisor f", order=True)
    _command(sub, "nzd", cmd_nzd, "non-zero-divisor test via (I : f) = I",
             ideal, element="the candidate f", order=True)
    _command(sub, "intersect", cmd_intersect, "intersection of two ideals",
             ("left", "IDEAL_A", None), ("right", "IDEAL_B", None), order=True)
    _command(sub, "subalg", cmd_subalg,
             "subalgebra membership against named generators",
             ("morphism", "MORPHISM", "morphism document; [images] are the generators"),
             element="polynomial in the [target] variables")
    _command(sub, "reynolds", cmd_reynolds, "Reynolds average of a polynomial",
             ("action", "ACTION", "action document ([vars] + [group]); stratum files work"),
             element="polynomial in the action's variables")
    _command(sub, "invgen", cmd_invgen, "minimal generators of the invariant algebra",
             action)
    _command(sub, "invpres", cmd_invpres, "presentation of the invariant algebra", action,
             options=[("--names", dict(
                 metavar="NAMES", default=None,
                 help="comma-separated names for the invariant generators"))])
    _command(sub, "fiber", cmd_fiber,
             "fiber product presentation of two morphisms out of one free source",
             ("alpha", "MORPHISM_A", None), ("beta", "MORPHISM_B", None))
    _command(sub, "dims", cmd_dims, "graded dimension table of a presentation",
             ("presentation", "PRESENTATION", None),
             options=[("--dmax", dict(type=int, default=12, metavar="N",
                                      help="largest degree to tabulate (default 12)"))])
    _command(sub, "verify-paper", cmd_verify_paper,
             "run the full pipeline and check every recorded claim; exit 1 on any "
             "discrepancy", options=[
                 ("strata", dict(nargs="?", default=None, metavar="STRATA_DIR",
                                 help="directory with the stratum files "
                                      "(default: packaged data)")),
                 ("claims", dict(nargs="?", default=None, metavar="CLAIMS_FILE",
                                 help="claims file (default: packaged claims)")),
                 ("--convention", dict(metavar="SIGNS", default=None,
                                       help="sign convention e1,e2,e3[,eg] with each "
                                            "value +1 or -1 (default: -1,-1,-1,+1)")),
                 ("--dmax", dict(type=int, default=12, metavar="N",
                                 help="degree bound for graded certification "
                                      "(default 12)")),
                 ("--format", dict(choices=("text", "machine"), default="text",
                                   help="report format; machine output is "
                                        "byte-deterministic"))])
    return parser


def _write(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        text, code = args.func(args)
        _write(text, args.out)
    except (InputError, ParseError, PipelineError, PresentationError,
            InvariantError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
