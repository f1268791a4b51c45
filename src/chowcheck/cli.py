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
    parse_document,
    parse_group,
    parse_polynomial,
    parse_vartable,
)
from .groebner import (
    Ideal,
    eliminate,
    ideal_quotient,
    intersect,
    map_kernel,
    subalgebra_member,
)
from .invariants import GroupAction, InvariantError, algebra_generators, invariant_presentation
from .polyarith import MonomialOrder, VarTable
from .ringpres import Morphism, Presentation, PresentationError, fiber_product

ORDER_NAMES = ("lex", "grlex", "grevlex", "wgrevlex")


class InputError(ValueError):
    """A problem with the invocation or an input document."""


# ---------------------------------------------------------------------------
# document loading

def _read_document(path: str, kinds):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from None
    try:
        doc = parse_document(text)
    except ParseError as exc:
        raise InputError(f"{path}: {exc}") from None
    if doc.kind not in kinds:
        raise InputError(
            f"{path}: expected a {' or '.join(kinds)} document, got {doc.kind!r}"
        )
    return doc


def _load_ideal(path: str):
    """An ideal (or presentation) document: [vars] plus [relations]."""
    doc = _read_document(path, ("ideal", "presentation"))
    table = doc_vars(doc)
    return table, Ideal(table, doc_polynomials(doc, "relations", table))


def _load_presentation(path: str) -> Presentation:
    doc = _read_document(path, ("presentation", "ideal"))
    table = doc_vars(doc)
    return Presentation(table, doc_polynomials(doc, "relations", table))


def _load_morphism(path: str):
    """A morphism document: [source], [target], [images], optional [relations].

    [relations] holds relations of the target ring.  Returns the source
    table, target table, image dictionary and target relation list.
    """
    doc = _read_document(path, ("morphism",))
    source = parse_vartable(doc.section("source", required=True))
    target = parse_vartable(doc.section("target", required=True))
    images = {}
    for entry in doc.section("images", required=True):
        if entry.key is None:
            raise ParseError("entries in [images] must look like `name: polynomial`",
                             entry.line)
        if entry.key not in source.names:
            raise ParseError(f"[images] names {entry.key!r}, which is not a "
                             f"[source] variable", entry.line)
        if entry.key in images:
            raise ParseError(f"duplicate image for {entry.key!r}", entry.line)
        images[entry.key] = parse_polynomial(entry.value, target, line=entry.line)
    missing = [name for name in source.names if name not in images]
    if missing:
        raise ParseError(f"[images] is missing: {', '.join(missing)}")
    relations = doc_polynomials(doc, "relations", target)
    return source, target, images, relations


def _load_action(path: str):
    """A group action: [vars] plus [group]; stratum files work unchanged."""
    doc = _read_document(path, ("action", "stratum"))
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


def _presentation_text(pres: Presentation) -> str:
    lines = ["[kind]", "presentation", "[vars]"]
    for name, weight in zip(pres.table.names, pres.table.weights):
        lines.append(f"{name}({weight})")
    relations = pres.relations.groebner(pres.order)
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
    expression = subalgebra_member(f, [(name, images[name]) for name in source.names],
                                   tag_table=source)
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
    names = ([n.strip() for n in args.names.split(",") if n.strip()]
             if args.names else None)
    return _presentation_text(invariant_presentation(action, names=names)), 0


def cmd_fiber(args):
    a_source, a_target, a_images, a_relations = _load_morphism(args.alpha)
    b_source, b_target, b_images, b_relations = _load_morphism(args.beta)
    if a_source != b_source:
        raise InputError("the two morphisms must declare the same [source]")
    source = Presentation(a_source)
    alpha = Morphism(source, Presentation(a_target, a_relations), a_images)
    beta = Morphism(source, Presentation(b_target, b_relations), b_images)
    return _presentation_text(fiber_product(alpha, beta)[0]), 0


def _require_dmax(args):
    if args.dmax < 0:
        raise InputError(f"--dmax must be a nonnegative integer, got {args.dmax}")


def cmd_dims(args):
    _require_dmax(args)
    pres = _load_presentation(args.presentation)
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

def _add_order(parser):
    parser.add_argument("--order", choices=ORDER_NAMES, default="grevlex",
                        help="monomial order for bases and normal forms "
                             "(default: grevlex; wgrevlex uses the declared "
                             "variable weights)")


def _add_out(parser):
    parser.add_argument("--out", metavar="PATH", default=None,
                        help="write the output to PATH instead of stdout")


def _add_element(parser, help_text):
    parser.add_argument("--element", required=True, metavar="EXPR",
                        help=help_text)


# built on the first call and reused: parse_args keeps no state between calls
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chowcheck",
        description="Exact polynomial algebra over Q and step-by-step "
                    "verification of the stratified Chow ring computation.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("gb", help="reduced Groebner basis of an ideal")
    p.add_argument("ideal", metavar="IDEAL", help="ideal document path")
    _add_order(p)
    _add_out(p)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("nf", help="normal form of an element modulo an ideal")
    p.add_argument("ideal", metavar="IDEAL")
    _add_element(p, "polynomial in the ideal's variables")
    _add_order(p)
    _add_out(p)
    p.set_defaults(func=cmd_nf)

    p = sub.add_parser("member", help="ideal membership test (true/false)")
    p.add_argument("ideal", metavar="IDEAL")
    _add_element(p, "polynomial in the ideal's variables")
    _add_order(p)
    _add_out(p)
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("elim", help="elimination ideal in the kept variables")
    p.add_argument("ideal", metavar="IDEAL")
    p.add_argument("--drop", required=True, metavar="NAMES",
                   help="comma-separated variables to eliminate")
    _add_order(p)
    _add_out(p)
    p.set_defaults(func=cmd_elim)

    p = sub.add_parser("kernel", help="kernel of a ring map given by images")
    p.add_argument("morphism", metavar="MORPHISM", help="morphism document path")
    _add_order(p)
    _add_out(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("colon", help="colon ideal (I : f)")
    p.add_argument("ideal", metavar="IDEAL")
    _add_element(p, "the divisor f")
    _add_order(p)
    _add_out(p)
    p.set_defaults(func=cmd_colon)

    p = sub.add_parser("nzd", help="non-zero-divisor test via (I : f) = I")
    p.add_argument("ideal", metavar="IDEAL")
    _add_element(p, "the candidate f")
    _add_order(p)
    _add_out(p)
    p.set_defaults(func=cmd_nzd)

    p = sub.add_parser("intersect", help="intersection of two ideals")
    p.add_argument("left", metavar="IDEAL_A")
    p.add_argument("right", metavar="IDEAL_B")
    _add_order(p)
    _add_out(p)
    p.set_defaults(func=cmd_intersect)

    p = sub.add_parser("subalg",
                       help="subalgebra membership against named generators")
    p.add_argument("morphism", metavar="MORPHISM",
                   help="morphism document; [images] are the generators")
    _add_element(p, "polynomial in the [target] variables")
    _add_out(p)
    p.set_defaults(func=cmd_subalg)

    p = sub.add_parser("reynolds", help="Reynolds average of a polynomial")
    p.add_argument("action", metavar="ACTION",
                   help="action document ([vars] + [group]); stratum files work")
    _add_element(p, "polynomial in the action's variables")
    _add_out(p)
    p.set_defaults(func=cmd_reynolds)

    p = sub.add_parser("invgen",
                       help="minimal generators of the invariant algebra")
    p.add_argument("action", metavar="ACTION")
    _add_out(p)
    p.set_defaults(func=cmd_invgen)

    p = sub.add_parser("invpres",
                       help="presentation of the invariant algebra")
    p.add_argument("action", metavar="ACTION")
    p.add_argument("--names", metavar="NAMES", default=None,
                   help="comma-separated names for the invariant generators")
    _add_out(p)
    p.set_defaults(func=cmd_invpres)

    p = sub.add_parser("fiber",
                       help="fiber product presentation of two morphisms "
                            "out of one free source")
    p.add_argument("alpha", metavar="MORPHISM_A")
    p.add_argument("beta", metavar="MORPHISM_B")
    _add_out(p)
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("dims", help="graded dimension table of a presentation")
    p.add_argument("presentation", metavar="PRESENTATION")
    p.add_argument("--dmax", type=int, default=12, metavar="N",
                   help="largest degree to tabulate (default 12)")
    _add_out(p)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("verify-paper",
                       help="run the full pipeline and check every recorded "
                            "claim; exit 1 on any discrepancy")
    p.add_argument("strata", nargs="?", default=None, metavar="STRATA_DIR",
                   help="directory with the stratum files "
                        "(default: packaged data)")
    p.add_argument("claims", nargs="?", default=None, metavar="CLAIMS_FILE",
                   help="claims file (default: packaged claims)")
    p.add_argument("--convention", metavar="SIGNS", default=None,
                   help="sign convention e1,e2,e3[,eg] with each value +1 or "
                        "-1 (default: -1,-1,-1,+1)")
    p.add_argument("--dmax", type=int, default=12, metavar="N",
                   help="degree bound for graded certification (default 12)")
    p.add_argument("--format", choices=("text", "machine"), default="text",
                   help="report format; machine output is byte-deterministic")
    _add_out(p)
    p.set_defaults(func=cmd_verify_paper)

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
