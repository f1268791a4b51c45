"""chowcheck: exact verification of a stratified Chow ring computation.

Everything runs over Q with exact rational arithmetic.  The package splits
into a small computer-algebra kernel (polynomials, Groebner bases,
invariant theory, graded presentations) and a verification layer that
rebuilds the published computation stage by stage and checks every
displayed formula against independently recomputed objects.
"""

from .polyarith import MonomialOrder, Polynomial, VarTable
from .groebner import (
    Ideal,
    eliminate,
    ideal_equal,
    ideal_quotient,
    intersect,
    map_kernel,
    standard_monomials,
    subalgebra_member,
    zero_dimensional,
)
from .invariants import (
    GroupAction,
    algebra_generators,
    invariant_basis,
    invariant_presentation,
)
from .ringpres import (
    Morphism,
    Presentation,
    apply_quotient,
    fiber_product,
    graded_surjectivity,
)
from .exprparser import (
    ParseError,
    parse_document,
    parse_polynomial,
)
from .chowpipeline import (
    Claim,
    SignConvention,
    Stratum,
    StratumSpec,
    convention_search,
    emit_report,
    induction_step,
    load_base,
    load_claims,
    minimal_generators,
    run_pipeline,
    verify_paper,
)

__version__ = "0.1.0"

__all__ = [
    "Claim",
    "GroupAction",
    "Ideal",
    "MonomialOrder",
    "Morphism",
    "ParseError",
    "Polynomial",
    "Presentation",
    "SignConvention",
    "Stratum",
    "StratumSpec",
    "VarTable",
    "algebra_generators",
    "apply_quotient",
    "convention_search",
    "eliminate",
    "emit_report",
    "fiber_product",
    "graded_surjectivity",
    "ideal_equal",
    "ideal_quotient",
    "induction_step",
    "intersect",
    "invariant_basis",
    "invariant_presentation",
    "load_base",
    "load_claims",
    "map_kernel",
    "minimal_generators",
    "parse_document",
    "parse_polynomial",
    "run_pipeline",
    "standard_monomials",
    "subalgebra_member",
    "verify_paper",
    "zero_dimensional",
    "__version__",
]
