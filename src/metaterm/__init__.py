"""Signature-generic scoped terms, reduction, higher-order preunification,
and constraint-based type inference, with three bundled languages
(untyped lambda calculus, simply typed lambda calculus with pairs, and
Martin-Löf type theory)."""

from .languages import LANGUAGES, Language, get_language
from .metavar import (
    EMPTY_SUBSTS,
    FreshSupply,
    MetaAbs,
    MetaSubstitution,
    apply_substs,
    extend_substs,
    metas_of,
)
from .reduction import normal_form, reduce, sum_reduce
from .signature import (
    Operator,
    Signature,
    SlotKind,
    annotate_signature,
    make_signature,
    sum_signature,
    zip_match,
)
from .syntax import ParseError, parse_constraint, parse_term, print_constraint, print_term
from .terms import (
    Bound,
    Free,
    Hole,
    MetaApp,
    Op,
    Term,
    instantiate,
    instantiate_many,
    substitute_free,
    weaken,
    well_scoped,
)
from .typecheck import TypeChecker, TypeCheckError, TypeInfo
from .unification import (
    Constraint,
    ConstraintClass,
    SearchConfig,
    Solution,
    Undetermined,
    UnificationFailed,
    classify,
    unify,
    verify_solution,
)

__version__ = "0.1.0"

__all__ = [
    "LANGUAGES",
    "Language",
    "get_language",
    "EMPTY_SUBSTS",
    "FreshSupply",
    "MetaAbs",
    "MetaSubstitution",
    "apply_substs",
    "extend_substs",
    "metas_of",
    "normal_form",
    "reduce",
    "sum_reduce",
    "Operator",
    "Signature",
    "SlotKind",
    "annotate_signature",
    "make_signature",
    "sum_signature",
    "zip_match",
    "ParseError",
    "parse_constraint",
    "parse_term",
    "print_constraint",
    "print_term",
    "Bound",
    "Free",
    "Hole",
    "MetaApp",
    "Op",
    "Term",
    "instantiate",
    "instantiate_many",
    "substitute_free",
    "weaken",
    "well_scoped",
    "TypeChecker",
    "TypeCheckError",
    "TypeInfo",
    "Constraint",
    "ConstraintClass",
    "SearchConfig",
    "Solution",
    "Undetermined",
    "UnificationFailed",
    "classify",
    "unify",
    "verify_solution",
]
