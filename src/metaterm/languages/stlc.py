"""Simply typed lambda calculus with pairs.

Lambdas carry an optional domain annotation; inference invents a fresh type
metavariable when it is absent.  Types are ordinary terms, so they may
compute (nothing stops an application from appearing in type position).
"""

from __future__ import annotations

from .. import typecheck
from ..reduction import beta, projection
from ..signature import SlotKind, annotate_signature, make_signature
from .base import Language

FUN = "Fun"
LAM = "Lam"
APP = "App"
PAIR_TY = "PairTy"
PAIR = "Pair"
FIRST = "First"
SECOND = "Second"

signature = make_signature(
    "stlc",
    [
        (FUN, [SlotKind.TERM, SlotKind.TERM]),
        (LAM, [SlotKind.OPT_TERM, SlotKind.SCOPE]),
        (APP, [SlotKind.TERM, SlotKind.TERM]),
        (PAIR_TY, [SlotKind.TERM, SlotKind.TERM]),
        (PAIR, [SlotKind.TERM, SlotKind.TERM]),
        (FIRST, [SlotKind.TERM]),
        (SECOND, [SlotKind.TERM]),
    ],
)


# -- typing rules ----------------------------------------------------------

U = typecheck.INFINITE_UNIVERSE

infer_rules = {
    FUN: typecheck.type_former(U),
    LAM: typecheck.lam(FUN, U),
    APP: typecheck.app(FUN, U),
    PAIR_TY: typecheck.type_former(U),
    PAIR: typecheck.pair(PAIR_TY, U),
    FIRST: typecheck.projection(0, PAIR_TY, U),
    SECOND: typecheck.projection(1, PAIR_TY, U),
}

typed_signature = annotate_signature(signature)

language = Language(
    name="stlc",
    signature=signature,
    reducer={APP: beta(), FIRST: projection(0), SECOND: projection(1)},
    typed_signature=typed_signature,
    infer_rules=infer_rules,
    shapes=(APP, FIRST, SECOND),
)
