"""Simply typed lambda calculus with pairs.

Lambdas carry an optional domain annotation; inference invents a fresh type
metavariable when it is absent.  Types are ordinary terms, so they may
compute (nothing stops an application from appearing in type position).
"""

from __future__ import annotations

from ..reduction import Reducer, beta, projection
from ..signature import Shape, SlotKind, annotate_signature, make_signature
from ..terms import Op
from ..typecheck import INFINITE_UNIVERSE
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
    guess_table={
        (APP, 0): (LAM,),
        (FIRST, 0): (PAIR,),
        (SECOND, 0): (PAIR,),
    },
    shapes=(
        Shape(APP, (True, False)),
        Shape(FIRST, (True,)),
        Shape(SECOND, (True,)),
    ),
)


def make_rules(sig) -> Reducer:
    return {APP: beta(sig), FIRST: projection(0), SECOND: projection(1)}


# -- typing rules ----------------------------------------------------------

U = INFINITE_UNIVERSE


def _infer_fun(tc, node):
    a = tc.should_have_type(tc.annotate(node.children[0]), U)
    b = tc.should_have_type(tc.annotate(node.children[1]), U)
    return Op(node.tag, (a, b), U)


def _infer_lam(tc, node):
    annotation = node.children[0]
    if annotation is None:
        dom_typed = None
        dom = tc.fresh_type_meta_var()
    else:
        dom_typed = tc.should_have_type(tc.annotate(annotation), U)
        dom = dom_typed
    with tc.in_scope(dom):
        body = tc.annotate(node.children[1])
        body_ty = tc.type_of(body)
    result_ty = tc.non_dep(body_ty)
    return Op(LAM, (dom_typed, body), Op(FUN, (dom, result_ty), U))


def _infer_app(tc, node):
    fun = tc.annotate(node.children[0])
    arg = tc.annotate(node.children[1])
    fun_ty = tc.whnf(tc.type_of(fun))
    arg_ty = tc.type_of(arg)
    if isinstance(fun_ty, Op) and fun_ty.tag == FUN:
        tc.unify_with_expected(arg_ty, fun_ty.children[0])
        result = fun_ty.children[1]
    else:
        result = tc.fresh_type_meta_var()
        tc.unify_with_expected(fun_ty, Op(FUN, (arg_ty, result), U))
    return Op(APP, (fun, arg), result)


def _infer_pair(tc, node):
    a = tc.annotate(node.children[0])
    b = tc.annotate(node.children[1])
    ty = Op(PAIR_TY, (tc.type_of(a), tc.type_of(b)), U)
    return Op(PAIR, (a, b), ty)


def _infer_projection(index: int):
    def rule(tc, node):
        pair = tc.annotate(node.children[0])
        pair_ty = tc.whnf(tc.type_of(pair))
        if isinstance(pair_ty, Op) and pair_ty.tag == PAIR_TY:
            result = pair_ty.children[index]
        else:
            components = (tc.fresh_type_meta_var(), tc.fresh_type_meta_var())
            tc.unify_with_expected(pair_ty, Op(PAIR_TY, components, U))
            result = components[index]
        return Op(node.tag, (pair,), result)

    return rule


infer_rules = {
    FUN: _infer_fun,
    LAM: _infer_lam,
    APP: _infer_app,
    PAIR_TY: _infer_fun,  # both components are types; the node is a type
    PAIR: _infer_pair,
    FIRST: _infer_projection(0),
    SECOND: _infer_projection(1),
}

typed_signature = annotate_signature(signature)

language = Language(
    name="stlc",
    signature=signature,
    reducer=make_rules(signature),
    typed_signature=typed_signature,
    typed_reducer=make_rules(typed_signature),
    infer_rules=infer_rules,
)
