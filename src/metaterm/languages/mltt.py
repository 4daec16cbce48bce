"""Martin-Löf type theory: Pi, Sigma, identity types with J, one universe.

Type-in-type is assumed: the universe's own annotation is the infinite
universe, and the two tags are identified during matching.
"""

from __future__ import annotations

from ..reduction import Reducer, beta, identity_elim, projection
from ..signature import Shape, SlotKind, annotate_signature, make_signature
from ..terms import Bound, Op, instantiate, weaken
from ..typecheck import INFINITE_UNIVERSE, erase
from .base import Language

UNIVERSE = "Universe"
PI = "Pi"
LAM = "Lam"
APP = "App"
SIGMA = "Sigma"
PAIR = "Pair"
FIRST = "First"
SECOND = "Second"
ID_TYPE = "IdType"
REFL = "Refl"
J = "J"

signature = make_signature(
    "mltt",
    [
        (UNIVERSE, []),
        (PI, [SlotKind.TERM, SlotKind.SCOPE]),
        (LAM, [SlotKind.SCOPE]),
        (APP, [SlotKind.TERM, SlotKind.TERM]),
        (SIGMA, [SlotKind.TERM, SlotKind.SCOPE]),
        (PAIR, [SlotKind.TERM, SlotKind.TERM]),
        (FIRST, [SlotKind.TERM]),
        (SECOND, [SlotKind.TERM]),
        (ID_TYPE, [SlotKind.TERM, SlotKind.TERM]),
        (REFL, [SlotKind.TERM]),
        (J, [SlotKind.TERM] * 6),  # J(A, a, C, d, x, p)
    ],
    guess_table={
        (APP, 0): (LAM,),
        (FIRST, 0): (PAIR,),
        (SECOND, 0): (PAIR,),
        (J, 5): (REFL,),
    },
    shapes=(
        Shape(APP, (True, False)),
        Shape(FIRST, (True,)),
        Shape(SECOND, (True,)),
    ),
)


def make_rules(sig) -> Reducer:
    return {
        APP: beta(sig),
        FIRST: projection(0),
        SECOND: projection(1),
        J: identity_elim(),
    }


# -- typing rules ----------------------------------------------------------

UNIVERSE_NODE = Op(UNIVERSE, (), INFINITE_UNIVERSE)


def _infer_universe(tc, node):
    return UNIVERSE_NODE


def _infer_quantifier(tc, node):
    """Pi and Sigma: both components are types; the codomain's own type
    must not depend on the binder (the codomain itself may)."""
    dom = tc.should_have_type(tc.annotate(node.children[0]), UNIVERSE_NODE)
    with tc.in_scope(dom):
        body = tc.annotate(node.children[1])
        body_ty = tc.type_of(body)
    tc.unify_with_expected(tc.non_dep(body_ty), UNIVERSE_NODE)
    return Op(node.tag, (dom, body), UNIVERSE_NODE)


def _infer_lam(tc, node):
    dom = tc.fresh_type_meta_var()
    with tc.in_scope(dom):
        body = tc.annotate(node.children[0])
        body_ty = tc.type_of(body)
    return Op(LAM, (body,), Op(PI, (dom, body_ty), UNIVERSE_NODE))


def _infer_app(tc, node):
    sig = tc.lang.typed_signature
    fun = tc.annotate(node.children[0])
    arg = tc.annotate(node.children[1])
    fun_ty = tc.whnf(tc.type_of(fun))
    arg_ty = tc.type_of(arg)
    if isinstance(fun_ty, Op) and fun_ty.tag == PI:
        tc.unify_with_expected(arg_ty, fun_ty.children[0])
        result = instantiate(sig, fun_ty.children[1], arg)
    else:
        result = tc.fresh_type_meta_var()
        expected = Op(PI, (arg_ty, weaken(sig, result, 1)), UNIVERSE_NODE)
        tc.unify_with_expected(fun_ty, expected)
    return Op(APP, (fun, arg), result)


def _infer_pair(tc, node):
    sig = tc.lang.typed_signature
    a = tc.annotate(node.children[0])
    b = tc.annotate(node.children[1])
    ty = Op(SIGMA, (tc.type_of(a), weaken(sig, tc.type_of(b), 1)), UNIVERSE_NODE)
    return Op(PAIR, (a, b), ty)


def _infer_projection(index: int):
    def rule(tc, node):
        sig = tc.lang.typed_signature
        pair = tc.annotate(node.children[0])
        pair_ty = tc.whnf(tc.type_of(pair))
        if not (isinstance(pair_ty, Op) and pair_ty.tag == SIGMA):
            first_ty = tc.fresh_type_meta_var()
            second_ty = weaken(sig, tc.fresh_type_meta_var(), 1)
            expected = Op(SIGMA, (first_ty, second_ty), UNIVERSE_NODE)
            tc.unify_with_expected(pair_ty, expected)
            pair_ty = expected
        result = pair_ty.children[0]
        if index == 1:
            first = Op(FIRST, (pair,), result)
            result = instantiate(sig, pair_ty.children[1], first)
        return Op(node.tag, (pair,), result)

    return rule


def _infer_id_type(tc, node):
    a = tc.annotate(node.children[0])
    b = tc.annotate(node.children[1])
    tc.unify_with_expected(tc.type_of(a), tc.type_of(b))
    return Op(ID_TYPE, (a, b), UNIVERSE_NODE)


def _infer_refl(tc, node):
    subject = tc.annotate(node.children[0])
    ty = Op(ID_TYPE, (subject, subject), UNIVERSE_NODE)
    return Op(REFL, (subject,), ty)


def _infer_j(tc, node):
    """Identity elimination, J(A, a, C, d, x, p):

        C : (y : A) -> (a = y) -> U        (the motive)
        d : C a (refl a)
        x : A,  p : a = x,  result type:  C x p

    Expected types are assembled as plain terms from erased pieces and
    re-annotated by inference, so they unify cleanly with inferred types.
    """
    plain = tc.lang.signature

    def checked(typed, expected):
        # Applied at once: the pieces are erased and inferred again below.
        return tc.clarify_term(tc.should_have_type(typed, expected))

    ty_a = checked(tc.annotate(node.children[0]), UNIVERSE_NODE)
    a = checked(tc.annotate(node.children[1]), ty_a)
    e_ty_a, e_a = erase(ty_a), erase(a)

    motive_ty = Op(
        PI,
        (
            e_ty_a,
            Op(
                PI,
                (Op(ID_TYPE, (weaken(plain, e_a, 1), Bound(0))), Op(UNIVERSE)),
            ),
        ),
    )
    motive = checked(tc.annotate(node.children[2]), tc.annotate(motive_ty))
    e_motive = erase(motive)

    base_ty = Op(APP, (Op(APP, (e_motive, e_a)), Op(REFL, (e_a,))))
    base = checked(tc.annotate(node.children[3]), tc.annotate(base_ty))

    x = checked(tc.annotate(node.children[4]), ty_a)
    e_x = erase(x)
    proof = checked(
        tc.annotate(node.children[5]), tc.annotate(Op(ID_TYPE, (e_a, e_x)))
    )

    result = tc.annotate(Op(APP, (Op(APP, (e_motive, e_x)), erase(proof))))
    return Op(J, (ty_a, a, motive, base, x, proof), result)


infer_rules = {
    UNIVERSE: _infer_universe,
    PI: _infer_quantifier,
    SIGMA: _infer_quantifier,
    LAM: _infer_lam,
    APP: _infer_app,
    PAIR: _infer_pair,
    FIRST: _infer_projection(0),
    SECOND: _infer_projection(1),
    ID_TYPE: _infer_id_type,
    REFL: _infer_refl,
    J: _infer_j,
}

typed_signature = annotate_signature(signature, universe_tag=UNIVERSE)

language = Language(
    name="mltt",
    signature=signature,
    reducer=make_rules(signature),
    typed_signature=typed_signature,
    typed_reducer=make_rules(typed_signature),
    infer_rules=infer_rules,
    dependent_types=True,
)
