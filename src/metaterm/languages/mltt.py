"""Martin-Löf type theory: Pi, Sigma, identity types with J, one universe.

Type-in-type is assumed: the universe's own annotation is the infinite
universe, and the two tags are identified during matching.
"""

from __future__ import annotations

from .. import typecheck
from ..reduction import beta, identity_elim, projection
from ..signature import SlotKind, annotate_signature, make_signature
from ..terms import Bound, Op, weaken
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
)


# -- typing rules ----------------------------------------------------------

UNIVERSE_NODE = Op(UNIVERSE, (), INFINITE_UNIVERSE)


def _infer_universe(tc, node):
    yield from ()  # a rule is a generator, even with no child to type
    return UNIVERSE_NODE


def _infer_id_type(tc, node):
    a = yield tc.step(node.children[0])
    b = yield tc.step(node.children[1])
    tc.unify_with_expected(tc.type_of(a), tc.type_of(b))
    return Op(ID_TYPE, (a, b), UNIVERSE_NODE)


def _infer_refl(tc, node):
    subject = yield tc.step(node.children[0])
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

    ty_a = checked((yield tc.step(node.children[0])), UNIVERSE_NODE)
    a = checked((yield tc.step(node.children[1])), ty_a)
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
    motive = checked((yield tc.step(node.children[2])), (yield tc.step(motive_ty)))
    e_motive = erase(motive)

    base_ty = Op(APP, (Op(APP, (e_motive, e_a)), Op(REFL, (e_a,))))
    base = checked((yield tc.step(node.children[3])), (yield tc.step(base_ty)))

    x = checked((yield tc.step(node.children[4])), ty_a)
    e_x = erase(x)
    proof_ty = Op(ID_TYPE, (e_a, e_x))
    proof = checked((yield tc.step(node.children[5])), (yield tc.step(proof_ty)))

    result = yield tc.step(Op(APP, (Op(APP, (e_motive, e_x)), erase(proof))))
    return Op(J, (ty_a, a, motive, base, x, proof), result)


infer_rules = {
    UNIVERSE: _infer_universe,
    PI: typecheck.type_former(UNIVERSE_NODE),
    SIGMA: typecheck.type_former(UNIVERSE_NODE),
    LAM: typecheck.lam(PI, UNIVERSE_NODE),
    APP: typecheck.app(PI, UNIVERSE_NODE),
    PAIR: typecheck.pair(SIGMA, UNIVERSE_NODE),
    FIRST: typecheck.projection(0, SIGMA, UNIVERSE_NODE),
    SECOND: typecheck.projection(1, SIGMA, UNIVERSE_NODE),
    ID_TYPE: _infer_id_type,
    REFL: _infer_refl,
    J: _infer_j,
}

typed_signature = annotate_signature(signature, universe_tag=UNIVERSE)

language = Language(
    name="mltt",
    signature=signature,
    reducer={
        APP: beta(),
        FIRST: projection(0),
        SECOND: projection(1),
        J: identity_elim(),
    },
    typed_signature=typed_signature,
    infer_rules=infer_rules,
    shapes=(APP, FIRST, SECOND),
)
