"""Hypothesis generators for well-scoped terms and constraints of a given signature."""

from __future__ import annotations

from hypothesis import strategies as st

from metaterm.signature import INF_UNIVERSE_TAG, Signature, SlotKind, make_signature
from metaterm.terms import Bound, Free, MetaApp, Op, Term, weaken
from metaterm.unification import Constraint

FREE_NAMES = ("a", "b", "c")
META_NAMES = ("m", "n")


@st.composite
def terms(
    draw,
    sig: Signature,
    depth: int = 0,
    size: int = 4,
    *,
    with_metas: bool = True,
) -> Term:
    """A term of ``sig``, well-scoped at ``depth``, at most ``size`` deep."""
    kinds = ["free"]
    if depth:
        kinds.append("bound")
    if size > 0:
        kinds.append("op")
        if with_metas:
            kinds.append("meta")
    match draw(st.sampled_from(kinds)):
        case "free":
            return Free(draw(st.sampled_from(FREE_NAMES)))
        case "bound":
            return Bound(draw(st.integers(0, depth - 1)))
        case "meta":
            args = draw(
                st.lists(
                    terms(sig, depth, size - 1, with_metas=with_metas), max_size=2
                )
            )
            return MetaApp(draw(st.sampled_from(META_NAMES)), tuple(args))
        case _:
            tags = sorted(t for t in sig.operators if t != INF_UNIVERSE_TAG)
            tag = draw(st.sampled_from(tags))
            children: list[Term | None] = []
            for kind in sig.operators[tag].slots:
                child_depth = depth + (1 if kind is SlotKind.SCOPE else 0)
                child = terms(sig, child_depth, size - 1, with_metas=with_metas)
                if kind is SlotKind.OPT_TERM:
                    children.append(draw(st.none() | child))
                else:
                    children.append(draw(child))
            return Op(tag, tuple(children))


@st.composite
def signatures(draw) -> Signature:
    """One to four operators ``T0``, ``T1``, …, tags that no bundled
    notation knows, each with up to three slots of any kind."""
    slots = draw(st.lists(st.lists(st.sampled_from(list(SlotKind)), max_size=3), min_size=1, max_size=4))
    return make_signature("random", [(f"T{i}", kinds) for i, kinds in enumerate(slots)])


@st.composite
def redex_terms(
    draw, sig: Signature, depth: int = 0, size: int = 3, annotate: bool = False
) -> Term:
    """A term of ``sig``, well-scoped at ``depth``, whose nodes are often
    redexes of the bundled rules (β, projections of pairs, J on ``Refl``)
    and otherwise variables, metavariable applications or any operator,
    such as a stuck eliminator.  With ``annotate``, operator nodes may
    carry an annotation, any term at the node's depth."""

    def sub(extra: int = 0, smaller: int = 1):
        return redex_terms(sig, depth + extra, size - smaller, annotate)

    def op(tag: str, *fixed: Term) -> Op:
        children: list[Term | None] = list(fixed)
        for kind in sig.operators[tag].slots[len(fixed) :]:
            if kind is SlotKind.OPT_TERM:
                children.append(draw(st.none() | sub()))
            else:
                children.append(draw(sub(1 if kind is SlotKind.SCOPE else 0)))
        ann = draw(st.none() | sub(smaller=3)) if annotate else None
        return Op(tag, tuple(children), ann)

    if size <= 0:
        return draw(terms(sig, depth, 0))
    kinds = ["leaf", "leaf", "meta", "op", "beta", "beta"]
    if "Pair" in sig.operators:
        kinds += ["first", "second"]
    if "J" in sig.operators:
        kinds.append("j")
    tags = sorted(t for t in sig.operators if t != INF_UNIVERSE_TAG)
    match draw(st.sampled_from(kinds)):
        case "leaf":
            return draw(terms(sig, depth, 0))
        case "meta":
            args = draw(st.lists(sub(), max_size=2))
            return MetaApp(draw(st.sampled_from(META_NAMES)), tuple(args))
        case "op":
            return op(draw(st.sampled_from(tags)))
        case "beta":
            return op("App", op("Lam"))
        case "first" | "second" as proj:
            return op(proj.capitalize(), op("Pair"))
        case _:
            return op("J", *(draw(sub(smaller=2)) for _ in range(5)), op("Refl"))


@st.composite
def problems(draw, sig: Signature, size: int = 3) -> list[Constraint]:
    """One to four constraints of ``sig``, each under up to two universal
    binders, whose right sides are :func:`redex_terms` and whose left
    sides are mostly metavariable applications, so the search has
    flex-rigid work.  Each metavariable is applied to one number of
    arguments throughout."""
    arity = {name: draw(st.integers(0, 2)) for name in META_NAMES}
    out = []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(0, 2))
        name = draw(st.sampled_from(META_NAMES))
        args = draw(st.lists(terms(sig, k, 0), min_size=arity[name], max_size=arity[name]))
        flex = draw(st.integers(0, 3)) > 0
        lhs = MetaApp(name, tuple(args)) if flex else draw(redex_terms(sig, k, size))
        out.append(Constraint(lhs, draw(redex_terms(sig, k, size)), k))
    return out


@st.composite
def occurs_problems(draw, sig: Signature, size: int = 3) -> list[Constraint]:
    """``?m[xs] =?= C[?m[xs]]`` under up to two universal binders: ``xs``
    are distinct bound variables and ``C`` is one to ``size`` operator
    nodes around the flex side, their other children random terms without
    metavariables."""
    k = draw(st.integers(0, 2))
    xs = draw(st.lists(st.integers(0, k - 1), unique=True, max_size=k)) if k else []
    flex = MetaApp("m", tuple(Bound(i) for i in xs))
    tags = sorted(t for t, op in sig.operators.items() if t != INF_UNIVERSE_TAG and op.slots)
    rhs: Term = flex
    for _ in range(draw(st.integers(1, size))):
        tag = draw(st.sampled_from(tags))
        slots = sig.operators[tag].slots
        at = draw(st.integers(0, len(slots) - 1))
        children: list[Term | None] = []
        for i, kind in enumerate(slots):
            scoped = kind is SlotKind.SCOPE
            if i == at:
                children.append(weaken(sig, rhs, 1) if scoped else rhs)
            elif kind is SlotKind.OPT_TERM and draw(st.booleans()):
                children.append(None)
            else:
                children.append(draw(terms(sig, k + scoped, 1, with_metas=False)))
        rhs = Op(tag, tuple(children))
    return [Constraint(flex, rhs, k)]
