"""Language descriptors: operator tables and node matching.

A :class:`Signature` is a runtime description of an object language's
syntactic constructions.  How terms compute, and with it which guesses and
heads the unifier uses, is the reduction rule table's business (see
:mod:`metaterm.reduction`).  Everything here is immutable after
construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .terms import Op, Term

# Annotation terminator: the one tag shared by every typed signature.
INF_UNIVERSE_TAG = "UInf"
_SHIFT_TABLES: dict[frozenset, dict] = {}  # one ``binder_shifts`` dict per distinct table


class SlotKind(Enum):
    """What a child position of an operator holds."""

    TERM = "term"
    SCOPE = "scope"  # introduces exactly one bound variable
    OPT_TERM = "opt-term"  # plain subterm that may be absent


@dataclass(frozen=True)
class Operator:
    tag: str
    slots: tuple[SlotKind, ...]


# Paired children of two matched nodes: (slot kind, left child, right child).
MatchedSlots = list[tuple[SlotKind, "Term", "Term"]]


class SignatureError(ValueError):
    """Malformed signature description."""


@dataclass(frozen=True)
class Signature:
    """Operator table plus the nullary tags identified during matching.

    ``tag_equivalences`` lists sets of nullary tags that match each other;
    used by typed signatures to reconcile the annotation terminator with an
    object-language universe (type-in-type).
    """

    name: str
    operators: dict[str, Operator]
    tag_equivalences: tuple[frozenset[str], ...] = ()

    @cached_property
    def typed(self) -> bool:
        """Whether nodes carry a type annotation: the signature has the
        annotation terminator (see :func:`annotate_signature`)."""
        return INF_UNIVERSE_TAG in self.operators

    @cached_property
    def binder_shifts(self) -> dict[str, tuple[int, ...]]:
        """Per binding operator tag, the binders each slot adds: 1 for a scope.
        One dict per distinct table, shared by a language's plain and typed
        signatures: it keys the cached loose ranges (``terms.loose``)."""
        table = frozenset(
            (tag, tuple(1 if kind is SlotKind.SCOPE else 0 for kind in op.slots))
            for tag, op in self.operators.items()
            if SlotKind.SCOPE in op.slots
        )
        return _SHIFT_TABLES.setdefault(table, dict(table))

    def equivalent_tags(self, a: str, b: str) -> bool:
        if a == b:
            return True
        return any(a in group and b in group for group in self.tag_equivalences)


def make_signature(name: str, ops: list[tuple[str, list[SlotKind]]], **kw) -> Signature:
    return Signature(
        name=name,
        operators={tag: Operator(tag, tuple(slots)) for tag, slots in ops},
        **kw,
    )


def sum_signature(left: Signature, right: Signature, name: str | None = None) -> Signature:
    """Disjoint union of two signatures; tags must not overlap."""
    overlap = left.operators.keys() & right.operators.keys()
    if overlap:
        raise SignatureError(f"overlapping operator tags: {sorted(overlap)}")
    return Signature(
        name=name or f"{left.name}+{right.name}",
        operators={**left.operators, **right.operators},
        tag_equivalences=left.tag_equivalences + right.tag_equivalences,
    )


def annotate_signature(sig: Signature, universe_tag: str | None = None) -> Signature:
    """The typed counterpart of ``sig``: same operators, nodes carry a type.

    Adds the nullary annotation terminator and, when the language has its
    own universe operator, identifies the two during matching (type-in-type).
    """
    operators = dict(sig.operators)
    operators[INF_UNIVERSE_TAG] = Operator(INF_UNIVERSE_TAG, ())
    equivalences = sig.tag_equivalences
    if universe_tag is not None:
        equivalences = equivalences + (frozenset({universe_tag, INF_UNIVERSE_TAG}),)
    return replace(
        sig,
        name=f"{sig.name}:typed",
        operators=operators,
        tag_equivalences=equivalences,
    )


def zip_match(sig: Signature, left: "Op", right: "Op") -> Optional[tuple[str, MatchedSlots]]:
    """Pair the children of two operator nodes, or refuse.

    Returns ``(tag, paired slots)`` on success; annotations of typed nodes
    are paired as an extra plain slot.  Cross-tag matches are only allowed
    between equivalent nullary tags.
    """
    if left.tag != right.tag:
        if sig.equivalent_tags(left.tag, right.tag):
            return (left.tag, [])
        return None
    slots = []
    op = sig.operators[left.tag]
    for kind, lc, rc in zip(op.slots, left.children, right.children):
        if kind is SlotKind.OPT_TERM:
            if lc is None and rc is None:
                continue
            # Keep the present annotation, pairing it with itself.
            lc = lc if lc is not None else rc
            rc = rc if rc is not None else lc
            slots.append((SlotKind.TERM, lc, rc))
        else:
            slots.append((kind, lc, rc))
    if sig.typed:
        if (left.ann is None) != (right.ann is None):
            return None
        if left.ann is not None:
            slots.append((SlotKind.TERM, left.ann, right.ann))
    return (left.tag, slots)

