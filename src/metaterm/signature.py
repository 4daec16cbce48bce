"""Language descriptors: operator tables, guess tables, shapes.

A :class:`Signature` is a runtime description of an object language's
syntactic constructions.  Everything here is immutable after construction
and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .terms import Op, Term

# Annotation terminator: the one tag shared by every typed signature.
INF_UNIVERSE_TAG = "UInf"


class SlotKind(Enum):
    """What a child position of an operator holds."""

    TERM = "term"
    SCOPE = "scope"  # introduces exactly one bound variable
    OPT_TERM = "opt-term"  # plain subterm that may be absent


@dataclass(frozen=True)
class Operator:
    tag: str
    slots: tuple[SlotKind, ...]


@dataclass(frozen=True)
class Shape:
    """Skeleton operator with each slot marked as head or not."""

    tag: str
    has_head: tuple[bool, ...]


# Paired children of two matched nodes: (slot kind, left child, right child).
MatchedSlots = list[tuple[SlotKind, "Term", "Term"]]


class SignatureError(ValueError):
    """Malformed signature description."""


@dataclass(frozen=True)
class Signature:
    """Operator table plus the per-language unification capability tables.

    ``guess_table`` maps (operator tag, slot index) to the operator tags a
    metavariable in that slot may be expanded to (each guess is one operator,
    every slot of it filled with a fresh metavariable application).

    ``tag_equivalences`` lists sets of nullary tags identified during
    matching; used by typed signatures to reconcile the annotation
    terminator with an object-language universe (type-in-type).
    """

    name: str
    operators: dict[str, Operator]
    guess_table: dict[tuple[str, int], tuple[str, ...]] = field(default_factory=dict)
    shapes: tuple[Shape, ...] = ()
    tag_equivalences: tuple[frozenset[str], ...] = ()
    typed: bool = False

    def __post_init__(self) -> None:
        for (tag, slot), guesses in self.guess_table.items():
            op = self.operators.get(tag)
            if op is None or slot >= len(op.slots):
                raise SignatureError(f"guess table entry for unknown slot {tag}/{slot}")
            for g in guesses:
                if g not in self.operators:
                    raise SignatureError(f"guess skeleton names unknown operator {g}")
        for shape in self.shapes:
            op = self.operators.get(shape.tag)
            if op is None or len(shape.has_head) != len(op.slots):
                raise SignatureError(f"shape for unknown operator {shape.tag}")
            if not any(shape.has_head):
                raise SignatureError(f"shape {shape.tag} has no head slot")

    @cached_property
    def binder_shifts(self) -> dict[str, tuple[int, ...]]:
        """Per operator tag, the binders each slot adds: 1 for a scope."""
        return {
            tag: tuple(1 if kind is SlotKind.SCOPE else 0 for kind in op.slots)
            for tag, op in self.operators.items()
        }

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
        guess_table={**left.guess_table, **right.guess_table},
        shapes=left.shapes + right.shapes,
        tag_equivalences=left.tag_equivalences + right.tag_equivalences,
        typed=left.typed or right.typed,
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
        typed=True,
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


def guesses_for(sig: Signature, node: "Op") -> list[tuple[str, ...]]:
    """Per-slot guess skeleton tags for the node's operator (empty if none)."""
    op = sig.operators[node.tag]
    return [sig.guess_table.get((node.tag, i), ()) for i in range(len(op.slots))]


def head_slot_of(sig: Signature, tag: str) -> int | None:
    """Index of the first head-marked slot of ``tag``, per the shape table."""
    for shape in sig.shapes:
        if shape.tag == tag:
            return shape.has_head.index(True)
    return None
