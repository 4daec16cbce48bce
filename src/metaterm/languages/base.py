"""Bundled-language descriptor: everything the generic machinery needs."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Generator, Mapping

from ..reduction import Reducer
from ..signature import Signature, SignatureError
from ..terms import Op

# rule(checker, plain node): a generator step of ``terms.run`` that gets each
# annotated child as ``(yield checker.step(child))`` and returns the node
# annotated (see ``metaterm.typecheck``).
InferRule = Callable[[object, Op], Generator]


@dataclass(frozen=True)
class Language:
    """A concrete object language.

    ``reducer`` is the one reduction rule table; it reduces plain terms
    under ``signature`` and typed ones under ``typed_signature``.  The
    unifier reads its guesses off the rules (see :mod:`metaterm.reduction`).
    ``shapes`` lists eliminator tags of ``reducer``; the unifier tries
    their skeletons as candidates, the head in the rule's principal slot.
    ``signature`` drives plain unification and ``typed_signature`` the
    unification of annotated terms (:attr:`typed_view`).  ``infer_rules``
    is empty for untyped languages.
    """

    name: str
    signature: Signature
    reducer: Reducer
    typed_signature: Signature
    infer_rules: Mapping[str, InferRule]
    shapes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for tag in self.shapes:
            if tag not in self.signature.operators or tag not in self.reducer:
                raise SignatureError(f"shape {tag} is not an eliminator of {self.name}")

    @property
    def typed_reducer(self) -> Reducer:
        """Read-only alias of ``reducer``, which also reduces typed terms."""
        return self.reducer

    @cached_property
    def typed_view(self) -> "Language":
        """The same language seen through its annotated signature, for
        running unification over typed terms."""
        return replace(self, signature=self.typed_signature)
