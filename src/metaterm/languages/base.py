"""Bundled-language descriptor: everything the generic machinery needs."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Generator, Mapping

from ..reduction import Reducer
from ..signature import Signature
from ..terms import Op, Term

# rule(checker, plain node): a generator step of ``terms.run`` that gets each
# annotated child as ``(yield checker.step(child))`` and returns the node
# annotated (see ``metaterm.typecheck``).
InferRule = Callable[[object, Op], Generator]


@dataclass(frozen=True)
class Language:
    """A concrete object language.

    ``signature``/``reducer`` drive plain reduction and unification;
    ``typed_signature``/``typed_reducer`` are the annotated counterparts
    used during type inference.  ``infer_rules`` is empty for untyped
    languages.  ``dependent_types`` controls whether fresh type
    metavariables abstract over the bound variables in scope.
    """

    name: str
    signature: Signature
    reducer: Reducer
    typed_signature: Signature
    typed_reducer: Reducer
    infer_rules: Mapping[str, InferRule]
    dependent_types: bool = False

    def typed_view(self) -> "Language":
        """The same language seen through its annotated signature, for
        running unification over typed terms."""
        return replace(
            self, signature=self.typed_signature, reducer=self.typed_reducer
        )
