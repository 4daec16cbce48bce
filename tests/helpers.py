"""Shared test utilities: minimal language stubs and checked solving."""

from __future__ import annotations

import dataclasses
from types import SimpleNamespace

from metaterm.metavar import FreshSupply, MetaSubstitution, metas_of
from metaterm.unification import (
    Constraint,
    SearchConfig,
    Solution,
    simplify_all,
    unify,
    verify_solution,
)


def bare_language(signature, reducer=None, shapes=()):
    """A signature with no reduction/typing, enough for unify and friends."""
    return SimpleNamespace(
        signature=signature, reducer=reducer or {}, shapes=shapes, name=signature.name
    )


def dataclass_repr(value) -> str:
    """``repr`` as the generated dataclass one spells it, recursively: the
    reference for the explicit-stack ``repr`` of terms."""
    if dataclasses.is_dataclass(value):
        fields = (f for f in dataclasses.fields(value) if f.repr)
        shown = ", ".join(f"{f.name}={dataclass_repr(getattr(value, f.name))}" for f in fields)
        return f"{type(value).__qualname__}({shown})"
    if type(value) is tuple:
        shown = ", ".join(map(dataclass_repr, value))
        return f"({shown},)" if len(value) == 1 else f"({shown})"
    return repr(value)


def simplify(lang, constraint: Constraint):
    """``simplify_all`` of one constraint, with fresh names avoiding its
    metavariables."""
    supply = FreshSupply.avoiding(metas_of(constraint.lhs) | metas_of(constraint.rhs))
    return simplify_all(lang, [constraint], MetaSubstitution(), SearchConfig(), supply)


def solve_checked(
    lang,
    constraints: list[Constraint],
    cfg: SearchConfig = SearchConfig(),
) -> Solution:
    """Unify and assert soundness-by-reapplication on the result."""
    solution = unify(lang, MetaSubstitution(), constraints, cfg)
    assert verify_solution(lang, constraints, solution, cfg), (
        f"reapplied solution does not simplify away: {solution}"
    )
    return solution
