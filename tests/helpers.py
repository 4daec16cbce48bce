"""Shared test utilities: minimal language stubs and checked solving."""

from __future__ import annotations

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
