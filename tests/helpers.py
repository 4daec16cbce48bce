"""Shared test utilities: minimal language stubs and checked solving."""

from __future__ import annotations

import dataclasses
from operator import length_hint
from types import SimpleNamespace

from metaterm.metavar import (
    ConflictingEntry,
    FreshSupply,
    MetaAbs,
    MetaSubstitution,
    apply_substs,
    extend_substs,
    metas_of,
)
from metaterm.reduction import Undetermined
from metaterm.unification import (
    Clash,
    Constraint,
    ConstraintClass,
    SearchConfig,
    Solution,
    UnificationFailed,
    _options,
    _supply_avoiding,
    classify,
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


def copying_unify(lang, substs, constraints, cfg=SearchConfig(), supply=None) -> Solution:
    """``unify`` with a full copy of the substitution at every choice point
    (``extend_substs`` per option taken), no trail, no variant check, and
    the added entries resolved on a copy: the reference for the trail's
    backtracking, for the check's outcomes and for the in-place resolution."""
    cs, s = list(constraints), substs
    supply = supply or _supply_avoiding(s, cs)
    attempts = 0
    stack: list[tuple] = []  # (substs, constraints, meta, options)

    while True:
        clash = None
        try:
            cs, s = simplify_all(lang, cs, s, cfg, supply)
        except Clash as exc:
            clash = exc
        if clash is None:
            flex_rigid = [c for c in cs if classify(c) is ConstraintClass.FLEX_RIGID]
            if not flex_rigid:  # resolve the added entries on a copy
                entries = dict(s.entries)
                for name, entry in s.entries.items():
                    if name not in substs and not entries.keys().isdisjoint(entry.metas):
                        body = apply_substs(lang.signature, s, entry.body)
                        entries[name] = MetaAbs(entry.arity, body)
                return Solution(MetaSubstitution._trusted(entries), tuple(cs))
            stack.append((s, cs, *_options(lang, flex_rigid, supply)[:2]))

        while True:
            if not stack:
                raise clash or UnificationFailed("all candidates exhausted")
            point_substs, point_cs, meta, options = stack[-1]
            option = next(options, None)
            if option is None:
                stack.pop()
                if clash is None:
                    clash = UnificationFailed(f"no candidate solves ?{meta}")
                continue
            if not length_hint(options, 1):
                stack.pop()
            attempts += 1
            if attempts > cfg.fuel:
                raise Undetermined(f"candidate budget ({cfg.fuel}) exhausted")
            if type(option) is MetaAbs:
                option = MetaSubstitution({meta: option})
            try:
                s = extend_substs(lang.signature, point_substs, option)
            except ConflictingEntry:
                continue
            cs = point_cs
            break
