"""Metavariable abstractions, simultaneous substitution, fresh-name supply."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping

from .signature import Signature
from .terms import Hole, MetaApp, Term, instantiate_many, rebuild, subterms


class ArityMismatch(Exception):
    """Metavariable applied to the wrong number of arguments."""


class ConflictingEntry(Exception):
    """Two substitutions assign different bodies to the same metavariable."""


@dataclass(frozen=True)
class MetaAbs:
    """A metavariable's value: a body with ``arity`` numbered holes."""

    arity: int
    body: Term

    def __post_init__(self) -> None:
        if _max_hole(self.body) >= self.arity:
            raise ArityMismatch(
                f"body uses hole {_max_hole(self.body)} but arity is {self.arity}"
            )


def _max_hole(term: Term | None) -> int:
    return max((t.index for t, _, _, _ in subterms(term) if type(t) is Hole), default=-1)


@dataclass(frozen=True)
class MetaSubstitution:
    """Simultaneous map from metavariable names to abstractions.

    Entries never mention their own metavariable (direct-cycle guard).
    """

    entries: Mapping[str, MetaAbs] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        for name, abs_ in self.entries.items():
            if name in metas_of(abs_.body):
                raise ConflictingEntry(f"substitution for {name} mentions itself")

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def get(self, name: str) -> MetaAbs | None:
        return self.entries.get(name)


EMPTY_SUBSTS = MetaSubstitution()


def apply_substs(sig: Signature, substs: MetaSubstitution, term: Term) -> Term:
    """Replace every applied metavariable that has an entry, recursively.

    Entry bodies may themselves mention later-solved metavariables; those
    are resolved on the way (entries form an acyclic chain by construction,
    see :func:`extend_substs`).  A metavariable without an entry keeps its
    (substituted) arguments.
    """
    if not substs:
        return term

    def resolve(t: Term) -> Term:
        while type(t) is MetaApp:
            entry = substs.get(t.meta)
            if entry is None:
                break
            if entry.arity != len(t.args):
                raise ArityMismatch(
                    f"{t.meta} applied to {len(t.args)} arguments, entry has arity {entry.arity}"
                )
            t = instantiate_many(sig, t.args, entry.body)
        return t

    return rebuild(term, enter=resolve)


def extend_substs(
    sig: Signature, substs: MetaSubstitution, new: MetaSubstitution
) -> MetaSubstitution:
    """Compose: applying the result equals applying ``substs`` then ``new``.

    Old bodies referring to metavariables that ``new`` solves are resolved
    lazily by :func:`apply_substs`; new bodies referring to old keys are
    rewritten here, keeping every extension cheap and the chain acyclic.
    """
    merged = dict(substs.entries)
    for name, abs_ in new.entries.items():
        rewritten = MetaAbs(abs_.arity, apply_substs(sig, substs, abs_.body))
        if name in merged:
            if merged[name] != rewritten:
                raise ConflictingEntry(f"conflicting entries for {name}")
            continue
        merged[name] = rewritten
    return MetaSubstitution(merged)


def metas_of(term: Term | None) -> set[str]:
    """Names of all metavariable applications occurring in the term."""
    return {t.meta for t, _, _, _ in subterms(term) if type(t) is MetaApp}


@dataclass
class FreshSupply:
    """Monotone supply of never-before-issued metavariable names."""

    counter: int = 0
    taken: set[str] = field(default_factory=set)
    prefix: str = "m"

    def fresh(self) -> str:
        while True:
            self.counter += 1
            name = f"{self.prefix}{self.counter}"
            if name not in self.taken:
                self.taken.add(name)
                return name

    @classmethod
    def avoiding(cls, names: Iterable[str]) -> "FreshSupply":
        return cls(taken=set(names))
