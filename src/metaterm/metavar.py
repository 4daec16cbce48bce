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
    """Two substitutions assign different bodies to the same metavariable,
    or an entry mentions its own metavariable, directly or through others."""


_NO_METAS: frozenset[str] = frozenset()  # shared by every body without metavariables


@dataclass(frozen=True)
class MetaAbs:
    """A metavariable's value: a body with ``arity`` numbered holes.

    ``metas`` names the metavariables the body mentions.  It is recorded
    in the walk that checks the holes, so validating a substitution walks
    no body.
    """

    arity: int
    body: Term
    metas: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        metas: set[str] = set()
        for t, _, _, _ in subterms(self.body):
            if type(t) is MetaApp:
                metas.add(t.meta)
            elif type(t) is Hole and t.index >= self.arity:
                raise ArityMismatch(
                    f"body uses hole {t.index} but arity is {self.arity}"
                )
        object.__setattr__(self, "metas", frozenset(metas) if metas else _NO_METAS)


@dataclass(frozen=True)
class MetaSubstitution:
    """Simultaneous map from metavariable names to abstractions.

    The substitution is triangular: a body may mention metavariables that
    have entries of their own, and :func:`apply_substs` follows such chains
    when it reads a term.  The chains never close: building a substitution
    raises :class:`ConflictingEntry` when an entry reaches its own
    metavariable, directly or through other entries.

    It owns the identity memo that every :func:`apply_substs` reads through,
    keyed by the signature's ``binder_shifts`` and kept outside the fields.
    """

    entries: Mapping[str, MetaAbs] = field(default_factory=dict)
    _memo = (None, None)  # not a field: (key, memo) for apply_substs

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", MappingProxyType(dict(self.entries)))
        _check_acyclic(self.entries, self.entries)

    @classmethod
    def _trusted(cls, entries: dict[str, MetaAbs]) -> "MetaSubstitution":
        """Wrap ``entries`` already known to be acyclic, validating nothing."""
        substs = object.__new__(cls)
        object.__setattr__(substs, "entries", MappingProxyType(entries))
        return substs

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def get(self, name: str) -> MetaAbs | None:
        return self.entries.get(name)


def _check_acyclic(entries: Mapping[str, MetaAbs], start: Iterable[str]) -> None:
    """Raise :class:`ConflictingEntry` when a chain of ``entries`` leads from
    a name in ``start`` back to itself.  Reads the recorded ``metas`` sets
    only; no body is walked."""
    done: set[str] = set()
    for root in start:
        if root in done:
            continue
        path = {root}  # names on the current depth-first path
        todo = [(root, iter(entries[root].metas))]
        while todo:
            name, successors = todo[-1]
            for nxt in successors:
                if nxt in path:
                    raise ConflictingEntry(f"substitution for {nxt} mentions itself")
                if nxt in entries and nxt not in done:
                    path.add(nxt)
                    todo.append((nxt, iter(entries[nxt].metas)))
                    break
            else:
                todo.pop()
                path.discard(name)
                done.add(name)


EMPTY_SUBSTS = MetaSubstitution()


def apply_substs(sig: Signature, substs: MetaSubstitution, term: Term) -> Term:
    """Replace every applied metavariable that has an entry, recursively.

    Entry bodies may mention metavariables that have entries too; those are
    resolved on the way, so the result mentions no key of ``substs`` (the
    chains end: substitutions are acyclic).  A metavariable without an
    entry keeps its (substituted) arguments.  The walk reads through the
    memo of ``substs``: a node shared in a term or between calls is applied once.
    """
    if not substs:
        return term
    if substs._memo[0] is not sig.binder_shifts:
        object.__setattr__(substs, "_memo", (sig.binder_shifts, {}))

    def resolve(t: Term) -> Term:
        while type(t) is MetaApp:
            entry = substs.get(t.meta)
            if entry is None:
                break
            if entry.arity != len(t.args):
                raise ArityMismatch(
                    f"{t.meta} applied to {len(t.args)} arguments, entry has arity {entry.arity}"
                )
            t = instantiate_many(sig, t.args, entry.body) if t.args else entry.body
        return t

    return rebuild(term, enter=resolve, memo=substs._memo[1])


def extend_substs(
    sig: Signature, substs: MetaSubstitution, new: MetaSubstitution
) -> MetaSubstitution:
    """Compose: applying the result equals applying ``substs`` then ``new``.

    Old bodies referring to metavariables that ``new`` solves are resolved
    lazily by :func:`apply_substs`; new bodies referring to old keys are
    rewritten here.  Only the added entries are validated: a rewritten body
    mentions no old key, so a cycle can only run through added entries.
    """
    merged = dict(substs.entries)
    _add_entries(sig, merged, new)
    return MetaSubstitution._trusted(merged)


def _add_entries(sig: Signature, entries: dict[str, MetaAbs], new: MetaSubstitution) -> None:
    """Add ``new`` to the acyclic ``entries`` in place, as :func:`extend_substs`
    composes.  A conflict raises :class:`ConflictingEntry` before anything is
    added, a cycle after."""
    current = MetaSubstitution._trusted(entries)  # read only before the update
    added: dict[str, MetaAbs] = {}
    for name, abs_ in new.entries.items():
        if not entries.keys().isdisjoint(abs_.metas):
            abs_ = MetaAbs(abs_.arity, apply_substs(sig, current, abs_.body))
        if name not in entries:
            added[name] = abs_
        elif entries[name] != abs_:
            raise ConflictingEntry(f"conflicting entries for {name}")
    entries.update(added)
    _check_acyclic(added, added)


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
