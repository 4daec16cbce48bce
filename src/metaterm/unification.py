"""Higher-order preunification.

Constraints are simplified by reduction, structural guesses for applied
metavariables, and node matching.  What remains is solved by one
backtracking search over Huet's tree, whose nodes are choice points.  A
flex-rigid constraint in the pattern fragment (Miller 1991) is a node with
one branch, its inversion: its flex side applies a metavariable to
distinct universally bound variables, its rigid side does not mention that
metavariable, and every other universally bound variable of the rigid
side is a bare argument of another metavariable where no instance could
erase it.  Inversion gives the most general solution: each parameter
becomes its hole, and each metavariable holding an out-of-scope argument
is pruned to a fresh one without it.  When no constraint inverts, the
first flex-rigid one branches over candidate substitutions (projections,
imitation of the rigid head, shape skeletons).  Guesses and shapes come
from the language's reduction rules: a metavariable in an eliminator's
principal slot is guessed to be the rule's ``intro`` node, and a shape is
an eliminator with its head in that slot.  Flex-flex constraints are
returned unsolved.  The procedure is semi-decidable: a fuel budget, one
unit per branch taken, inversions included, turns non-termination into an
explicit "undetermined" outcome, distinct from definite failure
(:class:`UnificationFailed`).  Every exhausted budget, the reducer's head
steps included, raises :class:`Undetermined` (re-exported from
:mod:`metaterm.reduction`) unchanged; a branch back at a variant of a
candidate point (loop checking, Bol, Apt & Klop 1991) raises it at once.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from operator import length_hint
from typing import Iterable, Iterator

from .metavar import (
    ConflictingEntry,
    FreshSupply,
    MetaAbs,
    MetaSubstitution,
    _add_entries,
    apply_substs,
    extend_substs,
    metas_of,
)
from .reduction import DEFAULT_REDUCE_FUEL, Undetermined, reduce
from .signature import Signature, SlotKind, zip_match
from .terms import Bound, Free, Hole, MetaApp, Op, Term, rebuild, subterms


class UnificationFailed(Exception):
    """Definite failure: some branch of the problem is unsatisfiable."""


class Clash(UnificationFailed):
    """Two rigid heads that cannot match."""

    def __init__(self, constraint: "Constraint"):
        super().__init__(constraint)
        self.constraint = constraint

    def __str__(self) -> str:  # on demand: the search raises many, shows few
        return f"rigid heads clash in {self.constraint}"


@dataclass(frozen=True)
class Constraint:
    """Equation between two terms under ``binders`` universal binders.

    Both sides are well-scoped at depth ``binders``; solutions must not
    mention the universally bound variables.  ``binder_names`` are display
    names, outermost first, that ``==`` ignores; the printer names a binder
    past them ``x<k>``, the first ``k > i`` that clashes with no other name.
    """

    lhs: Term
    rhs: Term
    binders: int = 0
    binder_names: tuple[str, ...] = field(default=(), compare=False)

    def __repr__(self) -> str:  # the text of str(Clash) and str(UnificationFailure)
        q = f"forall^{self.binders}. " if self.binders else ""
        return f"<{q}{self.lhs} =?= {self.rhs}>"


class ConstraintClass(Enum):
    FLEX_FLEX = "flex-flex"
    FLEX_RIGID = "flex-rigid"
    RIGID_RIGID = "rigid-rigid"


def classify(c: Constraint) -> ConstraintClass:
    lflex = isinstance(c.lhs, MetaApp)
    rflex = isinstance(c.rhs, MetaApp)
    if lflex and rflex:
        return ConstraintClass.FLEX_FLEX
    if lflex or rflex:
        return ConstraintClass.FLEX_RIGID
    return ConstraintClass.RIGID_RIGID


@dataclass(frozen=True)
class SearchConfig:
    """Termination control for the semi-decidable search.

    ``fuel`` bounds the options tried at choice points (a candidate, or a
    pattern's inversion: one unit each), ``guess_fuel`` the
    guess-then-reduce iterations per simplification, ``reduce_fuel`` the
    head steps per reduction.
    """

    fuel: int = 1000
    guess_fuel: int = 100
    reduce_fuel: int = DEFAULT_REDUCE_FUEL

    def __post_init__(self) -> None:
        if min(self.fuel, self.guess_fuel, self.reduce_fuel) <= 0:
            raise ValueError("all search budgets must be positive")


@dataclass(frozen=True)
class Solution:
    """Accumulated substitution plus unsolved flex-flex constraints."""

    substs: MetaSubstitution
    residual: tuple[Constraint, ...] = ()


def head_of(lang, term: Term) -> Term:
    """Descend through the principal slots of the language's shapes."""
    while type(term) is Op and term.tag in lang.shapes:
        term = term.children[lang.reducer[term.tag].principal]
    return term


# ---------------------------------------------------------------------------
# Simplification


def _skeleton(
    sig: Signature,
    tag: str,
    arity: int,
    supply: FreshSupply,
    head_slot: int | None = None,
    head: Term | None = None,
) -> MetaAbs:
    """One ``tag`` node over ``arity`` holes: ``head`` in slot
    ``head_slot``, a fresh metavariable application in every other slot
    (with the slot's binder as an extra first argument in scope slots)."""
    holes = tuple(Hole(i) for i in range(arity))
    children: list[Term | None] = []
    for i, kind in enumerate(sig.operators[tag].slots):
        if i == head_slot:
            children.append(head)
        elif kind is SlotKind.OPT_TERM:
            children.append(None)
        elif kind is SlotKind.SCOPE:
            children.append(MetaApp(supply.fresh(), (Bound(0), *holes)))
        else:
            children.append(MetaApp(supply.fresh(), holes))
    ann = MetaApp(supply.fresh(), holes) if sig.typed else None
    return MetaAbs(arity, Op(tag, tuple(children), ann))


def _collect_guesses(lang, term: Term, supply: FreshSupply, out: dict[str, MetaAbs]) -> None:
    """Record a guess substitution for every applied metavariable sitting in
    the principal slot of an eliminator: a skeleton of the node its rule
    contracts against (the rule's ``intro``)."""
    for t, _, parent, slot in subterms(term):
        if type(t) is MetaApp and t.meta not in out and type(parent) is Op:
            rule = lang.reducer.get(parent.tag)
            if rule is not None and rule.principal == slot:
                out[t.meta] = _skeleton(lang.signature, rule.intro, len(t.args), supply)


def simplify_all(
    lang,
    constraints: Iterable[Constraint],
    substs: MetaSubstitution,
    cfg: SearchConfig,
    supply: FreshSupply,
) -> tuple[list[Constraint], MetaSubstitution]:
    """Reduce, guess, and decompose until only flex-* constraints remain,
    each one once.

    Raises :class:`Clash` on a rigid-rigid mismatch and
    :class:`Undetermined` when the guess or head-step budget runs out.
    """
    sig = lang.signature
    # Each constraint with the substitution its sides were read under, if any.
    queue: deque[tuple[Constraint, MetaSubstitution | None]]
    queue = deque((c, None) for c in constraints)
    done: list[Constraint] = []
    guess_budget = cfg.guess_fuel

    while queue:
        c, read = queue.popleft()
        # A side read under substs mentions no key; unless it reduces, its
        # parent's scan for guesses covered it.
        lhs = c.lhs if read is substs else apply_substs(sig, substs, c.lhs)
        lhs = reduce(sig, lhs, lang.reducer, cfg.reduce_fuel)
        rhs = c.rhs if read is substs else apply_substs(sig, substs, c.rhs)
        rhs = reduce(sig, rhs, lang.reducer, cfg.reduce_fuel)

        guesses: dict[str, MetaAbs] = {}
        if read is not substs or lhs is not c.lhs:
            _collect_guesses(lang, lhs, supply, guesses)
        if read is not substs or rhs is not c.rhs:
            _collect_guesses(lang, rhs, supply, guesses)
        if guesses:
            guess_budget -= 1
            if guess_budget < 0:
                raise Undetermined("guess budget exhausted during simplification")
            substs = extend_substs(sig, substs, MetaSubstitution(guesses))
            # Everything already simplified may mention the guessed metas.
            queue.appendleft((Constraint(lhs, rhs, c.binders, c.binder_names), None))
            queue.extend((d, None) for d in done)
            done.clear()
            continue

        if lhs == rhs:
            continue
        c = Constraint(lhs, rhs, c.binders, c.binder_names)
        if isinstance(lhs, MetaApp) or isinstance(rhs, MetaApp):
            if isinstance(rhs, MetaApp) and not isinstance(lhs, MetaApp):
                c = Constraint(rhs, lhs, c.binders, c.binder_names)
            if c not in done:  # by ==: terms are never hashed
                done.append(c)
            continue
        if not (isinstance(lhs, Op) and isinstance(rhs, Op)):
            raise Clash(c)  # distinct variables, or variable vs node
        matched = zip_match(sig, lhs, rhs)
        if matched is None:
            raise Clash(c)
        _, slots = matched
        for kind, lc, rc in slots:
            child = Constraint(lc, rc, c.binders + (kind is SlotKind.SCOPE), c.binder_names)
            queue.append((child, substs))

    return done, substs


# ---------------------------------------------------------------------------
# Pattern constraints: inversion and pruning


def invert(lang, c: Constraint, supply: FreshSupply) -> MetaSubstitution | None:
    """The most general solution of a flex-rigid pattern constraint, or
    ``None`` when ``c`` (flex side first) is outside the pattern fragment.

    The flex side's arguments must be distinct universally bound
    variables, and the rigid side must not mention the flex metavariable.
    The solution's body is the rigid side with each of those variables
    replaced by its parameter's hole.  Any other universally bound variable
    may occur only as a bare argument of another metavariable application
    whose arguments are all variables and which sits in no metavariable's
    argument and, when the rigid side has a redex, in no redex: then no
    instance of the rigid side can erase it.  That metavariable gets an
    entry to a fresh one from ``supply`` with the argument dropped
    (pruning).  Anything else leaves the constraint to the candidate search.
    """
    flex = c.lhs
    assert isinstance(flex, MetaApp)
    position = {a.index: j for j, a in enumerate(flex.args) if type(a) is Bound}
    if len(position) != len(flex.args):
        return None
    sig = lang.signature
    dropped: dict[str, tuple[int, set[int]]] = {}  # meta -> (arity, positions)
    flexible: set[int] = set()  # ids of nodes inside a metavariable's arguments
    redex = False
    for t, d, parent, slot in subterms(c.rhs, sig):
        if type(parent) is MetaApp or id(parent) in flexible:
            flexible.add(id(t))
        if type(t) is MetaApp and t.meta == flex.meta:
            return None
        if type(t) is Op:
            redex = redex or _may_contract(lang, t)
        elif type(t) is Bound and t.index >= d and t.index - d not in position:
            if (
                type(parent) is not MetaApp
                or id(parent) in flexible
                or not all(isinstance(a, (Bound, Free)) for a in parent.args)
            ):
                return None
            dropped.setdefault(parent.meta, (len(parent.args), set()))[1].add(slot)
    if dropped and redex:
        return None

    pruned = MetaSubstitution({
        meta: MetaAbs(n, MetaApp(supply.fresh(), tuple(Hole(i) for i in range(n) if i not in out)))
        for meta, (n, out) in dropped.items()
    })

    def var(t: Term, d: int) -> Term:
        return Hole(position[t.index - d]) if type(t) is Bound and t.index >= d else t

    body = rebuild(apply_substs(sig, pruned, c.rhs), var, sig=sig)
    return MetaSubstitution({**pruned.entries, flex.meta: MetaAbs(len(flex.args), body)})


def _may_contract(lang, node: Op) -> bool:
    """Is ``node`` a redex: an eliminator over its rule's ``intro``?"""
    rule = lang.reducer.get(node.tag)
    if rule is None:
        return False
    head = node.children[rule.principal]
    return type(head) is Op and head.tag == rule.intro


# ---------------------------------------------------------------------------
# Candidate generation for flex-rigid constraints

#: Nesting of shape skeletons in candidate generation (keeps each candidate
#: stream finite).
SHAPE_DEPTH = 3


def _imitation(lang, c: Constraint, supply: FreshSupply) -> MetaAbs | None:
    """Copy of the rigid head with universally bound variables replaced by
    fresh metavariable applications over the flex side's parameters.

    Pruned when the head *is* a universally bound variable (the copy would
    be a bare fresh metavariable: a renaming of the same problem) and when
    the copy would mention the metavariable being solved (direct cycle).
    """
    flex = c.lhs
    assert isinstance(flex, MetaApp)
    n = len(flex.args)
    holes = tuple(Hole(i) for i in range(n))
    head = head_of(lang, c.rhs)
    if isinstance(head, Bound):
        return None
    replacements: dict[int, MetaApp] = {}

    def var(t: Term, d: int) -> Term:
        if type(t) is not Bound or t.index < d:
            return t
        forall_index = t.index - d
        if forall_index not in replacements:
            replacements[forall_index] = MetaApp(supply.fresh(), holes)
        return replacements[forall_index]

    imitation = MetaAbs(n, rebuild(head, var, sig=lang.signature))
    return None if flex.meta in imitation.metas else imitation


def candidates(lang, c: Constraint, supply: FreshSupply) -> Iterator[MetaAbs]:
    """Ordered candidate solutions for a flex-rigid constraint outside the
    pattern fragment (a pattern's only option is :func:`invert`).

    Order: projections onto the metavariable's parameters, shape skeletons
    over those projections, imitation of the rigid head, then progressively
    deeper shape skeletons (finite: nesting is bounded by :data:`SHAPE_DEPTH`).
    Imitation is tried only after projection-filled shapes so that solutions
    that actually use the parameters are preferred over constant ones.
    """
    sig = lang.signature
    flex = c.lhs
    assert isinstance(flex, MetaApp)
    n = len(flex.args)

    projections = [MetaAbs(n, Hole(j)) for j in range(n)]

    def shaped(tag: str, inner: MetaAbs) -> MetaAbs:
        return _skeleton(sig, tag, n, supply, lang.reducer[tag].principal, inner.body)

    yield from projections

    for shape in lang.shapes:
        for inner in projections:
            yield shaped(shape, inner)

    imitation = _imitation(lang, c, supply)
    level: list[MetaAbs] = list(projections)
    if imitation is not None:
        yield imitation
        for shape in lang.shapes:
            yield shaped(shape, imitation)
        level.append(imitation)

    for depth in range(SHAPE_DEPTH):
        level = [shaped(shape, inner) for shape in lang.shapes for inner in level]
        if depth:
            yield from level


# ---------------------------------------------------------------------------
# The main loop


@dataclass
class _ChoicePoint:
    size: int  # how many entries the path held when the point was opened
    height: int  # how many variant keys the branch held, the point's own included
    constraints: list[Constraint]
    meta: str
    options: Iterator[MetaAbs | MetaSubstitution]


def _options(lang, flex_rigid: list[Constraint], supply: FreshSupply):
    """The metavariable a choice point solves, its options, and whether they are candidates."""
    for c in flex_rigid:
        if (solved := invert(lang, c, supply)) is not None:
            return c.lhs.meta, iter((solved,)), False
    return flex_rigid[0].lhs.meta, candidates(lang, flex_rigid[0], supply), True


def _variant_key(constraints: list[Constraint]) -> tuple:
    """``constraints`` up to a renaming of metavariables, as one flat tuple:
    per constraint its binders, then both sides in pre-order, each node as
    its head (tag, or metavariable numbered by first occurrence) and child
    count before its children (an operator's annotation last, ``None`` when
    absent).  A node met again by identity copies its first encoding."""
    key: list = []
    rank: dict[str, int] = {}  # metavariable -> its number by first occurrence
    spans: dict[int, slice] = {}  # id of a node walked -> its encoding in key
    for c in constraints:
        key.append(c.binders)
        todo: list = [c.rhs, c.lhs]
        while todo:
            t = todo.pop()
            if type(t) is tuple:  # the end of a node's encoding
                spans[id(t[0])] = slice(t[1], len(key))
            elif type(t) is not Op and type(t) is not MetaApp:
                key.append(t)  # a leaf, or None: its dataclass hash and == are flat
            elif id(t) in spans:
                key += key[spans[id(t)]]
            else:
                kids = (*t.children, t.ann) if type(t) is Op else t.args
                todo += ((t, len(key)), *reversed(kids))
                key += (t.tag if type(t) is Op else rank.setdefault(t.meta, len(rank)), len(kids))
    return tuple(key)


def _supply_avoiding(substs: MetaSubstitution, constraints: Iterable[Constraint]) -> FreshSupply:
    """Fresh names avoiding every metavariable of the problem."""
    metas = (metas_of(c.lhs) | metas_of(c.rhs) for c in constraints)
    return FreshSupply.avoiding(set(substs.entries).union(*metas))


def unify(
    lang,
    substs: MetaSubstitution,
    constraints: Iterable[Constraint],
    cfg: SearchConfig = SearchConfig(),
    supply: FreshSupply | None = None,
) -> Solution:
    """Preunify: solve flex-rigid constraints, return flex-flex residual.

    Each round simplifies, then opens a choice point: the first pattern
    constraint's only option is its inversion, else the options are the
    first flex-rigid constraint's candidates; each option tried costs one
    unit of ``cfg.fuel``.  Raises :class:`UnificationFailed` when every
    branch clashes and :class:`Undetermined` when a budget runs out first.
    The current branch's entries live in one insertion-ordered dict, the
    path, used as a trail.  It is copied from ``substs`` once, grown in
    place by options and guesses, and popped back to a choice point's
    length when that point's next option is taken.  Each round reads it
    through a fresh view.  At the end the entries of ``substs`` come back
    as given, the entries added after them are resolved in place (mention
    no metavariable with an entry), and the path is the solution's
    substitution.  A second trail keeps the variant keys of the branch's
    candidate points: below a point all depends only on its constraints up
    to renaming, so meeting a key again raises the candidate budget's
    :class:`Undetermined` at once.
    """
    cs, s = list(constraints), substs
    path = dict(substs.entries)
    keys: dict[tuple, int] = {}  # the candidate points' variant keys, as a trail
    supply = supply or _supply_avoiding(s, cs)
    attempts = 0
    stack: list[_ChoicePoint] = []

    while True:
        clash = None
        try:
            cs, guessed = simplify_all(lang, cs, s, cfg, supply)
        except Clash as exc:
            clash = exc
        if clash is None:
            if guessed is not s:  # the path's entries, then the guesses
                s = guessed
                path.update(s.entries)
            flex_rigid = [c for c in cs if classify(c) is ConstraintClass.FLEX_RIGID]
            if not flex_rigid:  # every add appends; no pop goes below the caller's entries
                for name, entry in islice(path.items(), len(substs.entries), None):
                    if not path.keys().isdisjoint(entry.metas):
                        body = apply_substs(lang.signature, s, entry.body)
                        path[name] = MetaAbs(entry.arity, body)
                return Solution(MetaSubstitution._trusted(path), tuple(cs))
            meta, options, branching = _options(lang, flex_rigid, supply)
            if branching:
                n = len(keys)
                if keys.setdefault(_variant_key(cs), n) != n:  # back at a renamed ancestor
                    raise Undetermined(f"candidate budget ({cfg.fuel}) exhausted")
            stack.append(_ChoicePoint(len(path), len(keys), cs, meta, options))

        # Take the next untried option, backtracking as needed.
        while True:
            if not stack:
                raise clash or UnificationFailed("all candidates exhausted")
            point = stack[-1]
            option = next(point.options, None)
            if option is None:
                stack.pop()
                if clash is None:
                    clash = UnificationFailed(f"no candidate solves ?{point.meta}")
                continue
            if not length_hint(point.options, 1):
                stack.pop()  # its last option: nothing to come back to
            attempts += 1
            if attempts > cfg.fuel:
                raise Undetermined(f"candidate budget ({cfg.fuel}) exhausted")
            if type(option) is MetaAbs:  # a candidate for the point's metavariable
                option = MetaSubstitution({point.meta: option})
            while len(path) > point.size:
                path.popitem()
            while len(keys) > point.height:
                keys.popitem()
            try:
                _add_entries(lang.signature, path, option)
            except ConflictingEntry:
                continue
            s, cs = MetaSubstitution._trusted(path), point.constraints
            break


def verify_solution(
    lang,
    original: Iterable[Constraint],
    solution: Solution,
    cfg: SearchConfig = SearchConfig(),
) -> bool:
    """Soundness re-check: applying the substitution to the original
    constraints must re-simplify to flex-flex (or nothing)."""
    supply = _supply_avoiding(solution.substs, original)
    residual, _ = simplify_all(lang, original, solution.substs, cfg, supply)
    return all(classify(c) is ConstraintClass.FLEX_FLEX for c in residual)
