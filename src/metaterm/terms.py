"""Scoped term trees with de Bruijn indices and capture-avoiding substitution.

Terms are immutable values. Binding is positional: a scope slot introduces
exactly one bound variable, referenced by ``Bound(0)`` from the innermost
binder. ``Hole`` indices are the numbered parameters of metavariable
abstraction bodies and are only legal there.

Operator nodes and metavariable applications cache their loose range
(:func:`loose`), keyed by the signature's ``binder_shifts`` table, outside
the dataclass fields: ``==``, hashing and ``repr`` never see it.  Weakening,
strengthening and reading back from an environment (:func:`close`, of which
instantiation is the one-closure case) compute it first and skip closed
subterms.  Their ``repr`` is the dataclass text, written on an explicit
stack as ``==`` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from operator import is_
from typing import Callable, Generator, Iterator, Mapping, Sequence, Union

from .signature import Signature, SlotKind


@dataclass(frozen=True)
class Bound:
    """De Bruijn index, counted from the innermost enclosing binder."""

    index: int


@dataclass(frozen=True)
class Free:
    """Named free variable."""

    name: str


@dataclass(frozen=True)
class Hole:
    """Numbered parameter inside a metavariable abstraction body."""

    index: int


@dataclass(frozen=True)
class MetaApp:
    """Parametrized metavariable applied to an explicit argument list."""

    meta: str
    args: tuple["Term", ...] = ()
    _loose, _scopes = 0, None  # not fields: the cached loose range and its key

    def __eq__(self, other: object) -> bool:
        return _equal(self, other) if type(other) is MetaApp else NotImplemented

    def __repr__(self) -> str:
        return _repr(self)


@dataclass(frozen=True)
class Op:
    """Operator node of some signature.

    ``children`` follow the operator's declared slots; an optional-term slot
    may hold ``None``.  ``ann`` carries the node's type annotation in typed
    signatures and is ``None`` in untyped ones.
    """

    tag: str
    children: tuple["Term | None", ...] = ()
    ann: "Term | None" = None
    _loose, _scopes = 0, None  # not fields: the cached loose range and its key

    def __eq__(self, other: object) -> bool:
        return _equal(self, other) if type(other) is Op else NotImplemented

    def __repr__(self) -> str:
        return _repr(self)


Term = Union[Bound, Free, Hole, MetaApp, Op]


class MissingAssignment(Exception):
    """A hole index has no assigned argument (metavariable arity breach)."""


def run(step: Generator):
    """Run a generator-written recursion with an explicit stack.

    A step yields the generator of a sub-step and is resumed with its
    result, so ``(yield sub)`` reads like a call but nests no Python call.
    An exception escaping a sub-step is raised at the ``yield`` of the step
    that yielded it, so ``with`` and ``try`` blocks unwind innermost first.
    """
    stack = [step]
    value = error = None
    while True:
        try:
            sub = stack[-1].send(value) if error is None else stack[-1].throw(error)
        except StopIteration as done:
            value, error = done.value, None
        except Exception as exc:
            value, error = None, exc
        else:
            stack.append(sub)
            value = error = None
            continue
        stack.pop()
        if not stack:
            if error is not None:
                raise error
            return value


def _equal(a: Term, b: Term) -> bool:
    """Structural equality on an explicit stack; identical subterms are
    equal without a look inside.  ``__hash__`` stays the dataclass one: it
    agrees with this, but recurses, and the library hashes no term."""
    todo = [(a, b)]
    while todo:
        x, y = todo.pop()
        if x is y:
            continue
        if type(x) is Op is type(y) and x.tag == y.tag and len(x.children) == len(y.children):
            todo.append((x.ann, y.ann))
            todo.extend(zip(x.children, y.children))
        elif type(x) is MetaApp is type(y) and x.meta == y.meta and len(x.args) == len(y.args):
            todo.extend(zip(x.args, y.args))
        elif type(x) is Op or type(x) is MetaApp or x != y:  # x != y: two leaves
            return False
    return True


def _repr(term: Term) -> str:
    """The dataclass ``repr`` of ``term``, on an explicit stack of pending
    text and of the nodes whose text comes next."""

    def part(t: object) -> object:  # a node is spelled out when popped
        return t if type(t) is Op or type(t) is MetaApp else repr(t)

    out, todo = [], [term]
    while todo:
        t = todo.pop()
        if type(t) is str:
            out.append(t)
            continue
        if type(t) is Op:
            out.append(f"Op(tag={t.tag!r}, children=(")
            items = t.children
            todo += (")", part(t.ann), ", ann=")
        else:
            out.append(f"MetaApp(meta={t.meta!r}, args=(")
            items = t.args
            todo.append(")")
        todo.append(",)" if len(items) == 1 else ")")
        for i in range(len(items) - 1, -1, -1):
            todo.append(part(items[i]))
            if i:
                todo.append(", ")
    return "".join(out)


# Every operation below is one of two walks, each driven by an explicit
# stack, so term depth never meets Python's recursion limit.  Both track
# binder depth the same way: a child sits at its node's depth plus one per
# scope slot (``Signature.binder_shifts``); without a signature the depth
# stays fixed.  Both visit in pre-order: a node before its children,
# children left to right, the annotation last.


def subterms(
    term: Term, sig: Signature | None = None, depth: int = 0
) -> Iterator[tuple[Term, int, Term | None, int]]:
    """Every subterm as ``(node, depth, parent, slot)``, in pre-order.

    ``slot`` is the node's position in ``parent`` (the annotation is slot
    ``len(children)``); the root has parent ``None``.  Absent optional
    children are skipped.  A node's children are looked at only when the
    next item is requested, so a consumer may stop at a malformed node.
    """
    shifts = None if sig is None else sig.binder_shifts
    todo = [(term, depth, None, 0)]
    pop, push = todo.pop, todo.append
    while todo:
        item = pop()
        yield item
        t, d = item[0], item[1]
        if type(t) is Op:
            kids = t.children
            if t.ann is not None:
                push((t.ann, d, t, len(kids)))
            inc = None if shifts is None else shifts.get(t.tag)
            for i in range(len(kids) - 1, -1, -1):
                if kids[i] is not None:
                    push((kids[i], d if inc is None else d + inc[i], t, i))
        elif type(t) is MetaApp:
            args = t.args
            for i in range(len(args) - 1, -1, -1):
                push((args[i], d, t, i))


def rebuild(
    term: Term,
    var: Callable[[Term, int], Term] | None = None,
    *,
    sig: Signature | None = None,
    depth: int = 0,
    enter: Callable[[Term], Term] | None = None,
    post: Callable[[Op], Term] | None = None,
    memo: dict | None = None,
    skip_closed: bool = False,
) -> Term:
    """Map over a term, sharing every subterm that comes back unchanged.

    ``var(t, d)`` replaces each variable (``Bound``/``Free``/``Hole``) found
    at binder depth ``d``; the replacement is final.  ``enter(t)`` replaces
    each operator node and metavariable application before its children
    are visited; the replacement's children are visited in its place.
    ``post(node)`` rewrites each operator node once its children are
    rebuilt.  Hooks run in the pre-order of :func:`subterms`.

    ``memo`` maps nodes by identity to their results, so a shared subterm
    is mapped once and its result is shared: the walk is linear in distinct
    nodes.  Valid only without ``var`` and ``sig`` (a map that ignores
    depth); reusable across calls with the same hooks.  Entries are
    ``(node, result)``: holding the node keeps its ``id`` from being reused.

    ``skip_closed`` (with ``sig``) is the pruning hook: a node whose cached
    :func:`loose` range is at most its depth comes back unvisited (none is
    computed).  Valid when ``var`` keeps ``Free``, ``Hole``, ``Bound(k < d)``.
    """
    shifts = None if sig is None else sig.binder_shifts
    todo: list = [(term, depth)]  # (term, depth) to visit, a node to assemble, [node] to memoize
    done: list = []  # rebuilt parts, in visiting order
    pop, push, emit = todo.pop, todo.append, done.append
    hooked = enter is not None or memo is not None or skip_closed
    while todo:
        item = pop()
        if type(item) is not tuple:
            if type(item) is list:
                memo[id(item[0])] = (item[0], done[-1])
                continue
            t = item
            n = len(t.args) if type(t) is MetaApp else len(t.children)
            ann = done.pop() if type(t) is Op and t.ann is not None else None
            parts = done[len(done) - n :]
            del done[len(done) - n :]
            if type(t) is MetaApp:
                same = all(map(is_, parts, t.args))
                emit(t if same else MetaApp(t.meta, tuple(parts)))
                continue
            if ann is not t.ann or not all(map(is_, parts, t.children)):
                t = Op(t.tag, tuple(parts), ann)
            emit(t if post is None else post(t))
            continue
        t, d = item
        if hooked and (type(t) is Op or type(t) is MetaApp):
            if skip_closed and t._scopes is shifts and t._loose <= d:
                emit(t)
                continue
            if memo is not None:
                hit = memo.get(id(t))
                if hit is not None and hit[0] is t:
                    emit(hit[1])
                    continue
                push([t])
            if enter is not None:
                t = enter(t)
        if type(t) is Op:
            push(t)
            kids = t.children
            if t.ann is not None:
                push((t.ann, d))
            inc = None if shifts is None else shifts.get(t.tag)
            for i in range(len(kids) - 1, -1, -1):
                push((kids[i], d if inc is None else d + inc[i]))
        elif type(t) is MetaApp and t.args:
            push(t)
            for a in reversed(t.args):
                push((a, d))
        else:
            emit(t if var is None or t is None else var(t, d))
    return done[0]


def loose(sig: Signature, term: Term | None) -> int:
    """1 + the largest loose ``Bound`` index of ``term``, 0 if it is closed.
    A post-order walk caches it on each node that lacks it under ``sig``."""
    if type(term) is not Op and type(term) is not MetaApp:
        return term.index + 1 if type(term) is Bound else 0
    key, todo = sig.binder_shifts, [term]  # nodes to look at; [node, kids, shifts] to compute
    while todo:
        t = todo.pop()
        if type(t) is list:
            t, kids, inc = t
            n = 0
            for c, s in zip_longest(kids, inc, fillvalue=0):
                k = type(c)
                v = c._loose if k is Op or k is MetaApp else c.index + 1 if k is Bound else 0
                n = v - s if v - s > n else n
            object.__setattr__(t, "_loose", n)
            object.__setattr__(t, "_scopes", key)
        elif t._scopes is not key:
            kids = t.args if type(t) is MetaApp else (*t.children, t.ann)
            todo.append([t, kids, () if type(t) is MetaApp else key.get(t.tag, ())])
            todo.extend([c for c in kids if type(c) is Op or type(c) is MetaApp])
    return term._loose


def weaken(sig: Signature, term: Term, by: int, at: int = 0) -> Term:
    """Shift every ``Bound(k)`` with ``k >= at`` up by ``by``."""
    if by == 0 or loose(sig, term) <= at:
        return term

    def var(t: Term, d: int) -> Term:
        return Bound(t.index + by) if type(t) is Bound and t.index >= d else t

    return rebuild(term, var, sig=sig, depth=at, skip_closed=True)


def instantiate(sig: Signature, body: Term, arg: Term) -> Term:
    """Replace the variable bound by the enclosing scope slot with ``arg``.

    ``body`` lives at depth d+1; the result (and ``arg``) at depth d.  Free
    variables are untouched; remaining bound indices shift down by one.
    """
    return close(sig, body, [arg, None, None])


def close(sig: Signature, term: Term, env: list | None, depth: int = 0) -> Term:
    """``term``, ``depth`` binders below ``env``'s context, read back.

    An environment is ``None`` or a cell ``[term, env, rest]``: that term
    under its own environment is the value of ``Bound(0)``, ``rest`` holds
    the next ones.  A loose ``Bound(k)`` at depth ``d`` becomes closure
    ``k - d``'s value weakened by ``d``, or ``Bound(k - n)`` past all ``n``.
    A value is read back once, after the closures in its :func:`loose`
    range, on an explicit stack, and kept as its cell's fourth item.
    """
    if env is None or loose(sig, term) <= depth:
        return term

    def var(t: Term, d: int) -> Term:  # reads the cells of the walk in progress
        if type(t) is not Bound or t.index < d:
            return t
        if t.index - d >= len(cells):
            return Bound(t.index - len(cells))
        c = cells[t.index - d]
        return weaken(sig, c[0] if c[1] is None else c[3], d)

    top = [term, env, None]
    todo = [top]
    while todo:
        cell = todo[-1]
        t, e, at, cells = cell[0], cell[1], depth if cell is top else 0, []
        n = loose(sig, t) - at if len(cell) == 3 else 0
        while e is not None and len(cells) < n:
            cells.append(e)
            e = e[2]
        waiting = [c for c in cells if c[1] is not None and len(c) == 3]
        if waiting:
            todo.extend(waiting)
            continue
        todo.pop()
        if len(cell) == 3 and type(t) is Bound:
            cell.append(var(t, at))
        elif len(cell) == 3:
            cell.append(rebuild(t, var, sig=sig, depth=at, skip_closed=True))
    return top[3]


def instantiate_many(sig: Signature, assign: Sequence[Term], body: Term) -> Term:
    """Fill every ``Hole(i)`` in ``body`` with ``assign[i]``.

    Raises :class:`MissingAssignment` when a hole has no mapping.  Bound and
    free variables are untouched.
    """

    def var(t: Term, d: int) -> Term:
        if type(t) is not Hole:
            return t
        if t.index >= len(assign):
            raise MissingAssignment(
                f"hole {t.index} exceeds the {len(assign)} supplied arguments"
            )
        return weaken(sig, assign[t.index], d)

    return rebuild(body, var, sig=sig)


def substitute_free(sig: Signature, env: Mapping[str, Term], term: Term) -> Term:
    """Replace free variables by the terms of ``env``, avoiding capture.

    Environment images are assumed well-scoped at depth 0 and are weakened
    when substituted under binders.
    """
    if not env:
        return term

    def var(t: Term, d: int) -> Term:
        image = env.get(t.name) if type(t) is Free else None
        return t if image is None else weaken(sig, image, d)

    return rebuild(term, var, sig=sig)


def trans(phi: Callable[[Op], Op], term: Term) -> Term:
    """Apply a per-node rewriter to every operator node, bottom-up.

    ``phi`` must preserve slot kinds between source and target signatures;
    variables and metavariable applications pass through unchanged (their
    arguments are rewritten).
    """
    return rebuild(term, post=phi)


def well_scoped(sig: Signature, term: Term, depth: int = 0) -> bool:
    """Check de Bruijn bounds and operator arity/slot conformance; a hole
    is never well scoped (:class:`~metaterm.metavar.MetaAbs` checks its own)."""

    def ok(t: Term, d: int) -> bool:
        match t:
            case Bound(k):
                return 0 <= k < d
            case Free() | MetaApp():
                return True
            case Op(tag, children):
                op = sig.operators.get(tag)
                return (
                    op is not None
                    and len(children) == len(op.slots)
                    and all(
                        c is not None or kind is SlotKind.OPT_TERM
                        for kind, c in zip(op.slots, children)
                    )
                )
        return False

    return all(ok(t, d) for t, d, _, _ in subterms(term, sig, depth))


def free_names(term: Term) -> set[str]:
    """All free variable names occurring anywhere in the term."""
    return {t.name for t, _, _, _ in subterms(term) if type(t) is Free}


def strengthen(sig: Signature, term: Term, at: int = 0) -> Term:
    """Shift every ``Bound(k)`` with ``k > at`` down by one.

    Raises ``ValueError`` if ``Bound(at)`` occurs (adjusted under inner
    binders): the term depends on that variable.
    """
    if loose(sig, term) <= at:
        return term

    def var(t: Term, d: int) -> Term:
        if type(t) is Bound and t.index >= d:
            if t.index == d:
                raise ValueError(f"Bound({d}) occurs; cannot strengthen")
            return Bound(t.index - 1)
        return t

    return rebuild(term, var, sig=sig, depth=at, skip_closed=True)
