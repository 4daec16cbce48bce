"""Composable weak-head reduction.

A reducer maps operator tags to rules.  A rule contracts an eliminator
node once the child it scrutinises, its *principal* child, is in weak head
normal form.  The rule is a callable ``rule(node, head)`` with an integer
attribute ``principal`` and a tag attribute ``intro``:

- ``node`` is the eliminator as it stands, children unreduced;
- ``head`` is the weak head normal form of ``node.children[principal]``;
- the result is the contractum, or ``None`` when ``node`` is stuck.

``intro`` is the tag of the node the rule contracts against.  The unifier
reads both attributes (see below), so a wrapper around a rule must carry
them over, as ``functools.wraps`` on a :class:`Rule` does.

:func:`reduce` walks the head spine itself, with an explicit stack: it
reduces the principal child first, then calls the rule once, then reduces
the contractum in the node's place.  A stuck node keeps its reduced
principal child.  Rules never call back into the
reducer; the loop reduces every contractum with the whole table, so tables
for disjoint signatures merged by :func:`sum_reduce` still reduce through
each other's constructions.  :class:`Rule` and the builders :func:`beta`,
:func:`projection` and :func:`identity_elim` cover the bundled languages.

The table is also all the unifier knows about computation.  A rule's
``intro`` tells it what to guess for a metavariable in the principal slot
(an ``intro`` skeleton), and a language's shapes are eliminator tags whose
head sits in that same slot (see :mod:`metaterm.unification`).

Metavariable applications reduce strictly: their arguments are reduced,
the application itself remains.

A budget that runs out raises :class:`Undetermined`, the one exception for
the "undetermined" outcome of every layer: the unifier and the type
checker let it through as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Callable, Mapping

from .signature import Signature
from .terms import MetaApp, Op, Term, instantiate, rebuild

Reducer = Mapping[str, Callable[[Op, Term], "Term | None"]]

DEFAULT_REDUCE_FUEL = 10_000


class Undetermined(Exception):
    """A budget ran out before an answer: head steps here, guesses or
    candidates in the unifier."""


@dataclass(frozen=True)
class Rule:
    """Contract ``node`` when its principal child reduces to an ``intro``
    node; ``contract(node, head)`` builds the contractum."""

    principal: int
    intro: str
    contract: Callable[[Op, Op], Term]

    def __call__(self, node: Op, head: Term) -> Term | None:
        if type(head) is Op and head.tag == self.intro:
            return self.contract(node, head)
        return None


def beta(sig: Signature) -> Rule:
    """``App(Lam(body), arg)`` to ``body[arg]``; the lambda body is the
    last child of ``Lam`` (an optional domain may precede it)."""
    return Rule(0, "Lam", lambda app, lam: instantiate(sig, lam.children[-1], app.children[1]))


def projection(index: int) -> Rule:
    """``First``/``Second`` of ``Pair(a, b)`` to its ``index``-th component."""
    return Rule(0, "Pair", lambda proj, pair: pair.children[index])


def identity_elim() -> Rule:
    """``J(A, a, C, d, x, refl _)`` to ``d``."""
    return Rule(5, "Refl", lambda j, refl: j.children[3])


def sum_reduce(left: Reducer, right: Reducer) -> Reducer:
    """Combine reducers of signatures with disjoint tags."""
    overlap = left.keys() & right.keys()
    if overlap:
        raise ValueError(f"overlapping reduction rules: {sorted(overlap)}")
    return {**left, **right}


def normal_form(term: Term, rules: Reducer, fuel: int = DEFAULT_REDUCE_FUEL) -> Term:
    """Full normal form: WHNF at every node, including under binders.

    Used for display; the fuel budget applies per node.  Going under scope
    children needs no index shifting because nothing moves across a
    binder.
    """
    return rebuild(term, enter=lambda t: reduce(t, rules, fuel))


def reduce(term: Term, rules: Reducer, fuel: int = DEFAULT_REDUCE_FUEL) -> Term:
    """Weak head normal form of ``term`` under ``rules``.

    Variables are inert; metavariable arguments are reduced; operator nodes
    without a rule are already in WHNF.  Each rule invocation costs one unit
    of fuel.
    """
    budget = fuel
    # Nodes waiting for a WHNF: (eliminator, its rule), or (metavariable
    # application, its arguments reduced so far).
    pending: list[tuple[Term, object]] = []
    t = term
    while True:
        while True:  # down the head spine
            if type(t) is Op:
                rule = rules.get(t.tag)
                if rule is None:
                    break
                budget -= 1
                if budget < 0:
                    raise Undetermined(f"no WHNF within {fuel} head steps")
                pending.append((t, rule))
                t = t.children[rule.principal]
            elif type(t) is MetaApp and t.args:
                pending.append((t, []))
                t = t.args[0]
            else:
                break
        while pending:  # t is a WHNF: hand it to the innermost waiting node
            node, waiting = pending.pop()
            if type(waiting) is list:
                waiting.append(t)
                if len(waiting) < len(node.args):
                    pending.append((node, waiting))
                    t = node.args[len(waiting)]
                    break
                same = all(map(is_, waiting, node.args))
                t = node if same else MetaApp(node.meta, tuple(waiting))
                continue
            contractum = waiting(node, t)
            if contractum is not None:
                t = contractum
                break
            p = waiting.principal
            if t is not node.children[p]:
                t = Op(node.tag, (*node.children[:p], t, *node.children[p + 1 :]), node.ann)
            else:
                t = node
        else:
            return t
