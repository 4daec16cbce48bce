"""Composable weak-head reduction on an environment machine.

A reducer maps operator tags to rules.  A :class:`Rule` fires on an
eliminator whose *principal* child reduces to an ``intro`` node.  Its
contractum is data, one child of either node whose binders eliminator
children fill: one that builds new structure (a recursor's) cannot be
expressed.  The unifier reads ``principal`` and ``intro`` too, so a rule's
wrapper must carry its attributes over, as ``functools.wraps`` does.

:func:`reduce` walks the head spine with an explicit stack: it reduces the
principal child, asks the rule once, ``rule(node, head)``, whether it
fires (one unit of fuel), and goes on with the contractum.  As in
Krivine's machine, substitution waits in an environment: a binding step
pushes a closure instead of rebuilding the body it enters, and a variable
in head position goes on with its closure.  Only what ``reduce`` hands
back is read back (:func:`terms.close`) under the caller's signature: the
WHNF, a stuck node's other children, and a metavariable's arguments, which
reduce strictly.  Rules hold no signature and never call the reducer, so
tables merged by :func:`sum_reduce` reduce through each other's constructions.

A budget that runs out raises :class:`Undetermined`, the one exception for
the "undetermined" outcome of every layer: the unifier and the type
checker let it through as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import is_
from typing import Mapping

from .signature import Signature
from .terms import Bound, MetaApp, Op, Term, close, rebuild

Reducer = Mapping[str, "Rule"]

DEFAULT_REDUCE_FUEL = 10_000


class Undetermined(Exception):
    """A budget ran out before an answer: head steps here, guesses or
    candidates in the unifier."""


@dataclass(frozen=True)
class Rule:
    """Fire when the principal child reduces to an ``intro`` node; the
    contractum is child ``child`` of that node (of the eliminator when
    ``from_elim``), whose binders the eliminator's children ``binds`` fill,
    the last one innermost."""

    principal: int
    intro: str
    child: int
    binds: tuple[int, ...] = ()
    from_elim: bool = False

    def __call__(self, node: Op, head: Term) -> bool:
        return type(head) is Op and head.tag == self.intro


def beta() -> Rule:
    """``App(Lam(body), arg)`` to ``body[arg]``; the lambda body is the
    last child of ``Lam`` (an optional domain may precede it)."""
    return Rule(0, "Lam", -1, binds=(1,))


def projection(index: int) -> Rule:
    """``First``/``Second`` of ``Pair(a, b)`` to its ``index``-th component."""
    return Rule(0, "Pair", index)


def identity_elim() -> Rule:
    """``J(A, a, C, d, x, refl _)`` to ``d``."""
    return Rule(5, "Refl", 3, from_elim=True)


def sum_reduce(left: Reducer, right: Reducer) -> Reducer:
    """Combine reducers of disjoint signatures, to run under their ``sum_signature``."""
    overlap = left.keys() & right.keys()
    if overlap:
        raise ValueError(f"overlapping reduction rules: {sorted(overlap)}")
    return {**left, **right}


def normal_form(
    sig: Signature, term: Term, rules: Reducer, fuel: int = DEFAULT_REDUCE_FUEL
) -> Term:
    """Full normal form: the WHNF (:func:`reduce`) at every node.

    Used for display; the fuel budget applies per node.  Going under scope
    children shifts no index: nothing moves across a binder."""
    return rebuild(term, enter=lambda t: reduce(sig, t, rules, fuel))


def reduce(sig: Signature, term: Term, rules: Reducer, fuel: int = DEFAULT_REDUCE_FUEL) -> Term:
    """Weak head normal form of ``term`` under ``rules`` and signature ``sig``.

    Variables are inert; metavariable arguments are reduced; operator nodes
    without a rule are already in WHNF.  Each rule invocation costs one unit
    of fuel.
    """
    budget = fuel
    # Nodes waiting for a WHNF, each with its environment: (eliminator, its
    # rule, env), or (metavariable application, its arguments so far, env).
    pending: list[tuple[Term, object, list | None]] = []
    t, env = term, None  # the spine's term and its environment
    while True:
        while True:  # down the head spine
            if type(t) is Op:
                rule = rules.get(t.tag)
                if rule is None:
                    break
                budget -= 1
                if budget < 0:
                    raise Undetermined(f"no WHNF within {fuel} head steps")
                pending.append((t, rule, env))
                t = t.children[rule.principal]
            elif type(t) is MetaApp and t.args:
                pending.append((t, [], env))
                t = t.args[0]
            elif type(t) is Bound and env is not None:  # continue with its closure
                k = t.index
                while k and env is not None:
                    k, env = k - 1, env[2]
                t, env = (Bound(k), None) if env is None else (env[0], env[1])
            else:
                break
        while pending:  # t is a WHNF: hand it to the innermost waiting node
            node, waiting, outer = pending.pop()
            if type(waiting) is list:
                waiting.append(t if env is None else close(sig, t, env))
                if len(waiting) < len(node.args):
                    pending.append((node, waiting, outer))
                    t, env = node.args[len(waiting)], outer
                    break
                same = all(map(is_, waiting, node.args))
                t, env = node if same else MetaApp(node.meta, tuple(waiting)), None
                continue
            if waiting(node, t):
                source, env = (node, outer) if waiting.from_elim else (t, env)
                t = source.children[waiting.child]
                for i in waiting.binds:
                    env = [node.children[i], outer, env]
                break
            p, kids, ann = waiting.principal, node.children, node.ann
            head = t if env is None else close(sig, t, env)
            if outer is not None:  # the other children in the node's own environment
                inc = sig.binder_shifts.get(node.tag) or (0,) * len(kids)
                kids = [c if i == p else close(sig, c, outer, inc[i]) for i, c in enumerate(kids)]
                ann = close(sig, ann, outer)
            same = outer is None and head is kids[p]
            t, env = node if same else Op(node.tag, (*kids[:p], head, *kids[p + 1 :]), ann), None
        else:
            return t if env is None else close(sig, t, env)
