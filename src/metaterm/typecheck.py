"""Constraint-based bottom-up type inference over annotated terms.

Inference runs over a language's *typed* signature: every operator node of
the result carries a type annotation in its ``ann`` field, and annotation
chains terminate at the infinite-universe operator (which may only appear
in type position).  Language-specific typing is supplied as per-node rules;
this module provides the shared state (:class:`TypeInfo`), scope handling,
the bridge to preunification, and builders for the rules of function and
pair types (:func:`app`, :func:`lam`, :func:`pair`, :func:`projection`,
:func:`type_former`).

A rule is a generator ``rule(checker, node)`` run by
:func:`~metaterm.terms.run`: ``(yield checker.step(child))`` evaluates to
the annotated child, and the rule returns the annotated node.  Nesting in
the input never nests Python calls.

An ill-typed term raises :class:`TypeCheckError` (:class:`UnificationFailure`
or :class:`DependencyEscape` among them); a search or reduction budget that
runs out raises :class:`~metaterm.reduction.Undetermined`, passed through
from the reducer and the unifier unchanged.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Generator

from .metavar import FreshSupply, MetaSubstitution, apply_substs, metas_of
from .reduction import reduce
from .signature import INF_UNIVERSE_TAG
from .terms import (
    Bound,
    Free,
    Hole,
    MetaApp,
    Op,
    Term,
    instantiate,
    run,
    strengthen,
    trans,
    weaken,
)
from .unification import Constraint, SearchConfig, UnificationFailed, unify

#: The annotation terminator: the type of types, itself unannotated.
INFINITE_UNIVERSE = Op(INF_UNIVERSE_TAG)


class TypeCheckError(Exception):
    """Base class for inference failures."""


class UnificationFailure(TypeCheckError):
    """Actual and expected types do not preunify."""

    def __init__(self, constraint: Constraint):
        super().__init__(constraint)
        self.constraint = constraint

    def __str__(self) -> str:  # on demand: the types may be deep
        return f"cannot unify types in {self.constraint}"


class DependencyEscape(TypeCheckError):
    """A type in a non-dependent position mentions its binder."""

    def __init__(self, offending: Term):
        super().__init__(offending)
        self.offending = offending

    def __str__(self) -> str:  # on demand: the type may be deep
        return f"inferred type depends on its bound variable: {self.offending}"


def erase(term: Term) -> Term:
    """Strip every type annotation (typed term -> plain term, same tags)."""
    return trans(lambda node: Op(node.tag, node.children), term)


@dataclass
class TypeInfo:
    """All mutable state of one checking session.

    Bound-variable types are stored at their introduction depth (index =
    de Bruijn level) and weakened on lookup; free- and metavariable types
    are stored closed (depth 0).  Stored types are never rewritten when
    ``substs`` grows, and :meth:`TypeChecker.type_of` returns them as
    stored; readers that need a solved type call :meth:`TypeChecker.clarify_term`.
    ``substs`` is triangular (entries may mention solved metavariables;
    :func:`~metaterm.metavar.apply_substs` follows them).
    """

    free_var_types: dict[str, Term] = field(default_factory=dict)
    bound_var_types: list[Term] = field(default_factory=list)
    meta_var_types: dict[str, Term] = field(default_factory=dict)
    meta_arities: dict[str, int] = field(default_factory=dict)
    substs: MetaSubstitution = field(default_factory=MetaSubstitution)
    constraints: list[Constraint] = field(default_factory=list)
    fresh: FreshSupply = field(default_factory=lambda: FreshSupply(prefix="t"))


class TypeChecker:
    """Bottom-up inference engine for one language.

    ``lang`` must provide ``typed_signature``, ``reducer``,
    ``typed_view`` and ``infer_rules`` (tag -> rule, see the module
    docstring).
    """

    def __init__(self, lang, cfg: SearchConfig = SearchConfig()):
        if not lang.infer_rules:
            raise TypeCheckError(f"language {lang.name!r} has no typing rules")
        self.lang = lang
        self.cfg = cfg
        self.ctx = TypeInfo()

    # -- scope and state ---------------------------------------------------

    @property
    def depth(self) -> int:
        return len(self.ctx.bound_var_types)

    @contextmanager
    def in_scope(self, binder_type: Term):
        """Run the body at depth+1 with the binder's type recorded."""
        self.ctx.bound_var_types.append(binder_type)
        try:
            yield
        finally:
            self.ctx.bound_var_types.pop()

    def fresh_type_meta_var(self, dependent: int) -> MetaApp:
        """A fresh type metavariable, applied to all bound variables when
        ``dependent`` (the type former's codomain is a scope, see
        :func:`_scoped`) and to nothing otherwise."""
        if dependent:
            args = tuple(Bound(i) for i in range(self.depth - 1, -1, -1))
        else:
            args = ()
        name = self.ctx.fresh.fresh()
        self.ctx.meta_var_types[name] = INFINITE_UNIVERSE
        return MetaApp(name, args)

    # -- inference ---------------------------------------------------------

    def infer(self, term: Term) -> Term:
        """Annotate every operator node with its type, with the final
        substitution applied.

        Variables stay unannotated; free variables and metavariables are
        registered with fresh type metavariables on first encounter, named
        apart from the metavariables of the input.
        """
        self.ctx.fresh.taken |= metas_of(term)
        return self.clarify_term(self.annotate(term))

    def check(self, term: Term, expected_type: Term) -> Term:
        """Infer both, then unify the inferred type with the expected one."""
        self.ctx.fresh.taken |= metas_of(term) | metas_of(expected_type)
        expected = self.annotate(expected_type)
        return self.clarify_term(self.should_have_type(self.annotate(term), expected))

    def annotate(self, term: Term) -> Term:
        """:meth:`infer` without applying the substitution: annotations
        may mention metavariables solved since they were made."""
        return run(self.step(term))

    def step(self, term: Term) -> Generator:
        """Annotate ``term`` as a step of :func:`~metaterm.terms.run`;
        typing rules read their children's types with :meth:`type_of`."""
        match term:
            case Bound(k):
                if not 0 <= k < self.depth:
                    raise TypeCheckError(f"unbound index {k} at depth {self.depth}")
                return term
            case Free(name):
                if name not in self.ctx.free_var_types:
                    self.ctx.free_var_types[name] = self.fresh_type_meta_var(0)
                return term
            case MetaApp(name, args):
                arity = self.ctx.meta_arities.setdefault(name, len(args))
                if arity != len(args):
                    raise TypeCheckError(
                        f"metavariable ?{name} is applied to {arity}"
                        f" and to {len(args)} arguments"
                    )
                if name not in self.ctx.meta_var_types:
                    self.ctx.meta_var_types[name] = self.fresh_type_meta_var(0)
                typed_args = []
                for a in args:
                    typed_args.append((yield self.step(a)))
                return MetaApp(name, tuple(typed_args))
            case Hole():
                raise TypeCheckError("holes cannot appear in checked terms")
            case Op(tag, children, _):
                op = self.lang.typed_signature.operators.get(tag)
                if op is None:
                    raise TypeCheckError(f"unknown operator {tag!r}")
                if len(children) != len(op.slots):
                    raise TypeCheckError(
                        f"{tag} has {len(children)} children, expected {len(op.slots)}"
                    )
                rule = self.lang.infer_rules.get(tag)
                if rule is None:
                    raise TypeCheckError(f"no typing rule for {tag!r}")
                return (yield rule(self, term))
        raise TypeCheckError(f"not a term: {term!r}")

    def should_have_type(self, typed: Term, expected: Term) -> Term:
        """Unify the type of ``typed`` with ``expected``; returns ``typed``."""
        self.unify_with_expected(self.type_of(typed), expected)
        return typed

    # -- type extraction ---------------------------------------------------

    def type_of(self, typed: Term) -> Term:
        """The type of a term produced by :meth:`infer` or :meth:`annotate`,
        at current depth, as stored (unsolved: read heads through
        :meth:`whnf`); an :meth:`infer`/:meth:`check` root's type is solved."""
        match typed:
            case Bound(k):
                level = self.depth - 1 - k
                ty = self.ctx.bound_var_types[level]
                return weaken(self.lang.typed_signature, ty, self.depth - level)
            case Free(name):  # stored closed: the same at every depth
                return self.ctx.free_var_types[name]
            case MetaApp(name, _):
                return self.ctx.meta_var_types[name]
            case Op(_, _, ann):
                if ann is None and typed.tag != INF_UNIVERSE_TAG:
                    raise TypeCheckError(f"unannotated node {typed.tag!r}")
                return ann if ann is not None else INFINITE_UNIVERSE
        raise TypeCheckError(f"no type for {typed!r}")

    def non_dep(self, scoped_type: Term) -> Term:
        """Strengthen a scoped type to current depth.  Solved, the type must
        not mention the bound variable, even in unsolved metavariable
        arguments; it is solved only if it mentions it (solving adds none)."""
        sig = self.lang.typed_signature
        try:
            return strengthen(sig, scoped_type)
        except ValueError:
            scoped_type = self.clarify_term(scoped_type)
        try:
            return strengthen(sig, scoped_type)
        except ValueError:
            raise DependencyEscape(scoped_type) from None

    # -- unification bridge ------------------------------------------------

    def unify_with_expected(self, actual: Term, expected: Term) -> None:
        new = Constraint(actual, expected, self.depth)
        try:
            solution = unify(
                self.lang.typed_view,
                self.ctx.substs,
                [*self.ctx.constraints, new],
                self.cfg,
                self.ctx.fresh,
            )
        except UnificationFailed as exc:
            # Report the types as solved so far: rules pass them unapplied.
            shown = Constraint(self.clarify_term(actual), self.clarify_term(expected), self.depth)
            raise UnificationFailure(shown) from exc
        self.ctx.substs = solution.substs
        self.ctx.constraints = list(solution.residual)

    def whnf(self, term: Term) -> Term:
        """Weak head normal form, substitutions applied first (types may
        compute)."""
        sig = self.lang.typed_signature
        return reduce(sig, self.clarify_term(term), self.lang.reducer, self.cfg.reduce_fuel)

    def clarify_term(self, term: Term) -> Term:
        """``term`` with the substitution applied, once per shared node (its memo)."""
        return apply_substs(self.lang.typed_signature, self.ctx.substs, term)


# ---------------------------------------------------------------------------
# Rule builders for function and pair types.  ``former`` is the tag of the
# type former (``Fun``/``Pi``, ``PairTy``/``Sigma``) and ``universe`` the
# language's type of types.  The former's second component is a scope in
# dependent languages: ``_scoped`` reads it from the typed signature.


def _scoped(tc: TypeChecker, former: str) -> int:
    return tc.lang.typed_signature.binder_shifts.get(former, (0, 0))[1]


def type_former(universe: Term):
    """A type former: two types, the second under a binder of the first
    when it is a scope; the second's own type must not depend on it."""

    def rule(tc, node):
        dom, cod = node.children
        dom = tc.should_have_type((yield tc.step(dom)), universe)
        scoped = _scoped(tc, node.tag)
        with tc.in_scope(dom) if scoped else nullcontext():
            cod = yield tc.step(cod)
            cod_ty = tc.type_of(cod)
        tc.unify_with_expected(tc.non_dep(cod_ty) if scoped else cod_ty, universe)
        return Op(node.tag, (dom, cod), universe)

    return rule


def lam(former: str, universe: Term):
    """A lambda, with an optional domain annotation before its body."""

    def rule(tc, node):
        *domain, body = node.children
        if domain and domain[0] is not None:
            dom = tc.should_have_type((yield tc.step(domain[0])), universe)
            domain = [dom]
        else:
            dom = tc.fresh_type_meta_var(_scoped(tc, former))
        with tc.in_scope(dom):
            body = yield tc.step(body)
            body_ty = tc.type_of(body)
        if not _scoped(tc, former):
            body_ty = tc.non_dep(body_ty)
        return Op(node.tag, (*domain, body), Op(former, (dom, body_ty), universe))

    return rule


def app(former: str, universe: Term):
    """An application; a function whose type is not ``former`` gets one."""

    def rule(tc, node):
        sig = tc.lang.typed_signature
        fun = yield tc.step(node.children[0])
        arg = yield tc.step(node.children[1])
        fun_ty = tc.whnf(tc.type_of(fun))
        arg_ty = tc.type_of(arg)
        scoped = _scoped(tc, former)
        if type(fun_ty) is Op and fun_ty.tag == former:
            tc.unify_with_expected(arg_ty, fun_ty.children[0])
            result = fun_ty.children[1]
            if scoped:
                result = instantiate(sig, result, arg)
        else:
            result = tc.fresh_type_meta_var(scoped)
            expected = Op(former, (arg_ty, weaken(sig, result, scoped)), universe)
            tc.unify_with_expected(fun_ty, expected)
        return Op(node.tag, (fun, arg), result)

    return rule


def pair(former: str, universe: Term):
    """A pair, typed by ``former`` over its components' types."""

    def rule(tc, node):
        sig = tc.lang.typed_signature
        a = yield tc.step(node.children[0])
        b = yield tc.step(node.children[1])
        ty = (tc.type_of(a), weaken(sig, tc.type_of(b), _scoped(tc, former)))
        return Op(node.tag, (a, b), Op(former, ty, universe))

    return rule


def projection(index: int, former: str, universe: Term):
    """``First`` (``index`` 0) or ``Second`` (1); a pair whose type is not
    ``former`` gets one.  A dependent second component is instantiated
    with the ``First`` projection of the pair."""

    def rule(tc, node):
        sig = tc.lang.typed_signature
        pair = yield tc.step(node.children[0])
        pair_ty = tc.whnf(tc.type_of(pair))
        scoped = _scoped(tc, former)
        if not (type(pair_ty) is Op and pair_ty.tag == former):
            first_ty = tc.fresh_type_meta_var(scoped)
            second_ty = weaken(sig, tc.fresh_type_meta_var(scoped), scoped)
            expected = Op(former, (first_ty, second_ty), universe)
            tc.unify_with_expected(pair_ty, expected)
            pair_ty = expected
        result = pair_ty.children[index]
        if index == 1 and scoped:
            result = instantiate(sig, result, Op("First", (pair,), pair_ty.children[0]))
        return Op(node.tag, (pair,), result)

    return rule
