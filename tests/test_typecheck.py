"""Type inference and checking for the simply typed and dependent languages."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaterm import reduction, typecheck, unification
from metaterm.languages import LANGUAGES
from metaterm.metavar import apply_substs, metas_of
from metaterm.reduction import normal_form
from metaterm.syntax import UnknownConstruct, parse_term, print_term
from metaterm.terms import Bound, Free, Hole, MetaApp, Op, well_scoped
from metaterm.typecheck import (
    INFINITE_UNIVERSE,
    DependencyEscape,
    TypeChecker,
    TypeCheckError,
    UnificationFailure,
    erase,
)
from metaterm.unification import Constraint, SearchConfig, Undetermined

from strategies import terms

ulc = LANGUAGES["ulc"]
stlc = LANGUAGES["stlc"]
mltt = LANGUAGES["mltt"]


def shown_type(lang, tc: TypeChecker, typed) -> str:
    ty = erase(normal_form(lang.typed_signature, tc.type_of(typed), lang.reducer))
    return print_term(lang, ty)


def infer_type(lang, src: str) -> str:
    tc = TypeChecker(lang)
    return shown_type(lang, tc, tc.infer(parse_term(src, lang)))


def check(lang, src: str, ty: str) -> str:
    tc = TypeChecker(lang)
    typed = tc.check(parse_term(src, lang), parse_term(ty, lang))
    return shown_type(lang, tc, typed)


def same_type(printed: str, expected: str, lang) -> bool:
    """Structural comparison up to metavariable renaming."""

    def canon(src):
        names: dict[str, str] = {}

        def go(t):
            match t:
                case MetaApp(name, args):
                    return MetaApp(
                        names.setdefault(name, f"v{len(names)}"),
                        tuple(go(a) for a in args),
                    )
                case Op(tag, children, ann):
                    return Op(
                        tag,
                        tuple(None if c is None else go(c) for c in children),
                        None if ann is None else go(ann),
                    )
                case _:
                    return t

        return go(parse_term(src, lang))

    return canon(printed) == canon(expected)


class TestSTLCInference:
    def test_constant_function_type(self):
        printed = infer_type(stlc, r"\x. \y. y")
        assert same_type(printed, "?a[] -> (?b[] -> ?b[])", stlc)

    def test_type_metas_are_argument_free(self):
        tc = TypeChecker(stlc)
        typed = tc.infer(parse_term(r"\x. \y. y", stlc))
        ty = tc.type_of(typed)
        metas = set()

        def collect(t):
            match t:
                case MetaApp(name, args):
                    metas.add((name, len(args)))
                case Op(_, children, ann):
                    for c in (*children, ann):
                        if c is not None:
                            collect(c)

        collect(ty)
        assert metas and all(arity == 0 for _, arity in metas)

    def test_dependency_rejected(self):
        tc = TypeChecker(stlc)
        with pytest.raises(DependencyEscape):
            tc.infer(parse_term(r"\A. \(x : A). x", stlc))

    def test_computation_in_types(self):
        printed = infer_type(stlc, r"\(f : ((\x. x) A) -> B). f x")
        assert same_type(printed, "(A -> B) -> B", stlc)

    def test_application_forces_function_type(self):
        # f : ?m[] applied to x forces ?m[] := X -> result
        printed = infer_type(stlc, r"\f. f x")
        assert printed.count("->") == 2

    def test_annotated_domain_used(self):
        printed = infer_type(stlc, r"\(x : A). x")
        assert printed == "A -> A"

    def test_pairs_and_projections(self):
        assert infer_type(stlc, r"\(x : A). \(y : B). first <x, y>") == "A -> B -> A"
        assert infer_type(stlc, r"\(p : A * B). second p") == "A * B -> B"

    def test_fun_components_must_be_types(self):
        printed = infer_type(stlc, r"\(x : A -> B). x")
        assert printed == "(A -> B) -> A -> B"


class TestSTLCCheck:
    def test_check_against_inferred_type_succeeds(self):
        assert check(stlc, r"\(x : A). x", "A -> A") == "A -> A"

    def test_rigid_mismatch_rejected(self):
        tc = TypeChecker(stlc)
        tc.ctx.free_var_types["a"] = Free("A")
        tc.ctx.free_var_types["A"] = INFINITE_UNIVERSE
        tc.ctx.free_var_types["B"] = INFINITE_UNIVERSE
        with pytest.raises(UnificationFailure):
            tc.check(Free("a"), Free("B"))

    def test_check_refines_metavariables(self):
        assert check(stlc, r"\x. x", "A -> A") == "A -> A"


class TestScopeHandling:
    def test_in_scope_depth_and_lookup(self):
        tc = TypeChecker(stlc)
        with tc.in_scope(Free("A")):
            assert tc.depth == 1
            assert tc.type_of(Bound(0)) == Free("A")
            with tc.in_scope(Free("B")):
                assert tc.depth == 2
                assert tc.type_of(Bound(0)) == Free("B")
                assert tc.type_of(Bound(1)) == Free("A")
        assert tc.depth == 0

    def test_bound_types_weakened_on_lookup(self):
        tc = TypeChecker(mltt)
        with tc.in_scope(parse_term("U", mltt)):
            with tc.in_scope(Bound(0)):  # x : A where A is the outer binder
                assert tc.type_of(Bound(0)) == Bound(1)

    def test_non_dep(self):
        tc = TypeChecker(stlc)
        assert tc.non_dep(Free("B")) == Free("B")
        with pytest.raises(DependencyEscape):
            tc.non_dep(Op("Fun", (Bound(0), Free("B"))))
        with pytest.raises(DependencyEscape):
            # occurrence under an inner binder (shifted index)
            tc.non_dep(Op("Lam", (None, Bound(1))))

    @pytest.mark.parametrize("lang", [stlc, mltt], ids=["stlc", "mltt"])
    def test_scopes_unwind_after_an_error_under_binders(self, lang):
        tc = TypeChecker(lang)
        with pytest.raises(UnificationFailure) as caught:
            tc.infer(parse_term(r"\x. \y. first (\z. z)", lang))
        assert caught.value.constraint.binders == 2  # raised under both binders
        assert tc.depth == 0

    def test_fresh_type_meta_args(self):
        stlc_tc = TypeChecker(stlc)
        mltt_tc = TypeChecker(mltt)
        with stlc_tc.in_scope(Free("A")), mltt_tc.in_scope(Free("A")):
            with stlc_tc.in_scope(Free("B")), mltt_tc.in_scope(Free("B")):
                # whether the function-type former's codomain is a scope
                dependent = typecheck._scoped(stlc_tc, "Fun")
                assert stlc_tc.fresh_type_meta_var(dependent).args == ()
                dependent = typecheck._scoped(mltt_tc, "Pi")
                assert mltt_tc.fresh_type_meta_var(dependent).args == (Bound(1), Bound(0))

    def test_fresh_type_metas_avoid_input_names_across_calls(self):
        tc = TypeChecker(stlc)
        tc.infer(parse_term(r"\x. x", stlc))
        upcoming = [f"t{tc.ctx.fresh.counter + i}" for i in (1, 2)]  # the next fresh names
        typed = tc.infer(parse_term(rf"\x. ?{upcoming[0]}[]", stlc))
        dom, cod = tc.type_of(typed).children
        assert upcoming[0] not in {dom.meta, cod.meta} and dom != cod
        upcoming = [f"t{tc.ctx.fresh.counter + i}" for i in (1, 2)]
        expected = parse_term(f"?{upcoming[0]}[] -> ?{upcoming[1]}[]", stlc)
        dom, cod = tc.type_of(tc.check(parse_term(r"\x. x", stlc), expected)).children
        assert dom == cod and dom.meta not in upcoming


class TestMLTT:
    def test_universe_annotation(self):
        tc = TypeChecker(mltt)
        typed = tc.infer(parse_term("U", mltt))
        assert tc.type_of(typed) == INFINITE_UNIVERSE

    def test_type_in_type(self):
        assert check(mltt, "U", "U") == "U"

    def test_polymorphic_identity_checks(self):
        printed = check(mltt, r"\A. \x. x", "(A : U) -> (x : A) -> A")
        assert same_type(printed, "(A : U) -> A -> A", mltt)

    def test_pi_inference(self):
        assert infer_type(mltt, "(A : U) -> A -> A") == "U"

    def test_pi_codomain_type_must_not_depend(self):
        tc = TypeChecker(mltt)
        with pytest.raises(DependencyEscape):
            tc.infer(parse_term("(x : A) -> refl x", mltt))

    def test_refl_and_id(self):
        assert infer_type(mltt, "a = b") == "U"
        printed = infer_type(mltt, "refl a")
        assert printed == "a = a"

    @staticmethod
    def checker_with_family():
        tc = TypeChecker(mltt)
        tc.ctx.free_var_types["A"] = tc.infer(parse_term("U", mltt))
        tc.ctx.free_var_types["P"] = tc.infer(parse_term("A -> U", mltt))
        tc.ctx.free_var_types["p"] = tc.infer(parse_term("(x : A) * P x", mltt))
        return tc

    def test_sigma_and_projections(self):
        tc = self.checker_with_family()
        typed = tc.infer(parse_term("first p", mltt))
        assert shown_type(mltt, tc, typed) == "A"

    def test_second_instantiates_codomain(self):
        tc = self.checker_with_family()
        typed = tc.infer(parse_term("second p", mltt))
        assert shown_type(mltt, tc, typed) == "P (first p)"

    def test_j_symmetry(self):
        printed = check(
            mltt,
            r"\A. \a. \b. \p. J(A, a, \y. \q. y = a, refl a, b, p)",
            "(A : U) -> (a : A) -> (b : A) -> (p : a = b) -> b = a",
        )
        assert same_type(
            printed, "(A : U) -> (a : A) -> (b : A) -> (a = b) -> b = a", mltt
        )

    def test_mixed_arities_are_a_type_error(self):
        tc = TypeChecker(mltt)
        with pytest.raises(TypeCheckError) as caught:
            tc.infer(parse_term("J(a, b, ?m[?m[]], a, a, a)", mltt))
        assert str(caught.value) == "metavariable ?m is applied to 1 and to 0 arguments"

    def test_j_wrong_motive_rejected(self):
        tc = TypeChecker(mltt)
        with pytest.raises(TypeCheckError):
            tc.infer(parse_term(r"J(A, a, \y. y, d, x, p)", mltt))


class TestInvariants:
    @pytest.mark.parametrize(
        "lang_name, src",
        [
            ("stlc", r"\x. \y. y"),
            ("stlc", r"\(x : A). x"),
            ("stlc", r"\(p : A * B). <second p, first p>"),
            ("mltt", r"\A. \x. x"),
            ("mltt", "refl a"),
            ("mltt", "(A : U) -> A -> A"),
        ],
    )
    def test_full_annotation_coverage(self, lang_name, src):
        lang = LANGUAGES[lang_name]
        tc = TypeChecker(lang)
        typed = tc.infer(parse_term(src, lang))
        assert well_scoped(lang.typed_signature, typed)

        def annotated(t):
            match t:
                case Op("UInf", (), None):
                    return True
                case Op(_, children, ann):
                    if ann is None:
                        return False
                    return all(
                        annotated(c) for c in (*children, ann) if c is not None
                    )
                case MetaApp(_, args):
                    return all(annotated(a) for a in args)
                case _:
                    return True

        assert annotated(typed)

    @pytest.mark.parametrize(
        "lang_name, src",
        [
            ("stlc", r"\x. \y. y x"),
            ("stlc", r"\(p : A * B). first p"),
            ("mltt", r"\A. \x. x"),
        ],
    )
    def test_erase_then_reinfer_agrees(self, lang_name, src):
        lang = LANGUAGES[lang_name]
        tc1 = TypeChecker(lang)
        typed = tc1.infer(parse_term(src, lang))
        tc2 = TypeChecker(lang)
        again = tc2.infer(erase(typed))
        assert shown_type(lang, tc1, typed).replace("?t", "?") == shown_type(
            lang, tc2, again
        ).replace("?t", "?")

    def test_branch_isolation_snapshot(self):
        tc = TypeChecker(stlc)
        tc.ctx.free_var_types["a"] = Free("A")
        tc.ctx.free_var_types["A"] = INFINITE_UNIVERSE
        tc.ctx.free_var_types["B"] = INFINITE_UNIVERSE
        with pytest.raises(UnificationFailure):
            tc.check(Free("a"), Free("B"))

    def test_ulc_has_no_checker(self):
        with pytest.raises(TypeCheckError):
            TypeChecker(ulc)


@pytest.mark.parametrize(
    "term, message",
    [
        (Bound(0), "unbound index 0 at depth 0"),
        (Op("Lam", (None, Hole(0))), "holes cannot appear in checked terms"),
        (Op("NoSuchTag", ()), "unknown operator 'NoSuchTag'"),
        (Op("App", (Free("f"),)), "App has 1 children, expected 2"),
        (Op("App", (None, Free("a"))), "not a term: None"),
        (Op("UInf"), "no typing rule for 'UInf'"),
    ],
    ids=["unbound-index", "hole", "unknown-tag", "child-count", "missing-child", "no-rule"],
)
def test_malformed_terms_are_type_errors(term, message):
    with pytest.raises(TypeCheckError, match=re.escape(message)):
        TypeChecker(stlc).infer(term)


def test_an_unannotated_node_has_no_type():
    with pytest.raises(TypeCheckError, match="^unannotated node 'App'$"):
        TypeChecker(stlc).type_of(Op("App", (Free("f"), Free("a"))))


def test_type_errors_print_their_cause():
    failure = UnificationFailure(Constraint(Free("a"), Free("b")))
    assert str(failure) == "cannot unify types in <Free(name='a') =?= Free(name='b')>"
    escape = DependencyEscape(Bound(0))
    assert str(escape) == "inferred type depends on its bound variable: Bound(index=0)"


class TestUndetermined:
    """Every exhausted budget raises the one ``Undetermined``, whichever
    layer spends it."""

    def test_one_class_in_every_layer(self):
        assert unification.Undetermined is reduction.Undetermined
        assert not issubclass(reduction.Undetermined, TypeCheckError)

    def test_candidate_budget_in_unify_with_expected(self):
        tc = TypeChecker(mltt, SearchConfig(fuel=20))
        with pytest.raises(Undetermined, match=r"candidate budget \(20\) exhausted"):
            tc.infer(parse_term(r"J(?m[\x. first x], a, a, c, b, a)", mltt))

    @pytest.mark.parametrize(
        "src", [r"\(f : (\y. \z. y) (A -> B) C). f a", r"\(p : (\y. \z. y) (A * B) C). first p"]
    )
    def test_head_steps_in_whnf(self, src):
        tc = TypeChecker(stlc, SearchConfig(reduce_fuel=1))
        with pytest.raises(Undetermined, match=r"no WHNF within 1 head steps"):
            tc.infer(parse_term(src, stlc))


# The candidate search is depth-first, and some generated terms send it down
# an endless chain of growing candidates: at the default budgets MLTT
# ``J(?m[\x. first x], a, a, c, b, a)`` spends about 100 s before running out
# of fuel.  Small budgets keep every example cheap; a budget running out
# raises ``Undetermined``, which the property skips like a type error.
PROPERTY_BUDGETS = SearchConfig(fuel=50, guess_fuel=5)


def apply_chain(n: int) -> str:
    """``\\f. \\a1. … \\an. f a1 … an``."""
    params = " ".join(f"a{i}" for i in range(1, n + 1))
    binders = "".join(f"\\a{i}. " for i in range(1, n + 1))
    return f"\\f. {binders}f {params}"


def distinct_nodes(term) -> int:
    """Operator nodes and metavariable applications of ``term``, counted
    once each by identity however often they are shared."""
    seen: dict[int, object] = {}
    todo = [term]
    while todo:
        t = todo.pop()
        if type(t) in (Op, MetaApp) and id(t) not in seen:
            seen[id(t)] = t
            todo.extend(t.args if type(t) is MetaApp else (*t.children, t.ann))
    return len(seen)


class TestSubstitutionReads:
    @pytest.mark.parametrize("lang", [stlc, mltt], ids=["stlc", "mltt"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_inferred_terms_are_fully_applied(self, lang, data):
        term = data.draw(terms(lang.signature, size=4))
        tc = TypeChecker(lang, PROPERTY_BUDGETS)
        try:
            typed = tc.infer(term)
        except (TypeCheckError, Undetermined):
            return
        assert metas_of(typed).isdisjoint(tc.ctx.substs.entries)
        # The input itself, with the metavariables inference solved replaced.
        assert erase(typed) == erase(tc.clarify_term(term))
        shown = shown_type(lang, tc, typed)
        if lang is stlc and re.search(r"\bU\b", shown):
            # Known gap: STLC has no surface syntax for the type of types.
            with pytest.raises(UnknownConstruct):
                parse_term(shown, lang)
        else:
            assert print_term(lang, parse_term(shown, lang)) == shown

    def test_reads_grow_linearly_on_an_apply_chain(self, monkeypatch):
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return apply_substs(*args)

        monkeypatch.setattr(typecheck, "apply_substs", counted)

        def reads(n: int) -> int:
            nonlocal calls
            calls = 0
            TypeChecker(stlc).infer(parse_term(apply_chain(n), stlc))
            return calls

        assert reads(32) <= 2.2 * reads(16)

    def test_infer_keeps_sharing_on_an_apply_chain(self):
        # Each annotation shares its children's types; applying the
        # substitution at the root keeps that sharing (the tree is
        # quadratic in n, the distinct nodes linear).
        def distinct(n: int) -> int:
            return distinct_nodes(TypeChecker(stlc).infer(parse_term(apply_chain(n), stlc)))

        assert distinct(128) <= 2.2 * distinct(64)

    @pytest.mark.parametrize(
        "lang, src",
        [
            (stlc, r"\x. \y. y"),
            (stlc, apply_chain(6)),
            (stlc, r"\p. <second p, first p>"),
            (mltt, r"\f. \x. f (f x)"),
            (mltt, r"\p. second p"),
        ],
    )
    def test_root_carries_its_solved_type(self, lang, src):
        tc = TypeChecker(lang)
        typed = tc.infer(parse_term(src, lang))
        assert tc.type_of(typed) == tc.clarify_term(tc.type_of(typed))

    def test_type_of_returns_the_stored_type(self):
        tc = TypeChecker(stlc)
        typed = tc.annotate(parse_term(r"\f. \x. f x", stlc))
        assert tc.type_of(typed) is typed.ann
        assert metas_of(typed.ann) & set(tc.ctx.substs.entries)
        tc.annotate(parse_term("f ?m[]", stlc))
        with tc.in_scope(Free("A")):  # stored closed, read at any depth
            assert tc.type_of(Free("f")) is tc.ctx.free_var_types["f"]
            assert tc.type_of(MetaApp("m", ())) is tc.ctx.meta_var_types["m"]


def f_tower(levels: int) -> str:
    """``\\f. \\x. f (f (… x))``: every application adds the same residual."""
    return "\\f. \\x. " + "f (" * levels + "x" + ")" * levels


class TestResiduals:
    @pytest.mark.parametrize("lang", [stlc, mltt], ids=["stlc", "mltt"])
    def test_constraints_are_never_duplicated(self, lang, monkeypatch):
        unify_with_expected = TypeChecker.unify_with_expected

        def checked(tc, actual, expected):
            unify_with_expected(tc, actual, expected)
            held = tc.ctx.constraints
            assert all(a != b for i, a in enumerate(held) for b in held[i + 1 :])

        monkeypatch.setattr(TypeChecker, "unify_with_expected", checked)
        for src in (f_tower(20), r"\f. \g. \x. g (f x) (f (f x))", r"\p. <second p, first p>"):
            TypeChecker(lang).infer(parse_term(src, lang))

    def test_simplified_constraints_grow_linearly_on_an_f_tower(self, monkeypatch):
        simplify_all = unification.simplify_all
        seen = 0

        def counted(lang, constraints, *rest):
            nonlocal seen
            constraints = list(constraints)
            seen += len(constraints)
            return simplify_all(lang, constraints, *rest)

        monkeypatch.setattr(unification, "simplify_all", counted)

        def work(levels: int) -> int:
            nonlocal seen
            seen = 0
            TypeChecker(stlc).infer(parse_term(f_tower(levels), stlc))
            return seen

        assert work(600) <= 2.2 * work(300)
