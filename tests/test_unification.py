"""Preunification: simplification, candidates, search, residuals."""

from __future__ import annotations

import pytest

from metaterm.languages import LANGUAGES, Language
from metaterm.metavar import FreshSupply, MetaAbs, MetaSubstitution, apply_substs, metas_of
from metaterm.reduction import Rule
from metaterm.signature import SignatureError, SlotKind, annotate_signature, make_signature
from metaterm.syntax import parse_constraint, parse_term
from metaterm.terms import Bound, Free, Hole, MetaApp, Op
from metaterm.unification import (
    Clash,
    Constraint,
    ConstraintClass,
    SearchConfig,
    Undetermined,
    UnificationFailed,
    _collect_guesses,
    classify,
    head_of,
    simplify,
    unify,
)

from helpers import bare_language, solve_checked

ulc = LANGUAGES["ulc"]
stlc = LANGUAGES["stlc"]
mltt = LANGUAGES["mltt"]


def cstr(src: str, lang=ulc) -> Constraint:
    return parse_constraint(src, lang)


def solve(src: str, lang=ulc, cfg: SearchConfig = SearchConfig()):
    return solve_checked(lang, [cstr(src, lang)], cfg)


class TestClassify:
    def test_all_three(self):
        assert classify(cstr("?m[] =?= ?n[]")) is ConstraintClass.FLEX_FLEX
        assert classify(cstr("?m[] =?= f a")) is ConstraintClass.FLEX_RIGID
        assert classify(cstr("f a =?= f b")) is ConstraintClass.RIGID_RIGID


class TestSimplify:
    def test_reduces_before_comparing(self):
        done, substs = simplify(ulc, cstr(r"(\x. x) a =?= a"))
        assert done == [] and not substs

    def test_decomposes_operators(self):
        done, _ = simplify(ulc, cstr("f a =?= f ?m[]"))
        assert len(done) == 1
        assert classify(done[0]) is ConstraintClass.FLEX_RIGID

    def test_scope_decomposition_raises_binders(self):
        done, _ = simplify(ulc, cstr(r"\x. ?m[x] =?= \x. f x"))
        assert done[0].binders == 1

    def test_clash_on_rigid_mismatch(self):
        with pytest.raises(Clash):
            simplify(ulc, cstr("f a =?= g a"))
        with pytest.raises(Clash):
            simplify(ulc, cstr("forall x y. x =?= y"))

    def test_guess_expands_meta_in_head_slot(self):
        # a metavariable applied in App's function slot becomes a lambda
        done, substs = simplify(ulc, cstr("?m[] a =?= a"))
        assert "m" in substs
        entry = substs.get("m")
        assert isinstance(entry.body, Op) and entry.body.tag == "Lam"

    def test_flex_sides_oriented_flex_first(self):
        done, _ = simplify(ulc, cstr("f a =?= ?m[]"))
        assert isinstance(done[0].lhs, MetaApp)


class TestHeadOf:
    def test_descends_head_slots(self):
        t = parse_term("f a b", ulc)
        assert head_of(ulc, t) == Free("f")

    def test_projection_heads(self):
        t = parse_term("first (second p)", stlc)
        assert head_of(stlc, t) == Free("p")

    def test_non_shaped_operator_is_its_own_head(self):
        t = parse_term("<a, b>", stlc)
        assert head_of(stlc, t) == t


# The guesses and head slots the bundled languages' search relies on, as
# they were declared by hand before being read off the reduction rules.
DECLARED_GUESSES = {
    "ulc": {("App", 0): "Lam"},
    "stlc": {("App", 0): "Lam", ("First", 0): "Pair", ("Second", 0): "Pair"},
    "mltt": {
        ("App", 0): "Lam",
        ("First", 0): "Pair",
        ("Second", 0): "Pair",
        ("J", 5): "Refl",
    },
}
DECLARED_HEAD_SLOTS = {
    "ulc": {"App": 0},
    "stlc": {"App": 0, "First": 0, "Second": 0},
    "mltt": {"App": 0, "First": 0, "Second": 0},
}


@pytest.mark.parametrize("lang", [ulc, stlc, mltt], ids=["ulc", "stlc", "mltt"])
class TestDerivedTables:
    def test_guesses_match_the_declared_tables(self, lang):
        derived = {}
        for view in (lang, lang.typed_view):
            for tag, op in view.signature.operators.items():
                slots = tuple(MetaApp(f"s{i}") for i in range(len(op.slots)))
                guesses: dict[str, MetaAbs] = {}
                _collect_guesses(view, Op(tag, slots), FreshSupply(), guesses)
                for meta, guess in guesses.items():
                    derived[(tag, int(meta[1:]))] = guess.body.tag
        assert derived == DECLARED_GUESSES[lang.name]

    def test_heads_descend_the_declared_slots(self, lang):
        descended = {}
        for tag, op in lang.signature.operators.items():
            children = tuple(Free(f"c{i}") for i in range(len(op.slots)))
            head = head_of(lang, Op(tag, children))
            if head != Op(tag, children):
                descended[tag] = children.index(head)
        assert descended == DECLARED_HEAD_SLOTS[lang.name]


class TestWorkedExamples:
    def test_projection_through_pair(self):
        solution = solve("?m[<t1, t2>] =?= t1", stlc)
        assert solution.substs.get("m") == MetaAbs(1, Op("First", (Hole(0),)))
        assert solution.residual == ()

    def test_identity_under_binders(self):
        solution = solve("forall f. forall x. ?m[f x] =?= f x")
        entry = solution.substs.get("m")
        assert entry == MetaAbs(1, Hole(0))
        # no universally bound variable leaks into the body
        assert not any(isinstance(x, Bound) for x in [entry.body])

    def test_flex_flex_left_unsolved(self):
        solution = solve("?m1[] =?= ?m2[]")
        assert not solution.substs
        assert len(solution.residual) == 1
        assert classify(solution.residual[0]) is ConstraintClass.FLEX_FLEX

    def test_imitation_of_rigid_head(self):
        solution = solve("?m[] =?= f a")
        assert solution.substs.get("m") == MetaAbs(0, Op("App", (Free("f"), Free("a"))))

    def test_eta_like_expansion(self):
        # needs a lambda skeleton guess plus projection inside
        solution = solve(r"forall a. ?m[] a =?= a")
        assert solution.residual == ()

    def test_multiple_constraints_share_substitution(self):
        solution = solve_checked(
            ulc, [cstr("?m[] =?= f a"), cstr("g ?m[] =?= g (f a)")]
        )
        assert solution.substs.get("m") == MetaAbs(0, parse_term("f a", ulc))


class TestFailureModes:
    def test_rigid_clash(self):
        with pytest.raises(UnificationFailed):
            unify(ulc, MetaSubstitution(), [cstr("f a =?= g a")])

    def test_occurs_style_problem_is_undetermined(self):
        # with App shapes the solver keeps regenerating the same problem
        # inside a fresh metavariable, so it cannot decide; the shape-free
        # first-order case (see test_first_order) fails definitely instead
        with pytest.raises(Undetermined):
            unify(ulc, MetaSubstitution(), [cstr("?m[] =?= f ?m[]")])

    def test_escaping_binder_is_definite_failure(self):
        with pytest.raises(UnificationFailed):
            unify(ulc, MetaSubstitution(), [cstr("forall y. ?m[] =?= f y")])

    def test_guess_loop_is_undetermined(self):
        with pytest.raises(Undetermined):
            unify(ulc, MetaSubstitution(), [cstr("?m[] =?= c (?m[])")])

    def test_tiny_fuel_reports_undetermined(self):
        with pytest.raises(Undetermined):
            unify(
                ulc,
                MetaSubstitution(),
                [cstr(r"?m[] a =?= a (a (a (a (a a))))")],
                SearchConfig(fuel=1),
            )


class TestBacktracking:
    def test_projection_tried_before_imitation(self):
        # both ?m[x] := x and ?m[x] := a solve this; projection wins
        solution = solve("?m[a] =?= a")
        assert solution.substs.get("m") == MetaAbs(1, Hole(0))

    def test_failed_branches_leave_no_trace(self):
        # first candidate (projection) clashes, solver recovers via shapes
        solution = solve("?m[<t1, t2>] =?= t2", stlc)
        entry = solution.substs.get("m")
        assert entry == MetaAbs(1, Op("Second", (Hole(0),)))
        # only metavariables from the problem or fresh ones appear
        assert "m" not in metas_of(entry.body)

    def test_deterministic(self):
        results = {
            str(solve("?m[<t1, t2>] =?= t1", stlc).substs.entries) for _ in range(3)
        }
        assert len(results) == 1


class TestCustomSignatures:
    def test_unify_without_rules_or_shapes(self):
        sig = make_signature(
            "fo", [("f", [SlotKind.TERM, SlotKind.TERM]), ("c", []), ("d", [])]
        )
        lang = bare_language(sig)
        c = Constraint(
            Op("f", (MetaApp("x"), Op("c"))), Op("f", (Op("d"), MetaApp("y")))
        )
        solution = solve_checked(lang, [c])
        assert solution.substs.get("x") == MetaAbs(0, Op("d"))
        assert solution.substs.get("y") == MetaAbs(0, Op("c"))

    def test_typed_candidates_get_annotations(self):
        tsig = stlc.typed_signature
        lang = bare_language(tsig, stlc.reducer)
        ann = Op("UInf")
        c = Constraint(
            MetaApp("m"), Op("Fun", (Free("A"), Free("B")), ann=ann)
        )
        solution = solve_checked(lang, [c])
        body = solution.substs.get("m").body
        assert isinstance(body, Op) and body.ann == ann


BOXES = make_signature("boxes", [("Box", [SlotKind.TERM]), ("Unbox", [SlotKind.TERM])])


def boxes(shapes=()) -> Language:
    """A custom language whose one rule, ``Unbox(Box(a))`` to ``a``, is
    all it says about guesses and heads."""
    unbox = Rule(0, "Box", lambda node, box: box.children[0])
    return Language("boxes", BOXES, {"Unbox": unbox}, annotate_signature(BOXES), {}, shapes)


class TestRulesDriveSearch:
    def test_guess_from_a_custom_rule(self):
        # Unbox(?m[]) is stuck until ?m is guessed to be a Box
        c = Constraint(Op("Unbox", (MetaApp("m"),)), Free("a"))
        solution = solve_checked(boxes(), [c])
        assert apply_substs(BOXES, solution.substs, MetaApp("m")) == Op("Box", (Free("a"),))

    def test_custom_shape_puts_the_head_in_the_principal_slot(self):
        c = Constraint(MetaApp("m", (Op("Box", (Free("a"),)),)), Free("a"))
        assert solve_checked(boxes(), [c]).substs.get("m") == MetaAbs(1, Free("a"))
        solution = solve_checked(boxes(shapes=("Unbox",)), [c])
        assert solution.substs.get("m") == MetaAbs(1, Op("Unbox", (Hole(0),)))

    def test_shape_without_a_rule_is_rejected(self):
        with pytest.raises(SignatureError):
            Language("boxes", BOXES, {}, annotate_signature(BOXES), {}, ("Unbox",))
        # a rule for a tag outside the signature does not make it a shape
        with pytest.raises(SignatureError):
            Language("boxes", BOXES, stlc.reducer, annotate_signature(BOXES), {}, ("App",))


def test_fresh_metas_avoid_problem_names():
    solution = solve("?m1[] a =?= a")  # forces fresh metas; m1 is taken
    for name in solution.substs.entries:
        assert name == "m1" or name not in ("m1",)
    assert "m1" in {*solution.substs.entries} | {
        m for c in solution.residual for m in metas_of(c.lhs) | metas_of(c.rhs)
    }


@pytest.mark.parametrize(
    "problem",
    [
        ["?m[] =?= f ?n[]", "?n[] =?= a"],
        ["?n[] =?= ?m[] b", "?m[] a =?= g a"],
        ["forall x. ?m[] x =?= f x (?n[] x)", "?n[] =?= \\y. c y"],
    ],
)
def test_given_entries_come_back_as_given(problem):
    """The checker's triangular substitution: unify keeps the entries it is
    given, even when they mention metavariables it solves, and resolves the
    ones it adds."""
    given = MetaSubstitution({"g": MetaAbs(0, parse_term("h ?m[] ?n[]", ulc))})
    constraints = [cstr(src) for src in problem]
    result = unify(ulc, given, constraints).substs
    assert all(result.get(name) is entry for name, entry in given.entries.items())
    added = {name: e for name, e in result.entries.items() if name not in given}
    assert {"m", "n"} <= added.keys()
    assert all(e.metas.isdisjoint(result.entries) for e in added.values())
    search = MetaSubstitution(added)
    for t in [MetaApp("g"), *(side for c in constraints for side in (c.lhs, c.rhs))]:
        assert apply_substs(ulc.signature, result, t) == apply_substs(
            ulc.signature, search, apply_substs(ulc.signature, given, t)
        )
