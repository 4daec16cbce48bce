"""Acceptance gate: one test (one pytest -v line) per shipped guarantee.

Each test also prints an explicit PASS line with the observed evidence, so
`pytest -v -s` reads as a checklist.
"""

from __future__ import annotations

import io
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaterm.cli import main
from metaterm.languages import LANGUAGES
from metaterm.metavar import (
    EMPTY_SUBSTS,
    FreshSupply,
    MetaAbs,
    MetaSubstitution,
    apply_substs,
    extend_substs,
)
from metaterm.reduction import reduce
from metaterm.syntax import parse_constraint, parse_term
from metaterm.terms import (
    Bound,
    Hole,
    MetaApp,
    Op,
    instantiate,
    weaken,
    well_scoped,
)
from metaterm.unification import (
    Constraint,
    Undetermined,
    UnificationFailed,
    unify,
    verify_solution,
)

import test_first_order as fo
from oracle import resolve, robinson
from strategies import terms

ulc = LANGUAGES["ulc"]
stlc = LANGUAGES["stlc"]
mltt = LANGUAGES["mltt"]


def run_cli(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ok(message: str) -> None:
    print(f"PASS {message}")


# -- criterion 1: STLC inference ------------------------------------------


def test_criterion_1_stlc_infers_constant_function(capsys):
    code, out, _ = run_cli(["--lang", "stlc", "infer", r"\x. \y. y"], capsys)
    assert code == 0
    got = parse_term(out.strip(), stlc)
    want = parse_term("?a[] -> (?b[] -> ?b[])", stlc)

    # structural equality up to metavariable naming
    def canon(t, names={}):
        names = dict(names)

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

        return go(t)

    assert canon(got) == canon(want)
    ok(rf"criterion 1: stlc infer '\x. \y. y' = {out.strip()}")


# -- criterion 2: unification worked examples ------------------------------


def test_criterion_2a_projection_through_pair(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["--lang", "stlc", "unify", "-"],
        capsys,
        stdin="?m[<t1, t2>] =?= t1\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.strip() == "?m[x1] := first x1"
    ok("criterion 2a: ?m[<t1, t2>] =?= t1 solved by ?m[x1] := first x1")


def test_criterion_2b_no_universal_variable_leaks(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["unify", "-"],
        capsys,
        stdin="forall f. forall x. ?m[f x] =?= f x\n",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.strip() == "?m[x1] := x1"
    # independently: the solved body is the hole, no Bound leaks in
    solution = unify(
        ulc,
        MetaSubstitution(),
        [parse_constraint("forall f. forall x. ?m[f x] =?= f x", ulc)],
    )
    assert solution.substs.get("m") == MetaAbs(1, Hole(0))
    ok("criterion 2b: forall f x. ?m[f x] =?= f x solved by ?m[z] := z")


def test_criterion_2c_flex_flex_left_residual(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["unify", "-"], capsys, stdin="?m1[] =?= ?m2[]\n", monkeypatch=monkeypatch
    )
    assert code == 0
    assert out.strip() == "?m1[] =?= ?m2[]"
    ok("criterion 2c: ?m1[] =?= ?m2[] reported as residual, not guessed")


# -- criterion 3: dependent types end to end -------------------------------


def test_criterion_3_j_computes_on_refl(capsys):
    code, out, _ = run_cli(
        ["--lang", "mltt", "reduce", r"J(A, a, \y. \q. C, (\w. w) d, a, refl a)"],
        capsys,
    )
    assert code == 0
    # WHNF of the base case d: the redex around it is gone
    assert out.strip() == "d"
    ok("criterion 3: J(A, a, C, d, a, refl a) reduces to WHNF of d")


def test_criterion_3_mltt_accepts_polymorphic_identity(capsys):
    code, out, _ = run_cli(
        ["--lang", "mltt", "check", r"\A. \x. x", ":", "(A : U) -> (x : A) -> A"],
        capsys,
    )
    assert code == 0
    ok(f"criterion 3: mltt check polymorphic identity : {out.strip()}")


def test_criterion_3_stlc_rejects_polymorphic_identity(capsys):
    code, _, err = run_cli(
        ["--lang", "stlc", "check", r"\A. \(x : A). x", ":", "?t[]"], capsys
    )
    assert code == 1
    assert "depends on its bound variable" in err
    ok(f"criterion 3: stlc rejects it: {err.strip()}")


# -- criterion 4: first-order agreement with an independent oracle ---------


def test_criterion_4_robinson_agreement_200_problems():
    rng = random.Random(20260823)
    solvable = unsolvable = 0
    for i in range(200):
        lhs, rhs = fo.make_problem(rng)
        theirs = robinson([(lhs, rhs)])
        ours = fo.solve_ours(lhs, rhs)
        assert (ours is None) == (theirs is None), f"problem {i} disagrees"
        if theirs is None:
            unsolvable += 1
            continue
        solvable += 1
        mine = fo.canonical([resolve(MetaApp(v), ours) for v in fo.VARS])
        ref = fo.canonical([resolve(MetaApp(v), theirs) for v in fo.VARS])
        assert mine == ref, f"problem {i}: different unifiers"
    ok(
        "criterion 4: 200/200 first-order problems agree with the Robinson "
        f"oracle ({solvable} solvable, {unsolvable} unsolvable)"
    )


# -- criterion 5: soundness by reapplication -------------------------------

SOLVED_INSTANCES = [
    ("ulc", "?m[] =?= f a"),
    ("ulc", "forall f. forall x. ?m[f x] =?= f x"),
    ("ulc", "forall a. ?m[] a =?= a"),
    ("ulc", "?m1[] =?= ?m2[]"),
    ("ulc", r"\x. ?m[x] =?= \x. f x"),
    ("ulc", "g ?m[] =?= g (f (f a))"),
    ("stlc", "?m[<t1, t2>] =?= t1"),
    ("stlc", "?m[<t1, t2>] =?= t2"),
    ("stlc", "first ?m[] =?= t1"),
    ("stlc", "?m[a, b] =?= <b, a>"),
    ("mltt", "?m[a] =?= refl a"),
    ("mltt", "?m[] =?= a = b"),
]


def test_criterion_5_solutions_survive_reapplication():
    checked = 0
    for lang_name, src in SOLVED_INSTANCES:
        lang = LANGUAGES[lang_name]
        constraint = parse_constraint(src, lang)
        solution = unify(lang, MetaSubstitution(), [constraint])
        assert verify_solution(lang, [constraint], solution), src
        checked += 1
    ok(
        f"criterion 5: {checked}/{len(SOLVED_INSTANCES)} solved instances "
        "re-simplify to flex-flex under their own substitution"
    )


# -- criterion 6: invariant suites -----------------------------------------


@settings(max_examples=1000, deadline=None)
@given(terms(ulc.signature, with_metas=True))
def test_criterion_6_whnf_idempotent_1000(t):
    try:
        once = reduce(ulc.signature, t, ulc.reducer, 200)
    except Undetermined:
        return  # divergent draws have no WHNF to compare
    assert reduce(ulc.signature, once, ulc.reducer, 200) == once


@settings(max_examples=1000, deadline=None)
@given(
    terms(stlc.signature, with_metas=True),
    st.sampled_from([Bound(0), Op("First", (Bound(0),)), Op("Pair", (Bound(0), Bound(0)))]),
)
def test_criterion_6_weaken_then_instantiate_cancels(t, filler):
    # weakening by one then substituting anything for the new index is identity
    sig = stlc.signature
    assert instantiate(sig, weaken(sig, t, 1), filler) == t


@settings(max_examples=500, deadline=None)
@given(terms(ulc.signature, with_metas=True))
def test_criterion_6_empty_substitution_is_identity_500(t):
    assert apply_substs(ulc.signature, EMPTY_SUBSTS, t) == t


_entries = st.dictionaries(
    st.sampled_from(["p", "q"]),
    terms(ulc.signature, size=3, with_metas=False).map(lambda t: MetaAbs(0, t)),
    max_size=2,
)


@settings(max_examples=500, deadline=None)
@given(terms(ulc.signature, with_metas=True), _entries, _entries)
def test_criterion_6_extend_matches_sequential_application_500(t, first, second):
    sig = ulc.signature
    s1 = MetaSubstitution(first)
    s2 = MetaSubstitution({k: v for k, v in second.items() if k not in first})
    combined = extend_substs(sig, s1, s2)
    assert apply_substs(sig, combined, t) == apply_substs(
        sig, s2, apply_substs(sig, s1, t)
    )


@settings(max_examples=1000, deadline=None)
@given(terms(mltt.signature, with_metas=True))
def test_criterion_6_generated_terms_well_scoped_1000(t):
    assert well_scoped(mltt.signature, t, 0)


def test_criterion_6_summary():
    ok(
        "criterion 6: invariants hold (whnf idempotent x1000, "
        "weaken/instantiate cancel x1000, empty substitution identity x500, "
        "extend = sequential application x500, scope preservation x1000)"
    )


# -- criterion 7: failure modes --------------------------------------------


def test_criterion_7_escaping_binder_fails_definitely():
    with pytest.raises(UnificationFailed):
        unify(
            ulc,
            MetaSubstitution(),
            [parse_constraint("forall y. ?m[] =?= f y", ulc)],
        )
    ok("criterion 7: forall y. ?m[] =?= f y fails definitely (exit 1 semantics)")


def test_criterion_7_guess_loop_exits_2_at_default_fuel(capsys, monkeypatch):
    code, _, err = run_cli(
        ["unify", "-"],
        capsys,
        stdin="?m[] =?= c (?m[])\n",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "undetermined" in err
    ok("criterion 7: guess-loop ?m[] =?= c (?m[]) exits 2 within default fuel")
