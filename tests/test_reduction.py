"""Weak-head reduction: rules, composition, strictness, fuel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from metaterm.languages import LANGUAGES
from metaterm.reduction import (
    Undetermined,
    normal_form,
    reduce,
    sum_reduce,
)
from metaterm.syntax import parse_term
from metaterm.terms import Bound, Free, MetaApp, Op, well_scoped

from strategies import terms

ulc = LANGUAGES["ulc"]
stlc = LANGUAGES["stlc"]
mltt = LANGUAGES["mltt"]


def ul(src: str):
    return parse_term(src, ulc)


class TestBeta:
    def test_simple_redex(self):
        assert reduce(ul(r"(\x. x) a"), ulc.reducer) == Free("a")

    def test_weak_head_only(self):
        # the argument of a stuck application is left unreduced
        t = ul(r"f ((\x. x) a)")
        assert reduce(t, ulc.reducer) == t

    def test_no_reduction_under_lambda(self):
        t = ul(r"\y. (\x. x) a")
        assert reduce(t, ulc.reducer) == t

    def test_iterated_redexes(self):
        assert reduce(ul(r"(\x. \y. y x) a b"), ulc.reducer) == ul("b a")

    def test_divergence_raises(self):
        omega = ul(r"(\x. x x) (\x. x x)")
        with pytest.raises(Undetermined):
            reduce(omega, ulc.reducer, fuel=100)


class TestProjections:
    def test_first_second(self):
        assert reduce(parse_term("first <a, b>", stlc), stlc.reducer) == Free("a")
        assert reduce(parse_term("second <a, b>", stlc), stlc.reducer) == Free("b")

    def test_stuck_projection(self):
        t = parse_term("first p", stlc)
        assert reduce(t, stlc.reducer) == t


class TestIdentityEliminator:
    def test_fires_on_refl(self):
        t = parse_term("J(A, a, C, d, a, refl a)", mltt)
        assert reduce(t, mltt.reducer) == Free("d")

    def test_reduces_base_to_whnf(self):
        t = parse_term(r"J(A, a, C, (\x. x) d, a, refl a)", mltt)
        assert reduce(t, mltt.reducer) == Free("d")

    def test_proof_is_head_reduced_first(self):
        t = parse_term(r"J(A, a, C, d, a, (\p. p) (refl a))", mltt)
        assert reduce(t, mltt.reducer) == Free("d")

    def test_stuck_without_refl(self):
        t = parse_term("J(A, a, C, d, x, p)", mltt)
        assert reduce(t, mltt.reducer) == t


class TestMetaStrictness:
    def test_arguments_reduced(self):
        t = MetaApp("m", (ul(r"(\x. x) a"),))
        assert reduce(t, ulc.reducer) == MetaApp("m", (Free("a"),))

    def test_application_itself_remains(self):
        t = Op("App", (MetaApp("m"), Free("a")))
        assert reduce(t, ulc.reducer) == t


class TestCombination:
    def test_empty_reduce_is_inert(self):
        t = ul(r"(\x. x) a")
        assert reduce(t, {}) == t

    def test_sum_disjoint(self):
        merged = sum_reduce({"A": lambda n, go: n}, {"B": lambda n, go: n})
        assert set(merged) == {"A", "B"}

    def test_sum_overlap_rejected(self):
        with pytest.raises(ValueError):
            sum_reduce(ulc.reducer, ulc.reducer)


@settings(max_examples=1000, deadline=None)
@given(terms(stlc.signature, depth=0, size=4))
def test_whnf_idempotent(t):
    """Reducing a WHNF again changes nothing."""
    try:
        once = reduce(t, stlc.reducer, fuel=300)
    except Undetermined:
        return  # divergent fuzz case: nothing to assert
    assert reduce(once, stlc.reducer, fuel=300) == once


@settings(max_examples=300, deadline=None)
@given(terms(stlc.signature, depth=0, size=4))
def test_whnf_preserves_well_scopedness(t):
    try:
        out = reduce(t, stlc.reducer, fuel=300)
    except Undetermined:
        return
    assert well_scoped(stlc.signature, out)


def test_normal_form_reduces_everywhere():
    t = parse_term(r"\y. (\x. x) a", ulc)
    assert normal_form(t, ulc.reducer) == parse_term(r"\y. a", ulc)
