"""Metavariable substitution: application, composition, fresh names."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaterm import metavar
from metaterm.languages import LANGUAGES
from metaterm.metavar import (
    EMPTY_SUBSTS,
    ArityMismatch,
    ConflictingEntry,
    FreshSupply,
    MetaAbs,
    MetaSubstitution,
    apply_substs,
    extend_substs,
    metas_of,
)
from metaterm.terms import Bound, Free, Hole, MetaApp, Op, instantiate_many, well_scoped

from strategies import terms

SIG = LANGUAGES["ulc"].signature


def lam(body):
    return Op("Lam", (body,))


def app(f, a):
    return Op("App", (f, a))


class TestMetaAbs:
    def test_arity_bound_enforced(self):
        MetaAbs(2, app(Hole(0), Hole(1)))
        with pytest.raises(ArityMismatch):
            MetaAbs(1, Hole(1))

    def test_records_the_metavariables_of_its_body(self):
        body = app(MetaApp("m", (Hole(0),)), lam(MetaApp("k", (MetaApp("n"),))))
        assert MetaAbs(1, body).metas == {"m", "n", "k"}
        assert MetaAbs(0, Free("a")).metas == frozenset()

    def test_self_mention_rejected(self):
        with pytest.raises(ConflictingEntry):
            MetaSubstitution({"m": MetaAbs(0, MetaApp("m"))})


class TestCycles:
    def test_cycle_through_an_operator_rejected(self):
        with pytest.raises(ConflictingEntry):
            MetaSubstitution(
                {
                    "m": MetaAbs(0, app(Free("f"), MetaApp("n"))),
                    "n": MetaAbs(0, app(Free("g"), MetaApp("m"))),
                }
            )

    def test_rename_cycle_rejected(self):
        with pytest.raises(ConflictingEntry):
            MetaSubstitution({"m": MetaAbs(0, MetaApp("n")), "n": MetaAbs(0, MetaApp("m"))})

    def test_long_chain_checked_without_recursion(self):
        chain = {f"m{i}": MetaAbs(0, MetaApp(f"m{i + 1}")) for i in range(5000)}
        s = MetaSubstitution(chain)
        assert apply_substs(SIG, s, MetaApp("m0")) == MetaApp("m5000")
        with pytest.raises(ConflictingEntry):
            MetaSubstitution({**chain, "m5000": MetaAbs(0, app(Free("f"), MetaApp("m0")))})

    def test_extension_closing_a_cycle_rejected(self):
        # Each substitution is acyclic; rewritten under ``a``, b's body is ?b[].
        s = MetaSubstitution({"a": MetaAbs(0, MetaApp("b"))})
        with pytest.raises(ConflictingEntry):
            extend_substs(SIG, s, MetaSubstitution({"b": MetaAbs(0, app(Free("f"), MetaApp("a")))}))


class TestApply:
    def test_argument_instantiation(self):
        s = MetaSubstitution({"m": MetaAbs(1, app(Hole(0), Hole(0)))})
        out = apply_substs(SIG, s, MetaApp("m", (Free("a"),)))
        assert out == app(Free("a"), Free("a"))

    def test_unsolved_metas_keep_substituted_args(self):
        s = MetaSubstitution({"m": MetaAbs(0, Free("x"))})
        out = apply_substs(SIG, s, MetaApp("n", (MetaApp("m"),)))
        assert out == MetaApp("n", (Free("x"),))

    def test_nullary_entry_is_its_body(self, monkeypatch):
        monkeypatch.setattr(metavar, "instantiate_many", None)  # an arity-0 body has no holes
        body = app(Free("f"), MetaApp("n", (Bound(0),)))
        s = MetaSubstitution({"m": MetaAbs(0, body)})
        assert apply_substs(SIG, s, lam(MetaApp("m"))).children[0] is body

    def test_extension_keeps_a_body_that_mentions_no_key(self):
        s = MetaSubstitution({"m": MetaAbs(0, Free("a"))})
        kept, rewritten = MetaAbs(1, app(Hole(0), MetaApp("n"))), MetaAbs(0, MetaApp("m"))
        out = extend_substs(SIG, s, MetaSubstitution({"k": kept, "r": rewritten}))
        assert out.get("k") is kept and out.get("r") == MetaAbs(0, Free("a"))

    def test_chain_resolution(self):
        s = MetaSubstitution(
            {"m": MetaAbs(0, app(Free("f"), MetaApp("n"))), "n": MetaAbs(0, Free("a"))}
        )
        assert apply_substs(SIG, s, MetaApp("m")) == app(Free("f"), Free("a"))

    def test_arity_mismatch(self):
        s = MetaSubstitution({"m": MetaAbs(1, Hole(0))})
        with pytest.raises(ArityMismatch):
            apply_substs(SIG, s, MetaApp("m"))

    def test_holes_weakened_under_binders(self):
        s = MetaSubstitution({"m": MetaAbs(1, lam(Hole(0)))})
        out = apply_substs(SIG, s, MetaApp("m", (Bound(0),)))
        assert out == lam(Bound(1))

    def test_shared_subterm_is_instantiated_once(self, monkeypatch):
        """The substitution's memo spans calls: a subterm shared by two
        terms is instantiated once and its result is shared."""
        calls = []

        def counted(*args):
            calls.append(args)
            return instantiate_many(*args)

        monkeypatch.setattr(metavar, "instantiate_many", counted)
        s = MetaSubstitution({"m": MetaAbs(1, app(Hole(0), Hole(0)))})
        shared = app(MetaApp("m", (Free("a"),)), Free("b"))
        first = apply_substs(SIG, s, app(shared, Free("c")))
        second = apply_substs(SIG, s, lam(shared))
        assert len(calls) == 1
        assert first.children[0] is second.children[0]
        assert second == lam(app(app(Free("a"), Free("a")), Free("b")))


entries = st.dictionaries(
    st.sampled_from(["p", "q"]),
    terms(SIG, depth=0, size=3, with_metas=False).map(lambda t: MetaAbs(0, t)),
    max_size=2,
)


class TestLaws:
    @settings(max_examples=500, deadline=None)
    @given(terms(SIG, depth=0, size=4))
    def test_empty_substitution_is_identity(self, t):
        assert apply_substs(SIG, EMPTY_SUBSTS, t) == t

    @settings(max_examples=500, deadline=None)
    @given(terms(SIG, depth=0, size=4), entries, entries)
    def test_extend_composition_law(self, t, first, second):
        """apply(extend(s1, s2)) == apply(s2) . apply(s1)."""
        s1 = MetaSubstitution(first)
        s2 = MetaSubstitution({k: v for k, v in second.items() if k not in first})
        combined = extend_substs(SIG, s1, s2)
        sequential = apply_substs(SIG, s2, apply_substs(SIG, s1, t))
        assert apply_substs(SIG, combined, t) == sequential

    @given(terms(SIG, depth=0, size=4), entries)
    def test_apply_preserves_well_scopedness(self, t, es):
        out = apply_substs(SIG, MetaSubstitution(es), t)
        assert well_scoped(SIG, out)


def test_extend_conflict():
    s1 = MetaSubstitution({"m": MetaAbs(0, Free("a"))})
    s2 = MetaSubstitution({"m": MetaAbs(0, Free("b"))})
    with pytest.raises(ConflictingEntry):
        extend_substs(SIG, s1, s2)


def test_extend_agreeing_entries_ok():
    s1 = MetaSubstitution({"m": MetaAbs(0, Free("a"))})
    assert extend_substs(SIG, s1, s1).entries["m"] == MetaAbs(0, Free("a"))


def test_metas_of():
    t = app(MetaApp("m", (MetaApp("n"),)), lam(MetaApp("k", (Bound(0),))))
    assert metas_of(t) == {"m", "n", "k"}


class TestFreshSupply:
    def test_never_reissues(self):
        supply = FreshSupply()
        names = {supply.fresh() for _ in range(100)}
        assert len(names) == 100

    def test_avoids_taken_names(self):
        supply = FreshSupply.avoiding({"m1", "m2"})
        assert supply.fresh() == "m3"
