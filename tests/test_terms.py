"""Scoped-term operations: weakening, instantiation, substitution, scoping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaterm.languages import LANGUAGES
from metaterm.metavar import MetaAbs, MetaSubstitution, apply_substs
from metaterm.signature import SlotKind, make_signature
from metaterm.terms import (
    Bound,
    Free,
    Hole,
    MetaApp,
    MissingAssignment,
    Op,
    free_names,
    instantiate,
    instantiate_many,
    loose,
    rebuild,
    strengthen,
    substitute_free,
    subterms,
    trans,
    weaken,
    well_scoped,
)

from helpers import dataclass_repr
from strategies import terms

ulc = LANGUAGES["ulc"]
stlc = LANGUAGES["stlc"]
SIG = ulc.signature


def lam(body):
    return Op("Lam", (body,))


def app(f, a):
    return Op("App", (f, a))


class TestWeaken:
    def test_free_variables_untouched(self):
        assert weaken(SIG, Free("a"), 3) == Free("a")

    def test_shift_above_cutoff(self):
        t = lam(app(Bound(0), Bound(1)))
        assert weaken(SIG, t, 2) == lam(app(Bound(0), Bound(3)))

    def test_zero_shift_is_identity(self):
        t = lam(app(Bound(0), Free("a")))
        assert weaken(SIG, t, 0) is t

    @given(terms(SIG, depth=2), st.integers(0, 3))
    def test_preserves_well_scopedness(self, t, by):
        assert well_scoped(SIG, weaken(SIG, t, by), 2 + by)


class TestInstantiate:
    def test_beta_body(self):
        # (\x. x y) with argument a: body is Bound(0) applied to free y
        body = app(Bound(0), Free("y"))
        assert instantiate(SIG, body, Free("a")) == app(Free("a"), Free("y"))

    def test_shifts_outer_indices_down(self):
        body = app(Bound(0), Bound(1))
        assert instantiate(SIG, body, Free("a")) == app(Free("a"), Bound(0))

    def test_argument_weakened_under_binder(self):
        body = lam(Bound(1))  # refers to the variable being instantiated
        assert instantiate(SIG, body, Bound(0)) == lam(Bound(1))

    @given(terms(SIG, depth=1), terms(SIG, depth=0))
    def test_cancellation_with_weaken(self, body, arg):
        """Weakening then instantiating is the identity."""
        assert instantiate(SIG, weaken(SIG, body, 1, at=0), arg) == body

    @given(terms(SIG, depth=0), terms(SIG, depth=0))
    def test_weaken_instantiate_cancellation_closed(self, t, arg):
        assert instantiate(SIG, weaken(SIG, t, 1), arg) == t


class TestInstantiateMany:
    def test_fills_holes(self):
        body = app(Hole(0), Hole(1))
        out = instantiate_many(SIG, [Free("a"), Free("b")], body)
        assert out == app(Free("a"), Free("b"))

    def test_holes_weakened_under_binders(self):
        body = lam(app(Bound(0), Hole(0)))
        out = instantiate_many(SIG, [Bound(0)], body)
        assert out == lam(app(Bound(0), Bound(1)))

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignment):
            instantiate_many(SIG, [], Hole(0))


class TestSubstituteFree:
    def test_capture_avoided(self):
        # substituting Bound-mentioning image under a binder weakens it
        t = lam(Free("a"))
        out = substitute_free(SIG, {"a": Bound(0)}, t)
        assert out == lam(Bound(1))

    def test_untouched_names(self):
        t = app(Free("a"), Free("b"))
        assert substitute_free(SIG, {"c": Free("d")}, t) == t

    def test_empty_environment_returns_the_term(self):
        t = app(Free("a"), Free("b"))
        assert substitute_free(SIG, {}, t) is t

    @given(terms(SIG, depth=0), terms(SIG, depth=0))
    def test_preserves_well_scopedness(self, t, image):
        assert well_scoped(SIG, substitute_free(SIG, {"a": image}, t), 0)


class TestWellScoped:
    def test_dangling_index(self):
        assert not well_scoped(SIG, Bound(0))
        assert well_scoped(SIG, lam(Bound(0)))

    def test_operator_arity(self):
        assert not well_scoped(SIG, Op("App", (Free("a"),)))
        assert not well_scoped(SIG, Op("NoSuchTag", ()))

    def test_optional_slot(self):
        t = Op("Lam", (None, Bound(0)))
        assert well_scoped(stlc.signature, t)
        assert not well_scoped(stlc.signature, Op("App", (None, Free("a"))))

    def test_holes_are_not_well_scoped(self):
        assert not well_scoped(SIG, Hole(0))


class TestMentionsAndStrengthen:
    def test_strengthen_adjusts_under_binder(self):
        with pytest.raises(ValueError):
            strengthen(SIG, lam(Bound(1)))
        assert strengthen(SIG, lam(Bound(0))) == lam(Bound(0))

    def test_strengthen_shifts_down(self):
        assert strengthen(SIG, lam(app(Bound(0), Bound(2)))) == lam(
            app(Bound(0), Bound(1))
        )

    def test_strengthen_rejects_occurrence(self):
        with pytest.raises(ValueError):
            strengthen(SIG, Bound(0))


class TestTrans:
    def test_retags_bottom_up(self):
        other = make_signature(
            "other", [("Mu", [SlotKind.SCOPE]), ("Ap", [SlotKind.TERM, SlotKind.TERM])]
        )

        def phi(node):
            return Op({"Lam": "Mu", "App": "Ap"}[node.tag], node.children)

        out = trans(phi, lam(app(Bound(0), Free("a"))))
        assert out == Op("Mu", (Op("Ap", (Bound(0), Free("a"))),))
        assert well_scoped(other, out)

    def test_identity(self):
        t = lam(app(Bound(0), MetaApp("m", (Free("a"),))))
        assert trans(lambda n: n, t) == t


def test_free_names_collects_everywhere():
    t = lam(app(Free("a"), MetaApp("m", (Free("b"),))))
    assert free_names(t) == {"a", "b"}


@settings(max_examples=300, deadline=None)
@given(terms(stlc.signature, depth=1, size=5))
def test_operations_preserve_well_scopedness(t):
    """Weaken, instantiate, substitute: scoping invariants hold throughout."""
    sig = stlc.signature
    assert well_scoped(sig, t, 1)
    assert well_scoped(sig, weaken(sig, t, 2), 3)
    assert well_scoped(sig, instantiate(sig, t, Free("z")), 0)
    assert well_scoped(sig, substitute_free(sig, {"a": Free("q")}, t), 1)


class TestRebuildMemo:
    def test_shared_subterm_is_entered_once(self):
        shared = app(Free("a"), Free("b"))
        entered = []

        def enter(t):
            entered.append(t)
            return app(Free("c"), t.children[1]) if t is shared else t

        out = rebuild(app(shared, shared), enter=enter, memo={})
        assert sum(t is shared for t in entered) == 1
        assert out.children[0] is out.children[1]
        assert out == app(app(Free("c"), Free("b")), app(Free("c"), Free("b")))


def _by_arity(t):
    """``t`` with each metavariable renamed after its arity (``m`` applied
    to two arguments becomes ``m2``), so that one substitution fits it."""
    return rebuild(
        t, enter=lambda n: MetaApp(f"{n.meta}{len(n.args)}", n.args) if type(n) is MetaApp else n
    )


# Each ``m<k>`` resolves through ``n<k>``, so the walk enters the fresh nodes
# that ``instantiate_many`` builds, and most of them die before it ends;
# ``n2`` stays unsolved.
CHAINED = MetaSubstitution(
    {
        **{
            f"m{k}": MetaAbs(
                k,
                app(lam(app(Bound(0), Hole(0) if k else Free("c"))), MetaApp(f"n{k}", tuple(map(Hole, range(k))))),
            )
            for k in range(3)
        },
        "n0": MetaAbs(0, lam(app(Bound(0), Free("d")))),
        "n1": MetaAbs(1, app(Hole(0), lam(Hole(0)))),
    }
)


@settings(max_examples=200, deadline=None)
@given(st.lists(terms(SIG, size=4), min_size=1, max_size=4))
def test_memo_agrees_with_no_memo(ts):
    """``CHAINED``'s own memo, warm from every earlier call and example,
    gives what a fresh substitution's cold memo gives.  Entries keep their
    keys alive: keyed by ``id`` alone, a dead node's ``id`` reused by a new
    one read back a wrong subterm."""
    ts = [_by_arity(t) for t in ts]
    dags = ts + [app(a, b) for a, b in zip(ts, ts[1:] + ts[:1])]
    for t in dags + dags:
        fresh = MetaSubstitution(CHAINED.entries)
        assert apply_substs(SIG, CHAINED, t) == apply_substs(SIG, fresh, t)


# -- the cached loose range ------------------------------------------------
#
# References written from scratch, by plain recursion over small terms: no
# cache, no pruning.


def _naive_loose(sig, t):
    match t:
        case Bound(k):
            return k + 1
        case MetaApp(_, args):
            return max([0, *(_naive_loose(sig, a) for a in args)])
        case Op(tag, children, ann):
            scopes = [kind is SlotKind.SCOPE for kind in sig.operators[tag].slots]
            inner = [_naive_loose(sig, c) - s for c, s in zip(children, scopes) if c is not None]
            return max([0, *inner, 0 if ann is None else _naive_loose(sig, ann)])
    return 0


def _naive_map(sig, t, bound, d):
    """``t`` with each ``Bound(k)`` at binder depth ``d`` replaced by ``bound(k, d)``."""
    match t:
        case Bound(k):
            return bound(k, d)
        case MetaApp(meta, args):
            return MetaApp(meta, tuple(_naive_map(sig, a, bound, d) for a in args))
        case Op(tag, children, ann):
            slots = sig.operators[tag].slots
            return Op(
                tag,
                tuple(
                    None if c is None else _naive_map(sig, c, bound, d + (kind is SlotKind.SCOPE))
                    for kind, c in zip(slots, children)
                ),
                None if ann is None else _naive_map(sig, ann, bound, d),
            )
    return t


def _naive_weaken(sig, t, by, at=0):
    return _naive_map(sig, t, lambda k, d: Bound(k + by if k >= d else k), at)


def _naive_instantiate(sig, body, arg):
    def bound(k, d):
        return _naive_weaken(sig, arg, d) if k == d else Bound(k - 1 if k > d else k)

    return _naive_map(sig, body, bound, 0)


def _naive_strengthen(sig, t, at=0):
    def bound(k, d):
        if k == d:
            raise ValueError("occurs")
        return Bound(k - 1 if k > d else k)

    return _naive_map(sig, t, bound, at)


def _naive_mentions(sig, t, index):
    try:
        _naive_strengthen(sig, t, index)
    except ValueError:
        return True
    return False


def _copy(t):
    """A structurally equal term that shares no node with ``t``."""
    return rebuild(t, post=lambda n: Op(n.tag, n.children, n.ann), enter=lambda n: (
        MetaApp(n.meta, n.args) if type(n) is MetaApp else n
    ))


@st.composite
def scoped_terms(draw, lang, depth=3):
    """A term of ``lang`` at binder depth ``depth`` whose root shares one
    subterm twice and carries an annotation, so the walks meet both."""
    sig = lang.signature
    shared = draw(terms(sig, depth))
    ann = draw(terms(sig, depth, 2))
    root = Op("App", (shared, draw(st.sampled_from([shared, _copy(shared)]))), ann)
    return draw(st.sampled_from([shared, root]))


LOOSE_LANGS = pytest.mark.parametrize("lang", [ulc, stlc, LANGUAGES["mltt"]], ids=lambda l: l.name)


@LOOSE_LANGS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loose_matches_naive_recomputation(lang, data):
    t = data.draw(scoped_terms(lang))
    sig = lang.signature
    loose(sig, data.draw(st.sampled_from([s for s, _, _, _ in subterms(t)])))
    # a part is cached first: the walk must stop there and still agree
    assert loose(sig, t) == _naive_loose(sig, t)
    for s, _, _, _ in subterms(t):
        assert loose(sig, s) == _naive_loose(sig, s)


@LOOSE_LANGS
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_pruned_operations_match_unpruned_references(lang, data):
    sig = lang.signature
    t = data.draw(scoped_terms(lang))
    arg = data.draw(terms(sig, 2))
    by, at = data.draw(st.integers(1, 2)), data.draw(st.integers(0, 3))
    for _ in range(2):  # before and after the ranges are cached
        assert weaken(sig, t, by, at) == _naive_weaken(sig, t, by, at)
        assert instantiate(sig, t, arg) == _naive_instantiate(sig, t, arg)
        if _naive_mentions(sig, t, at):
            with pytest.raises(ValueError):
                strengthen(sig, t, at)
        else:
            assert strengthen(sig, t, at) == _naive_strengthen(sig, t, at)


@LOOSE_LANGS
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_reading_the_range_changes_no_observation(lang, data):
    t = data.draw(scoped_terms(lang))
    fresh = _copy(t)
    before = (dataclass_repr(t), hash(t))  # repr is checked against the reference
    loose(lang.signature, t)
    weaken(lang.signature, t, 1)
    assert (repr(t), hash(t)) == before == (repr(fresh), hash(fresh))
    assert t == fresh and fresh == t


@LOOSE_LANGS
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_plain_and_typed_signatures_share_one_range(lang, data):
    t = data.draw(scoped_terms(lang))
    assert lang.signature.binder_shifts is lang.typed_signature.binder_shifts
    values = [loose(lang.signature, s) for s, _, _, _ in subterms(t)]
    assert [loose(lang.typed_signature, s) for s, _, _, _ in subterms(t)] == values
    nodes = [s for s, _, _, _ in subterms(t) if type(s) in (Op, MetaApp)]
    assert all(s._scopes is lang.signature.binder_shifts for s in nodes)  # one key


def test_closed_terms_are_returned_as_they_are():
    closed = lam(app(Bound(0), Free("a")))
    assert weaken(SIG, closed, 3) is closed
    assert strengthen(SIG, closed) is closed
    body = app(Bound(0), closed)
    assert instantiate(SIG, body, Free("b")).children[1] is closed
