"""Signature construction, combination, and node matching."""

from __future__ import annotations

import pytest

from metaterm.languages import LANGUAGES, get_language
from metaterm.signature import (
    INF_UNIVERSE_TAG,
    SignatureError,
    SlotKind,
    annotate_signature,
    make_signature,
    sum_signature,
    zip_match,
)
from metaterm.terms import Bound, Free, Op

ulc = LANGUAGES["ulc"]
stlc = LANGUAGES["stlc"]
mltt = LANGUAGES["mltt"]


def test_make_signature_and_lookup():
    sig = make_signature("demo", [("F", [SlotKind.TERM]), ("C", [])])
    assert sig.operators["F"].slots == (SlotKind.TERM,)
    assert sig.operators["C"].slots == ()


def test_unknown_language_lists_the_bundled_ones():
    assert get_language("stlc") is stlc
    expected = "unknown language 'nope'; choose from ['mltt', 'stlc', 'ulc']"
    with pytest.raises(KeyError) as info:
        get_language("nope")
    assert info.value.args == (expected,)


class TestSum:
    def test_disjoint_union(self):
        a = make_signature("a", [("F", [SlotKind.TERM])])
        b = make_signature("b", [("G", [])])
        s = sum_signature(a, b)
        assert set(s.operators) == {"F", "G"}

    def test_overlap_rejected(self):
        a = make_signature("a", [("F", [])])
        with pytest.raises(SignatureError):
            sum_signature(a, a)


class TestAnnotate:
    def test_adds_terminator(self):
        assert INF_UNIVERSE_TAG in ulc.typed_signature.operators
        assert ulc.typed_signature.typed
        assert not ulc.signature.typed

    def test_universe_equivalence(self):
        tsig = mltt.typed_signature
        assert tsig.equivalent_tags("Universe", INF_UNIVERSE_TAG)
        assert not tsig.equivalent_tags("Pi", INF_UNIVERSE_TAG)


class TestZipMatch:
    def test_same_tag_pairs_slots(self):
        sig = ulc.signature
        left = Op("App", (Free("f"), Free("a")))
        right = Op("App", (Free("g"), Free("b")))
        tag, slots = zip_match(sig, left, right)
        assert tag == "App"
        assert slots == [
            (SlotKind.TERM, Free("f"), Free("g")),
            (SlotKind.TERM, Free("a"), Free("b")),
        ]

    def test_tag_clash(self):
        sig = stlc.signature
        assert zip_match(sig, Op("First", (Free("a"),)), Op("Pair", (Free("a"), Free("b")))) is None

    def test_optional_both_absent(self):
        sig = stlc.signature
        tag, slots = zip_match(sig, Op("Lam", (None, Bound(0))), Op("Lam", (None, Bound(0))))
        assert slots == [(SlotKind.SCOPE, Bound(0), Bound(0))]

    def test_optional_one_present_pairs_with_itself(self):
        sig = stlc.signature
        left = Op("Lam", (Free("A"), Bound(0)))
        right = Op("Lam", (None, Bound(0)))
        _, slots = zip_match(sig, left, right)
        assert (SlotKind.TERM, Free("A"), Free("A")) in slots

    def test_equivalent_nullary_cross_tag(self):
        tsig = mltt.typed_signature
        assert zip_match(tsig, Op("Universe"), Op(INF_UNIVERSE_TAG)) == ("Universe", [])

    def test_typed_annotations_paired(self):
        tsig = stlc.typed_signature
        left = Op("App", (Free("f"), Free("a")), ann=Free("T"))
        right = Op("App", (Free("g"), Free("b")), ann=Free("S"))
        _, slots = zip_match(tsig, left, right)
        assert (SlotKind.TERM, Free("T"), Free("S")) in slots

    def test_typed_annotation_presence_must_agree(self):
        tsig = stlc.typed_signature
        left = Op("App", (Free("f"), Free("a")), ann=Free("T"))
        right = Op("App", (Free("g"), Free("b")))
        assert zip_match(tsig, left, right) is None

