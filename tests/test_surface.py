"""Surface syntax: parsing, printing, and round-trip stability."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaterm.languages import LANGUAGES, Language
from metaterm.signature import SlotKind, annotate_signature, make_signature
from metaterm.syntax import (
    ParseError,
    UnknownConstruct,
    parse_constraint,
    parse_term,
    print_constraint,
    print_term,
)
from metaterm.terms import Bound, Free, Hole, MetaApp, Op
from metaterm.typecheck import TypeChecker, TypeCheckError
from metaterm.unification import Constraint, Undetermined

from helpers import dataclass_repr, simplify
from strategies import signatures, terms

ulc = LANGUAGES["ulc"]
stlc = LANGUAGES["stlc"]
mltt = LANGUAGES["mltt"]

# Every constructor of every language appears at least once below.
CORPUS = [
    # --- untyped lambda calculus ---
    ("ulc", "x"),
    ("ulc", r"\x. x"),
    ("ulc", r"\x. \y. x"),
    ("ulc", "f a"),
    ("ulc", "f a b c"),
    ("ulc", "f (g a) b"),
    ("ulc", r"(\x. x x) (\x. x x)"),
    ("ulc", r"\f. \x. f (f x)"),
    ("ulc", "?m[]"),
    ("ulc", "?m[a, b]"),
    ("ulc", r"\x. ?m[x, f x]"),
    ("ulc", r"f (\x. x)"),
    ("ulc", r"\x. \y. \z. x z (y z)"),
    # --- simply typed with pairs ---
    ("stlc", r"\x. x"),
    ("stlc", r"\(x : A). x"),
    ("stlc", r"\(f : A -> B). \(x : A). f x"),
    ("stlc", "A -> B"),
    ("stlc", "A -> B -> C"),
    ("stlc", "(A -> B) -> C"),
    ("stlc", "A * B"),
    ("stlc", "A * B -> C"),
    ("stlc", "A * (B -> C)"),
    ("stlc", "<a, b>"),
    ("stlc", "<<a, b>, c>"),
    ("stlc", "first p"),
    ("stlc", "second (first p)"),
    ("stlc", r"\(p : A * B). <second p, first p>"),
    ("stlc", "f (first p)"),
    ("stlc", "?t[] -> ?t[]"),
    ("stlc", r"\(x : ?a[]). x"),
    # --- dependent types ---
    ("mltt", "U"),
    ("mltt", "(A : U) -> A -> A"),
    ("mltt", "(A : U) -> (x : A) -> A"),
    ("mltt", r"\A. \x. x"),
    ("mltt", "(x : A) * P x"),
    ("mltt", "A * B"),
    ("mltt", "a = b"),
    ("mltt", "f a = g b"),
    ("mltt", "refl a"),
    ("mltt", "refl (f a)"),
    ("mltt", r"J(A, a, \y. \q. y = a, refl a, b, p)"),
    ("mltt", "(p : a = b) -> b = a"),
    ("mltt", r"\p. second p"),
    ("mltt", "(A : U) -> (P : A -> U) -> (x : A) -> P x -> (x : A) * P x"),
]


@pytest.mark.parametrize("lang_name, src", CORPUS)
def test_parse_print_parse_identity(lang_name, src):
    lang = LANGUAGES[lang_name]
    term = parse_term(src, lang)
    printed = print_term(lang, term)
    assert parse_term(printed, lang) == term, f"{src!r} -> {printed!r}"


@pytest.mark.parametrize("lang_name, src", CORPUS)
def test_print_is_stable(lang_name, src):
    lang = LANGUAGES[lang_name]
    once = print_term(lang, parse_term(src, lang))
    twice = print_term(lang, parse_term(once, lang))
    assert once == twice


@pytest.mark.parametrize("lang_name, src", CORPUS)
def test_ast_output_is_the_dataclass_repr(lang_name, src):
    lang = LANGUAGES[lang_name]
    term = parse_term(src, lang)
    assert repr(term) == dataclass_repr(term)
    if lang.infer_rules:
        try:
            typed = TypeChecker(lang).infer(term)
        except (TypeCheckError, Undetermined):
            return
        assert repr(typed) == dataclass_repr(typed)


@pytest.mark.parametrize("lang_name", sorted(LANGUAGES))
@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_random_terms_round_trip(lang_name, data):
    lang = LANGUAGES[lang_name]
    term = data.draw(terms(lang.signature, size=5))
    printed = print_term(lang, term)
    assert parse_term(printed, lang) == term, printed


def _custom(sig):
    return Language(sig.name, sig, {}, annotate_signature(sig), {})


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_random_signatures_round_trip(data):
    """Every signature is written in the generic form ``Tag(…)``."""
    sig = data.draw(signatures())
    term = data.draw(terms(sig, size=4))
    printed = print_term(_custom(sig), term)
    assert parse_term(printed, _custom(sig)) == term, printed


class TestGenericForm:
    SIG = make_signature(
        "custom",
        [
            ("Nil", []),
            ("Box", [SlotKind.TERM]),
            ("Bind", [SlotKind.TERM, SlotKind.SCOPE]),
            ("Ann", [SlotKind.OPT_TERM, SlotKind.TERM]),
        ],
    )

    @pytest.mark.parametrize(
        "src, term",
        [
            ("Nil", Op("Nil")),
            ("Box(a)", Op("Box", (Free("a"),))),
            ("Bind(Nil, x. Box(x))", Op("Bind", (Op("Nil"), Op("Box", (Bound(0),))))),
            ("Ann(_, Nil)", Op("Ann", (None, Op("Nil")))),
            ("?m[Nil, Ann(a, b)]", MetaApp("m", (Op("Nil"), Op("Ann", (Free("a"), Free("b")))))),
        ],
    )
    def test_parses_and_prints(self, src, term):
        lang = _custom(self.SIG)
        assert parse_term(src, lang) == term
        assert print_term(lang, term) == src

    def test_tags_are_reserved_in_their_language(self):
        lang = _custom(self.SIG)
        with pytest.raises(ParseError, match="expected '\\('"):
            parse_term("Box", lang)
        with pytest.raises(ParseError, match="'forall' needs at least one name"):
            parse_constraint("forall Box. Box(a) =?= a", lang)
        with pytest.raises(ParseError, match="Box takes 1 argument, got 2"):
            parse_term("Box(a, b)", lang)
        with pytest.raises(UnknownConstruct, match="application"):
            parse_term("f a", lang)

    def test_bundled_tags_stay_names(self):
        assert parse_term("Lam App", ulc) == Op("App", (Free("Lam"), Free("App")))
        assert parse_term("(Pi : U) -> Pi", mltt) == Op("Pi", (Op("Universe"), Bound(0)))


@pytest.mark.parametrize(
    "term, hole_names",
    [
        (Hole(0), ()),
        (Op("Lam", (Hole(1),)), ("x1",)),
        (Op("Box", (Free("a"),)), ()),
        (Op("Lam", ()), ()),
        (Op("App", (Free("f"),)), ()),
    ],
)
def test_unprintable_terms_raise_value_error(term, hole_names):
    """A hole without a name, a tag outside the language, a wrong child count."""
    with pytest.raises(ValueError, match="cannot print"):
        print_term(ulc, term, hole_names=hole_names)


class TestDeBruijnResolution:
    def test_names_resolve_to_indices(self):
        assert parse_term(r"\x. \y. x", ulc) == Op(
            "Lam", (Op("Lam", (Bound(1),)),)
        )

    def test_shadowing_picks_innermost(self):
        assert parse_term(r"\x. \x. x", ulc) == Op(
            "Lam", (Op("Lam", (Bound(0),)),)
        )

    def test_shadowed_name_resolves_past_the_inner_binder(self):
        # \x. \y. \x. x y: x is the innermost binder, y the one above it
        body = Op("App", (Bound(0), Bound(1)))
        assert parse_term(r"\x. \y. \x. x y", ulc) == Op(
            "Lam", (Op("Lam", (Op("Lam", (body,)),)),)
        )

    def test_name_is_free_again_once_its_scope_closes(self):
        lam_x = Op("Lam", (Bound(0),))
        assert parse_term(r"(\x. x) x", ulc) == Op("App", (lam_x, Free("x")))
        inner = Op("App", (Op("Lam", (Bound(0),)), Bound(0)))
        assert parse_term(r"\x. (\x. x) x", ulc) == Op("Lam", (inner,))
        pi = parse_term("((x : U) -> x) -> x", mltt)
        assert pi.children[1] == Free("x")
        c = parse_constraint(r"forall x. (\x. x) =?= x", ulc)
        assert (c.lhs, c.rhs) == (lam_x, Bound(0))

    def test_unbound_names_are_free(self):
        assert parse_term("a", ulc) == Free("a")

    def test_meta_args(self):
        assert parse_term("?m[a, b]", ulc) == MetaApp("m", (Free("a"), Free("b")))


class TestPrinterNames:
    def test_fresh_binders_avoid_free_names(self):
        # Lam body mentions free "x"; the invented binder must not capture it
        term = Op("Lam", (Op("App", (Bound(0), Free("x"))),))
        printed = print_term(ulc, term)
        assert parse_term(printed, ulc) == term

    def test_nested_binders_distinct(self):
        term = Op("Lam", (Op("Lam", (Op("App", (Bound(1), Bound(0))),)),))
        printed = print_term(ulc, term)
        assert parse_term(printed, ulc) == term
        head, _, _ = printed.partition(".")
        inner = printed.split(".")[1]
        assert head.lstrip("\\").strip() not in inner.split(".")[0]

    def test_numbered_names_skip_taken_ones(self):
        src = r"\a. x1 (\b. \c. \d. \e. \f. \g. \h. \i. x3 i a (\j. j h))"
        assert print_term(ulc, parse_term(src, ulc)) == (
            r"\x. x1 (\y. \z. \u. \v. \w. \x2. \x4. \x5. x3 x5 x (\x6. x6 x4))"
        )

    def test_annotations_suppressed(self):
        # typed nodes print like their erased counterparts
        typed = Op("App", (Free("f"), Free("a")), ann=Free("B"))
        assert print_term(stlc, typed) == "f a"

    def test_dependent_vs_plain_arrow(self):
        # source binder names are not retained; the printer invents fresh ones
        dependent = parse_term("(A : U) -> A -> A", mltt)
        assert print_term(mltt, dependent) == "(x : U) -> x -> x"
        plain = parse_term("A -> B", mltt)
        assert print_term(mltt, plain) == "A -> B"


class TestConstraints:
    def test_round_trip(self):
        for src in [
            "?m[] =?= f a",
            "forall x. ?m[x] =?= f x",
            "forall f x. ?m[f x] =?= f x",
            r"\x. ?m[x] =?= \x. f x",
        ]:
            c = parse_constraint(src, ulc)
            printed = print_constraint(ulc, c)
            assert parse_constraint(printed, ulc) == c

    def test_unnamed_binders_print_by_position(self):
        c = Constraint(MetaApp("m", (Bound(1),)), Bound(0), 2)
        assert print_constraint(ulc, c) == "forall x1 x2. ?m[x1] =?= x2"
        c = Constraint(MetaApp("m", (Bound(1),)), Bound(0), 2, ("y",))
        assert print_constraint(ulc, c) == "forall y x2. ?m[y] =?= x2"

    def test_unnamed_binders_avoid_given_and_free_names(self):
        c = Constraint(MetaApp("m", (Bound(1),)), Free("x2"), 2, ("x3",))
        assert print_constraint(ulc, c) == "forall x3 x4. ?m[x3] =?= x2"
        (residual,), _ = simplify(ulc, parse_constraint(r"forall x2. \z. ?n[x2, z] =?= \z. ?p[z, x2]", ulc))
        printed = print_constraint(ulc, residual)
        assert printed == "forall x2 x3. ?n[x2, x3] =?= ?p[x3, x2]"
        assert parse_constraint(printed, ulc) == residual

    def test_forall_introduces_binders(self):
        c = parse_constraint("forall x y. ?m[x] =?= y", ulc)
        assert c.binders == 2
        assert c.lhs == MetaApp("m", (Bound(1),))
        assert c.rhs == Bound(0)

    def test_missing_unify_sign(self):
        with pytest.raises(ParseError):
            parse_constraint("f a", ulc)


class TestRejections:
    @pytest.mark.parametrize(
        "lang_name, src",
        [
            ("ulc", "first t"),
            ("ulc", "<a, b>"),
            ("ulc", "A -> B"),
            ("ulc", r"\(x : A). x"),
            ("ulc", "refl a"),
            ("ulc", "U"),
            ("stlc", "(A : U) -> A"),
            ("stlc", "refl a"),
            ("stlc", r"J(A, a, m, d, x, p)"),
            ("stlc", "a = b"),
            ("mltt", r"\(x : A). x"),
        ],
    )
    def test_unknown_constructs_rejected(self, lang_name, src):
        with pytest.raises(UnknownConstruct):
            parse_term(src, LANGUAGES[lang_name])

    def test_unknown_construct_is_a_parse_error(self):
        assert issubclass(UnknownConstruct, ParseError)


class TestErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as exc_info:
            parse_term("f (a", ulc)
        assert exc_info.value.line == 1
        assert exc_info.value.column >= 4

    def test_multiline_position(self):
        with pytest.raises(ParseError) as exc_info:
            parse_term("f\n@", ulc)
        assert exc_info.value.line == 2

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_term("", ulc)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_term("f a )", ulc)

    def test_j_arity(self):
        with pytest.raises(ParseError):
            parse_term("J(a, b)", mltt)

    def test_forall_outside_constraint(self):
        with pytest.raises(ParseError):
            parse_term("forall x. x", ulc)
