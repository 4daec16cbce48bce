"""Golden CLI outputs whose text depends on traversal order.

Fresh metavariable names (from guesses and imitation), the order in which
solved metavariables are listed, inferred ``?t…`` names and printed
flex-flex residuals all follow the order in which term walks visit nodes:
pre-order, children left to right, annotation last.  Each case is replayed
in-process and must match stdout, stderr and the exit code byte for byte.
"""

from __future__ import annotations

import io
import sys

import pytest

from metaterm.cli import main

GOLDEN = [
    (['unify', '-'], '?m[] a =?= b\n', 0, '?m[] := \\x. b\n', ''),
    (['unify', '-'], '?f[] ?x[] =?= ?g[] ?y[]\n', 0, '?f[] := \\x. ?m1[x]\n?g[] := \\x. ?m2[x]\n?m1[?x[]] =?= ?m2[?y[]]\n', ''),
    (['--lang', 'stlc', 'unify', '-'], '?f[] (?g[] a) =?= b\n', 0, '?f[] := \\x. x\n?g[] := \\x. b\n', ''),
    (['--lang', 'stlc', 'unify', '-'], 'first ?p[] =?= a\n', 0, '?p[] := <a, ?m2[]>\n', ''),
    (['--lang', 'stlc', 'unify', '-'], 'forall x. first (?p[x]) =?= second x\n', 0, '?p[x1] := <second x1, ?m2[x1]>\n', ''),
    (['--lang', 'mltt', 'unify', '-'], 'J(A, a, C, ?d[] x, x, ?p[]) =?= d\n', 0, '?d[] := \\x. d\n?p[] := refl ?m2[]\n', ''),
    (['unify', '-'], 'forall x. ?m[x] =?= f x (g x)\n', 0, '?m[x1] := f x1 (g x1)\n', ''),
    (['unify', '-'], 'forall x y. ?m[x, y] =?= \\z. y (x z) z\n', 0, '?m[x1, x2] := \\x. x2 (x1 x) x\n', ''),
    (['unify', '-'], 'forall x y. ?m[x] =?= f y x y\n', 1, '', 'no solution: rigid heads clash in forall x y. x ?m10[x] ?m11[x] ?m12[x] =?= y\n'),
    (['unify', '-'], 'forall x. ?m[x] =?= \\y. g (h y x) y\n', 0, '?m[x1] := \\x. g (h x x1) x\n', ''),
    (['unify', '-'], '?a[?b[]] =?= f ?c[] ?d[]\n?e[] =?= ?c[]\n', 0, '?a[x1] := x1\n?b[] := f ?c[] ?d[]\n?e[] =?= ?c[]\n', ''),
    (['unify', '-'], 'forall x y. ?m[x] =?= ?n[y]\n', 0, 'forall x y. ?m[x] =?= ?n[y]\n', ''),
    (['unify', '-'], '?q[?r[a], ?s[]] =?= ?t[?u[]]\n?s[] =?= c\n?r[b] =?= b\n', 0, '?r[x1] := x1\n?s[] := c\n?q[a, c] =?= ?t[?u[]]\n', ''),
    (['--fuel', '5', 'unify', '-'], '?m[] =?= f ?m[]\n', 2, '', 'undetermined: candidate budget (5) exhausted\n'),
    # Patterns are solved by inversion, pruning other metavariables' out-of-scope
    # arguments; each inversion spends one unit of --fuel; an occurs check
    # leaves the constraint to the fuel-bounded candidate search.
    (['unify', '-'], 'forall x. ?m[x] =?= \\y. x x\n', 0, '?m[x1] := \\x. x1 x1\n', ''),
    (['unify', '-'], 'forall x y. ?m[x] =?= f (?n[x, y])\n', 0, '?m[x1] := f ?m1[x1]\n?n[x1, x2] := ?m1[x1]\n', ''),
    (['--fuel', '1', 'unify', '-'], '?m[] =?= a\n?n[] =?= b\n', 2, '', 'undetermined: candidate budget (1) exhausted\n'),
    (['--fuel', '4', 'unify', '-'], 'forall x. ?m[x] =?= c ?m[x] x\n', 2, '', 'undetermined: candidate budget (4) exhausted\n'),
    (['infer', '\\x. x'], None, 64, '', "language 'ulc' has no type system\n"),
    (['--lang', 'stlc', 'infer', '\\f. \\x. f (f x)'], None, 0, '(?t2[] -> ?t3[]) -> ?t2[] -> ?t3[]\nforall x1 x2. ?t3[] =?= ?t2[]\n', ''),
    (['--lang', 'stlc', 'infer', '\\p. <second p, first p>'], None, 0, '?t2[] * ?t3[] -> ?t3[] * ?t2[]\n', ''),
    (['--lang', 'stlc', 'infer', '\\f. \\g. \\x. g (f x) (f x)'], None, 0, '(?t3[] -> ?t4[]) -> (?t4[] -> ?t4[] -> ?t6[]) -> ?t3[] -> ?t6[]\n', ''),
    (['--lang', 'stlc', 'infer', '\\x. ?m[x] (first x)'], None, 0, '?t3[] * ?t4[] -> ?t5[]\n', ''),
    (['--lang', 'stlc', '--output', 'ast', 'infer', '\\x. x'], None, 0, "Op(tag='Fun', children=(MetaApp(meta='t1', args=()), MetaApp(meta='t1', args=())), ann=None)\n", ''),
    (['--lang', 'stlc', 'check', '\\x. x', ':', '?t[] -> ?u[]'], None, 0, '?t3[] -> ?t3[]\n?t3[] =?= ?t[]\n?t3[] =?= ?u[]\n', ''),
    (['--lang', 'mltt', 'infer', '\\f. \\x. f (f x)'], None, 0, '(?t4[] -> ?t5[]) -> ?t4[] -> ?t5[]\nforall x1 x2. ?t5[] =?= ?t4[]\n', ''),
    (['--lang', 'mltt', 'infer', '\\p. <second p, first p>'], None, 0, '?t4[] * ?t5[] -> ?t5[] * ?t4[]\n', ''),
    (['--lang', 'mltt', 'infer', '\\A. \\x. refl x'], None, 0, '(x : ?t1[]) -> (y : ?t2[x]) -> y = y\n', ''),
    (['--lang', 'mltt', 'infer', 'J(A, a, C, d, x, p)'], None, 0, 'C x p\n', ''),
    (['--lang', 'mltt', 'infer', '\\x. ?m[x]'], None, 0, '?t1[] -> ?t2[]\n', ''),
    # The fallback branches of the shared typing rules, in both typed languages.
    (['--lang', 'stlc', 'infer', '<a, b> c'], None, 1, '', 'type error: cannot unify types in ?t1[] * ?t2[] =?= ?t3[] -> ?t4[]\n'),
    (['--lang', 'mltt', 'infer', '<a, b> c'], None, 1, '', 'type error: cannot unify types in ?t1[] * ?t2[] =?= ?t3[] -> ?t4[]\n'),
    (['--lang', 'mltt', 'infer', 'refl a b'], None, 1, '', 'type error: cannot unify types in a = a =?= ?t2[] -> ?t3[]\n'),
    (['--lang', 'mltt', 'infer', '\\f. \\x. f x'], None, 0, '(?t4[] -> ?t5[]) -> ?t4[] -> ?t5[]\n', ''),
    (['--lang', 'stlc', 'infer', '\\p. second p'], None, 0, '?t2[] * ?t3[] -> ?t3[]\n', ''),
    (['--lang', 'mltt', 'infer', '\\p. second p'], None, 0, '?t4[] * ?t5[] -> ?t5[]\n', ''),
    (['--lang', 'stlc', 'infer', 'first (\\x. x)'], None, 1, '', 'type error: cannot unify types in ?t1[] -> ?t1[] =?= ?t2[] * ?t3[]\n'),
    (['--lang', 'mltt', 'infer', 'first (\\x. x)'], None, 1, '', 'type error: cannot unify types in ?t1[] -> ?t1[] =?= ?t2[] * ?t3[]\n'),
    (['--lang', 'stlc', 'infer', '\\(f : A -> B). \\(x : A). f x'], None, 0, '(A -> B) -> A -> B\n', ''),
    (['--lang', 'stlc', 'infer', '\\(x : <a, b>). x'], None, 1, '', 'type error: cannot unify types in ?t1[] * ?t2[] =?= U\n'),
    (['--lang', 'stlc', 'infer', '\\x. \\(y : x). y'], None, 1, '', "type error: inferred type 'x0 -> x0' depends on its bound variable x0\n"),
    (['--lang', 'stlc', 'infer', 'A * <a, b>'], None, 1, '', 'type error: cannot unify types in ?t2[] * ?t3[] =?= U\n'),
    (['--lang', 'mltt', 'infer', 'A * B'], None, 0, 'U\n', ''),
    (['--lang', 'mltt', 'infer', '(x : A) * refl x'], None, 1, '', "type error: inferred type 'x0 = x0' depends on its bound variable x0\n"),
    (['--lang', 'mltt', 'infer', '<a, b> * B'], None, 1, '', 'type error: cannot unify types in ?t1[] * ?t2[] =?= U\n'),
    (['--lang', 'stlc', 'check', '<a, b>', ':', 'A * B'], None, 0, 'A * B\n', ''),
    # Failure paths: the search exhausts its candidates, the guess budget runs
    # out while simplifying, and three syntax errors.
    (['unify', '-'], 'forall x. ?m[] =?= x\n', 1, '', 'no solution: no candidate solves ?m\n'),
    (['--lang', 'stlc', '--guess-fuel', '1', 'unify', '-'], 'first (first ?m[]) =?= a\n', 2, '', 'undetermined: guess budget exhausted during simplification\n'),
    (['--lang', 'stlc', 'reduce', '(x : a) -> x'], None, 64, '', "syntax error: dependent function type is not part of language 'stlc' (line 1, column 1)\n"),
    (['--lang', 'mltt', 'reduce', '(x : a) . x'], None, 64, '', "syntax error: expected '->' or '*' after binder, found '.' (line 1, column 9)\n"),
    (['unify', '-'], 'forall . ?m[] =?= a\n', 64, '', "syntax error: 'forall' needs at least one name (line 1, column 8)\n"),
    # A construct the language lacks is named, at its own token.
    (['reduce', 'A -> B'], None, 64, '', "syntax error: function type is not part of language 'ulc' (line 1, column 3)\n"),
    (['reduce', '(x : A) -> B'], None, 64, '', "syntax error: function type is not part of language 'ulc' (line 1, column 1)\n"),
    (['reduce', '\\(x : A). x'], None, 64, '', "syntax error: annotated lambda is not part of language 'ulc' (line 1, column 1)\n"),
    (['reduce', 'U'], None, 64, '', "syntax error: universe is not part of language 'ulc' (line 1, column 1)\n"),
    (['reduce', '<a, b>'], None, 64, '', "syntax error: pair is not part of language 'ulc' (line 1, column 1)\n"),
    (['reduce', 'first p'], None, 64, '', "syntax error: first is not part of language 'ulc' (line 1, column 1)\n"),
    (['--lang', 'stlc', 'reduce', 'a = b'], None, 64, '', "syntax error: identity type is not part of language 'stlc' (line 1, column 3)\n"),
    (['--lang', 'stlc', 'reduce', 'J(a, b, c, d, e, f)'], None, 64, '', "syntax error: identity eliminator is not part of language 'stlc' (line 1, column 1)\n"),
    (['--lang', 'mltt', 'reduce', 'J(a, b)'], None, 64, '', 'syntax error: J takes 6 arguments, got 2 (line 1, column 1)\n'),
    # A missing binder arrow at the end of input is named as such.
    (['--lang', 'stlc', 'infer', '(a:b)'], None, 64, '', "syntax error: expected '->' or '*' after binder, found 'end of input' (line 1, column 6)\n"),
]


@pytest.mark.parametrize(
    "argv, stdin, code, out, err", GOLDEN, ids=[" ".join(case[0]) for case in GOLDEN]
)
def test_cli_output_is_unchanged(argv, stdin, code, out, err, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin or ""))
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == err
