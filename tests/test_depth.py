"""Deep terms on the main thread, and no process-wide side effects.

Parsing, reduction, term walks and printing keep their own stacks, so a
fresh interpreter at the default recursion limit handles terms thousands
of levels deep.  The stages that still recurse (the type checker, and
structural equality of terms) report overly deep input as undetermined
(exit 2) rather than with a traceback.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

from metaterm import (
    LANGUAGES,
    MetaSubstitution,
    TypeChecker,
    normal_form,
    parse_constraint,
    parse_term,
    reduce,
    unify,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def metaterm(*argv: str) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter (default recursion limit)."""
    return subprocess.run(
        [sys.executable, "-m", "metaterm", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )


def church(n: int, f: str = "f", x: str = "x") -> str:
    return f"(\\{f}. \\{x}. " + f"{f} (" * n + x + ")" * n + ")"


def test_church_addition_of_256_deep_numerals():
    add = r"(\m. \n. \f. \x. m f (n f x))"
    result = metaterm("reduce", f"{add} {church(256)} {church(256)} (\\y. y) a")
    assert (result.returncode, result.stdout, result.stderr) == (0, "a\n", "")


def test_deeply_nested_argument_prints_back():
    text = "f (" * 2999 + "f x" + ")" * 2999
    result = metaterm("reduce", text)
    assert (result.returncode, result.stdout, result.stderr) == (0, text + "\n", "")


def test_deeply_nested_binders_print_back():
    names = ["x", "y", "z", "u", "v", "w", *(f"x{i}" for i in range(1, 2995))]
    text = "".join(f"\\{name}. " for name in names) + "x"
    result = metaterm("reduce", text)
    assert (result.returncode, result.stdout, result.stderr) == (0, text + "\n", "")


def test_deep_ast_output():
    text = "f (" * 1999 + "f x" + ")" * 1999
    result = metaterm("--output", "ast", "reduce", text)
    node = "Op(tag='App', children=(Free(name='f'), "
    expected = node * 2000 + "Free(name='x')" + "), ann=None)" * 2000
    assert (result.returncode, result.stdout, result.stderr) == (0, expected + "\n", "")


def test_long_application_spine_prints_back():
    text = "f " + " ".join(f"a{i}" for i in range(1, 3001))
    result = metaterm("reduce", text)
    assert (result.returncode, result.stdout, result.stderr) == (0, text + "\n", "")


def test_omega_is_undetermined():
    result = metaterm("reduce", r"(\x. x x) (\x. x x)")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "undetermined: no WHNF within 10000 head steps\n"


def test_recursive_type_checker_reports_depth_as_undetermined():
    body = "f (" * 999 + "f x" + ")" * 999
    result = metaterm("--lang", "stlc", "infer", rf"\f. \x. {body}")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("undetermined:")
    assert len(result.stderr.splitlines()) == 1


def test_library_calls_leave_the_process_alone():
    ulc, stlc = LANGUAGES["ulc"], LANGUAGES["stlc"]
    limit, threads = sys.getrecursionlimit(), threading.active_count()

    deep = parse_term("g (" * 1999 + "g x" + ")" * 1999, ulc)
    assert reduce(parse_term(r"(\x. x) a", ulc), ulc.reducer) == parse_term("a", ulc)
    assert normal_form(deep, ulc.reducer) == deep
    constraint = parse_constraint("forall x. ?m[x] =?= f x (g x)", ulc)
    assert unify(ulc, MetaSubstitution(), [constraint]).substs.get("m") is not None
    TypeChecker(stlc).infer(parse_term(r"\f. \x. f (f x)", stlc))

    assert sys.getrecursionlimit() == limit
    assert threading.active_count() == threads
