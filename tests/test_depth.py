"""Deep terms on the main thread, and no process-wide side effects.

Parsing, reduction, term walks, printing, type checking and term equality
keep their own stacks, so a fresh interpreter at the default recursion
limit handles terms thousands of levels deep.
"""

from __future__ import annotations

import ast
import importlib.util
import io
import os
import re
import subprocess
import sys
import threading
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from metaterm import (
    LANGUAGES,
    Free,
    MetaApp,
    MetaSubstitution,
    Op,
    TypeChecker,
    normal_form,
    parse_constraint,
    parse_term,
    reduce,
    unify,
)
from metaterm.unification import Clash, Constraint, _variant_key

SRC = Path(__file__).resolve().parent.parent / "src"
SCALING = SRC.parent / "tools" / "scaling.py"


def metaterm(*argv: str, stdin: str | None = None) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter (default recursion limit)."""
    return subprocess.run(
        [sys.executable, "-m", "metaterm", *argv],
        input=stdin,
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


def test_closure_chain_reads_back_on_the_main_thread():
    """Each closure's value is the one before it, 3,000 deep: the read-back
    fills them on its own stack, not through nested calls."""
    n = 3000
    text = f"\\f. f x{n}"
    for i in range(n, 1, -1):
        text = f"(\\x{i}. {text}) x{i - 1}"
    result = metaterm("reduce", f"(\\x1. {text}) a")
    assert (result.returncode, result.stdout, result.stderr) == (0, "\\x. x a\n", "")


def test_long_application_spine_prints_back():
    text = "f " + " ".join(f"a{i}" for i in range(1, 3001))
    result = metaterm("reduce", text)
    assert (result.returncode, result.stdout, result.stderr) == (0, text + "\n", "")


def test_long_mltt_arrow_chain_prints_back():
    text = " -> ".join(["a"] * 3001)
    result = metaterm("--lang", "mltt", "reduce", text)
    assert (result.returncode, result.stdout, result.stderr) == (0, text + "\n", "")


def test_mltt_arrow_chain_walks_are_linear():
    """Parsing weakens each arrow's right side and printing strengthens
    it; both skip it once its range is cached, so the term walks visit
    about twice the nodes for twice the arrows (the count, not the time)."""
    from metaterm.cli import main

    spec = importlib.util.spec_from_file_location("scaling", SCALING)
    scaling = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scaling)
    pops = []
    for arrows in (1000, 2000):
        with redirect_stdout(io.StringIO()), scaling.WalkCounter() as walks:
            assert main(["--lang", "mltt", "reduce", scaling.arrow_chain(arrows)]) == 0
        pops.append(walks.pops)
    assert 0 < pops[1] <= 2.2 * pops[0]


def test_omega_is_undetermined():
    result = metaterm("reduce", r"(\x. x x) (\x. x x)")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "undetermined: no WHNF within 10000 head steps\n"


def test_deep_stlc_infer():
    body = "f (" * 599 + "f x" + ")" * 599
    result = metaterm("--lang", "stlc", "infer", rf"\f. \x. {body}")
    expected = "(?t2[] -> ?t3[]) -> ?t2[] -> ?t3[]\nforall x1 x2. ?t3[] =?= ?t2[]\n"
    assert (result.returncode, result.stdout, result.stderr) == (0, expected, "")


def test_deep_unify_of_equal_terms():
    side = "f (" * 599 + "f x" + ")" * 599
    result = metaterm("unify", stdin=f"{side} =?= {side}\n")
    assert (result.returncode, result.stdout, result.stderr) == (0, "", "")


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "<a, " * 600 + "a" + ">" * 600, ":", "b"),  # unification failure
        ("infer", r"\A. \(x : " + "A * " * 399 + "A). x"),  # dependency escape
    ],
    ids=["check-deep-pair", "infer-deep-escape"],
)
def test_deep_type_errors(argv):
    result = metaterm("--lang", "stlc", *argv)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("type error: ")
    assert len(result.stderr.splitlines()) == 1


def test_equality_of_deep_terms():
    def tower(leaf: str) -> Op:
        term = Free(leaf)
        for _ in range(5000):
            term = Op("App", (Free("f"), term))
        return term

    assert tower("x") == tower("x")
    assert tower("x") != tower("y")


def test_variant_key_of_a_deep_constraint():
    """A search state's variant key is one flat tuple: building, hashing and
    comparing it need no deep stack."""

    def nest(leaf: str) -> Op:
        term = MetaApp(leaf)
        for _ in range(5000):
            term = MetaApp("m", (Op("App", (Free("f"), term)),))
        return term

    def key(leaf: str) -> tuple:
        return _variant_key([Constraint(MetaApp("m"), nest(leaf))])

    assert hash(key("n")) == hash(key("p"))
    assert key("n") == key("p") != key("m")


def test_repr_of_deep_terms():
    """``repr`` and the exception texts built on it need no deep stack."""
    term, n = Free("x"), 2500
    for _ in range(n):
        term = MetaApp("m", (Op("App", (Free("f"), term)),))
    level = "MetaApp(meta='m', args=(Op(tag='App', children=(Free(name='f'), "
    assert repr(term) == level * n + "Free(name='x')" + "), ann=None),))" * n

    ulc = LANGUAGES["ulc"]
    side = "f (" * 1999 + "f a" + ")" * 1999
    with pytest.raises(Clash) as clash:
        unify(ulc, MetaSubstitution(), [parse_constraint(f"{side} =?= g", ulc)])
    node = "Op(tag='App', children=(Free(name='f'), "
    lhs = node * 2000 + "Free(name='a')" + "), ann=None)" * 2000
    assert str(clash.value) == f"rigid heads clash in <{lhs} =?= Free(name='g')>"


def test_no_recursion_limit_path_and_one_trampoline():
    """No stage of the library relies on, or reports, the recursion limit,
    and ``terms.run`` is the only loop that drives generator steps."""
    drivers = set()
    for path in sorted((SRC / "metaterm").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert not re.search(r"RecursionError|setrecursionlimit|getrecursionlimit", source), path
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef):
                for call in ast.walk(node):
                    if isinstance(call, ast.Attribute) and call.attr in ("send", "throw"):
                        drivers.add((path.name, node.name))
    assert drivers == {("terms.py", "run")}


def test_library_calls_leave_the_process_alone():
    ulc, stlc = LANGUAGES["ulc"], LANGUAGES["stlc"]
    limit, threads = sys.getrecursionlimit(), threading.active_count()

    deep = parse_term("g (" * 1999 + "g x" + ")" * 1999, ulc)
    assert reduce(ulc.signature, parse_term(r"(\x. x) a", ulc), ulc.reducer) == parse_term("a", ulc)
    assert normal_form(ulc.signature, deep, ulc.reducer) == deep
    constraint = parse_constraint("forall x. ?m[x] =?= f x (g x)", ulc)
    assert unify(ulc, MetaSubstitution(), [constraint]).substs.get("m") is not None
    TypeChecker(stlc).infer(parse_term(r"\f. \x. f (f x)", stlc))

    assert sys.getrecursionlimit() == limit
    assert threading.active_count() == threads
