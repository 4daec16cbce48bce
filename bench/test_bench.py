"""Tests of the benchmark itself: references, corpus, tracing.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import io
import json
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from reference import (  # noqa: E402
    ExactText,
    Failure,
    Outcome,
    Solved,
    Printed,
    normalise,
    principal_simple_type,
    read_term,
    same_up_to_meta_renaming,
)

# Hand-written answers: the README's documented output, or derived by hand.
README_ANSWERS = {
    ("--lang", "stlc", "infer", r"\x. \y. y"): Outcome(0, "?t1[] -> ?t2[] -> ?t2[]\n", ""),
    ("--lang", "mltt", "check", r"\A. \x. x", ":", "(A : U) -> (x : A) -> A"):
        Outcome(0, "(x : U) -> x -> x\n", ""),
    ("--lang", "stlc", "check", r"\A. \(x : A). x", ":", "?t[]"):
        Outcome(1, "", "type error: inferred type 'x0 -> x0' depends on its bound variable x0\n"),
    ("?m[<t1, t2>] =?= t1\n",): Outcome(0, "?m[x1] := first x1\n", ""),
    ("forall f. forall x. ?m[f x] =?= f x\n",): Outcome(0, "?m[x1] := x1\n", ""),
    ("?m1[] =?= ?m2[]\n",): Outcome(0, "?m1[] =?= ?m2[]\n", ""),
    ("reduce", r"(\x. x) a"): Outcome(0, "a\n", ""),
    ("--lang", "stlc", "reduce", "first <a, b>"): Outcome(0, "a\n", ""),
    ("--lang", "mltt", "reduce", r"J(A, a, \y. \q. C, d, a, refl a)"): Outcome(0, "d\n", ""),
    ("--lang", "ulc", "reduce", r"(\x. \y. x) a b"): Outcome(0, "a\n", ""),
    ("--lang", "ulc", "reduce", r"(\x. \y. y x) a"): Outcome(0, "\\x. x a\n", ""),
    ("--lang", "ulc", "reduce", r"(\x. x x) (\y. y)"): Outcome(0, "\\x. x\n", ""),
    ("--lang", "stlc", "reduce", "second <a, <b, c>>"): Outcome(0, "<b, c>\n", ""),
    ("--lang", "mltt", "infer", "refl a"): Outcome(0, "a = a\n", ""),
}


def _key(item: corpus.Item) -> tuple:
    return (item.stdin,) if item.stdin is not None else item.argv


def _handwritten(workload: str) -> list[corpus.Item]:
    return [i for i in corpus.build(workload, 0) if i.handwritten]


def _answer(item: corpus.Item) -> Outcome:
    """The hand-written answer for a hand-written item."""
    if _key(item) in README_ANSWERS:
        return README_ANSWERS[_key(item)]
    if item.family == "mltt-check":
        term, colon, ty = item.argv[-3:]
        if isinstance(item.expect, Failure):
            return Outcome(1, "", f"type error: cannot unify types in {ty}\n")
        return Outcome(0, ty + "\n", "")  # ``check`` answers with the type it was given
    raise AssertionError(f"no hand-written answer for {item}")


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_references_accept_handwritten_answers(workload):
    items = _handwritten(workload)
    assert items
    for item in items:
        assert item.expect.check(_answer(item)) is None, item


def _mutations(got: Outcome) -> list[Outcome]:
    out = [Outcome(got.code + 1, got.out, got.err)]
    if got.out:
        out.append(Outcome(got.code, got.out.replace("x", "z", 1).replace("a", "b", 1) + "extra\n", got.err))
        out.append(Outcome(got.code, "", got.err))
    if got.err:
        out.append(Outcome(got.code, "", "error: something else\n"))
        out.append(Outcome(got.code, "unexpected\n", got.err))
    return out


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_references_reject_mutated_answers(workload):
    for item in _handwritten(workload):
        for wrong in _mutations(_answer(item)):
            assert item.expect.check(wrong) is not None, (item, wrong)


def test_type_reference_is_up_to_consistent_meta_renaming():
    expect = Printed(read_term("?a[] -> ?b[] -> ?b[]"))
    assert expect.check(Outcome(0, "?t7[] -> ?t3[] -> ?t3[]\n", "")) is None
    assert expect.check(Outcome(0, "?t7[] -> ?t3[] -> ?t7[]\n", "")) is not None
    assert expect.check(Outcome(0, "?t7[] -> ?t7[] -> ?t7[]\n", "")) is not None


def test_skeleton_reference_forgets_meta_arguments_only():
    expect = Printed(read_term("(?a[] -> ?b[]) -> ?a[] -> ?b[]"), skeleton=True)
    good = "(x : ?t2[?t4[]] -> ?t3[?t4[], ?t5[]]) -> (y : ?t2[x]) -> ?t3[x, y]\n"
    assert expect.check(Outcome(0, good, "")) is None
    swapped = "(x : ?t2[?t4[]] -> ?t3[?t4[], ?t5[]]) -> (y : ?t3[x]) -> ?t2[x, y]\n"
    assert expect.check(Outcome(0, swapped, "")) is not None


def test_solution_reference_compares_normal_forms():
    expect = Solved((("m", 2, read_term("<first x1, c x2>")),))
    redex = "?m[x1, x2] := <first <first x1, ?m6[x1, x2]>, c x2>\n"
    assert expect.check(Outcome(0, redex, "")) is None
    swapped = "?m[x1, x2] := <first x2, c x1>\n"
    assert expect.check(Outcome(0, swapped, "")) is not None
    assert expect.check(Outcome(2, "", "undetermined: candidate budget (1000) exhausted\n")) is not None


def test_generated_references_by_construction():
    church = [i for i in corpus.build("normalize", 3) if i.family == "church"]
    assert church and all(i.expect == ExactText("a\n") for i in church)
    assert all(i.expect.check(Outcome(0, "b\n", "")) for i in church)
    chain = next(i for i in corpus.build("infer", 3) if i.family == "stlc-apply-chain" and i.size == 4)
    # The constructed type equals the principal type of an independent
    # first-order inference, up to renaming.
    assert same_up_to_meta_renaming(principal_simple_type(read_term(chain.argv[-1])), chain.expect.expected)
    planted = [i for i in corpus.build("unify", 3) if i.family == "planted-pattern"]
    assert len(planted) == 24 * corpus.PLANTED_PER_SIZE
    for item in planted:
        # ``forall u.. . ?m[args] =?= body``: the planted body with each
        # argument renamed to its parameter name is the answer.
        m = re.fullmatch(r"forall ([^.]*)\. \?m\[([^\]]*)\] =\?= (.*)\n", item.stdin)
        params = {name: f"x{i + 1}" for i, name in enumerate(m.group(2).split(", "))}
        body = re.sub(r"\bu\d+\b", lambda w: params[w.group()], m.group(3))
        line = f"?m[{', '.join(params.values())}] := {body}\n"
        assert item.expect.check(Outcome(0, line, "")) is None, line
        if item.size >= 2:
            swapped = line.replace("x1", "#").replace("x2", "x1").replace("#", "x2")
            swapped = "?m[x1, x2" + swapped[len("?m[x2, x1"):]
            assert item.expect.check(Outcome(0, swapped, "")) is not None, swapped


def test_normaliser_computes_beta_projection_and_j():
    assert normalise(read_term(r"(\x. \y. x) a b")) == ("free", "a")
    assert normalise(read_term("second <a, <b, c>>")) == read_term("<b, c>")
    assert normalise(read_term(r"J(A, a, \y. \q. C, d, a, refl a)")) == ("free", "d")


def test_corpus_is_a_function_of_the_seed():
    for workload in corpus.WORKLOADS:
        assert corpus.build(workload, 5) == corpus.build(workload, 5)
        assert corpus.build(workload, 5) != corpus.build(workload, 6)
        sizes = [corpus.composition(corpus.build(workload, s))["by_family_size"] for s in (5, 6)]
        assert sizes[0] == sizes[1]  # composition is fixed; only content varies
        # latency_p90_ms needs at least ten items above it
        assert len(corpus.build(workload, 5)) >= 100


def _snapshot():
    import metaterm  # noqa: F401
    from metaterm.languages import LANGUAGES
    from metaterm.metavar import MetaSubstitution
    from metaterm.typecheck import TypeChecker

    modules = {
        name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("metaterm")
    }
    classes = {cls: dict(vars(cls)) for cls in (MetaSubstitution, TypeChecker)}
    tables = [(t, dict(t)) for lang in LANGUAGES.values() for t in (lang.reducer, lang.typed_reducer)]
    return modules, classes, tables


def _no_wrappers_left() -> bool:
    """No metaterm module holds a function wrapped by the tracer (metaterm
    itself uses no ``functools.wraps``), including modules first imported
    while the patches were in place."""
    return not any(
        hasattr(value, "__wrapped__")
        for name, mod in list(sys.modules.items()) if name.startswith("metaterm")
        for value in vars(mod).values()
    )


def _same(before, after) -> bool:
    modules, classes, tables = before
    now_modules, now_classes, now_tables = after
    for name, attrs in modules.items():
        if any(now_modules[name].get(k) is not v for k, v in attrs.items()):
            return False
    for cls, attrs in classes.items():
        if any(now_classes[cls].get(k) is not v for k, v in attrs.items()):
            return False
    return all(all(now[k] is v for k, v in old.items()) for (_, old), (_, now) in zip(tables, now_tables))


def test_patching_restores_every_wrapped_name():
    from metaterm import metavar, typecheck, unification

    before = _snapshot()
    original = metavar.apply_substs
    with tracing.patched(tracing.Tracer()):
        assert unification.apply_substs is not original
        assert unification.apply_substs is typecheck.apply_substs is metavar.apply_substs
        assert not _same(before, _snapshot())
    assert _same(before, _snapshot()) and _no_wrappers_left()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer()):
            raise RuntimeError("inside the traced block")
    assert _same(before, _snapshot()) and _no_wrappers_left()


def _traced(argv, stdin=None) -> tracing.Tracer:
    from metaterm import cli

    tracer = tracing.Tracer()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with tracing.patched(tracer), redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert cli.main(argv) in (0, 2)
    finally:
        sys.stdin = saved
    tracer.fold()
    return tracer


def test_traced_reduce_crosses_to_the_deep_thread():
    tracer = _traced(["reduce", r"(\f. \x. f (f (f x))) (\y. y) a"])
    m = tracer.metrics()
    assert m["cli.main.calls"] == 1 and m["reduction.reduce.calls"] == 1
    assert m["reduction.run_deep.hops"] == 1
    assert m["reduction.reduce.head_steps"] >= 5
    assert m["terms.instantiate.calls"] > 0
    # work done on the deep thread is charged to reduce, not to the hand-off
    assert m["reduction.reduce.self_s"] > 0 and m["reduction.run_deep.wait_s"] >= 0


def test_traced_unify_counts_candidates_and_outcomes():
    tracer = _traced(["--lang", "stlc", "unify", "-"], "?m[<t1, t2>] =?= t1\n")
    m = tracer.metrics()
    assert m["unification.unify.outcome.solved"] == 1
    assert m["unification.candidates.tried"] >= 1
    assert m["unification.candidates.projections"] >= 1
    assert m["metavar.MetaSubstitution.entries_validated"] > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)
