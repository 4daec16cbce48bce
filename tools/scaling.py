"""Scaling curves of type inference and reduction, with work counters.

    python tools/scaling.py [--tree DIR] [--repeats N]

Runs eight families in process:

- ``TypeChecker.infer`` on the STLC apply-chain
  ``\\f. \\a1. … \\an. f a1 … an`` at n = ``CHAIN_SIZES``;
- ``TypeChecker.infer`` on the STLC f-tower ``\\f. \\x. f (f (… x))`` at
  ``TOWER_LEVELS`` levels;
- the ``reduce`` command (``metaterm.cli.main``) on ULC Church addition
  applied to ``(\\y. y) a``, at the values ``CHURCH_VALUES``;
- the ``reduce`` command on the MLTT arrow chain ``a -> a -> … -> a``,
  which it parses and prints back, at ``ARROWS`` arrows;
- the ``reduce`` command on the MLTT telescope
  ``(x0 : U) -> (x1 : x0) -> … -> x(n-1)``, whose names are resolved
  ``n`` binders deep, at ``TELESCOPE`` binders;
- ``unify`` on the STLC self-application ``(first b) =?= (?m[] ?m[])``
  (``guess_fuel`` 12), at the candidate budgets ``SELFAPP_FUEL``;
- ``TypeChecker.infer`` on the MLTT J chain
  ``J(?m[\\x. first x], a, a, c, b, a)``, at the candidate budgets
  ``JCHAIN_FUEL``;
- ``unify`` on the ULC occurs chain ``?m[] =?= c ?m[]``, which comes back
  to its first candidate point, renamed, after two candidates (without the
  search's variant check it opened a point for every second candidate and
  kept them all open), at the candidate budgets ``FUELCHAIN_FUEL``.

The last three are searches that go down one branch until the budget runs
out, or, for the occurs chain, until the variant check finds that it would;
their size is the budget.

For each size it prints the median CPU time of ``--repeats`` plain runs,
then, from one more run with counters attached: ``walk_pops``, the items
popped off the stacks of the term walks (``terms.subterms``,
``terms.rebuild`` and ``terms.loose`` where the tree has it: one per node
visited, plus one per node rebuilt or whose range is computed); for the
``reduce`` families ``head_steps``, the calls of the language's rule
table; for the inference families ``apply_substs`` calls, operator
nodes and metavariable applications built (every ``Op`` and ``MetaApp``
constructed), and the nodes of the result, distinct by identity and as a
tree; for the self-application and J chain ``apply_substs`` calls; and
for the occurs chain, instead of the counters, ``peak_kb``, the peak of
the memory ``tracemalloc`` traces in one more run.  The last line is one
JSON object with the same rows and, per family, the least-squares log-log
slopes of time and of ``walk_pops`` or ``peak_kb`` over all its sizes.

``--tree`` imports metaterm from ``DIR/src`` (default: this checkout).
Given more than once, every tree is loaded side by side in the process and
the trees take turns size by size, in reversed order at every other size,
so drift on a shared machine falls on all of them alike; each printed row
then names its tree, and the JSON object has one report per tree, keyed by
``--tree`` as given.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import io
import json
import math
import pkgutil
import re
import statistics
import sys
import tracemalloc
from contextlib import redirect_stdout
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
CHAIN_SIZES = (10, 20, 40, 80, 160, 320, 640)
TOWER_LEVELS = (150, 300, 600)
CHURCH_VALUES = (64, 128, 256, 512, 1024)
ARROWS = (250, 500, 1000, 2000)
TELESCOPE = (500, 1000, 2000, 4000)
SELFAPP_FUEL = (20, 30, 40, 50)
JCHAIN_FUEL = (25, 50, 100, 200)
FUELCHAIN_FUEL = (250, 500, 1000, 2000)


def apply_chain(n: int) -> str:
    params = " ".join(f"a{i}" for i in range(1, n + 1))
    binders = "".join(f"\\a{i}. " for i in range(1, n + 1))
    return f"\\f. {binders}f {params}"


def f_tower(levels: int) -> str:
    return "\\f. \\x. " + "f (" * levels + "x" + ")" * levels


def church_addition(value: int) -> str:
    def numeral(n: int) -> str:
        return "(\\f. \\x. " + "f (" * n + "x" + ")" * n + ")"

    add = "(\\m. \\n. \\f. \\x. m f (n f x))"
    return f"{add} {numeral(value // 2)} {numeral(value - value // 2)} (\\y. y) a"


def arrow_chain(arrows: int) -> str:
    return " -> ".join(["a"] * (arrows + 1))


def telescope(binders: int) -> str:
    types = ["U", *(f"x{i}" for i in range(binders - 1))]
    return "".join(f"(x{i} : {ty}) -> " for i, ty in enumerate(types)) + f"x{binders - 1}"


def slope(rows: list[dict], key: str) -> float | None:
    """Least-squares slope of log(``key``) against log(size), as
    ``bench/worker.py`` fits ``latency_slope``; None if a value is 0."""
    if any(row[key] <= 0 for row in rows):
        return None
    xs = [math.log(row["size"]) for row in rows]
    ys = [math.log(row[key]) for row in rows]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def result_nodes(term) -> tuple[int, int]:
    """(distinct, tree) counts of the operator nodes and metavariable
    applications of ``term``; the tree count is summed over the DAG."""
    from metaterm.terms import MetaApp, Op

    size: dict[int, int] = {}
    todo = [(term, False)]
    while todo:
        t, ready = todo.pop()
        if type(t) not in (Op, MetaApp) or (id(t) in size and not ready):
            continue
        kids = t.args if type(t) is MetaApp else (*t.children, t.ann)
        if ready:
            size[id(t)] = 1 + sum(size.get(id(k), 0) for k in kids)
        else:
            size[id(t)] = 0  # claimed; filled in once the children are done
            todo.append((t, True))
            todo.extend((k, False) for k in kids)
    return len(size), size[id(term)] if id(term) in size else 0


class Counters:
    """Counts ``apply_substs`` calls and node constructions while active."""

    def __init__(self):
        self.apply_substs = 0
        self.built = 0
        self.undo: list = []

    def __enter__(self):
        from metaterm import metavar
        from metaterm.terms import MetaApp, Op

        original = metavar.apply_substs

        def apply_substs(*args):
            self.apply_substs += 1
            return original(*args)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("metaterm"):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, apply_substs)
                        self.undo.append((mod, key, original))
        for cls in (Op, MetaApp):
            init = cls.__init__

            def counted(node, *args, _init=init, **kwargs):
                self.built += 1
                _init(node, *args, **kwargs)

            cls.__init__ = counted
            self.undo.append((cls, "__init__", init))
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self.undo):
            setattr(owner, key, value)


class HeadSteps:
    """Counts the calls of one language's reduction rules while active,
    one per eliminator met on a head spine, as the bench tracer does."""

    def __init__(self, lang: str):
        from metaterm import LANGUAGES

        self.table = LANGUAGES[lang].reducer
        self.steps = 0

    def __enter__(self):
        self.saved = dict(self.table)
        for tag, rule in self.saved.items():

            @functools.wraps(rule)
            def counted(node, head, _rule=rule):
                self.steps += 1
                return _rule(node, head)

            self.table[tag] = counted
        return self

    def __exit__(self, *exc):
        self.table.update(self.saved)


class WalkCounter:
    """Counts the items popped off the explicit stacks of the term walks
    while active, by tracing the lines of ``terms.subterms``,
    ``terms.rebuild`` and ``terms.loose`` that pop them.  Deterministic,
    unlike time; the tracing slows the run down."""

    WALKS = ("subterms", "rebuild", "loose")

    def __init__(self):
        self.pops = 0

    def __enter__(self):
        from metaterm import terms

        self.lines = {}  # code object -> line numbers of its pops
        for name in self.WALKS:
            fn = getattr(terms, name, None)
            if fn is not None:
                source, start = inspect.getsourcelines(fn)
                self.lines[fn.__code__] = {
                    start + i for i, line in enumerate(source) if re.search(r"= (todo\.)?pop\(\)$", line)
                }

        def walk(frame, event, arg):
            if event == "line" and frame.f_lineno in self.lines[frame.f_code]:
                self.pops += 1
            return walk

        self.previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: walk if frame.f_code in self.lines else None)
        return self

    def __exit__(self, *exc):
        sys.settrace(self.previous)


def _drop_metaterm() -> None:
    for name in [name for name in sys.modules if name.split(".")[0] == "metaterm"]:
        del sys.modules[name]


def load(tree: Path) -> dict:
    """Every module of ``tree``'s metaterm package, imported apart from any
    other tree's."""
    _drop_metaterm()
    sys.path.insert(0, str(tree.resolve() / "src"))
    try:
        package = importlib.import_module("metaterm")
        for module in pkgutil.walk_packages(package.__path__, "metaterm."):
            if module.name != "metaterm.__main__":
                importlib.import_module(module.name)
    finally:
        sys.path.pop(0)
    return {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "metaterm"}


def use(modules: dict) -> None:
    """Make one tree's modules, from :func:`load`, those that ``import
    metaterm`` finds."""
    _drop_metaterm()
    sys.modules.update(modules)


def infer_row(source: str, repeats: int) -> dict:
    from metaterm import LANGUAGES, TypeChecker, parse_term

    stlc = LANGUAGES["stlc"]
    term = parse_term(source, stlc)
    times = []
    for _ in range(repeats):
        start = process_time()
        TypeChecker(stlc).infer(term)
        times.append(process_time() - start)
    with Counters() as counters:
        with WalkCounter() as walks:
            typed = TypeChecker(stlc).infer(term)
    distinct, tree = result_nodes(typed)
    return {
        "ms": round(1000 * statistics.median(times), 2),
        "walk_pops": walks.pops,
        "apply_substs_calls": counters.apply_substs,
        "nodes_built": counters.built,
        "result_distinct": distinct,
        "result_tree": tree,
    }


def reduce_row(lang: str, source: str, repeats: int) -> dict:
    """The ``reduce`` command in process: parse, reduce, print."""
    from metaterm.cli import main

    argv = ["--lang", lang, "reduce", source]
    times = []
    for _ in range(repeats + 1):  # the first run is a warm-up, left out
        with redirect_stdout(io.StringIO()):
            start = process_time()
            code = main(argv)
            times.append(process_time() - start)
        if code != 0:
            raise SystemExit(f"reduce exited {code} on a {lang} item of {len(source)} characters")
    with redirect_stdout(io.StringIO()), HeadSteps(lang) as steps, WalkCounter() as walks:
        main(argv)
    ms = round(1000 * statistics.median(times[1:]), 2)
    return {"ms": ms, "walk_pops": walks.pops, "head_steps": steps.steps}


def self_application(fuel: int):
    from metaterm import LANGUAGES, MetaSubstitution, SearchConfig, parse_constraint, unify

    stlc = LANGUAGES["stlc"]
    problem = [parse_constraint("(first b) =?= (?m[] ?m[])", stlc)]
    return lambda: unify(stlc, MetaSubstitution(), problem, SearchConfig(fuel=fuel, guess_fuel=12))


def j_chain(fuel: int):
    from metaterm import LANGUAGES, SearchConfig, TypeChecker, parse_term

    mltt = LANGUAGES["mltt"]
    term = parse_term("J(?m[\\x. first x], a, a, c, b, a)", mltt)
    return lambda: TypeChecker(mltt, SearchConfig(fuel=fuel)).infer(term)


def fuel_chain(fuel: int):
    from metaterm import LANGUAGES, MetaSubstitution, SearchConfig, parse_constraint, unify

    ulc = LANGUAGES["ulc"]
    problem = [parse_constraint("?m[] =?= c ?m[]", ulc)]
    return lambda: unify(ulc, MetaSubstitution(), problem, SearchConfig(fuel=fuel))


def exhausted(search, repeats: int):
    """The median CPU ms of ``repeats`` runs of a search that must end with
    its candidate budget spent, and one more run of it."""
    from metaterm import Undetermined

    def once():
        try:
            search()
        except Undetermined:
            return
        raise SystemExit("a search family ended before its budget ran out")

    times = []
    for _ in range(repeats):
        start = process_time()
        once()
        times.append(process_time() - start)
    return round(1000 * statistics.median(times), 2), once


def search_row(search, repeats: int) -> dict:
    ms, once = exhausted(search, repeats)
    with Counters() as counters, WalkCounter() as walks:
        once()
    return {"ms": ms, "walk_pops": walks.pops, "apply_substs_calls": counters.apply_substs}


def peak_row(search, repeats: int) -> dict:
    ms, once = exhausted(search, repeats)
    tracemalloc.start()
    try:
        once()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"ms": ms, "peak_kb": round(peak / 1024)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--tree", type=Path, action="append", help="source tree to measure (repeatable)"
    )
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per size")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = args.tree or [ROOT]
    named = len(trees) > 1
    loaded = [load(tree) for tree in trees]

    reports: list[dict] = [{} for _ in trees]
    for family, row_of, sizes in (
        ("apply_chain", lambda n: infer_row(apply_chain(n), args.repeats), CHAIN_SIZES),
        ("f_tower", lambda n: infer_row(f_tower(n), args.repeats), TOWER_LEVELS),
        ("church_add", lambda n: reduce_row("ulc", church_addition(n), args.repeats), CHURCH_VALUES),
        ("mltt_arrows", lambda n: reduce_row("mltt", arrow_chain(n), args.repeats), ARROWS),
        ("telescope", lambda n: reduce_row("mltt", telescope(n), args.repeats), TELESCOPE),
        ("selfapp", lambda n: search_row(self_application(n), args.repeats), SELFAPP_FUEL),
        ("jchain", lambda n: search_row(j_chain(n), args.repeats), JCHAIN_FUEL),
        ("fuelchain", lambda n: peak_row(fuel_chain(n), args.repeats), FUELCHAIN_FUEL),
    ):
        rows: list[list[dict]] = [[] for _ in trees]
        for n, size in enumerate(sizes):
            turns = list(enumerate(loaded))
            for i, modules in turns[::-1] if n % 2 else turns:
                use(modules)
                row = {"size": size, **row_of(size)}
                rows[i].append(row)
                shown = {"tree": trees[i], **row} if named else row
                print(family, " ".join(f"{k}={v}" for k, v in shown.items()), flush=True)
        for i, tree_rows in enumerate(rows):
            keys = [key for key in ("ms", "walk_pops", "peak_kb") if key in tree_rows[0]]
            slopes = {f"slope_{key}": slope(tree_rows, key) for key in keys}
            slopes = {k: v if v is None else round(v, 3) for k, v in slopes.items()}
            shown = {"tree": trees[i], **slopes} if named else slopes
            print(family, " ".join(f"{k}={v}" for k, v in shown.items()), flush=True)
            reports[i][family] = {"rows": tree_rows, **slopes}
    print(json.dumps(dict(zip(map(str, trees), reports)) if named else reports[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
