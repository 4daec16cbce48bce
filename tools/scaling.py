"""Scaling curves of type inference, with work counters.

    python tools/scaling.py [--tree DIR] [--repeats N]

Runs ``TypeChecker.infer`` in process on two STLC families:

- the apply-chain ``\\f. \\a1. … \\an. f a1 … an`` at n = ``CHAIN_SIZES``;
- the f-tower ``\\f. \\x. f (f (… x))`` at ``TOWER_LEVELS`` levels.

For each size it prints the median CPU time of ``--repeats`` plain runs,
then, from one more run with counters attached: ``apply_substs`` calls,
operator nodes and metavariable applications built (every ``Op`` and
``MetaApp`` constructed), and the nodes of the result, distinct by identity
and as a tree.  The last line is one JSON object with the same rows, and
the log-log slope of time over size from the smallest to the largest size.

``--tree`` imports metaterm from ``DIR/src`` (default: this checkout), so
two source trees can be compared.  Not part of the test suite.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from time import process_time

ROOT = Path(__file__).resolve().parent.parent
CHAIN_SIZES = (10, 20, 40, 80, 160)
TOWER_LEVELS = (150, 300, 600)


def apply_chain(n: int) -> str:
    params = " ".join(f"a{i}" for i in range(1, n + 1))
    binders = "".join(f"\\a{i}. " for i in range(1, n + 1))
    return f"\\f. {binders}f {params}"


def f_tower(levels: int) -> str:
    return "\\f. \\x. " + "f (" * levels + "x" + ")" * levels


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


def measure(source: str, repeats: int) -> dict:
    from metaterm import LANGUAGES, TypeChecker, parse_term

    stlc = LANGUAGES["stlc"]
    term = parse_term(source, stlc)
    times = []
    for _ in range(repeats):
        start = process_time()
        TypeChecker(stlc).infer(term)
        times.append(process_time() - start)
    with Counters() as counters:
        typed = TypeChecker(stlc).infer(term)
    distinct, tree = result_nodes(typed)
    return {
        "ms": round(1000 * statistics.median(times), 2),
        "apply_substs_calls": counters.apply_substs,
        "nodes_built": counters.built,
        "result_distinct": distinct,
        "result_tree": tree,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=ROOT, help="source tree to measure")
    parser.add_argument("--repeats", type=int, default=3, help="timed runs per size")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    sys.path.insert(0, str(args.tree.resolve() / "src"))

    report = {}
    for family, make, sizes in (
        ("apply_chain", apply_chain, CHAIN_SIZES),
        ("f_tower", f_tower, TOWER_LEVELS),
    ):
        rows = []
        for size in sizes:
            row = {"size": size, **measure(make(size), args.repeats)}
            rows.append(row)
            print(family, " ".join(f"{key}={value}" for key, value in row.items()), flush=True)
        first, last = rows[0], rows[-1]
        slope = math.log(last["ms"] / first["ms"]) / math.log(last["size"] / first["size"])
        report[family] = {"rows": rows, "slope_ms": round(slope, 3)}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
