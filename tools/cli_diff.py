"""Differential CLI runner: the same commands through two source trees.

    python tools/cli_diff.py --base DIR --head DIR

Replays the bench corpora (``bench/corpus.py`` of this checkout, read only)
at each of ``SEEDS``, plus two batches of ``RANDOM_COMMANDS`` seeded random
``unify``/``infer``/``check``/``reduce`` commands in ``ulc``, ``stlc`` and
``mltt``: one under small budgets (``--fuel 60 --guess-fuel 12``), one under
budgets that run out in every layer (``--reduce-fuel 1 --fuel 8
--guess-fuel 2``), then ``AST_COMMANDS`` more such commands under the small
budgets with ``--output ast``, then ``ERROR_COMMANDS`` seeded random
``reduce``/``infer`` commands whose term is written with the constructs of
a language drawn independently of the one it runs in, so about a fifth of
them end in an unknown-construct error, then ``OCCURS_COMMANDS`` seeded
loop-shaped ``unify`` commands (``?m[xs] =?= C[?m[xs]]``), once at the
default budgets and once at ``--fuel 60``, where the search's variant check
ends branches that come back to a renamed choice point; the report says how
many of them end in ``undetermined:``.  Each tree runs every command in one child
process, in-process through ``metaterm.cli.main`` with standard input,
output and error captured; a command that runs past ``TIMEOUT_S`` seconds
is recorded as a time-out.  Lists every command whose exit code, stdout or
stderr differs between the trees, then every other command that ends in a
traceback in the head tree, then one line per exit-code transition
counting the differing commands (e.g. ``1 -> 0: 32``; ``0 -> 0`` counts
changed output under an unchanged exit code).  Exits 1 if any command
differs or the head tree raises a traceback, 0 otherwise.

Not part of the test suite: a check to run by hand when a change claims
byte-identical output.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import signal
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("infer", "unify", "normalize")
BUDGETS = ("--fuel", "60", "--guess-fuel", "12")
SEEDS = (1, 2)
RANDOM_COMMANDS = 1500
RANDOM_SEED = 0
TINY_BUDGETS = ("--reduce-fuel", "1", "--fuel", "8", "--guess-fuel", "2")
TINY_SEED = 11
AST_COMMANDS = 500
AST_SEED = 23
ERROR_COMMANDS = 500
ERROR_SEED = 37
OCCURS_COMMANDS = 200
OCCURS_SEED = 43
#: Seconds a command may run before it is recorded as a time-out.
TIMEOUT_S = 10.0
#: Address-space cap of a replaying child, so a runaway command fails alone.
MEMORY_BYTES = 2 << 30


class _TimedOut(BaseException):
    """Raised in a command that ran past its time; not an ``Exception``, so
    ``main`` cannot catch it."""


# ---------------------------------------------------------------------------
# Commands: (label, argv, stdin)


def corpus_commands(seeds: tuple[int, ...]) -> list[tuple[str, list[str], str | None]]:
    sys.path.insert(0, str(ROOT / "bench"))
    import corpus

    return [
        (f"{workload}:{seed}:{item.family}", list(item.argv), item.stdin)
        for seed in seeds
        for workload in WORKLOADS
        for item in corpus.build(workload, seed)
    ]


# Metavariable names carry their arity, so one command never uses a name at
# two arities; none starts with the checker's fresh-name prefix ``t``.
METAS = {"m": 0, "n": 1, "p": 2}
FREE = ("a", "b", "c", "f", "g")
LANGS = ("ulc", "stlc", "mltt")
BINDERS = ("x", "y", "z", "w")


def _term(rng: random.Random, lang: str, scope: list[str], depth: int) -> str:
    leaves = list(scope) + list(FREE)
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.2:
            return _meta(rng, lang, scope, 0)
        if lang == "mltt" and rng.random() < 0.1:
            return "U"
        return rng.choice(leaves)
    forms = ["lam", "app", "app", "meta"]
    if lang != "ulc":
        forms += ["pair", "first", "second", "arrow"]
    if lang == "stlc":
        forms += ["annotated", "star"]
    if lang == "mltt":
        forms += ["pi", "sigma", "eq", "refl", "j"]
    form = rng.choice(forms)

    def sub(inner_scope: list[str] = scope) -> str:
        return _term(rng, lang, inner_scope, depth - 1)

    if form in ("lam", "annotated", "pi", "sigma"):
        x = BINDERS[len(scope) % len(BINDERS)]
        inner = sub(scope + [x])
        if form == "lam":
            return f"(\\{x}. {inner})"
        if form == "annotated":
            return f"(\\({x} : {sub()}). {inner})"
        return f"(({x} : {sub()}) {'->' if form == 'pi' else '*'} {inner})"
    if form == "meta":
        return _meta(rng, lang, scope, depth)
    if form == "app":
        return f"({sub()} {sub()})"
    if form == "pair":
        return f"<{sub()}, {sub()}>"
    if form in ("first", "second", "refl"):
        return f"({form} {sub()})"
    if form in ("arrow", "star", "eq"):
        op = {"arrow": "->", "star": "*", "eq": "="}[form]
        return f"({sub()} {op} {sub()})"
    return "J(" + ", ".join(sub() for _ in range(6)) + ")"


def _meta(rng: random.Random, lang: str, scope: list[str], depth: int) -> str:
    name = rng.choice(list(METAS))
    args = (_term(rng, lang, scope, min(depth, 1) - 1) for _ in range(METAS[name]))
    return f"?{name}[{', '.join(args)}]"


def random_commands(
    count: int, seed: int, budgets: tuple[str, ...], label: str
) -> list[tuple[str, list[str], str | None]]:
    rng = random.Random(seed)
    out = []
    for i in range(count):
        lang = rng.choice(LANGS)
        command = rng.choice(("unify", "unify", "infer", "check", "reduce"))
        if lang == "ulc" and command in ("infer", "check"):
            command = "unify"
        argv = ["--lang", lang, *budgets, command]
        stdin = None
        if command == "unify":
            lines = []
            for _ in range(rng.choice((1, 1, 2))):
                scope = BINDERS[: rng.randrange(3)]
                quantifier = "".join(f"forall {x}. " for x in scope)
                if rng.random() < 0.4:  # flex-rigid: the candidate search
                    lhs = _meta(rng, lang, list(scope), 2)
                else:
                    lhs = _term(rng, lang, list(scope), rng.randrange(1, 4))
                rhs = _term(rng, lang, list(scope), rng.randrange(1, 4))
                lines.append(f"{quantifier}{lhs} =?= {rhs}\n")
            argv.append("-")
            stdin = "".join(lines)
        elif command == "check":
            argv += [_term(rng, lang, [], 3), ":", _term(rng, lang, [], 2)]
        else:
            argv.append(_term(rng, lang, [], rng.randrange(1, 5)))
        out.append((f"{label}:{i}", argv, stdin))
    return out


def occurs_commands(
    count: int, seed: int, budgets: tuple[str, ...], label: str
) -> list[tuple[str, list[str], str | None]]:
    """``unify`` commands of loop shape, ``forall xs. ?m[xs] =?= C[?m[xs]]``:
    the flex side again inside one to three rigid nodes ``C`` whose other
    children are random terms."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        lang = rng.choice(LANGS)
        scope = list(BINDERS[: rng.randrange(3)])
        name = rng.choice([meta for meta, arity in METAS.items() if arity <= len(scope)])
        flex = f"?{name}[{', '.join(rng.sample(scope, METAS[name]))}]"
        rhs = flex
        for level in range(rng.randrange(1, 4)):
            other = _term(rng, lang, scope, rng.randrange(2))
            forms = [f"({other} {rhs})", f"({rhs} {other})", f"(\\v{level}. {rhs})"]
            if lang != "ulc":
                forms += [f"<{rhs}, {other}>", f"<{other}, {rhs}>", f"({rhs} -> {other})"]
            rhs = rng.choice(forms)
        quantifier = "".join(f"forall {x}. " for x in scope)
        argv = ["--lang", lang, *budgets, "unify", "-"]
        out.append((f"{label}:{i}", argv, f"{quantifier}{flex} =?= {rhs}\n"))
    return out


def mixed_commands(count: int, seed: int, label: str) -> list[tuple[str, list[str], str | None]]:
    """``reduce``/``infer`` commands, each term written in a language drawn
    independently of the one it runs in."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        lang = rng.choice(LANGS)
        written_in = rng.choice(LANGS)
        command = "reduce" if lang == "ulc" else rng.choice(("reduce", "infer"))
        expr = _term(rng, written_in, [], rng.randrange(1, 5))
        out.append((f"{label}:{i}", ["--lang", lang, *BUDGETS, command, expr], None))
    return out


# ---------------------------------------------------------------------------
# Replaying in a child process


def replay(tree: Path) -> None:
    """Run the commands read as JSON from stdin through ``tree``'s CLI and
    write ``[exit code, stdout, stderr]`` per command as JSON to stdout."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
    sys.path.insert(0, str(tree / "src"))
    from metaterm import cli

    def expire(signum, frame):
        raise _TimedOut

    signal.signal(signal.SIGALRM, expire)
    commands = json.load(sys.stdin)
    results = []
    real_stdin = sys.stdin
    for argv, stdin in commands:
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(stdin or "")
        try:
            with redirect_stdout(out), redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
                try:
                    code = cli.main(argv)
                except _TimedOut:
                    code = "timeout"
                except Exception:
                    code = "traceback"
                    traceback.print_exc()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            sys.stdin = real_stdin
        # Tracebacks name the tree's own files.
        results.append([code, out.getvalue(), err.getvalue().replace(str(tree), "<tree>")])
    json.dump(results, sys.stdout)


def run_tree(tree: Path, commands) -> list:
    payload = json.dumps([[argv, stdin] for _, argv, stdin in commands])
    done = subprocess.run(
        [sys.executable, __file__, "--replay", str(tree)],
        input=payload, capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"replay in {tree} failed:\n{done.stderr}")
    return json.loads(done.stdout)


def _shown(command) -> str:
    label, argv, stdin = command
    text = f"{label}: metaterm {' '.join(argv)}"
    return text + (f"  <<< {stdin!r}" if stdin else "")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, help="source tree to compare against")
    parser.add_argument("--head", type=Path, help="source tree under test")
    parser.add_argument("--replay", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.replay is not None:
        replay(args.replay.resolve())
        return 0
    if args.base is None or args.head is None:
        parser.error("--base and --head are required")

    commands = (
        corpus_commands(SEEDS)
        + random_commands(RANDOM_COMMANDS, RANDOM_SEED, BUDGETS, "random")
        + random_commands(RANDOM_COMMANDS, TINY_SEED, TINY_BUDGETS, "tiny")
        + random_commands(AST_COMMANDS, AST_SEED, (*BUDGETS, "--output", "ast"), "ast")
        + mixed_commands(ERROR_COMMANDS, ERROR_SEED, "errors")
        + occurs_commands(OCCURS_COMMANDS, OCCURS_SEED, (), "occurs")
        + occurs_commands(OCCURS_COMMANDS, OCCURS_SEED, ("--fuel", "60"), "occurs-fuel60")
    )
    base = run_tree(args.base.resolve(), commands)
    head = run_tree(args.head.resolve(), commands)
    differing = [i for i, (b, h) in enumerate(zip(base, head)) if b != h]
    for i in differing:
        print(_shown(commands[i]))
        for side, (code, out, err) in (("base", base[i]), ("head", head[i])):
            print(f"  {side}: exit {code}  stdout {out!r}  stderr {err!r}")
    tracebacks = [i for i, result in enumerate(head) if result[0] == "traceback"]
    for i in tracebacks:
        if i not in differing:
            print(_shown(commands[i]))
            print(f"  both: exit traceback  stderr {head[i][2]!r}")
    timeouts = sum(result[0] == "timeout" for result in base + head)
    print(
        f"{len(commands)} commands, {len(differing)} differ, "
        f"{timeouts} time-outs over both trees, {len(tracebacks)} tracebacks in head"
    )
    occurs = [i for i, (label, _, _) in enumerate(commands) if label.startswith("occurs")]
    undetermined = sum(head[i][2].startswith("undetermined:") for i in occurs)
    print(f"{undetermined} of {len(occurs)} occurs commands print undetermined: in head")
    transitions = Counter(f"{base[i][0]} -> {head[i][0]}" for i in differing)
    for transition, count in sorted(transitions.items()):
        print(f"{transition}: {count}")
    return 1 if differing or tracebacks else 0


if __name__ == "__main__":
    sys.exit(main())
