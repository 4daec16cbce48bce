"""The README's command-line examples, replayed in-process.

Every ``$ metaterm …`` and ``$ echo '…' | metaterm …`` line of a
``console`` block runs through ``cli.main``; what it prints, standard
output then standard error, must equal the lines shown under it.  The
``python`` block that defines the custom ``boxes`` language runs as well.
"""

from __future__ import annotations

import io
import shlex
import sys
from pathlib import Path

import pytest

from metaterm import Constraint, Free, MetaApp, MetaSubstitution, Op, parse_term, reduce, unify
from metaterm.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def examples() -> list[tuple[str, list[str]]]:
    """Each command of a console block with the lines printed under it;
    commands that do not run ``metaterm`` are left out."""
    found: list[tuple[str, list[str]]] = []
    console = False
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            console = line == "```console"
        elif console and line.startswith("$ "):
            found.append((line[2:], []))
        elif console and found:
            found[-1][1].append(line)
    return [(command, shown) for command, shown in found if "metaterm" in shlex.split(command)]


EXAMPLES = examples()


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, shown, capsys, monkeypatch):
    words = shlex.split(command)
    stdin = ""
    if words[0] == "echo":
        assert words[2:4] == ["|", "metaterm"]
        stdin, words = words[1] + "\n", words[3:]
    assert words[0] == "metaterm"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    main(words[1:])
    captured = capsys.readouterr()
    assert (captured.out + captured.err).splitlines() == shown


def test_examples_include_a_checker_residual():
    assert (
        r"metaterm --lang stlc infer '\f. \x. f (f x)'",
        ["(?t2[] -> ?t3[]) -> ?t2[] -> ?t3[]", "forall x1 x2. ?t3[] =?= ?t2[]"],
    ) in EXAMPLES


def test_custom_language_example_runs():
    """The README's ``boxes`` language, run as shown, prints, parses,
    reduces and unifies."""
    blocks = README.read_text(encoding="utf-8").split("```python")[1:]
    scope: dict = {}
    exec(next(b for b in blocks if "boxes" in b).split("```")[0], scope)
    boxes = scope["boxes"]
    assert scope["shown"] == "Unbox(Box(a))"
    assert parse_term("Unbox(Box(a))", boxes) == scope["term"]
    assert reduce(boxes.signature, scope["term"], boxes.reducer) == Free("a")
    stuck = Constraint(Op("Unbox", (MetaApp("m"),)), Free("a"))
    solution = unify(boxes, MetaSubstitution({}), [stuck])
    assert solution.substs.get("m").body == Op("Box", (Free("a"),))
