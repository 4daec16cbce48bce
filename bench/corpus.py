"""Seeded corpora for the three workloads.

Every item is one metaterm CLI command with its reference answer.  The seed
chooses names, argument orders and which variable sits at each leaf; the
families and the size ladders are fixed, so the cost of a corpus barely
depends on the seed.  Hand-written items (README examples and hand-picked
checks) are the same for every seed.

Workloads and why they were chosen:

- ``infer``: ``infer``/``check`` in ``stlc`` and ``mltt``.  The measured
  superlinear costs live here (STLC apply-chains, MLTT candidate search
  driven by type inference); substitution reads dominate.
- ``unify``: constraint files through ``unify``.  Substitution writes and
  candidate search dominate, including the refute and fuel-exhaustion paths
  that spend a whole budget; the type checker is idle.
- ``normalize``: ``reduce`` in all three languages.  Only reduction, term
  operations and syntax do work: the workload where substitution or search
  changes should change nothing.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

from reference import (
    Expect,
    ExactText,
    Failure,
    Solved,
    Printed,
    Tree,
    principal_simple_type,
    read_constraint,
    read_term,
    shift,
)

WORKLOADS = ("infer", "unify", "normalize")

#: The family whose sizes form each workload's scaling ladder
#: (``latency_slope`` is fitted over it).
LADDER = {
    "infer": "stlc-apply-chain",
    "unify": "planted-pattern",
    "normalize": "church",
}


@dataclass(frozen=True)
class Item:
    """One CLI command and its reference."""

    family: str
    lang: str
    size: int | None
    argv: tuple[str, ...]
    stdin: str | None
    expect: Expect
    handwritten: bool = False
    variant: str = ""


def _names(rng: random.Random, count: int, stem: str = "") -> list[str]:
    """``count`` distinct identifiers that are not keywords and not names
    the printer uses for parameters (``x1``...)."""
    letters = "bcdeghkmnpqrs"
    out: list[str] = []
    while len(out) < count:
        name = f"{stem or rng.choice(letters)}{rng.randrange(10, 100)}"
        if name not in out:
            out.append(name)
    return out


def _meta(name: str) -> Tree:
    return ("meta", name, ())


def _arrows(doms: list[Tree], result: Tree) -> Tree:
    """``d1 -> ... -> dn -> result`` for closed types."""
    for dom in reversed(doms):
        result = ("pi", dom, shift(result, 1))
    return result


def _cmd(lang: str, *args: str) -> tuple[str, ...]:
    return ("--lang", lang, *args)


# ---------------------------------------------------------------------------
# infer


def _stlc_apply_chain(rng: random.Random, n: int) -> Item:
    f, *args = _names(rng, n + 1)
    order = list(range(n))
    rng.shuffle(order)
    text = "\\" + f + ". " + "".join(f"\\{a}. " for a in args)
    text += " ".join([f] + [args[i] for i in order])
    types = [_meta(f"A{i}") for i in range(n)]
    result = _meta("B")
    expected = ("pi", _arrows([types[i] for i in order], result), _arrows(types, result))
    return Item("stlc-apply-chain", "stlc", n, _cmd("stlc", "infer", text), None, Printed(expected))


def _stlc_compose_chain(rng: random.Random, n: int) -> Item:
    """``\\f1 ... \\fn. \\x. f1 (f2 (... (fn x)))`` with the binders in seeded order."""
    *fs, x = _names(rng, n + 1)
    binders = list(range(n))
    rng.shuffle(binders)
    body = x
    for i in reversed(range(n)):
        body = f"{fs[i]} ({body})"
    text = "".join(f"\\{fs[i]}. " for i in binders) + f"\\{x}. {body}"
    # f_i : T(i+1) -> T(i), x : T(n), result T(0)
    t = [_meta(f"T{i}") for i in range(n + 1)]
    fun_types = {i: ("pi", t[i + 1], t[i]) for i in range(n)}
    expected = _arrows([fun_types[i] for i in binders] + [t[n]], t[0])
    return Item("stlc-compose-chain", "stlc", n, _cmd("stlc", "infer", text), None, Printed(expected))


def _stlc_nested(rng: random.Random, depth: int) -> Item:
    """Lambdas, pairs and projections nested ``depth`` deep.

    Level ``d`` cycles lambda / pair / projected pair and uses the
    variable bound ``d`` levels up (mod the scope), so the shape and the cost
    per depth are fixed; the seed picks names, pair sides and projections.
    Depths are spaced finely so that no gap in cost sits at the workload's
    median.
    """
    outer = _names(rng, 2)
    inner = _names(rng, depth, stem="y")
    scope = list(outer)

    def build(d: int) -> str:
        if d == 0:
            return scope[0]
        kind = d % 3
        if kind == 0:
            name = inner[d - 1]
            scope.append(name)
            try:
                return f"\\{name}. {build(d - 1)}"
            finally:
                scope.pop()
        if kind == 1:
            leaf = scope[-1 - d % len(scope)]
            sub = build(d - 1)
            return f"<{sub}, {leaf}>" if rng.random() < 0.5 else f"<{leaf}, {sub}>"
        path = " ".join(rng.choice(("first", "second")) for _ in range(1 + d // 3 % 2))
        leaf = f"{path} {scope[-1 - d % len(scope)]}"
        return f"<{leaf}, {build(d - 1)}>"

    text = f"\\{outer[0]}. \\{outer[1]}. {build(depth)}"
    expected = principal_simple_type(read_term(text))
    return Item("stlc-nested", "stlc", depth, _cmd("stlc", "infer", text), None, Printed(expected))


def _mltt_apply_chain(rng: random.Random, n: int) -> Item:
    f, *args = _names(rng, n + 1)
    text = "\\" + f + ". " + "".join(f"\\{a}. " for a in args) + " ".join([f, *args])
    types = [_meta(f"A{i}") for i in range(n)]
    result = _meta("B")
    expected = ("pi", _arrows(types, result), _arrows(types, result))
    item = Printed(expected, skeleton=True)
    return Item("mltt-apply-chain", "mltt", n, _cmd("mltt", "infer", text), None, item)


_MLTT_CHECKS = (
    # (term, type, expected printed type or None for a type error)
    (r"\A. \x. <x, x>", "(A : U) -> A -> A * A", "(A : U) -> A -> A * A"),
    (r"\A. \a. refl a", "(A : U) -> (a : A) -> a = a", "(A : U) -> (a : A) -> a = a"),
    (
        r"\A. \a. \b. \p. J(A, a, \y. \q. y = a, refl a, b, p)",
        "(A : U) -> (a : A) -> (b : A) -> a = b -> b = a",
        "(A : U) -> (a : A) -> (b : A) -> a = b -> b = a",
    ),
    (
        r"\A. \B. \p. <second p, first p>",
        "(A : U) -> (B : U) -> A * B -> B * A",
        "(A : U) -> (B : U) -> A * B -> B * A",
    ),
    (
        r"\A. \B. \f. \x. f x",
        "(A : U) -> (B : U) -> (A -> B) -> A -> B",
        "(A : U) -> (B : U) -> (A -> B) -> A -> B",
    ),
    (
        r"\A. \B. \x. \y. <x, y>",
        "(A : U) -> (B : U) -> A -> B -> A * B",
        "(A : U) -> (B : U) -> A -> B -> A * B",
    ),
    (
        r"\A. \P. \a. \b. \p. \h. J(A, a, \y. \q. P y, h, b, p)",
        "(A : U) -> (P : A -> U) -> (a : A) -> (b : A) -> a = b -> P a -> P b",
        "(A : U) -> (P : A -> U) -> (a : A) -> (b : A) -> a = b -> P a -> P b",
    ),
    (r"\A. \x. x", "(A : U) -> A -> U", None),
)


def _mltt_checks() -> list[Item]:
    items = []
    for term, ty, want in _MLTT_CHECKS:
        if want is None:
            expect: Expect = Failure(1, "type error: cannot unify types in ")
        else:
            expect = Printed(read_term(want))
        items.append(
            Item("mltt-check", "mltt", None, _cmd("mltt", "check", term, ":", ty), None, expect, True)
        )
    items.append(
        Item("mltt-check", "mltt", None, _cmd("mltt", "infer", "refl a"), None,
             Printed(read_term("a = a")), True)
    )
    return items


def _readme_infer() -> list[Item]:
    return [
        Item("readme", "stlc", None, _cmd("stlc", "infer", r"\x. \y. y"), None,
             ExactText("?t1[] -> ?t2[] -> ?t2[]\n"), True),
        Item("readme", "mltt", None, _cmd("mltt", "check", r"\A. \x. x", ":", "(A : U) -> (x : A) -> A"),
             None, ExactText("(x : U) -> x -> x\n"), True),
        Item("readme", "stlc", None, _cmd("stlc", "check", r"\A. \(x : A). x", ":", "?t[]"), None,
             Failure(1, "type error:",
                     exact="type error: inferred type 'x0 -> x0' depends on its bound variable x0"),
             True),
    ]


def _draws(rng: random.Random, make, draws_by_size: dict[int, int]) -> list[Item]:
    """``draws_by_size[n]`` seeded items of size ``n``."""
    return [make(rng, n) for n, draws in draws_by_size.items() for _ in range(draws)]


def infer_corpus(rng: random.Random) -> list[Item]:
    items = _readme_infer() + _mltt_checks()
    # Fewer draws where one item costs hundreds of milliseconds.
    items += _draws(rng, _stlc_apply_chain, {4: 8, 8: 8, 16: 2, 24: 1, 32: 1})
    items += _draws(rng, _stlc_compose_chain, dict.fromkeys((2, 4, 8, 12), 8))
    items += _draws(rng, _stlc_nested, dict.fromkeys((2, 4, 6, 8, 10, 12), 8))
    # n = 5 alone takes seconds; growth of about 6x per step shows by n = 4.
    items += _draws(rng, _mltt_apply_chain, {1: 6, 2: 6, 3: 1, 4: 1})
    return items


# ---------------------------------------------------------------------------
# unify

# Planted Miller-pattern problems: ``forall v1..vk. ?m[v_perm] =?= body``
# where the arguments are the distinct universal variables, so the planted
# body (over constants, pairs and projections) is the unique solution.
# Bodies are trees of ("c", head, args) / ("pair", l, r) / ("first"|"second", t)
# / ("v", i) before rendering.


def _spine(consts: list[str], leaves: list) -> tuple:
    """``c1 l1 (c2 l2 (... (ck lk l1)))`` over the given leaves."""
    if len(leaves) == 1:
        return ("c", consts[0], (leaves[0], leaves[0]))
    if len(leaves) == 2:
        return ("c", consts[0], (leaves[0], leaves[1]))
    return ("c", consts[0], (leaves[0], _spine(consts[1:], leaves[1:])))


def _pairs(leaves: list) -> tuple:
    if len(leaves) == 1:
        return ("pair", leaves[0], leaves[0])
    if len(leaves) == 2:
        return ("pair", leaves[0], leaves[1])
    return ("pair", leaves[0], _pairs(leaves[1:]))


def _projected(rng: random.Random, leaves: list) -> list:
    return [(rng.choice(("first", "second")), leaf) for leaf in leaves]


#: family -> (language, body builder(rng, constants, leaves, draw)).  Where
#: a family has two forms, even and odd draws take one each, so every seed
#: has the same mix.
_PLANTED = {
    # one head applied down a right spine
    "ulc-spine": ("ulc", lambda rng, c, v, draw: _spine(c, v)),
    # one head applied to every variable and then the first again
    "ulc-args": ("ulc", lambda rng, c, v, draw: ("c", c[0], (*v, v[0]))),
    "stlc-pairs": ("stlc", lambda rng, c, v, draw: _pairs(v)),
    # projections of the variables under an application spine
    "stlc-proj-args": ("stlc", lambda rng, c, v, draw: _spine(c, _projected(rng, v))),
    # a projection of a pair: a redex, equal to the spine it selects
    "stlc-proj-pair": ("stlc", lambda rng, c, v, draw: (
        ("first", _pairs([_spine(c, v), v[0]])) if draw % 2 else ("second", _pairs([v[0], _spine(c, v)]))
    )),
    # a projection of an application
    "stlc-proj-app": ("stlc", lambda rng, c, v, draw: (("first", "second")[draw % 2], _spine(c, v))),
}


def _render(body, names: list[str]) -> str:
    """Surface text of a planted body; ``names[i]`` names variable i."""
    kind = body[0]
    if kind == "v":
        return names[body[1]]
    if kind == "c":
        return " ".join([body[1]] + [f"({_render(a, names)})" for a in body[2]])
    if kind == "pair":
        return f"<{_render(body[1], names)}, {_render(body[2], names)}>"
    return f"{kind} ({_render(body[1], names)})"


#: Planted problems per family and size: the seed picks names, argument
#: orders and leaves, which move the search cost, so each ladder point
#: averages several draws.
PLANTED_PER_SIZE = 8


def _planted(rng: random.Random, family: str, k: int, draw: int) -> Item:
    lang, build = _PLANTED[family]
    names = _names(rng, k, stem="u")
    consts = _names(rng, k + 1, stem="c")
    leaves = [("v", i) for i in range(k)]
    rng.shuffle(leaves)
    body = build(rng, consts, leaves, draw)
    params = list(range(k))
    rng.shuffle(params)  # ?m[v_params[0], ...]
    line = (
        f"forall {' '.join(names)}. ?m[{', '.join(names[i] for i in params)}]"
        f" =?= {_render(body, names)}"
    )
    hole_names = [""] * k
    for position, var in enumerate(params):
        hole_names[var] = f"x{position + 1}"
    expected = read_term(_render(body, hole_names))
    return Item("planted-pattern", lang, k, _cmd(lang, "unify", "-"), line + "\n",
                Solved((("m", k, expected),)), variant=family)


def _shared_chain(rng: random.Random, length: int) -> Item:
    """``?m1[u] =?= c1 u`` and ``?m(i+1)[u] =?= c(i+1) ?mi[u]``: each line
    shares a metavariable with the one before it."""
    consts = _names(rng, length, stem="c")
    metas = [f"m{i + 1}" for i in range(length)]
    lines, solutions = [], []
    body = "x1"
    for i in range(length):
        u = _names(rng, 1, stem="u")[0]
        inner = u if i == 0 else f"?{metas[i - 1]}[{u}]"
        lines.append(f"forall {u}. ?{metas[i]}[{u}] =?= {consts[i]} {inner}")
        body = f"{consts[i]} ({body})"
        solutions.append((metas[i], 1, read_term(body)))
    order = list(range(length))
    rng.shuffle(order)
    # Output lists metavariables in order of first occurrence in the file.
    seen: list[int] = []
    for i in order:
        for j in (i, i - 1):
            if j >= 0 and j not in seen:
                seen.append(j)
    text = "".join(lines[i] + "\n" for i in order)
    return Item("shared-metas", "ulc", length, _cmd("ulc", "unify", "-"), text,
                Solved(tuple(solutions[j] for j in seen)))


def _flex_flex(rng: random.Random) -> list[Item]:
    a, b, c = (f"{n}" for n in _names(rng, 3, stem="n"))
    u = _names(rng, 1, stem="u")[0]
    const = _names(rng, 1, stem="c")[0]
    items = []
    line = f"?{a}[] =?= ?{b}[]"
    items.append(Item("flex-flex", "ulc", None, _cmd("ulc", "unify", "-"), line + "\n",
                      Solved((), (read_constraint(line),))))
    line = f"forall {u}. ?{a}[{u}] =?= ?{b}[{u}]"
    items.append(Item("flex-flex", "stlc", None, _cmd("stlc", "unify", "-"), line + "\n",
                      Solved((), (read_constraint(line),))))
    text = f"forall {u}. ?{a}[{u}] =?= {const} {u}\n?{b}[] =?= ?{c}[]\n"
    items.append(Item("flex-flex", "ulc", None, _cmd("ulc", "unify", "-"), text,
                      Solved(((a, 1, read_term(f"{const} x1")),), (read_constraint(f"?{b}[] =?= ?{c}[]"),))))
    return items


def _clashes(rng: random.Random) -> list[Item]:
    c1, c2 = _names(rng, 2, stem="c")
    u, w = _names(rng, 2, stem="u")
    no = Failure(1, "no solution:")
    return [
        Item("rigid-clash", "ulc", None, _cmd("ulc", "unify", "-"),
             f"forall {u}. {c1} {u} =?= {c2} {u}\n", no),
        Item("rigid-clash", "ulc", None, _cmd("ulc", "unify", "-"),
             f"forall {u} {w}. {c1} {u} {w} =?= {c1} {w} {u}\n", no),
        Item("rigid-clash", "stlc", None, _cmd("stlc", "unify", "-"),
             f"<{c1}, {c2}> =?= first {c2}\n", no),
        Item("rigid-clash", "stlc", None, _cmd("stlc", "unify", "-"),
             f"forall {u}. ?m[{u}] =?= {c1} {u}\nforall {u}. <{u}, {c1}> =?= <{u}, {c2}>\n", no),
    ]


def _fuel_exhausting(rng: random.Random) -> list[Item]:
    c = _names(rng, 1, stem="c")[0]
    u = _names(rng, 1, stem="u")[0]
    undetermined = Failure(2, "undetermined:")
    return [
        Item("fuel-exhausting", "ulc", None, _cmd("ulc", "unify", "-"),
             f"?m[] =?= {c} ?m[]\n", undetermined),
        Item("fuel-exhausting", "ulc", None, _cmd("ulc", "unify", "-"),
             f"forall {u}. ?m[{u}] =?= {c} ?m[{u}] {u}\n", undetermined),
    ]


def _readme_unify() -> list[Item]:
    return [
        Item("readme", "stlc", None, _cmd("stlc", "unify", "-"), "?m[<t1, t2>] =?= t1\n",
             ExactText("?m[x1] := first x1\n"), True),
        Item("readme", "ulc", None, ("unify", "-"), "forall f. forall x. ?m[f x] =?= f x\n",
             ExactText("?m[x1] := x1\n"), True),
        Item("readme", "ulc", None, ("unify", "-"), "?m1[] =?= ?m2[]\n",
             ExactText("?m1[] =?= ?m2[]\n"), True),
    ]


def unify_corpus(rng: random.Random) -> list[Item]:
    items = _readme_unify()
    for family in _PLANTED:
        items += [_planted(rng, family, k, d) for k in (1, 2, 3, 4) for d in range(PLANTED_PER_SIZE)]
    items += [_shared_chain(rng, n) for n in (2, 3, 4)]
    items += _flex_flex(rng) + _clashes(rng) + _fuel_exhausting(rng)
    return items


# ---------------------------------------------------------------------------
# normalize


def _church(n: int, f: str, x: str) -> str:
    return f"(\\{f}. \\{x}. " + f"{f} (" * n + x + ")" * n + ")"


def _church_item(rng: random.Random, op: str, value: int) -> Item:
    """``op A B (\\y. y) a`` whose value is ``value``; it reduces to ``a``
    after a number of head steps that grows with ``value``."""
    m, n, f, x, y = _names(rng, 5)
    log = value.bit_length() - 1
    if op == "add":
        left = value // 2 - rng.randrange(0, value // 4)
        args, code = (left, value - left), f"(\\{m}. \\{n}. \\{f}. \\{x}. {m} {f} ({n} {f} {x}))"
    elif op == "mul":
        left = 1 << (log // 2)
        args, code = (left, value // left), f"(\\{m}. \\{n}. \\{f}. {m} ({n} {f}))"
    else:
        args, code = (2, log), f"(\\{m}. \\{n}. {n} {m})"
    numerals = " ".join(_church(k, *_names(rng, 2)) for k in args)
    text = f"{code} {numerals} (\\{y}. {y}) a"
    return Item("church", "ulc", value, _cmd("ulc", "reduce", text), None, ExactText("a\n"))


def _pair_tower(rng: random.Random, depth: int) -> Item:
    """A projection path that digs through ``depth`` nested pairs to a leaf."""
    leaves = _names(rng, depth + 1, stem="k")
    term, path = leaves[0], []
    for i in range(1, depth + 1):
        if rng.random() < 0.5:
            term, step = f"<{term}, {leaves[i]}>", "first"
        else:
            term, step = f"<{leaves[i]}, {term}>", "second"
        path.append(step)
    text = term
    for step in reversed(path):
        text = f"{step} ({text})"
    return Item("stlc-pair-tower", "stlc", depth, _cmd("stlc", "reduce", text), None,
                ExactText(leaves[0] + "\n"))


def _j_tower(rng: random.Random, depth: int) -> Item:
    """``J`` on ``refl`` nested ``depth`` deep, alternately in the base and
    in the proof; it reduces to the innermost base."""
    ty, a, base, motive_var, proof_var = _names(rng, 5)
    motive = f"\\{motive_var}. \\{proof_var}. {ty}"
    term = base
    for i in range(depth):
        if i % 2 == 0:
            term = f"J({ty}, {a}, {motive}, {term}, {a}, refl {a})"
        else:
            term = f"J({ty}, {a}, {motive}, {term}, {a}, J({ty}, {a}, {motive}, refl {a}, {a}, refl {a}))"
    return Item("mltt-j-tower", "mltt", depth, _cmd("mltt", "reduce", term), None,
                ExactText(base + "\n"))


def _readme_normalize() -> list[Item]:
    return [
        Item("readme", "ulc", None, ("reduce", r"(\x. x) a"), None, ExactText("a\n"), True),
        Item("readme", "stlc", None, _cmd("stlc", "reduce", "first <a, b>"), None, ExactText("a\n"), True),
        Item("readme", "mltt", None, _cmd("mltt", "reduce", r"J(A, a, \y. \q. C, d, a, refl a)"), None,
             ExactText("d\n"), True),
        Item("one-liner", "ulc", None, _cmd("ulc", "reduce", r"(\x. \y. x) a b"), None, ExactText("a\n"), True),
        Item("one-liner", "ulc", None, _cmd("ulc", "reduce", r"(\x. \y. y x) a"), None,
             Printed(read_term(r"\y. y a")), True),
        Item("one-liner", "ulc", None, _cmd("ulc", "reduce", r"(\x. x x) (\y. y)"), None,
             Printed(read_term(r"\y. y")), True),
        Item("one-liner", "stlc", None, _cmd("stlc", "reduce", "second <a, <b, c>>"), None,
             ExactText("<b, c>\n"), True),
    ]


def normalize_corpus(rng: random.Random) -> list[Item]:
    items = _readme_normalize()
    for op in ("add", "mul", "exp"):
        items += [_church_item(rng, op, v) for v in (16, 32, 64, 128, 256) for _ in range(6)]
    items += _draws(rng, _pair_tower, dict.fromkeys((4, 8, 16, 32), 8))
    items += _draws(rng, _j_tower, dict.fromkeys((2, 4, 8, 16), 8))
    return items


_BUILDERS = {"infer": infer_corpus, "unify": unify_corpus, "normalize": normalize_corpus}


def build(workload: str, seed: int) -> list[Item]:
    """The corpus of ``workload`` for ``seed``, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    items = _BUILDERS[workload](rng)
    rng.shuffle(items)
    return items


def composition(items: list[Item]) -> dict:
    """Counts by language, family and size, and expected exit code."""
    return {
        "items": len(items),
        "by_language": dict(sorted(Counter(i.lang for i in items).items())),
        "by_family_size": dict(sorted(Counter(
            f"{i.family}" + ("" if i.size is None else f"@{i.size}") for i in items
        ).items())),
        "by_expected_exit": {str(k): v for k, v in sorted(Counter(i.expect.code for i in items).items())},
    }


#: First command of each workload's cold start (see ``setup_s``).
FIRST_COMMAND = {
    "infer": (("--lang", "stlc", "infer", r"\x. \y. y"), None),
    "unify": (("--lang", "stlc", "unify", "-"), "?m[<t1, t2>] =?= t1\n"),
    "normalize": (("reduce", r"(\x. x) a"), None),
}
