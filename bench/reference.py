"""Independent reference for the benchmark: a reader for metaterm's printed
surface syntax, a small normaliser, and the checks every corpus item uses.

Nothing here imports metaterm.  Expected answers come either from text
written by hand (the README examples and hand-picked items) or from how a
generated item was built (a Church expression reduces to ``a``, a planted
pattern problem has its planted body as unique solution, an apply-chain has
a known principal type).

Terms are read into tuples with de Bruijn indices, so comparisons ignore the
names the printer invents for binders:

    ("var", k)            bound variable, k binders up
    ("free", name)        free variable or constant
    ("meta", name, args)  metavariable application
    ("lam", ann, body)    lambda; ann is None when unannotated
    ("pi", dom, cod)      ``A -> B`` and ``(x : A) -> B``; cod is under a binder
    ("sigma", dom, cod)   ``A * B`` and ``(x : A) * B``; cod is under a binder
    ("app", fun, arg)
    ("pair", left, right)
    ("first", t) / ("second", t) / ("refl", t)
    ("eq", left, right)   identity type ``a = b``
    ("U",)
    ("J", six children)

A non-dependent arrow is a ``pi`` whose codomain does not use its binder, so
``A -> B`` and ``(x : A) -> B`` read the same when ``B`` does not mention x.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

Tree = tuple

_TOKEN = re.compile(
    r"\s*(?:(=\?=)|(:=)|(->)|(\?[A-Za-z_][A-Za-z0-9_']*)|([A-Za-z_][A-Za-z0-9_']*)"
    r"|(#[0-9]+)|([\\.()\[\]<>,:*=]))"
)
_PREFIX_WORDS = {"first", "second", "refl"}
_KEYWORDS = _PREFIX_WORDS | {"U", "J", "forall"}


class ReadError(ValueError):
    """The text is not in metaterm's printed surface syntax."""


def _tokens(text: str) -> list[str]:
    out, pos = [], 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None or m.end() == pos:
            raise ReadError(f"unexpected character at {pos} in {text!r}")
        out.append(m.group(m.lastindex))
        pos = m.end()
    return out


class _Reader:
    """Recursive-descent reader for the grammar in the README."""

    def __init__(self, text: str, env: list[str] | None = None):
        self.toks = _tokens(text)
        self.pos = 0
        self.env: list[str] = list(env or [])

    def peek(self, ahead: int = 0) -> str:
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else ""

    def take(self, want: str | None = None) -> str:
        tok = self.peek()
        if want is not None and tok != want:
            raise ReadError(f"expected {want!r}, found {tok!r} in {' '.join(self.toks)}")
        if not tok:
            raise ReadError("unexpected end of input")
        self.pos += 1
        return tok

    def done(self) -> None:
        if self.pos != len(self.toks):
            raise ReadError(f"trailing input {self.toks[self.pos:]}")

    def is_name(self, tok: str) -> bool:
        return bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", tok)) and tok not in _KEYWORDS

    def under(self, name: str, parse):
        self.env.append(name)
        try:
            return parse()
        finally:
            self.env.pop()

    def at_binder(self) -> bool:
        return self.peek() == "(" and self.is_name(self.peek(1)) and self.peek(2) == ":"

    def term(self) -> Tree:
        if self.peek() == "\\":
            self.take()
            ann = None
            if self.peek() == "(":
                self.take()
                name = self.take()
                self.take(":")
                ann = self.term()
                self.take(")")
            else:
                name = self.take()
            self.take(".")
            return ("lam", ann, self.under(name, self.term))
        if self.at_binder():
            self.take("(")
            name = self.take()
            self.take(":")
            dom = self.term()
            self.take(")")
            op = self.take()
            if op not in ("->", "*"):
                raise ReadError(f"expected '->' or '*' after a binder, found {op!r}")
            cod = self.under(name, self.term)
            return ("pi" if op == "->" else "sigma", dom, cod)
        return self.arrow()

    def arrow(self) -> Tree:
        left = self.star()
        if self.peek() == "->":
            self.take()
            right = self.term() if self.peek() == "\\" or self.at_binder() else self.arrow()
            return ("pi", left, shift(right, 1))
        return left

    def star(self) -> Tree:
        left = self.eq()
        if self.peek() == "*":
            self.take()
            return ("sigma", left, shift(self.star(), 1))
        return left

    def eq(self) -> Tree:
        left = self.app()
        if self.peek() == "=":
            self.take()
            return ("eq", left, self.app())
        return left

    def starts_atom(self) -> bool:
        tok = self.peek()
        if tok in ("(", "<", "\\", "U", "J") or tok.startswith("?") or tok.startswith("#"):
            return not self.at_binder()
        return self.is_name(tok) or tok in _PREFIX_WORDS

    def app(self) -> Tree:
        result = self.prefix()
        while self.peek() and self.starts_atom():
            arg = self.term() if self.peek() == "\\" else self.prefix()
            result = ("app", result, arg)
        return result

    def prefix(self) -> Tree:
        if self.peek() in _PREFIX_WORDS:
            word = self.take()
            return (word, self.prefix())
        return self.atom()

    def atom(self) -> Tree:
        tok = self.take()
        if tok == "U":
            return ("U",)
        if tok == "J":
            self.take("(")
            args = [self.term()]
            while self.peek() == ",":
                self.take()
                args.append(self.term())
            self.take(")")
            if len(args) != 6:
                raise ReadError(f"J takes 6 arguments, got {len(args)}")
            return ("J", *args)
        if tok == "(":
            inner = self.term()
            self.take(")")
            return inner
        if tok == "<":
            left = self.term()
            self.take(",")
            right = self.term()
            self.take(">")
            return ("pair", left, right)
        if tok.startswith("?"):
            args = []
            if self.peek() == "[":
                self.take()
                if self.peek() != "]":
                    args.append(self.term())
                    while self.peek() == ",":
                        self.take()
                        args.append(self.term())
                self.take("]")
            return ("meta", tok[1:], tuple(args))
        if tok.startswith("#"):
            return ("var", int(tok[1:]))
        if self.is_name(tok):
            if tok in self.env:
                return ("var", len(self.env) - 1 - max(i for i, n in enumerate(self.env) if n == tok))
            return ("free", tok)
        raise ReadError(f"unexpected token {tok!r}")


def read_term(text: str, env: list[str] | None = None) -> Tree:
    """Read one printed term; ``env`` names enclosing binders, outermost first."""
    reader = _Reader(text, env)
    tree = reader.term()
    reader.done()
    return tree


def read_entry(line: str) -> tuple[str, int, Tree]:
    """Read a solution line ``?m[x1, ..., xn] := body``.

    The parameters stay free names in the body, so the result is compared
    against bodies written with the same parameter names.
    """
    m = re.fullmatch(r"\?([A-Za-z_][A-Za-z0-9_']*)\[([^\]]*)\] := (.*)", line.strip())
    if m is None:
        raise ReadError(f"not a solution line: {line!r}")
    params = [p.strip() for p in m.group(2).split(",") if p.strip()]
    return m.group(1), len(params), read_term(m.group(3))


def read_constraint(line: str) -> tuple[int, Tree, Tree]:
    """Read ``[forall x y.]* lhs =?= rhs``; returns (binders, lhs, rhs)."""
    names: list[str] = []
    rest = line.strip()
    while rest.startswith("forall "):
        head, _, rest = rest[len("forall "):].partition(".")
        names.extend(head.split())
        rest = rest.strip()
    lhs, sep, rhs = rest.partition(" =?= ")
    if not sep:
        raise ReadError(f"not a constraint: {line!r}")
    return len(names), read_term(lhs, names), read_term(rhs, names)


# ---------------------------------------------------------------------------
# De Bruijn operations and normalisation

_BINDING = {"lam": (2,), "pi": (2,), "sigma": (2,)}


def _map(t: Tree, f, depth: int) -> Tree:
    """Rebuild ``t`` applying ``f(child, depth)`` to every child term."""
    tag = t[0]
    if tag in ("var", "free", "U"):
        return t
    if tag == "meta":
        return ("meta", t[1], tuple(f(a, depth) for a in t[2]))
    out = [tag]
    for i, child in enumerate(t[1:], start=1):
        if child is None:
            out.append(None)
        else:
            out.append(f(child, depth + (1 if i in _BINDING.get(tag, ()) else 0)))
    return tuple(out)


def shift(t: Tree, by: int, cutoff: int = 0) -> Tree:
    """Add ``by`` to every bound index at or above ``cutoff``."""
    if t[0] == "var":
        return ("var", t[1] + by) if t[1] >= cutoff else t
    return _map(t, lambda c, d: shift(c, by, d), cutoff)


def subst_top(body: Tree, arg: Tree) -> Tree:
    """Instantiate the outermost binder of ``body`` with ``arg``."""

    def go(t: Tree, depth: int) -> Tree:
        if t[0] == "var":
            k = t[1]
            if k == depth:
                return shift(arg, depth)
            return ("var", k - 1) if k > depth else t
        return _map(t, go, depth)

    return go(body, 0)


class NormaliseLimit(Exception):
    """More reduction steps than the normaliser allows."""


def normalise(t: Tree, fuel: int = 100_000) -> Tree:
    """Full normal form under beta, projection-of-pair and J-on-refl.

    Uses an explicit step budget; raises :class:`NormaliseLimit` past it.
    """
    budget = [fuel]

    def whnf(t: Tree) -> Tree:
        while True:
            budget[0] -= 1
            if budget[0] < 0:
                raise NormaliseLimit(f"no normal form within {fuel} steps")
            tag = t[0]
            if tag == "app":
                fun = whnf(t[1])
                if fun[0] == "lam":
                    t = subst_top(fun[2], t[2])
                    continue
                return ("app", fun, t[2])
            if tag in ("first", "second"):
                pair = whnf(t[1])
                if pair[0] == "pair":
                    t = pair[1] if tag == "first" else pair[2]
                    continue
                return (tag, pair)
            if tag == "J":
                proof = whnf(t[6])
                if proof[0] == "refl":
                    t = t[4]
                    continue
                return (*t[:6], proof)
            return t

    def full(t: Tree) -> Tree:
        return _map(whnf(t), lambda c, d: full(c), 0)

    return full(t)


def drop_meta_args(t: Tree) -> Tree:
    """Forget the arguments of every metavariable application."""
    if t[0] == "meta":
        return ("meta", t[1], ())
    return _map(t, lambda c, d: drop_meta_args(c), 0)


def same_up_to_meta_renaming(a: Tree, b: Tree) -> bool:
    """Structural equality where metavariable names may differ, provided
    the names correspond one-to-one throughout both terms."""
    forward: dict[str, str] = {}
    backward: dict[str, str] = {}

    def go(x, y) -> bool:
        if x is None or y is None:
            return x is y
        if x[0] != y[0] or len(x) != len(y):
            return False
        if x[0] == "meta":
            if forward.setdefault(x[1], y[1]) != y[1] or backward.setdefault(y[1], x[1]) != x[1]:
                return False
            return len(x[2]) == len(y[2]) and all(go(p, q) for p, q in zip(x[2], y[2]))
        if x[0] in ("var", "free", "U"):
            return x == y
        return all(go(p, q) for p, q in zip(x[1:], y[1:]))

    return go(a, b)


# ---------------------------------------------------------------------------
# Expected outcomes


@dataclass(frozen=True)
class Outcome:
    """What one CLI command did."""

    code: int
    out: str
    err: str


def _lines(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.strip()]


class Expect:
    """Reference for one item; :meth:`check` returns None or a reason.
    Subclasses are dataclasses with a ``code`` field: the expected exit code."""

    code: int

    def check(self, got: Outcome) -> str | None:
        if got.code != self.code:
            return f"exit {got.code}, expected {self.code}: {got.err.strip()[:120]}"
        try:
            return self.check_output(got)
        except (ReadError, NormaliseLimit) as exc:
            return f"unreadable output: {exc}"

    def check_output(self, got: Outcome) -> str | None:
        raise NotImplementedError


@dataclass(frozen=True)
class ExactText(Expect):
    """Standard output must equal ``text``; standard error must be empty."""

    text: str
    code: int = 0

    def check_output(self, got: Outcome) -> str | None:
        if got.out != self.text:
            return f"stdout {got.out!r}, expected {self.text!r}"
        if got.err:
            return f"unexpected stderr {got.err!r}"
        return None


@dataclass(frozen=True)
class Failure(Expect):
    """A documented failure: given exit code, empty stdout, and a stderr
    line starting with ``prefix`` (or equal to ``exact`` when given)."""

    code: int
    prefix: str
    exact: str | None = None

    def check_output(self, got: Outcome) -> str | None:
        if got.out:
            return f"unexpected stdout {got.out!r}"
        err = got.err.strip()
        if self.exact is not None and err != self.exact:
            return f"stderr {err!r}, expected {self.exact!r}"
        if not err.startswith(self.prefix):
            return f"stderr {err!r} does not start with {self.prefix!r}"
        return None


@dataclass(frozen=True)
class Printed(Expect):
    """One printed term, equal to ``expected`` up to binder names and a
    consistent renaming of metavariables.

    ``skeleton`` also forgets metavariable arguments.  Dependent type
    inference applies each fresh type metavariable to the binders in scope,
    so an MLTT apply-chain's principal type is the non-dependent shape
    ``(A1 -> ... -> An -> B) -> A1 -> ... -> An -> B`` read with each
    ``?t[...]`` as one type variable.
    """

    expected: Tree
    skeleton: bool = False
    code: int = 0

    def check_output(self, got: Outcome) -> str | None:
        lines = got.out.splitlines()
        if len(lines) != 1 or got.err:
            return f"expected one line on stdout and no stderr, got {got.out!r} / {got.err!r}"
        tree = read_term(lines[0])
        want = self.expected
        if self.skeleton:
            tree, want = drop_meta_args(tree), drop_meta_args(want)
        if not same_up_to_meta_renaming(tree, want):
            return f"printed {lines[0]!r} differs from the reference"
        return None


@dataclass(frozen=True)
class Solved(Expect):
    """``unify`` output: one ``?m[x1..xn] := body`` line per solved
    metavariable in order of first occurrence, then residual constraints.

    Bodies are compared after normalisation, since a solution is unique only
    up to conversion; each expected body names its parameters x1..xn.
    Residual constraints are compared up to binder names.
    """

    solutions: tuple[tuple[str, int, Tree], ...]
    residual: tuple[tuple[int, Tree, Tree], ...] = ()
    code: int = 0

    def check_output(self, got: Outcome) -> str | None:
        if got.err:
            return f"unexpected stderr {got.err!r}"
        lines = _lines(got.out)
        want_n = len(self.solutions) + len(self.residual)
        if len(lines) != want_n:
            return f"{len(lines)} output lines, expected {want_n}: {got.out!r}"
        for line, (name, arity, body) in zip(lines, self.solutions):
            got_name, got_arity, got_body = read_entry(line)
            if (got_name, got_arity) != (name, arity):
                return f"line {line!r} solves ?{got_name}/{got_arity}, expected ?{name}/{arity}"
            if normalise(got_body) != normalise(body):
                return f"solution {line!r} is not the planted body"
        for line, want in zip(lines[len(self.solutions):], self.residual):
            if read_constraint(line) != want:
                return f"residual {line!r} differs from the reference"
        return None


# ---------------------------------------------------------------------------
# Principal types of simply typed terms, for generated ``infer`` items


class _Unifier:
    """First-order unification over simple types (Robinson, with occurs check)."""

    def __init__(self):
        self.bindings: dict[str, Tree] = {}
        self.counter = 0

    def fresh(self) -> Tree:
        self.counter += 1
        return ("meta", f"a{self.counter}", ())

    def resolve(self, t: Tree) -> Tree:
        while t[0] == "meta" and t[1] in self.bindings:
            t = self.bindings[t[1]]
        return t

    def full(self, t: Tree) -> Tree:
        t = self.resolve(t)
        if t[0] == "meta":
            return t
        return (t[0], self.full(t[1]), self.full(t[2]))

    def occurs(self, name: str, t: Tree) -> bool:
        t = self.resolve(t)
        if t[0] == "meta":
            return t[1] == name
        return self.occurs(name, t[1]) or self.occurs(name, t[2])

    def unify(self, a: Tree, b: Tree) -> None:
        a, b = self.resolve(a), self.resolve(b)
        if a == b:
            return
        if a[0] == "meta" or b[0] == "meta":
            meta, other = (a, b) if a[0] == "meta" else (b, a)
            if self.occurs(meta[1], other):
                raise TypeError("occurs check")
            self.bindings[meta[1]] = other
            return
        if a[0] != b[0]:
            raise TypeError(f"{a[0]} against {b[0]}")
        self.unify(a[1], b[1])
        self.unify(a[2], b[2])


def principal_simple_type(term: Tree) -> Tree:
    """Principal type of a closed-or-open simply typed term (``lam``/``app``/
    ``pair``/``first``/``second``, free variables typed by fresh variables).

    Arrows and pair types come back as non-dependent ``pi``/``sigma`` trees,
    the shape :func:`read_term` gives ``A -> B`` and ``A * B``.
    """
    u = _Unifier()
    free: dict[str, Tree] = {}

    def infer(t: Tree, ctx: list[Tree]) -> Tree:
        tag = t[0]
        if tag == "var":
            return ctx[len(ctx) - 1 - t[1]]
        if tag == "free":
            return free.setdefault(t[1], u.fresh())
        if tag == "lam":
            dom = u.fresh()
            return ("fun", dom, infer(t[2], ctx + [dom]))
        if tag == "app":
            fun, arg = infer(t[1], ctx), infer(t[2], ctx)
            result = u.fresh()
            u.unify(fun, ("fun", arg, result))
            return result
        if tag == "pair":
            return ("prod", infer(t[1], ctx), infer(t[2], ctx))
        if tag in ("first", "second"):
            left, right = u.fresh(), u.fresh()
            u.unify(infer(t[1], ctx), ("prod", left, right))
            return left if tag == "first" else right
        raise ValueError(f"no simple type rule for {tag!r}")

    def as_tree(t: Tree) -> Tree:
        if t[0] == "meta":
            return t
        tag = "pi" if t[0] == "fun" else "sigma"
        return (tag, as_tree(t[1]), shift(as_tree(t[2]), 1))

    return as_tree(u.full(infer(term, [])))
