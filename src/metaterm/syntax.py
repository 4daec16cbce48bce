"""Surface syntax shared by all bundled languages.

One grammar covers everything; constructs a language lacks are rejected
with an "unknown construct" error.  Binders are resolved to de Bruijn
indices during parsing; the printer invents fresh, non-shadowing names.

Grammar sketch (precedence from loose to tight):

    term     ::= '\\' binder '.' term
               | '(' name ':' term ')' ('->' | '*') term      (Pi / Sigma)
               | arrow
    arrow    ::= star ('->' arrow)?                           (right assoc)
    star     ::= eq ('*' star)?                               (right assoc)
    eq       ::= app ('=' app)?
    app      ::= prefix+                                      (left assoc)
    prefix   ::= ('first' | 'second' | 'refl') prefix | atom
    atom     ::= name | 'U' | '(' term ')' | '<' term ',' term '>'
               | 'J' '(' term{6 comma-separated} ')'
               | '?'name ('[' term,* ']')?
    binder   ::= name | '(' name ':' term ')'

Constraints:   ('forall' name+ '.')* term '=?=' term
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .metavar import MetaAbs
from .signature import INF_UNIVERSE_TAG, SlotKind
from .terms import (
    Bound,
    Free,
    Hole,
    MetaApp,
    Op,
    Term,
    free_names,
    run,
    strengthen,
    weaken,
)
from .unification import Constraint


class ParseError(ValueError):
    """Syntax error with position information."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class UnknownConstruct(ParseError):
    """The construct exists in the grammar but not in the chosen language."""


_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<ARROW>->)
    | (?P<UNIFY>=\?=)
    | (?P<META>\?[A-Za-z_][A-Za-z0-9_']*)
    | (?P<NAME>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<PUNCT>[\\.()\[\]<>,:*=])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"first", "second", "refl", "forall", "U", "J"}

# Token kind of a binary type former -> (simple tag, dependent tag, name).
_TYPE_FORMERS = {"ARROW": ("Fun", "Pi", "function type"), "*": ("PairTy", "Sigma", "pair type")}


class _Token(NamedTuple):
    kind: str  # ARROW, UNIFY, META, NAME, one of the punct chars, or EOF
    text: str
    line: int
    column: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {src[pos]!r}", line, pos - line_start + 1
            )
        kind = m.lastgroup
        text = m.group()
        if kind != "WS":
            token_kind = text if kind == "PUNCT" else kind
            tokens.append(_Token(token_kind, text, line, m.start() - line_start + 1))
        else:
            line += text.count("\n")
            if "\n" in text:
                line_start = m.start() + text.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("EOF", "", line, len(src) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, src: str, lang):
        tokens = _tokenize(src)
        self.tokens = tokens + tokens[-1:] * 2  # peek sees up to two past EOF
        self.pos = 0
        self.lang = lang
        self.ops = lang.signature.operators
        self.env: list[str] = []  # innermost binder last
        self.positions: dict[str, list[int]] = {}  # per name, its binders' places in env

    def bind(self, name: str) -> None:
        self.positions.setdefault(name, []).append(len(self.env))
        self.env.append(name)

    def unbind(self) -> None:
        self.positions[self.env.pop()].pop()

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> _Token:
        tok = self.peek()
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {tok.text or 'end of input'!r}",
                tok.line,
                tok.column,
            )
        return self.next()

    def fail_construct(self, construct: str, tok: _Token):
        raise UnknownConstruct(
            f"{construct} is not part of language {self.lang.name!r}",
            tok.line,
            tok.column,
        )

    # -- construct builders (language-filtered) ----------------------------

    def make_lam(self, annotation: Term | None, body: Term, tok: _Token) -> Term:
        lam = self.ops.get("Lam")
        if lam is None:
            self.fail_construct("lambda", tok)
        if lam.slots[0] is SlotKind.OPT_TERM:
            return Op("Lam", (annotation, body))
        if annotation is not None:
            self.fail_construct("annotated lambda", tok)
        return Op("Lam", (body,))

    def make_type_former(
        self, kind: str, left: Term, right: Term, tok: _Token, *, scoped: bool
    ) -> Term:
        """``->`` (Fun / Pi) or ``*`` (PairTy / Sigma), by token ``kind``;
        ``scoped`` means ``right`` lives at depth+1."""
        simple, dependent, construct = _TYPE_FORMERS[kind]
        if simple in self.ops:
            if scoped:
                self.fail_construct(f"dependent {construct}", tok)
            return Op(simple, (left, right))
        if dependent in self.ops:
            if not scoped:
                right = weaken(self.lang.signature, right, 1)
            return Op(dependent, (left, right))
        self.fail_construct(construct, tok)

    def make_op(self, tag: str, children: tuple[Term, ...], construct: str, tok: _Token) -> Term:
        if tag not in self.ops:
            self.fail_construct(construct, tok)
        return Op(tag, children)

    # -- grammar -----------------------------------------------------------
    #
    # Each rule is a generator run by :func:`run`: ``(yield self.rule())``
    # parses a sub-rule and evaluates to its result, so nesting depth in the
    # input never nests Python calls.

    def term(self):
        if self.peek().kind == "\\":
            return (yield self.lam())
        if self.at_dependent_binder():
            return (yield self.quantifier())
        left = yield self.star()  # arrow ::= star ('->' arrow)?
        if self.peek().kind != "ARROW":
            return left
        tok = self.next()
        right = yield self.term()  # an arrow, or a binder reaching to the end
        return self.make_type_former("ARROW", left, right, tok, scoped=False)

    def lam(self):
        tok = self.expect("\\")
        annotation: Term | None = None
        if self.peek().kind == "(":
            self.next()
            name = self.expect("NAME").text
            self.expect(":")
            annotation = yield self.term()
            self.expect(")")
        else:
            name = self.expect("NAME").text
        self.expect(".")
        self.bind(name)
        body = yield self.term()
        self.unbind()
        return self.make_lam(annotation, body, tok)

    def at_dependent_binder(self) -> bool:
        return (
            self.peek().kind == "("
            and self.peek(1).kind == "NAME"
            and self.peek(1).text not in _KEYWORDS
            and self.peek(2).kind == ":"
        )

    def quantifier(self):
        tok = self.expect("(")
        name = self.expect("NAME").text
        self.expect(":")
        dom = yield self.term()
        self.expect(")")
        arrow = self.next()
        if arrow.kind not in ("ARROW", "*"):
            raise ParseError(
                f"expected '->' or '*' after binder, found {arrow.text!r}",
                arrow.line,
                arrow.column,
            )
        self.bind(name)
        body = yield self.term()
        self.unbind()
        return self.make_type_former(arrow.kind, dom, body, tok, scoped=True)

    def star(self):
        left = yield self.eq()
        if self.peek().kind == "*":
            tok = self.next()
            right = yield self.star()
            return self.make_type_former("*", left, right, tok, scoped=False)
        return left

    def eq(self):
        left = yield self.app()
        if self.peek().kind == "=":
            tok = self.next()
            right = yield self.app()
            return self.make_op("IdType", (left, right), "identity type", tok)
        return left

    _ATOM_STARTERS = frozenset({"NAME", "META", "(", "<", "\\"})

    def app(self):
        result = yield self.prefix()
        while self.peek().kind in self._ATOM_STARTERS:
            if self.at_dependent_binder():
                break
            arg_tok = self.peek()
            arg = yield (self.lam() if arg_tok.kind == "\\" else self.prefix())
            result = self.make_op("App", (result, arg), "application", arg_tok)
        return result

    def prefix(self):
        tok = self.next()
        match tok.kind:
            case "NAME" if tok.text in ("first", "second", "refl"):
                arg = yield self.prefix()
                return self.make_op(tok.text.capitalize(), (arg,), tok.text, tok)
            case "NAME" if tok.text == "U":
                if INF_UNIVERSE_TAG in self.ops:
                    return Op(INF_UNIVERSE_TAG)
                return self.make_op("Universe", (), "universe", tok)
            case "NAME" if tok.text == "J":
                self.expect("(")
                args = [(yield self.term())]
                while self.peek().kind == ",":
                    self.next()
                    args.append((yield self.term()))
                self.expect(")")
                if len(args) != 6:
                    raise ParseError(
                        f"J takes 6 arguments, got {len(args)}", tok.line, tok.column
                    )
                return self.make_op("J", tuple(args), "identity eliminator", tok)
            case "NAME" if tok.text == "forall":
                raise ParseError("'forall' is only allowed in constraints", tok.line, tok.column)
            case "NAME":
                places = self.positions.get(tok.text)
                return Bound(len(self.env) - 1 - places[-1]) if places else Free(tok.text)
            case "META":
                name = tok.text[1:]
                args: list[Term] = []
                if self.peek().kind == "[":
                    self.next()
                    if self.peek().kind != "]":
                        args.append((yield self.term()))
                        while self.peek().kind == ",":
                            self.next()
                            args.append((yield self.term()))
                    self.expect("]")
                return MetaApp(name, tuple(args))
            case "(":
                inner = yield self.term()
                self.expect(")")
                return inner
            case "<":
                first = yield self.term()
                self.expect(",")
                second = yield self.term()
                self.expect(">")
                return self.make_op("Pair", (first, second), "pair", tok)
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column
        )

    def constraint(self):
        while self.peek().kind == "NAME" and self.peek().text == "forall":
            self.next()
            names = []
            while self.peek().kind == "NAME" and self.peek().text not in _KEYWORDS:
                names.append(self.next().text)
            if not names:
                tok = self.peek()
                raise ParseError("'forall' needs at least one name", tok.line, tok.column)
            self.expect(".")
            for name in names:
                self.bind(name)
        lhs = yield self.term()
        self.expect("UNIFY")
        rhs = yield self.term()
        return Constraint(lhs, rhs, len(self.env), tuple(self.env))

    def finish(self) -> None:
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)


def parse_term(src: str, lang) -> Term:
    parser = _Parser(src, lang)
    term = run(parser.term())
    parser.finish()
    return term


def parse_constraint(src: str, lang) -> Constraint:
    parser = _Parser(src, lang)
    c = run(parser.constraint())
    parser.finish()
    return c


# ---------------------------------------------------------------------------
# Printing

_LAM, _ARROW, _STAR, _EQ, _APP, _PREFIX, _ATOM = range(7)

# Binary nodes printed infix: tag -> (separator, own level, left level,
# right level).  Pi and Sigma print this way when not dependent.
_INFIX = {
    "Fun": (" -> ", _ARROW, _ARROW + 1, _ARROW),
    "Pi": (" -> ", _ARROW, _ARROW + 1, _ARROW),
    "PairTy": (" * ", _STAR, _STAR + 1, _STAR),
    "Sigma": (" * ", _STAR, _STAR + 1, _STAR),
    "IdType": (" = ", _EQ, _APP, _APP),
    "App": (" ", _APP, _APP, _ATOM),
}
_BRACKETS = {"Pair": ("<", ">"), "J": ("J(", ")")}

_NAME_POOL = ("x", "y", "z", "u", "v", "w")


def _fresh_name(avoid: set[str], start: int = 1) -> tuple[str, int]:
    """The first name of the pool, else of ``x<start>``, ``x<start+1>``, …
    that is not in ``avoid``; with the index to start from next time."""
    for name in _NAME_POOL:
        if name not in avoid:
            return name, start
    while f"x{start}" in avoid:
        start += 1
    return f"x{start}", start + 1


def print_term(
    lang,
    term: Term,
    *,
    hole_names: tuple[str, ...] = (),
    binder_names: tuple[str, ...] = (),
) -> str:
    """Render a term; annotations on operator nodes are suppressed.

    ``binder_names`` name the enclosing binders (outermost first) for terms
    that are not closed; ``hole_names`` name metavariable-body parameters.
    """
    sig = lang.typed_signature
    env = list(binder_names)  # names of the binders in scope, innermost last
    taken = free_names(term) | set(hole_names) | set(binder_names)
    hints = [1]  # per named binder: every ``x<i>`` with i < hints[-1] is taken

    def bind() -> str:
        """Name a new innermost binder, distinct from every name in scope."""
        name, hint = _fresh_name(taken, hints[-1])
        env.append(name)
        taken.add(name)
        hints.append(hint)
        return name

    def unbind() -> None:
        taken.discard(env.pop())
        hints.pop()

    def show(t: Term, level: int):
        """Text of ``t`` under the binder names ``env``, parenthesised when
        its own level binds looser than ``level``; a step of :func:`run`."""
        match t:
            case Bound(k):
                # ``#k``: not closed under the given names
                text, own = (env[len(env) - 1 - k] if k < len(env) else f"#{k}"), _ATOM
            case Free(name):
                text, own = name, _ATOM
            case Hole(i):
                text, own = hole_names[i], _ATOM
            case MetaApp() | Op("Pair" | "J"):
                shown = []
                for c in t.args if type(t) is MetaApp else t.children:
                    shown.append((yield show(c, _LAM)))
                opener, closer = (f"?{t.meta}[", "]") if type(t) is MetaApp else _BRACKETS[t.tag]
                text, own = f"{opener}{', '.join(shown)}{closer}", _ATOM
            case Op("Lam", children, _):
                x = bind()
                body = yield show(children[-1], _LAM)
                unbind()
                if len(children) == 2 and children[0] is not None:
                    dom = yield show(children[0], _LAM)
                    text = f"\\({x} : {dom}). {body}"
                else:
                    text = f"\\{x}. {body}"
                own = _LAM
            case Op(tag, (left, right), _) if tag in _INFIX:
                separator, own, left_level, right_level = _INFIX[tag]
                dependent = False
                if tag in ("Pi", "Sigma"):
                    try:
                        right = strengthen(sig, right)
                    except ValueError:  # the codomain mentions its binder
                        dependent, own, left_level, right_level = True, _LAM, _LAM, _LAM
                left_text = yield show(left, left_level)
                x = bind() if dependent else None
                right_text = yield show(right, right_level)
                if dependent:
                    unbind()
                    left_text = f"({x} : {left_text})"
                text = f"{left_text}{separator}{right_text}"
            case Op("First" | "Second" | "Refl" as tag, (arg,), _):
                arg_text = yield show(arg, _PREFIX)
                text, own = f"{tag.lower()} {arg_text}", _PREFIX
            case Op("Universe" | "UInf", (), _):
                text, own = "U", _ATOM
            case _:
                raise ValueError(f"cannot print {t!r}")
        return f"({text})" if own < level else text

    return run(show(term, _LAM))


def print_constraint(lang, c: Constraint) -> str:
    names: list[str] = []
    for i in range(c.binders):
        given = c.binder_names[i] if i < len(c.binder_names) else ""
        names.append(given or _fresh_name(set(names))[0])
    body = (
        f"{print_term(lang, c.lhs, binder_names=tuple(names))}"
        f" =?= {print_term(lang, c.rhs, binder_names=tuple(names))}"
    )
    if names:
        return f"forall {' '.join(names)}. {body}"
    return body


def print_entry(lang, name: str, entry: MetaAbs) -> str:
    """One solved metavariable, ``?m[x1, ..., xn] := body``."""
    params = tuple(f"x{i + 1}" for i in range(entry.arity))
    body = print_term(lang, entry.body, hole_names=params)
    return f"?{name}[{', '.join(params)}] := {body}"
