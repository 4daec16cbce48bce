"""Surface syntax, read off each language's signature.

An operator is written ``Tag(c1, …, cn)``: a scope child as ``x. body``,
an absent optional child as ``_``, a nullary operator as its bare tag.
The bundled constructs keep the notations of one table (``_NOTATIONS``),
whose tags stay ordinary names; a language's other tags are reserved
words.  A construct the language lacks is an "unknown construct" error.
Binders are resolved to de Bruijn indices during parsing; the printer
invents fresh, non-shadowing names.

Grammar sketch (precedence from loose to tight):

    term     ::= '\\' binder '.' term
               | '(' name ':' term ')' ('->' | '*') term      (Pi / Sigma)
               | arrow
    arrow    ::= star ('->' term)?                            (right assoc)
    star     ::= eq ('*' star)?                               (right assoc)
    eq       ::= app ('=' app)?
    app      ::= prefix (prefix | '\\' binder '.' term)*      (left assoc)
    prefix   ::= ('first' | 'second' | 'refl') prefix | atom
    atom     ::= name | 'U' | '(' term ')' | '<' term ',' term '>'
               | Tag | Tag '(' child (',' child)* ')'
               | '?'name ('[' term,* ']')?
    child    ::= term | name '.' term | '_'
    binder   ::= name | '(' name ':' term ')'

Constraints:   ('forall' name+ '.')* term '=?=' term
"""

from __future__ import annotations

import re
from itertools import count
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


# Print levels, from loose to tight; a term below its context's level is
# parenthesised.
_LAM, _ARROW, _STAR, _EQ, _APP, _PREFIX, _ATOM = range(7)


class _Notation(NamedTuple):
    """``opener``, the children (at print levels ``levels``) joined by
    ``separator``, ``closer``; at level ``_LAM``, ``opener``, the binder,
    ``separator``, the scope.  ``opener`` None: the generic form."""

    name: str  # in "… is not part of language" errors
    opener: str | None = None
    separator: str = ""
    closer: str = ""
    level: int = _ATOM
    levels: tuple[int, ...] = ()


# The one place that knows the bundled constructs.
_NOTATIONS = {
    "Lam": _Notation("lambda", "\\", ". ", "", _LAM),
    "Fun": _Notation("function type", "", " -> ", "", _ARROW, (_STAR, _ARROW)),
    "Pi": _Notation("dependent function type", "", " -> ", "", _ARROW, (_STAR, _ARROW)),
    "PairTy": _Notation("pair type", "", " * ", "", _STAR, (_EQ, _STAR)),
    "Sigma": _Notation("dependent pair type", "", " * ", "", _STAR, (_EQ, _STAR)),
    "IdType": _Notation("identity type", "", " = ", "", _EQ, (_APP, _APP)),
    "App": _Notation("application", "", " ", "", _APP, (_APP, _ATOM)),
    "First": _Notation("first", "first ", "", "", _PREFIX, (_PREFIX,)),
    "Second": _Notation("second", "second ", "", "", _PREFIX, (_PREFIX,)),
    "Refl": _Notation("refl", "refl ", "", "", _PREFIX, (_PREFIX,)),
    "Pair": _Notation("pair", "<", ", ", ">", _ATOM, (_LAM, _LAM)),
    "Universe": _Notation("universe", "U"),
    INF_UNIVERSE_TAG: _Notation("universe", "U"),
    "J": _Notation("identity eliminator"),
}

# A simple type former and its binding twin, written with the same token.
_DEPENDENT = {"Fun": "Pi", "PairTy": "Sigma"}
_BINDING = frozenset(_DEPENDENT.values())
_SCOPE = SlotKind.SCOPE  # read once per printed child: a global, not an enum lookup

# Each token's construct: the first in the table written with it.
_TOKENS = {(tag if n.opener is None else (n.opener or n.separator).strip()): tag
           for tag, n in reversed(_NOTATIONS.items())}
# The constructs a token opens at the prefix level, by the token's text.
_OPENERS = {token: tag for token, tag in _TOKENS.items() if _NOTATIONS[tag].level >= _PREFIX}
_LAMBDA = next(token for token, tag in _TOKENS.items() if _NOTATIONS[tag].level == _LAM)
# The token kinds that can start an application's argument (keywords are NAMEs).
_STARTERS = frozenset({"NAME", "META", "(", _LAMBDA, *_OPENERS})

_TOKEN_RE = re.compile(
    r"""
      (?P<WS>\s+)
    | (?P<UNIFY>=\?=)
    | (?P<META>\?[A-Za-z_][A-Za-z0-9_']*)
    | (?P<NAME>[A-Za-z_][A-Za-z0-9_']*)
    | (?P<PUNCT>->|[\\.()\[\]<>,:*=])
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # UNIFY, META, NAME, the punctuation itself, or EOF
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
        # reserved: the table's openers, the language's other tags, 'forall'
        generic = {tag: tag for tag in self.ops if tag not in _NOTATIONS}
        self.openers: dict[str, str | None] = {**_OPENERS, **generic, "forall": None}
        self.env: list[str] = []  # innermost binder last
        self.positions: dict[str, list[int]] = {}  # per name, its binders' places in env

    def bind(self, name: str) -> None:
        self.positions.setdefault(name, []).append(len(self.env))
        self.env.append(name)

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

    # -- construction (language-filtered) ----------------------------------

    def fail(self, tag: str, tok: _Token, qualifier: str = ""):
        construct = f"{qualifier}{_NOTATIONS[tag].name}"
        message = f"{construct} is not part of language {self.lang.name!r}"
        raise UnknownConstruct(message, tok.line, tok.column)

    def make(self, tag: str, children: tuple, tok: _Token, *, scoped: bool = False) -> Term:
        """``Op(tag, children)``.  A simple type former the language has only
        as its binding twin becomes the twin; ``scoped`` means the second
        child already lives under the binder."""
        if tag in self.ops:
            if scoped:
                self.fail(_DEPENDENT[tag], tok)
            return Op(tag, children)
        twin = _DEPENDENT.get(tag)
        if twin not in self.ops:
            self.fail(tag, tok)
        left, right = children
        return Op(twin, (left, right if scoped else weaken(self.lang.signature, right, 1)))

    # -- grammar -----------------------------------------------------------
    #
    # Each rule is a generator run by :func:`run`: ``(yield self.rule())``
    # parses a sub-rule and evaluates to its result, so nesting depth in the
    # input never nests Python calls; ``yield from`` only descends the fixed level chain.

    def at(self, level: int):
        """The rule for a term printed at ``level`` or tighter."""
        if level <= _ARROW:
            return self.term()
        if level < _APP:
            return self.infix(level)
        return self.app() if level == _APP else self.prefix()

    def term(self):
        if self.peek().kind == _LAMBDA:
            return (yield self.lam())
        if self.at_dependent_binder():
            return (yield self.quantifier())
        return (yield from self.infix(_ARROW))

    def under(self, name: str):
        """A term with ``name`` bound."""
        self.bind(name)
        body = yield self.term()
        self.positions[self.env.pop()].pop()
        return body

    def annotated(self):
        """``(x : A)``: the name and the parsed ``A``."""
        self.expect("(")
        name = self.expect("NAME").text
        self.expect(":")
        annotation = yield self.term()
        self.expect(")")
        return name, annotation

    def lam(self):
        tok = self.next()
        tag = _TOKENS[_LAMBDA]
        annotation: Term | None = None
        if self.peek().kind == "(":
            name, annotation = yield self.annotated()
        else:
            name = self.expect("NAME").text
        self.expect(_NOTATIONS[tag].separator.strip())
        body = yield self.under(name)
        lam = self.ops.get(tag)
        if lam is None or lam.slots[0] is SlotKind.OPT_TERM:
            return self.make(tag, (annotation, body), tok)
        if annotation is not None:
            self.fail(tag, tok, "annotated ")
        return Op(tag, (body,))

    def at_dependent_binder(self) -> bool:
        return (
            self.peek().kind == "("
            and self.peek(1).kind == "NAME"
            and self.peek(1).text not in self.openers
            and self.peek(2).kind == ":"
        )

    def quantifier(self):
        tok = self.peek()
        name, domain = yield self.annotated()
        arrow = self.next()
        tag = _TOKENS.get(arrow.kind)
        if tag not in _DEPENDENT:
            tokens = " or ".join(repr(_NOTATIONS[t].separator.strip()) for t in _DEPENDENT)
            message = f"expected {tokens} after binder, found {arrow.text or 'end of input'!r}"
            raise ParseError(message, arrow.line, arrow.column)
        body = yield self.under(name)
        return self.make(tag, (domain, body), tok, scoped=True)

    def infix(self, level: int):
        """``left (token right)?`` for the infix construct at ``level``."""
        left = yield from self.at(level + 1)
        tag = _TOKENS.get(self.peek().kind)
        if tag is None or _NOTATIONS[tag].level != level:
            return left
        tok = self.next()
        right = yield self.at(_NOTATIONS[tag].levels[1])
        return self.make(tag, (left, right), tok)

    def app(self):
        result = yield from self.prefix()
        while self.peek().kind in _STARTERS and not self.at_dependent_binder():
            arg_tok = self.peek()
            arg = yield from (self.lam() if arg_tok.kind == _LAMBDA else self.prefix())
            result = self.make(_TOKENS[""], (result, arg), arg_tok)  # juxtaposition
        return result

    def prefix(self):
        tok = self.next()
        tag = self.openers.get(tok.text)
        if tag is not None:
            notation = _NOTATIONS.get(tag)
            if notation is None or notation.opener is None:
                return (yield self.generic(tag, tok))
            children = []
            for i, level in enumerate(notation.levels):
                if i:
                    self.expect(notation.separator.strip())
                children.append((yield self.at(level)))
            if notation.closer:
                self.expect(notation.closer)
            return self.make(tag, tuple(children), tok)
        match tok.kind:
            case "NAME" if tok.text == "forall":
                raise ParseError("'forall' is only allowed in constraints", tok.line, tok.column)
            case "NAME":
                places = self.positions.get(tok.text)
                return Bound(len(self.env) - 1 - places[-1]) if places else Free(tok.text)
            case "META":
                args: list[Term | None] = []
                if self.peek().kind == "[":
                    self.next()
                    if self.peek().kind != "]":
                        args = yield self.children()
                    self.expect("]")
                return MetaApp(tok.text[1:], tuple(args))
            case "(":
                inner = yield self.term()
                self.expect(")")
                return inner
        raise ParseError(
            f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column
        )

    def generic(self, tag: str, tok: _Token):
        """``Tag(c1, …, cn)``; a nullary tag is bare."""
        op = self.ops.get(tag)
        slots = () if op is None else op.slots
        if op is not None and not slots:
            return Op(tag)
        self.expect("(")
        children = yield self.children(slots)
        self.expect(")")
        if op is None:
            self.fail(tag, tok)
        if len(children) != len(slots):
            message = f"{tag} takes {len(slots)} argument{'s' * (len(slots) != 1)}"
            raise ParseError(f"{message}, got {len(children)}", tok.line, tok.column)
        return Op(tag, tuple(children))

    def children(self, slots=()):
        """``child (',' child)*``, each read as its slot says: a scope as
        ``x. body``, an absent optional child as ``_``; past ``slots``, terms."""
        children: list[Term | None] = []
        while True:
            kind = slots[len(children)] if len(children) < len(slots) else SlotKind.TERM
            if kind is SlotKind.SCOPE:
                name = self.expect("NAME").text
                self.expect(".")
                children.append((yield self.under(name)))
            elif kind is SlotKind.OPT_TERM and self.peek().text == "_":
                self.next()
                children.append(None)
            else:
                children.append((yield self.term()))
            if self.peek().kind != ",":
                return children
            self.next()

    def constraint(self):
        while self.peek().kind == "NAME" and self.peek().text == "forall":
            self.next()
            names = []
            while self.peek().kind == "NAME" and self.peek().text not in self.openers:
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
    ``ValueError("cannot print …")``: a hole without a name, a tag outside
    the language, or children that do not fit the tag's slots.
    """
    sig = lang.typed_signature
    env = list(binder_names)  # names of the binders in scope, innermost last
    taken = free_names(term) | set(hole_names) | set(binder_names)
    hints = [1]  # per named binder: every ``x<i>`` with i < hints[-1] is taken

    def scope(t: Term):
        """A new innermost binder's name, distinct from all in scope, and ``t`` under it."""
        name, hint = _fresh_name(taken, hints[-1])
        env.append(name)
        taken.add(name)
        hints.append(hint)
        body = yield show(t, _LAM)
        taken.discard(env.pop())
        hints.pop()
        return name, body

    def show(t: Term, level: int):
        """Text of ``t`` under the binder names ``env``, parenthesised when
        its own level binds looser than ``level``; a step of :func:`run`."""
        match t:
            case Bound(k):
                # ``#k``: not closed under the given names
                text, own = (env[len(env) - 1 - k] if k < len(env) else f"#{k}"), _ATOM
            case Free(name):
                text, own = name, _ATOM
            case Hole(i) if i < len(hole_names):
                text, own = hole_names[i], _ATOM
            case MetaApp(meta, args):
                shown = []
                for arg in args:
                    shown.append((yield show(arg, _LAM)))
                text, own = f"?{meta}[{', '.join(shown)}]", _ATOM
            case Op(tag, children, _) if (
                (op := sig.operators.get(tag)) and len(children) == len(op.slots)
            ):
                notation = _NOTATIONS.get(tag)
                if notation is None or notation.opener is None:  # Tag(c1, …, cn), or Tag
                    opener, closer = (f"{tag}(", ")") if children else (tag, "")
                    notation = _Notation(tag, opener, ", ", closer, _ATOM, (_LAM,) * len(children))
                own, slots = notation.level, op.slots
                if tag in _BINDING:
                    try:
                        children = (children[0], strengthen(sig, children[1]))
                        slots = (SlotKind.TERM, SlotKind.TERM)
                    except ValueError:  # the codomain mentions its binder
                        own = _LAM
                if own == _LAM:  # \x. b, \(x : A). b or (x : A) -> B
                    binder, body = yield scope(children[-1])
                    if len(children) == 2 and children[0] is not None:
                        domain = yield show(children[0], _LAM)
                        binder = f"({binder} : {domain})"
                    text = f"{notation.opener}{binder}{notation.separator}{body}"
                else:
                    shown = []
                    for kind, child, child_level in zip(slots, children, notation.levels):
                        if kind is _SCOPE:
                            x, body = yield scope(child)
                            shown.append(f"{x}. {body}")
                        elif child is None and kind is SlotKind.OPT_TERM:
                            shown.append("_")
                        else:
                            shown.append((yield show(child, child_level)))
                    text = f"{notation.opener}{notation.separator.join(shown)}{notation.closer}"
            case _:
                raise ValueError(f"cannot print {t!r}")
        return f"({text})" if own < level else text

    return run(show(term, _LAM))


def print_constraint(lang, c: Constraint) -> str:
    names = [*c.binder_names[: c.binders], *("",) * (c.binders - len(c.binder_names))]
    if "" in names:  # binder i without a name: the first x<k>, k > i, no other name
        taken = {*names, *free_names(c.lhs), *free_names(c.rhs)}
        for i, name in enumerate(names):
            if not name:
                names[i] = next(f"x{k}" for k in count(i + 1) if f"x{k}" not in taken)
                taken.add(names[i])
    body = (
        f"{print_term(lang, c.lhs, binder_names=names)}"
        f" =?= {print_term(lang, c.rhs, binder_names=names)}"
    )
    if names:
        return f"forall {' '.join(names)}. {body}"
    return body


def print_entry(lang, name: str, entry: MetaAbs) -> str:
    """One solved metavariable, ``?m[x1, ..., xn] := body``."""
    params = tuple(f"x{i + 1}" for i in range(entry.arity))
    body = print_term(lang, entry.body, hole_names=params)
    return f"?{name}[{', '.join(params)}] := {body}"
