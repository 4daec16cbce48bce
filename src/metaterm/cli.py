"""Command-line front end: reduce / unify / infer / check.

Each command parses its input, computes, and prints the answer; only
:func:`main` turns an outcome into an exit code and a diagnostic on
stderr.  Exit codes: 0 success, 1 definite failure (clash or type error),
2 undetermined (:class:`~metaterm.reduction.Undetermined`: a budget ran
out before an answer, in any layer), 64 usage or syntax errors.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

from .languages import LANGUAGES, get_language
from .metavar import MetaSubstitution
from .reduction import Undetermined, normal_form, reduce
from .syntax import (
    ParseError,
    parse_constraint,
    parse_term,
    print_constraint,
    print_entry,
    print_term,
)
from .terms import MetaApp, Term, subterms
from .typecheck import (
    DependencyEscape,
    TypeChecker,
    TypeCheckError,
    UnificationFailure,
    erase,
)
from .unification import Clash, Constraint, SearchConfig, UnificationFailed, unify

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_UNDETERMINED = 2
EXIT_USAGE = 64


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metaterm",
        description="Reduce, unify, and type-check terms of the bundled languages.",
    )
    parser.add_argument(
        "--lang",
        choices=sorted(LANGUAGES),
        default="ulc",
        help="object language (default: ulc)",
    )
    budget = SearchConfig()
    parser.add_argument(
        "--fuel", type=int, default=budget.fuel, help="candidate attempts and pattern inversions"
    )
    parser.add_argument(
        "--guess-fuel", type=int, default=budget.guess_fuel, help="guess expansions"
    )
    parser.add_argument("--reduce-fuel", type=int, default=budget.reduce_fuel, help="head steps")
    parser.add_argument(
        "--output", choices=("pretty", "ast"), default="pretty", help="output format"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    cmd_reduce = commands.add_parser("reduce", help="weak-head normalize an expression")
    cmd_reduce.add_argument("expr")

    cmd_unify = commands.add_parser("unify", help="solve constraints from a file or stdin")
    cmd_unify.add_argument("file", nargs="?", default="-", help="constraints, one per line")

    cmd_infer = commands.add_parser("infer", help="infer the type of an expression")
    cmd_infer.add_argument("expr")

    cmd_check = commands.add_parser("check", help="check an expression against a type")
    cmd_check.add_argument("expr")
    cmd_check.add_argument("colon", metavar=":", help="literal ':'")
    cmd_check.add_argument("type")

    return parser


def _config(args: argparse.Namespace) -> SearchConfig:
    return SearchConfig(
        fuel=args.fuel,
        guess_fuel=args.guess_fuel,
        reduce_fuel=args.reduce_fuel,
    )


def _show(lang, term: Term, args: argparse.Namespace) -> str:
    if args.output == "ast":
        return repr(term)
    return print_term(lang, term)


def _show_constraint(lang, c: Constraint, args: argparse.Namespace) -> str:
    return repr(c) if args.output == "ast" else print_constraint(lang, c)


def _show_type(lang, ty: Term, args: argparse.Namespace) -> str:
    """Types are displayed fully normalized (they may compute) and with
    annotations suppressed."""
    plain = erase(normal_form(lang.typed_signature, ty, lang.reducer, args.reduce_fuel))
    return _show(lang, plain, args)


def _meta_arities(terms: Iterable[Term]) -> dict[str, int]:
    """Every metavariable with its arity, in order of first occurrence;
    a metavariable applied to two different numbers of arguments is a
    usage error."""
    arities: dict[str, int] = {}
    for term in terms:
        for t, _, _, _ in subterms(term):
            if type(t) is MetaApp and arities.setdefault(t.meta, len(t.args)) != len(t.args):
                raise ValueError(
                    f"metavariable ?{t.meta} is applied to {arities[t.meta]}"
                    f" and to {len(t.args)} arguments"
                )
    return arities


def _run_reduce(lang, args: argparse.Namespace) -> int:
    term = parse_term(args.expr, lang)
    print(_show(lang, reduce(lang.signature, term, lang.reducer, _config(args).reduce_fuel), args))
    return EXIT_OK


def _run_unify(lang, args: argparse.Namespace) -> int:
    if args.file == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.file, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    constraints = [
        parse_constraint(line, lang)
        for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    ]
    asked = _meta_arities(t for c in constraints for t in (c.lhs, c.rhs))
    solution = unify(lang, MetaSubstitution(), constraints, _config(args))
    ast = args.output == "ast"
    for name in asked:
        entry = solution.substs.get(name)
        if entry is not None:
            print(f"?{name} := {entry!r}" if ast else print_entry(lang, name, entry))
    for residual in solution.residual:
        print(_show_constraint(lang, residual, args))
    return EXIT_OK


def _run_typed(lang, args: argparse.Namespace) -> int:
    if not lang.infer_rules:
        print(f"language {lang.name!r} has no type system", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "check" and args.colon != ":":
        print("usage: check EXPR : TYPE", file=sys.stderr)
        return EXIT_USAGE
    term = parse_term(args.expr, lang)
    expected = parse_term(args.type, lang) if args.command == "check" else None
    _meta_arities((term,) if expected is None else (term, expected))
    checker = TypeChecker(lang, _config(args))
    typed = checker.infer(term) if expected is None else checker.check(term, expected)
    print(_show_type(lang, checker.clarify_term(checker.type_of(typed)), args))
    for residual in checker.ctx.constraints:
        print(_show_constraint(lang, residual, args))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    lang = get_language(args.lang)
    run = {"reduce": _run_reduce, "unify": _run_unify}.get(args.command, _run_typed)
    try:
        return run(lang, args)
    except Clash as exc:
        shown = print_constraint(lang, exc.constraint)
        code, message = EXIT_FAILURE, f"no solution: rigid heads clash in {shown}"
    except UnificationFailed as exc:
        code, message = EXIT_FAILURE, f"no solution: {exc}"
    except UnificationFailure as exc:
        shown = print_constraint(lang, exc.constraint)
        code, message = EXIT_FAILURE, f"type error: cannot unify types in {shown}"
    except DependencyEscape as exc:
        shown = print_term(lang, erase(exc.offending), binder_names=("x0",))
        code = EXIT_FAILURE
        message = f"type error: inferred type {shown!r} depends on its bound variable x0"
    except Undetermined as exc:
        code, message = EXIT_UNDETERMINED, f"undetermined: {exc}"
    except ParseError as exc:
        code, message = EXIT_USAGE, f"syntax error: {exc}"
    except (ValueError, OSError, TypeCheckError) as exc:
        code, message = EXIT_USAGE, f"error: {exc}"
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
