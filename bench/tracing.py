"""Per-layer tracing from outside the program.

:func:`patched` wraps metaterm's public functions for the duration of a
``with`` block.  A wrapped function is replaced in every metaterm module
that holds it by name (``unification.apply_substs`` and
``typecheck.apply_substs`` are the same function imported twice), and every
replaced name is restored on exit.  Names that a later version of the
program no longer has are skipped, so their counters read 0.

Each call records a span (name, start, end, parent) in memory; self time is
a span's duration minus the time its child spans cover.  Spans are kept per
thread.  ``run_deep`` hands work to metaterm's ``deep-recursion`` thread
while the calling thread blocks: the work on that thread becomes a child of
the ``run_deep`` span and is named after the span that called ``run_deep``,
so a layer's self time includes the part it ran on the other thread and
the ``run_deep`` span keeps only the hand-off wait.  Span times are process
CPU time, like the end-to-end figures; since one thread runs at a time, the
process clock is consistent across the two threads.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import threading
from collections import Counter
from time import process_time

#: Per-layer metrics reported by a traced run, with their units.
PER_LAYER = {
    "metavar.apply_substs.calls": "count",
    "metavar.apply_substs.self_s": "s",
    "metavar.apply_substs.out_nodes": "count",
    "metavar.extend_substs.calls": "count",
    "metavar.extend_substs.self_s": "s",
    "metavar.extend_substs.conflicts": "count",
    "metavar.MetaSubstitution.constructed": "count",
    "metavar.MetaSubstitution.entries_validated": "count",
    "metavar.metas_of.calls": "count",
    "metavar.metas_of.self_s": "s",
    "typecheck.infer.calls": "count",
    "typecheck.infer.self_s": "s",
    "typecheck.unify_with_expected.calls": "count",
    "typecheck.unify_with_expected.self_s": "s",
    "typecheck.unify_with_expected.carried_constraints": "count",
    "typecheck.unify_with_expected.context_entries": "count",
    "typecheck.whnf.calls": "count",
    "unification.unify.calls": "count",
    "unification.unify.self_s": "s",
    "unification.unify.outcome.solved": "count",
    "unification.unify.outcome.residual": "count",
    "unification.unify.outcome.clash": "count",
    "unification.unify.outcome.undetermined": "count",
    "unification.unify.entries_per_candidate": "ratio",
    "unification.simplify_all.calls": "count",
    "unification.simplify_all.self_s": "s",
    "unification.simplify_all.constraints_in": "count",
    "unification.candidates.tried": "count",
    "unification.candidates.projections": "count",
    "unification.candidates.self_s": "s",
    "reduction.reduce.calls": "count",
    "reduction.reduce.self_s": "s",
    "reduction.reduce.head_steps": "count",
    "reduction.normal_form.calls": "count",
    "reduction.normal_form.self_s": "s",
    "reduction.run_deep.hops": "count",
    "reduction.run_deep.wait_s": "s",
    "terms.instantiate.calls": "count",
    "terms.instantiate.self_s": "s",
    "terms.instantiate_many.calls": "count",
    "terms.instantiate_many.self_s": "s",
    "terms.weaken.calls": "count",
    "terms.weaken.self_s": "s",
    "terms.strengthen.calls": "count",
    "terms.strengthen.self_s": "s",
    "terms.mentions_bound.calls": "count",
    "syntax.parse_term.calls": "count",
    "syntax.parse_term.self_s": "s",
    "syntax.parse_constraint.calls": "count",
    "syntax.parse_constraint.self_s": "s",
    "syntax.print_term.calls": "count",
    "syntax.print_term.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "tracing.items_per_s_ratio": "ratio",
}

#: Counts that must repeat exactly between two passes over one corpus.
DETERMINISTIC = tuple(
    name for name in PER_LAYER
    if name.endswith((".calls", ".tried", ".head_steps", ".entries_validated"))
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "counted")

    def __init__(self, name: str, parent: "Span | None", counted: bool):
        self.name = name
        self.parent = parent
        self.counted = counted
        self.start = process_time()
        self.end = self.start


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, *, counted: bool = True, parent: Span | None = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(name, parent, counted)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = process_time()
        self._stack().pop()

    def fold(self) -> None:
        """Turn the recorded spans into call counts and self times, then
        drop them (called between items to bound memory)."""
        covered: dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                key = id(span.parent)
                covered[key] = covered.get(key, 0.0) + (span.end - span.start)
        for span in self.spans:
            self.self_s[span.name] += (span.end - span.start) - covered.get(id(span), 0.0)
            if span.counted:
                self.counts[f"{span.name}.calls"] += 1
        self.spans.clear()

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead ratio."""
        out: dict[str, float] = {}
        for name in PER_LAYER:
            if name.endswith(".self_s"):
                out[name] = self.self_s[name[: -len(".self_s")]]
            elif name == "reduction.run_deep.wait_s":
                out[name] = self.self_s["reduction.run_deep"]
            elif name == "unification.unify.entries_per_candidate":
                tried = self.counts["unification.candidates.tried"]
                validated = self.counts["metavar.MetaSubstitution.entries_validated"]
                out[name] = validated / tried if tried else 0.0
            elif name != "tracing.items_per_s_ratio":
                out[name] = self.counts[name]
        return out


def _count_nodes(term) -> int:
    """Nodes of a metaterm term (iterative: terms can be deep)."""
    count, todo = 0, [term]
    while todo:
        t = todo.pop()
        if t is None:
            continue
        count += 1
        children = getattr(t, "children", None)
        if children is not None:
            todo.extend(children)
            todo.append(t.ann)
        else:
            todo.extend(getattr(t, "args", ()))
    return count


def _wrap(tracer: Tracer, name: str, fn, *, before=None, after=None, error=None):
    """``fn`` inside a span; hooks see (args, kwargs) before and the result
    or exception after.  Hook work runs in its own span so it is not
    charged to the caller's self time."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tracer.close(span)
            if error is not None:
                error(exc)
            raise
        tracer.close(span)
        if after is not None:
            book = tracer.open("tracing.bookkeeping", counted=False)
            try:
                after(args, result)
            finally:
                tracer.close(book)
        return result

    return wrapper


class _Patches:
    """Replaced names and how to put each back."""

    def __init__(self):
        self.undo: list = []

    def module_function(self, qualname: str, make):
        """Replace function ``module.name`` everywhere metaterm holds it."""
        module_name, _, attr = qualname.rpartition(".")
        module = _module(module_name)
        original = getattr(module, attr, None) if module is not None else None
        if original is None:
            return
        wrapper = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("metaterm"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self.undo.append((setattr, mod, key, original))

    def class_attribute(self, qualname: str, make):
        module_name, cls_name, attr = qualname.rsplit(".", 2)
        module = _module(module_name)
        cls = getattr(module, cls_name, None) if module is not None else None
        if cls is None or attr not in vars(cls):
            return
        original = vars(cls)[attr]
        setattr(cls, attr, make(original))
        self.undo.append((setattr, cls, attr, original))

    def mapping_entries(self, mapping, make):
        for key, value in list(mapping.items()):
            mapping[key] = make(value)
            self.undo.append((dict.__setitem__, mapping, key, value))

    def restore(self):
        for setter, owner, key, value in reversed(self.undo):
            setter(owner, key, value)
        self.undo.clear()


def _module(name: str):
    try:
        return importlib.import_module(f"metaterm.{name}")
    except ImportError:
        return None


def _on_deep_thread(reduction) -> bool:
    prefix = getattr(reduction, "_DEEP_THREAD_NAME", "deep-recursion")
    return threading.current_thread().name.startswith(prefix)


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Trace metaterm's layers into ``tracer`` inside the block."""
    counts = tracer.counts
    patches = _Patches()
    # Import every traced module first: a module imported while patches are
    # in place would bind wrappers by name, and nothing would restore them.
    for name in ("metavar", "typecheck", "unification", "reduction", "terms", "syntax", "cli",
                 "languages"):
        _module(name)

    def timed(name, **hooks):
        return lambda fn: _wrap(tracer, name, fn, **hooks)

    def bump(key, by=1):
        counts[key] += by

    try:
        # metavar
        patches.module_function("metavar.apply_substs", timed(
            "metavar.apply_substs",
            after=lambda a, r: bump("metavar.apply_substs.out_nodes", _count_nodes(r)),
        ))
        patches.module_function("metavar.extend_substs", timed(
            "metavar.extend_substs",
            error=lambda e: type(e).__name__ == "ConflictingEntry"
            and bump("metavar.extend_substs.conflicts"),
        ))
        patches.module_function("metavar.metas_of", timed("metavar.metas_of"))

        def validated(post_init):
            @functools.wraps(post_init)
            def wrapper(self):
                post_init(self)
                bump("metavar.MetaSubstitution.constructed")
                bump("metavar.MetaSubstitution.entries_validated", len(self.entries))
            return wrapper

        patches.class_attribute("metavar.MetaSubstitution.__post_init__", validated)

        # typecheck
        def context(args, kwargs):
            ctx = args[0].ctx
            bump("typecheck.unify_with_expected.carried_constraints", len(ctx.constraints))
            bump(
                "typecheck.unify_with_expected.context_entries",
                len(ctx.free_var_types) + len(ctx.bound_var_types) + len(ctx.meta_var_types),
            )

        patches.class_attribute("typecheck.TypeChecker.infer", timed("typecheck.infer"))
        patches.class_attribute("typecheck.TypeChecker.unify_with_expected", timed(
            "typecheck.unify_with_expected", before=context))
        patches.class_attribute("typecheck.TypeChecker.whnf", timed("typecheck.whnf"))

        # unification
        def outcome(result):
            kind = "residual" if getattr(result, "residual", ()) else "solved"
            bump(f"unification.unify.outcome.{kind}")

        def failed(exc):
            names = {cls.__name__ for cls in type(exc).__mro__}
            if "UnificationFailed" in names:
                bump("unification.unify.outcome.clash")
            elif "Undetermined" in names:
                bump("unification.unify.outcome.undetermined")

        patches.module_function("unification.unify", timed(
            "unification.unify", after=lambda a, r: outcome(r), error=failed))

        def constraints_in(fn):
            inner = _wrap(tracer, "unification.simplify_all", fn)

            @functools.wraps(fn)
            def wrapper(lang, constraints, *rest, **kwargs):
                constraints = list(constraints)
                bump("unification.simplify_all.constraints_in", len(constraints))
                return inner(lang, constraints, *rest, **kwargs)

            return wrapper

        patches.module_function("unification.simplify_all", constraints_in)

        def candidates(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stream = fn(*args, **kwargs)
                while True:
                    span = tracer.open("unification.candidates", counted=False)
                    try:
                        cand = next(stream)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span)
                    bump("unification.candidates.tried")
                    if type(getattr(cand, "body", None)).__name__ == "Hole":
                        bump("unification.candidates.projections")
                    yield cand

            return wrapper

        patches.module_function("unification.candidates", candidates)

        # reduction
        patches.module_function("reduction.reduce", timed("reduction.reduce"))
        patches.module_function("reduction.normal_form", timed("reduction.normal_form"))
        reduction = _module("reduction")

        def hops(run_deep):
            @functools.wraps(run_deep)
            def wrapper(fn):
                if _on_deep_thread(reduction):
                    return run_deep(fn)
                bump("reduction.run_deep.hops")
                hop = tracer.open("reduction.run_deep")
                caller = hop.parent.name if hop.parent is not None else "untraced"

                def body():
                    work = tracer.open(caller, counted=False, parent=hop)
                    try:
                        return fn()
                    finally:
                        tracer.close(work)

                try:
                    return run_deep(body)
                finally:
                    tracer.close(hop)

            return wrapper

        patches.module_function("reduction.run_deep", hops)

        def head_step(rule):
            @functools.wraps(rule)
            def wrapper(node, go):
                counts["reduction.reduce.head_steps"] += 1
                return rule(node, go)

            return wrapper

        languages = _module("languages")
        for lang in getattr(languages, "LANGUAGES", {}).values():
            for table in {id(t): t for t in (lang.reducer, lang.typed_reducer)}.values():
                patches.mapping_entries(table, head_step)

        # terms
        for name in ("instantiate", "instantiate_many", "weaken", "strengthen", "mentions_bound"):
            patches.module_function(f"terms.{name}", timed(f"terms.{name}"))

        # syntax and cli
        for name in ("parse_term", "parse_constraint", "print_term"):
            patches.module_function(f"syntax.{name}", timed(f"syntax.{name}"))
        patches.module_function("cli.main", timed("cli.main"))
        yield tracer
    finally:
        patches.restore()
