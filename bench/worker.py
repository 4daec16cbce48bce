"""Runs one workload in a fresh interpreter and prints its figures as one
JSON line.  Started by ``run.py``; not meant to be run by hand.

    worker.py WORKLOAD SEED SECONDS TRACE   timed (TRACE=0) or traced (1) run
    worker.py --cold-start WORKLOAD         import metaterm, run one command

Each item is one CLI command run in this process through
``metaterm.cli.main(argv)`` with standard input, output and error captured.
The load is a closed loop with a single client: the next item starts when
the previous one returns.

Times are process CPU time (all threads), scaled by a calibration unit run
just before each command (see ``calibration.py``).  The workload does no
I/O and only one of its two threads runs at a time, so CPU time is the
latency an otherwise idle machine shows; wall time on a shared machine also
counts the spells when the process is not scheduled at all.
"""

from __future__ import annotations

import gc
import io
import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter, process_time

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
from calibration import REFERENCE_S, unit_seconds  # noqa: E402
from reference import Outcome  # noqa: E402

#: Fewest timed passes in a run; an item's latency is its median over them.
MIN_PASSES = 5


def run_item(cli, item: corpus.Item) -> tuple[Outcome, float]:
    """One command; an exception escaping ``main`` counts as a failure."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(item.stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = process_time()
            try:
                code = cli.main(list(item.argv))
            except Exception:  # a traceback is a defect of the program
                code = -1
                traceback.print_exc()
            elapsed = process_time() - start
    finally:
        sys.stdin = saved
    return Outcome(code, out.getvalue(), err.getvalue()), elapsed


def run_pass(cli, items, after_item=None, calibrated=False) -> tuple[list[Outcome], list[float], float]:
    """One pass over ``items``: outcomes, per-item times and the pass's CPU
    time.  ``calibrated`` times are in reference seconds: each command is
    scaled by the mean of the calibration units run just before and just
    after it, and the pass time excludes the units."""
    gc.collect()
    outcomes, times, total = [], [], 0.0
    unit = unit_seconds() if calibrated else REFERENCE_S
    for item in items:
        outcome, elapsed = run_item(cli, item)
        after = unit_seconds() if calibrated else REFERENCE_S
        outcomes.append(outcome)
        times.append(elapsed / ((unit + after) / 2) * REFERENCE_S)
        total += elapsed
        unit = after
        if after_item is not None:
            after_item()
    return outcomes, times, total


def slope(points: dict[int, float]) -> float:
    """Least-squares slope of log(latency) against log(size)."""
    xs = [math.log(n) for n in points]
    ys = [math.log(v) for v in points.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def curves(items, latencies: list[float], stat=statistics.median) -> dict[str, dict[int, float]]:
    """``stat`` of the item latencies in ms at each size of each sized family."""
    by_family: dict[str, dict[int, list[float]]] = {}
    for item, t in zip(items, latencies):
        if item.size is not None:
            by_family.setdefault(item.family, {}).setdefault(item.size, []).append(t)
    return {
        family: {size: stat(ts) * 1e3 for size, ts in sorted(sizes.items())}
        for family, sizes in sorted(by_family.items())
    }


def verdicts(items, reference_pass, passes) -> tuple[list[str | None], bool]:
    """Check the first pass against the references; later passes must
    repeat it byte for byte.  Returns one reason (or None) per item and
    whether every pass repeated the first."""
    reasons = [item.expect.check(got) for item, got in zip(items, reference_pass)]
    repeated = all(p == reference_pass for p in passes)
    return reasons, repeated


def timed_run(workload: str, seed: int, seconds: float) -> dict:
    """Timed passes over the corpus for ``seconds`` of wall time.

    An item's latency is the median of its calibrated repeats (the outputs
    and the work repeat exactly).  The quantiles, the scaling curves and
    ``items_per_s`` (items per second of one pass at those latencies) are
    taken over items.
    """
    from metaterm import cli

    items = corpus.build(workload, seed)
    first, _, _ = run_pass(cli, items)  # starts the deep-recursion thread; untimed
    passes, samples = [], [[] for _ in items]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(passes) < MIN_PASSES:
        outcomes, times, _ = run_pass(cli, items, calibrated=True)
        passes.append(outcomes)
        for bucket, t in zip(samples, times):
            bucket.append(t)
    reasons, repeated = verdicts(items, first, passes)
    latency = [statistics.median(ts) for ts in samples]
    p90 = statistics.quantiles(latency, n=10)[8]
    # The slope is fitted to geometric means: a size's median can sit between
    # two families' clusters and jump with the seed (unify: 8% spread between
    # seeds against 1% for the geometric mean).
    ladder = curves(items, latency, statistics.geometric_mean)
    return {
        **_checked(items, reasons, repeated, len(passes)),
        "passes": len(passes),
        "items": len(items),
        "above_p90": sum(t > p90 for t in latency),
        "ladder": corpus.LADDER[workload],
        "curves": curves(items, latency),
        "curves_geomean": ladder,
        "metrics": {
            "items_per_s": len(items) / sum(latency),
            "latency_p50_ms": statistics.median(latency) * 1e3,
            "latency_p90_ms": p90 * 1e3,
            "latency_slope": slope(ladder[corpus.LADDER[workload]]),
            "fail_frac": sum(r is not None for r in reasons) / len(items) if repeated else 1.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }


def _checked(items, reasons, repeated: bool, passes: int) -> dict:
    """Verdicts of ``passes`` passes: an item run fails when its reference
    rejects it, and every run fails when the passes did not repeat."""
    attempted = len(items) * passes
    kinds: dict[str, list[str]] = {}
    for item, reason in zip(items, reasons):
        if reason:
            kind = f"{item.family}@{item.size} {item.variant or item.lang}"
            kinds.setdefault(kind, []).append(reason)
    return {
        "attempted": attempted,
        "failed": passes * sum(len(rs) for rs in kinds.values()) if repeated else attempted,
        "deterministic": repeated,
        "handwritten_ok": all(r is None for i, r in zip(items, reasons) if i.handwritten),
        "failures": [f"{kind} x{len(rs)}, e.g. {rs[0]}" for kind, rs in sorted(kinds.items())],
        "composition": corpus.composition(items),
    }


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    """Untraced passes for a third of the budget, then two traced passes.

    Both traced passes must print the same outputs and count the same
    calls; the per-layer figures are their mean.
    """
    from metaterm import cli
    from tracing import DETERMINISTIC, PER_LAYER, Tracer, patched

    items = corpus.build(workload, seed)
    first, _, _ = run_pass(cli, items)
    done, busy = 0, 0.0
    while busy < seconds / 3 or done == 0:
        _, _, elapsed = run_pass(cli, items)
        done += len(items)
        busy += elapsed
    untraced_rate = done / busy

    tracers, passes, traced_busy = [], [], 0.0
    for _ in range(2):
        tracer = Tracer()
        with patched(tracer):
            outcomes, _, elapsed = run_pass(cli, items, after_item=tracer.fold)
        tracers.append(tracer)
        passes.append(outcomes)
        traced_busy += elapsed
    reasons, repeated = verdicts(items, first, passes)
    figures = [t.metrics() for t in tracers]
    counts_repeat = all(figures[0][k] == figures[1][k] for k in DETERMINISTIC)
    metrics = {k: statistics.fmean(f[k] for f in figures) for k in figures[0]}
    metrics["tracing.items_per_s_ratio"] = (2 * len(items) / traced_busy) / untraced_rate
    assert set(metrics) == set(PER_LAYER)
    result = _checked(items, reasons, repeated and counts_repeat, len(passes))
    return {**result, "counts_repeat": counts_repeat, "metrics": metrics}


def cold_start(workload: str) -> float:
    """Reference seconds to import metaterm and run the workload's first
    command in this fresh interpreter (which starts the deep-recursion
    thread), scaled by calibration units run first."""
    argv, stdin = corpus.FIRST_COMMAND[workload]
    unit_seconds()  # the first unit also pays for warming its own code
    unit = statistics.median(unit_seconds() for _ in range(5))
    start = process_time()
    from metaterm import cli

    sys.stdin = io.StringIO(stdin or "")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    elapsed = process_time() - start
    if code != 0:
        raise SystemExit(f"cold-start command exited {code}")
    return elapsed / unit * REFERENCE_S


def main(argv: list[str]) -> int:
    if argv[0] == "--cold-start":
        print(json.dumps({"setup_s": cold_start(argv[1])}))
        return 0
    workload, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    result = (traced_run if trace else timed_run)(workload, seed, seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
