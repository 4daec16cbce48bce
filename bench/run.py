"""metaterm benchmark: seeded CLI workloads, end to end or traced per layer.

    python3 bench/run.py --workload {infer,unify,normalize,all} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; metaterm is imported from ``src``.
Each workload runs in a fresh worker process (``worker.py``) as a closed
loop with one client.  The program itself adds one ``deep-recursion``
thread, and the main thread blocks while it runs.

With ``--trace 0`` the run prints every end-to-end metric; ``setup_s`` is
the median of several cold starts, each a fresh interpreter that imports
metaterm and runs one command.  With ``--trace 1`` it prints the per-layer
metrics of two traced passes and the tracing overhead.  Human-readable
lines come first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``failed`` counts item runs whose exit code or output disagrees with the
reference (``fail_frac`` is failed / attempted).  ``correct`` is true when
the outputs repeated byte for byte across passes (and, traced, the call
counts too) and every hand-written reference (README examples and
hand-picked items) was met.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("infer", "unify", "normalize")

#: End-to-end metrics of an untraced run, with units.
END_TO_END = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "latency_slope": "log-log",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

COLD_STARTS = 11
WORKER_TIMEOUT_S = 150
COLD_START_TIMEOUT_S = 20


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _python(args: list[str], timeout: float) -> dict:
    """Run a worker in a fresh interpreter and read its last stdout line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": "0"},
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker {args} exceeded {timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def setup_seconds(workload: str, count: int) -> list[float]:
    return [
        _python(["--cold-start", workload], COLD_START_TIMEOUT_S)["setup_s"]
        for _ in range(count)
    ]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: str, seed: int, trace: bool, result: dict, setups: list[float]) -> None:
    mode = "traced" if trace else "untraced"
    print(f"== workload {workload}  seed {seed}  ({mode}; closed loop, 1 client)")
    comp = result["composition"]
    print(f"   corpus: {comp['items']} items")
    print(f"     by language:      {comp['by_language']}")
    print(f"     by family@size:   {comp['by_family_size']}")
    print(f"     by expected exit: {comp['by_expected_exit']}")
    m = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    if trace:
        from tracing import PER_LAYER

        for name, unit in PER_LAYER.items():
            print(f"   {name:<52} {_fmt(m[name]):>14} {unit}")
        print(f"   call counts repeat across the two traced passes: {result['counts_repeat']}")
    else:
        notes = {
            "items_per_s": f"{result['items']} items, median of {result['passes']} passes each",
            "latency_p50_ms": f"{result['items']} items x {result['passes']} passes",
            "latency_p90_ms": f"{result['above_p90']} items above",
            "latency_slope": f"fitted to the {result['ladder']} geometric means below",
            "setup_s": f"median of {len(setups)} cold starts",
            "peak_rss_mb": "ru_maxrss of the worker process",
        }
        for name, unit in END_TO_END.items():
            print(f"   {name:<16} {_fmt(m[name]):>12} {unit:<8} ({notes[name]})")
        print(f"   {'fail_frac':<16} {_fmt(m['fail_frac']):>12} {'ratio':<8} ({failed} of {attempted})")
        print("   scaling curves, median | geometric mean item latency in ms by size:")
        for family, points in result["curves"].items():
            means = result["curves_geomean"][family]
            shown = "  ".join(f"{size}: {_fmt(ms)} | {_fmt(means[size])}" for size, ms in points.items())
            print(f"     {family:<20} {shown}")
    print(f"   outputs repeat across passes: {result['deterministic']}")
    print(f"   hand-written references met: {result['handwritten_ok']}")
    for reason in result["failures"]:
        print(f"   FAIL {reason}")


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    # Cold starts before and after the timed run, so that their median
    # spans the run rather than one moment of the machine's load.
    setups = [] if trace else setup_seconds(workload, COLD_STARTS // 2)
    result = _python([workload, str(seed), str(seconds), "1" if trace else "0"], WORKER_TIMEOUT_S)
    if not trace:
        setups += setup_seconds(workload, COLD_STARTS - len(setups))
        result["metrics"]["setup_s"] = statistics.median(setups)
    report(workload, seed, trace, result, setups)
    if trace:
        from tracing import PER_LAYER

        units = PER_LAYER
    else:
        units = END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    return result, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "metaterm" / "__init__.py").is_file():
        print(f"error: no metaterm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for workload in workloads:
            result, metrics = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            summary["correct"] &= result["deterministic"] and result["handwritten_ok"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            prefix = "" if len(workloads) == 1 else f"{workload}."
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
