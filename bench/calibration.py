"""A fixed unit of interpreter work that gauges the machine's current speed.

On a shared machine the CPU time of identical work drifts by up to a half
over tens of seconds, as other tenants load the same core.  The benchmark
times each command right after one calibration unit and reports
``command time / unit time * REFERENCE_S``: milliseconds at the speed the
reference machine had when the unit took ``REFERENCE_S``.  The unit does
what metaterm's term walkers do (frozen dataclasses, ``match``, tuple
rebuilding, recursion), so a busy neighbour slows both alike, and it
imports nothing from metaterm, so no change to the program moves it.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from time import process_time

#: CPU seconds of one unit on the reference machine (Intel Xeon, 2 vCPU
#: x86-64 VM, CPython 3.11.7), taken at its quieter times.
REFERENCE_S = 0.0016


@dataclass(frozen=True)
class _Leaf:
    index: int


@dataclass(frozen=True)
class _Node:
    tag: str
    children: tuple


def _build(depth: int):
    if depth == 0:
        return _Leaf(0)
    return _Node("n", (_build(depth - 1), _build(depth - 1)))


def _shift(tree, by: int):
    match tree:
        case _Leaf(index):
            return _Leaf(index + by)
        case _Node(tag, children):
            return _Node(tag, tuple(_shift(c, by) for c in children))
    raise TypeError(tree)


def unit_seconds() -> float:
    """CPU seconds of one calibration unit, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = process_time()
        _shift(_shift(_build(8), 1), 1)
        return process_time() - start
    finally:
        if enabled:
            gc.enable()
