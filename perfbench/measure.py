"""Arithmetic the benchmark applies to training traces and recorded spans.

Pure Python on purpose: the tests in ``perfbench/tests`` exercise it on
hand-made spans and traces without numpy or the program under test.

A span is a mapping with ``name``, ``start``, ``end`` (seconds on one
monotonic clock) and ``parent`` (index of the enclosing span in the same
list, or ``None`` for a top-level span).
"""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail_percentile(samples):
    """Highest listed percentile with at least ``MIN_BEYOND`` samples above it.

    Uses the nearest-rank definition: the p-th percentile of n sorted samples
    is the one at rank ceil(p/100 * n), and the samples beyond it are the
    n - rank that follow. Returns ``(percentile, value, n)``, or ``None``
    when even the lowest listed percentile has too few samples beyond it
    (fewer than 40 samples).
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return pct, ordered[rank - 1], n
    return None


def iteration_times(walls):
    """Per-iteration durations from cumulative wall-clock readings.

    ``walls[i]`` is the time from the start of the fit loop to the end of
    iteration i, as ``trace.csv`` records it with ``log_every = 1``.
    """
    out = []
    prev = 0.0
    for w in walls:
        out.append(w - prev)
        prev = w
    return out


def time_to_target(elbos, walls, target, window):
    """First point where the trailing mean of ``window`` ELBOs reaches ``target``.

    Returns ``(iterations, seconds)``: how many iterations had run and the
    fit-loop wall-clock at that point, or ``None`` if the target is never
    reached. The first ``window - 1`` iterations have no full window and
    cannot qualify.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    total = 0.0
    for i, value in enumerate(elbos):
        total += value
        if i >= window:
            total -= elbos[i - window]
        if i >= window - 1 and total / window >= target:
            return i + 1, walls[i]
    return None


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans):
    """Each span's duration minus the part of it its direct children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            parent = spans[s["parent"]]
            children[s["parent"]].append(
                (max(s["start"], parent["start"]), min(s["end"], parent["end"]))
            )
    return [
        (s["end"] - s["start"]) - _covered(children[i]) for i, s in enumerate(spans)
    ]


def has_ancestor(spans, index, names):
    """Whether any enclosing span of ``spans[index]`` is named in ``names``."""
    parent = spans[index]["parent"]
    while parent is not None:
        if spans[parent]["name"] in names:
            return True
        parent = spans[parent]["parent"]
    return False


def cli_self(command_wall, spans):
    """Command wall-clock not covered by any top-level span.

    This is what the command spends outside every traced layer: interpreter
    start, imports, argument parsing and the output writers.
    """
    return command_wall - _covered(
        [(s["start"], s["end"]) for s in spans if s["parent"] is None]
    )


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
