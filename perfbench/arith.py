"""The benchmark's own arithmetic: percentiles, self time, due times, spread.

Pure functions with no dependency on the program under test, so the
self-tests in ``test_arith.py`` pin them down in isolation.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: Span layers that are not the program's work: the live event loop blocked
#: in its selector, and the tracer's own bookkeeping.
IDLE = "idle"
TRACER = "tracer"
EXCLUDED = (IDLE, TRACER)


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100] (inclusive method)."""
    if not values:
        raise ValueError("percentile of an empty population")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * (p / 100.0)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie beyond the p-th percentile."""
    return int(count * (100.0 - p) / 100.0 + 1e-9)


def supported(count: int, p: float) -> bool:
    """True when a population of ``count`` supports reporting the p-th
    percentile: at least :data:`MIN_BEYOND` samples beyond it."""
    return samples_beyond(count, p) >= MIN_BEYOND


def checked_percentile(values: Sequence[float], p: float, what: str) -> float:
    """The p-th percentile, refusing one the sample cannot support."""
    if not supported(len(values), p):
        raise ValueError(
            f"{what}: p{p:g} needs {MIN_BEYOND} samples beyond it; "
            f"{len(values)} samples give {samples_beyond(len(values), p)}"
        )
    return percentile(values, p)


def self_times(spans: Sequence[tuple[str, float, float, int]]) -> dict[str, float]:
    """Self time per span name: each span's duration minus its children's.

    ``spans`` holds ``(name, start, end, parent)`` tuples, ``parent`` being
    the index of the enclosing span or -1 for a root.  Children of one span
    never overlap (the code is single-threaded and spans nest), so the
    part of the interval they cover is the sum of their durations.
    """
    child_total = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_total[parent] += end - start
    totals: dict[str, float] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        totals[name] = totals.get(name, 0.0) + (end - start) - child_total[index]
    return totals


def span_costs(
    calls: dict[str, int], child_spans: dict[str, int], span_cost: tuple[float, float]
) -> dict[str, float]:
    """The tracer's own cost charged to each layer's self time.

    A span's measured interval holds ``span_cost[0]`` of wrapper work and
    each child span adds ``span_cost[1]`` to its parent's self time.
    """
    inside, outside = span_cost
    layers = calls.keys() | child_spans.keys()
    return {
        layer: calls.get(layer, 0) * inside + child_spans.get(layer, 0) * outside
        for layer in layers
    }


def corrected_self_times(self_s: dict[str, float], costs: dict[str, float]) -> dict[str, float]:
    """Each busy layer's self time less the tracer's cost (:func:`span_costs`).
    The :data:`EXCLUDED` layers are left out."""
    return {
        layer: value - costs.get(layer, 0.0)
        for layer, value in self_s.items()
        if layer not in EXCLUDED
    }


def layer_shares(corrected: dict[str, float]) -> dict[str, float]:
    """Corrected self times as shares of their sum.  A layer whose spans are
    thinner than the correction's resolution would go negative; it gets 0."""
    clamped = {layer: max(0.0, value) for layer, value in corrected.items()}
    total = sum(clamped.values())
    return {layer: value / total for layer, value in clamped.items()}


def due_times(gaps: Iterable[float], origin: float, window: float) -> list[float]:
    """When each arrival of a schedule falls due, over ``[origin, origin+window)``.

    An open-loop generator emits its first request at ``origin`` and
    request k after the first k inter-arrival gaps, so due time k is
    ``origin + sum(gaps[:k])`` whatever the generator actually managed.
    """
    due: list[float] = []
    at = origin
    end = origin + window
    for gap in gaps:
        if at >= end:
            break
        due.append(at)
        at += gap
    return due


def iqr_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the stability
    figure the benchmark's bounds are checked against)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")
