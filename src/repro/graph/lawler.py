"""Lawler's binary-search algorithm for the maximum cycle ratio.

Feasibility oracle: a cycle with ratio greater than λ exists iff the graph
with edge weights ``w - λ·t`` contains a positive-weight cycle, detected by
Bellman-Ford-style relaxation.  A float binary search brackets the answer,
which is then snapped to the unique rational with bounded denominator and
certified with exact arithmetic.

This serves as the reference implementation for Howard's algorithm and as
the comparison point of the MCR ablation bench.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.graph.core import RatioGraph


def _has_positive_cycle(graph: RatioGraph, lam, eps=0) -> bool:
    """True iff a cycle with Σw - λ·Σt > 0 exists: relaxation still
    improves a distance after |V| rounds.  Exact for a ``Fraction``
    *lam*; a float *lam* needs the rounding slack *eps*."""
    dist = dict.fromkeys(graph.nodes, 0)
    edges = list(graph.edges())
    for _ in range(graph.num_nodes + 1):
        changed = False
        for edge in edges:
            cand = dist[edge.src] + edge.weight - lam * edge.count
            if cand > dist[edge.dst] + eps:
                dist[edge.dst] = cand
                changed = True
        if not changed:
            return False
    return True


def _has_cycle(graph: RatioGraph) -> bool:
    return any(
        len(component) > 1
        or any(e.dst == component[0]
               for e in graph.out_edges(component[0]))
        for component in graph.strongly_connected_components())


def lawler_max_cycle_ratio(graph: RatioGraph) -> Optional[Fraction]:
    """Maximum cycle ratio via parametric search; None when acyclic.

    Raises:
        ValueError: if the graph has a cycle with zero iteration count and
            positive weight (the ratio would be unbounded).
    """
    if not _has_cycle(graph):
        return None

    max_count = sum(1 for e in graph.edges() if e.count > 0)
    max_count = max(1, min(max_count, graph.num_nodes))
    total_weight = sum(abs(e.weight) for e in graph.edges())

    hi = float(total_weight) + 1.0
    lo = -1.0
    if _has_positive_cycle(graph, hi, 1e-12):
        raise ValueError("unbounded cycle ratio (zero-count cycle with "
                         "positive weight)")
    # Two distinct achievable ratios differ by at least 1/max_count², so a
    # bracket narrower than that pins down the answer uniquely.
    precision = 1.0 / (4.0 * max_count * max_count)
    while hi - lo > precision:
        mid = (lo + hi) / 2.0
        if _has_positive_cycle(graph, mid, 1e-12):
            lo = mid
        else:
            hi = mid

    candidate = Fraction((lo + hi) / 2.0).limit_denominator(max_count)
    # Certify: no cycle exceeds the candidate, and some cycle attains a
    # ratio within the bracket (i.e. strictly above candidate - step).
    if _has_positive_cycle(graph, candidate):
        # Float search was off by a hair; fall back to exact refinement.
        candidate = _exact_refine(graph, candidate, max_count)
    step = Fraction(1, 2 * max_count * max_count)
    if not _has_positive_cycle(graph, candidate - step):
        candidate = _exact_refine(graph, Fraction(int(lo) - 1), max_count)
    return candidate


def _exact_refine(graph: RatioGraph, lower: Fraction,
                  max_count: int) -> Fraction:
    """Exact rational binary search (slow path, rarely taken)."""
    lo = lower
    hi = Fraction(sum(abs(e.weight) for e in graph.edges()) + 1)
    step = Fraction(1, 2 * max_count * max_count)
    while hi - lo > step:
        mid = (lo + hi) / 2
        if _has_positive_cycle(graph, mid):
            lo = mid
        else:
            hi = mid
    return ((lo + hi) / 2).limit_denominator(max_count)
