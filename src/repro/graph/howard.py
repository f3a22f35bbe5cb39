"""Howard's policy-iteration algorithm for the maximum cycle ratio.

This is the algorithm the paper cites ([16, 18]) for computing the
Precedence bound.  The implementation is the multichain variant: policies
are improved first on *gain* (the cycle ratio a node's policy path reaches)
and then on *bias* (the relative value), which handles policy graphs whose
functional structure contains several cycles.

All arithmetic is on integers: a gain is the pair ``(W, C)`` of total
weight and iteration count of the policy cycle a node reaches, a bias is
stored scaled by its gain's ``C``, and both are compared by
cross-multiplication.  Results are exact rationals, and policy iteration
terminates.  :func:`max_cycle_ratio` runs on an int-indexed adjacency;
:func:`howard_max_cycle_ratio` is the :class:`RatioGraph` front end.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from repro.graph.core import (
    Adjacency,
    Edge,
    RatioGraph,
    strongly_connected_components,
)

class ZeroIterationCycle(Exception):
    """Raised for cycles whose iteration count sums to zero."""


def _solve_scc(out: Sequence[Sequence[Tuple[int, int, int, int]]],
               ) -> Tuple[int, int, List[int], List[int]]:
    """Policy iteration on one strongly connected component.

    ``out[i]`` lists node *i*'s ``(j, weight, count, position)`` edges
    within the component.  Returns ``(W, C, cycle, policy)``: the
    maximum ratio ``W / C``, the local nodes of a critical cycle and the
    final policy (an index into ``out[i]``).  The policy starts at each
    node's first edge and only a strictly better edge replaces it, which
    decides which of several critical cycles is reported.
    """
    m = len(out)
    policy = [0] * m
    while True:
        # -- policy evaluation: gains (W, C) and C-scaled biases --------
        gain_w = [0] * m
        gain_c = [0] * m  # 0 marks "not yet evaluated" (cycles have C > 0)
        bias = [0] * m
        state = [0] * m   # 0 unseen, 1 on the current path, 2 done
        best_w, best_c = 0, 0
        critical: List[int] = []
        for start in range(m):
            if state[start]:
                continue
            path = []
            node = start
            while not state[node]:
                state[node] = 1
                path.append(node)
                node = out[node][policy[node]][0]
            if state[node] == 1:
                # A new policy cycle; `node` is on it.
                cycle = path[path.index(node):]
                weight = sum(out[u][policy[u]][1] for u in cycle)
                count = sum(out[u][policy[u]][2] for u in cycle)
                if count == 0:
                    raise ZeroIterationCycle(
                        "policy cycle with zero iteration count; the graph "
                        "must not contain intra-iteration cycles")
                # The handle (bias 0) is the cycle's lowest node, so a
                # cycle that survives an improvement keeps its biases.  A
                # handle that followed the traversal's entry point could
                # shift them, and the iteration then alternated forever
                # between basins of equal gain.
                h = cycle.index(min(cycle))
                gain_w[cycle[h]], gain_c[cycle[h]] = weight, count
                # Rotate the path's cycle to start at the handle, so the
                # backward pass below meets each node after its successor.
                path[len(path) - len(cycle):] = cycle[h:] + cycle[:h]
                if not critical or weight * best_c > best_w * count:
                    best_w, best_c, critical = weight, count, cycle
            # Back-substitute values backwards along the path.
            for u in reversed(path):
                if gain_c[u]:
                    continue
                j, w, c, _pos = out[u][policy[u]]
                weight, count = gain_w[j], gain_c[j]
                gain_w[u], gain_c[u] = weight, count
                bias[u] = w * count - weight * c + bias[j]
            for u in path:
                state[u] = 2

        # -- policy improvement: gain first, then bias ------------------
        changed = False
        for u in range(m):
            top_w, top_c, top_b = gain_w[u], gain_c[u], bias[u]
            top = -1
            for k, (j, w, c, _pos) in enumerate(out[u]):
                weight, count = gain_w[j], gain_c[j]
                lhs = weight * top_c
                rhs = top_w * count
                if lhs < rhs:
                    continue
                b = w * count - weight * c + bias[j]
                if lhs > rhs or b * top_c > top_b * count:
                    top_w, top_c, top_b, top = weight, count, b, k
            if top >= 0 and top != policy[u]:
                policy[u] = top
                changed = True
        if not changed:
            return best_w, best_c, critical, policy


def max_cycle_ratio(succ: Adjacency,
                    ) -> Optional[Tuple[int, int, List[Tuple[int, int]]]]:
    """Maximum cycle ratio of an int-indexed graph.

    Returns ``(W, C, cycle)``: the maximum ratio ``W / C`` and a critical
    cycle attaining it, as ``(node, edge position)`` pairs; ``None`` for
    acyclic graphs.  Components are solved in Tarjan order, and a later
    one only wins when strictly better.  Raises
    :class:`ZeroIterationCycle` for a policy cycle of count zero.
    """
    best: Optional[Tuple[int, int, List[Tuple[int, int]]]] = None
    for component in strongly_connected_components(succ):
        if len(component) == 1 and component[0] not in [
                dst for dst, _w, _c in succ[component[0]]]:
            continue  # a single node without a self-loop
        local = {node: i for i, node in enumerate(component)}
        out = [[(local[dst], w, c, pos)
                for pos, (dst, w, c) in enumerate(succ[node]) if dst in local]
               for node in component]
        weight, count, cycle, policy = _solve_scc(out)
        if best is None or weight * best[1] > best[0] * count:
            best = (weight, count,
                    [(component[i], out[i][policy[i]][3]) for i in cycle])
    return best


def howard_max_cycle_ratio(
        graph: RatioGraph,
) -> Tuple[Optional[Fraction], List[Edge]]:
    """Maximum cycle ratio of *graph* via Howard's policy iteration.

    Returns ``(ratio, critical cycle edges)``, or ``(None, [])`` for an
    acyclic graph.  The critical cycle attains the ratio and is reported
    for interpretability (the paper's "dependency chain with the maximal
    latency").
    """
    keys, succ = graph.indexed()
    result = max_cycle_ratio(succ)
    if result is None:
        return None, []
    weight, count, cycle = result
    return Fraction(weight, count), [graph.out_edges(keys[node])[pos]
                                     for node, pos in cycle]
