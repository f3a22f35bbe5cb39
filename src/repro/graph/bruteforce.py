"""Brute-force maximum cycle ratio by simple-cycle enumeration.

Exponential: only suitable for the small random graphs used in tests,
where it provides ground truth for Howard's and Lawler's algorithms.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Optional, Set

from repro.graph.core import RatioGraph


def bruteforce_max_cycle_ratio(graph: RatioGraph) -> Optional[Fraction]:
    """Enumerate all simple edge-cycles and return the maximum ratio.

    Simple cycles (no repeated intermediate node) are sufficient: any
    non-simple cycle decomposes into simple ones, and the best simple cycle
    has a ratio at least as large as any combination.
    """
    best: Optional[Fraction] = None
    nodes = graph.nodes
    order = {node: i for i, node in enumerate(nodes)}

    def dfs(start: Hashable, node: Hashable, visited: Set[Hashable],
            weight: int, count: int) -> None:
        nonlocal best
        for edge in graph.out_edges(node):
            if edge.dst == start:
                total_w = weight + edge.weight
                total_c = count + edge.count
                if total_c > 0:
                    ratio = Fraction(total_w, total_c)
                    if best is None or ratio > best:
                        best = ratio
                elif total_w > 0:
                    raise ValueError("positive cycle with zero count")
            elif order[edge.dst] > order[start] and edge.dst not in visited:
                visited.add(edge.dst)
                dfs(start, edge.dst, visited, weight + edge.weight,
                    count + edge.count)
                visited.remove(edge.dst)

    for start in nodes:
        dfs(start, start, {start}, 0, 0)
    return best
