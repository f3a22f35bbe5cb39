"""A directed graph with (latency, iteration-count) edge weights."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Sequence, Tuple

#: An int-indexed adjacency: ``succ[u]`` lists ``(v, weight, count)``.
Adjacency = Sequence[Sequence[Tuple[int, int, int]]]


@dataclass(frozen=True)
class Edge:
    """A weighted edge.

    Attributes:
        src / dst: node identifiers.
        weight: latency in cycles.
        count: iteration count (0 intra-iteration, 1 loop-carried).
    """

    src: Hashable
    dst: Hashable
    weight: int
    count: int


class RatioGraph:
    """Adjacency-list graph for maximum-cycle-ratio computations."""

    def __init__(self) -> None:
        self._succ: Dict[Hashable, List[Edge]] = {}

    def add_node(self, node: Hashable) -> None:
        self._succ.setdefault(node, [])

    def add_edge(self, src: Hashable, dst: Hashable, weight: int,
                 count: int) -> None:
        """Add a directed edge; creates the endpoints if necessary."""
        if count < 0:
            raise ValueError("iteration count must be non-negative")
        self.add_node(src)
        self.add_node(dst)
        self._succ[src].append(Edge(src, dst, weight, count))

    @property
    def nodes(self) -> List[Hashable]:
        return list(self._succ)

    @property
    def num_nodes(self) -> int:
        return len(self._succ)

    @property
    def num_edges(self) -> int:
        return sum(len(edges) for edges in self._succ.values())

    def out_edges(self, node: Hashable) -> List[Edge]:
        return self._succ[node]

    def edges(self) -> Iterable[Edge]:
        for edges in self._succ.values():
            yield from edges

    def indexed(self) -> Tuple[List[Hashable], Adjacency]:
        """Node keys in insertion order, and the :data:`Adjacency` over
        their indices (edges in insertion order)."""
        keys = list(self._succ)
        ids = {key: i for i, key in enumerate(keys)}
        succ = [[(ids[e.dst], e.weight, e.count) for e in self._succ[key]]
                for key in keys]
        return keys, succ

    def strongly_connected_components(self) -> List[List[Hashable]]:
        keys, succ = self.indexed()
        return [[keys[u] for u in component]
                for component in strongly_connected_components(succ)]

    def __repr__(self) -> str:
        return (f"<RatioGraph {self.num_nodes} nodes, "
                f"{self.num_edges} edges>")


def strongly_connected_components(succ: Adjacency) -> List[List[int]]:
    """Tarjan's algorithm, iterative to avoid recursion limits.  Roots
    are tried in index order and successors in edge order."""
    index = [-1] * len(succ)
    lowlink = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack: List[int] = []
    components: List[List[int]] = []
    counter = 0
    for root in range(len(succ)):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            node, edge_iter = work[-1]
            for dst, _weight, _count in edge_iter:
                if index[dst] < 0:
                    index[dst] = lowlink[dst] = counter
                    counter += 1
                    stack.append(dst)
                    on_stack[dst] = True
                    work.append((dst, iter(succ[dst])))
                    break
                if on_stack[dst] and index[dst] < lowlink[node]:
                    lowlink[node] = index[dst]
            else:
                work.pop()
                if work and lowlink[node] < lowlink[work[-1][0]]:
                    lowlink[work[-1][0]] = lowlink[node]
                if lowlink[node] == index[node]:
                    cut = stack.index(node)
                    component = stack[cut:][::-1]
                    del stack[cut:]
                    for member in component:
                        on_stack[member] = False
                    components.append(component)
    return components
