"""Construction of the weighted dependence graph (§4.9 of the paper).

Nodes are the values consumed and produced by each instruction instance:
``("c", i, root)`` for instruction *i* consuming architectural value
*root*, and ``("p", i, root)`` for producing it.  Latency edges connect
consumed to produced values within an instruction; 0-latency dependency
edges connect producers to consumers, carrying an iteration count of 0
(intra-iteration) or 1 (loop-carried, via the last writer in the block).
The graph is assembled from per-instruction :data:`DepForm` tuples.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.graph.core import RatioGraph
from repro.isa.block import BasicBlock
from repro.isa.instruction import Instruction
from repro.uops.database import UopsDatabase

#: One instruction's dependence data: ``(consumed roots in first-read
#: order, latency edges (src root, dst root, cycles), written roots)``.
DepForm = Tuple[Tuple[str, ...], Tuple[Tuple[str, str, int], ...],
                Tuple[str, ...]]


def dep_form(instr: Instruction, db: UopsDatabase) -> DepForm:
    """The dependence data of *instr* on *db*'s µarch."""
    edges = tuple((src.name, dst.name, lat)
                  for src, dst, lat in db.dep_latencies(instr))
    consumed = tuple(dict.fromkeys(src for src, _dst, _lat in edges))
    return consumed, edges, tuple(reg.name for reg in instr.regs_written())


def assemble(forms: Sequence[DepForm],
             ) -> Tuple[List[Hashable], List[List[Tuple[int, int, int]]]]:
    """Node keys and :data:`~repro.graph.core.Adjacency` of a block's
    dependence graph, from its instructions' data.

    Live-in values (read before any write in the block) have no
    producer and induce no edges, matching the steady-state semantics:
    only values produced within the loop body can carry dependences
    across iterations.
    """
    final_writer: Dict[str, int] = {}
    for idx, (_consumed, _edges, written) in enumerate(forms):
        for root in written:
            final_writer[root] = idx

    ids: Dict[Hashable, int] = {}  # node key -> index, in creation order
    edges_out: List[Tuple[int, int, int, int]] = []
    current_writer: Dict[str, int] = {}
    for idx, (consumed, edges, written) in enumerate(forms):
        for root in consumed:
            producer = current_writer.get(root)
            count = 0
            if producer is None:
                producer = final_writer.get(root)
                count = 1
                if producer is None:
                    continue  # live-in: produced outside the block
            src = ids.setdefault(("p", producer, root), len(ids))
            edges_out.append(
                (src, ids.setdefault(("c", idx, root), len(ids)), 0, count))
        for src_root, dst_root, lat in edges:
            src = ids.setdefault(("c", idx, src_root), len(ids))
            edges_out.append(
                (src, ids.setdefault(("p", idx, dst_root), len(ids)), lat, 0))
        for root in written:
            current_writer[root] = idx
    succ: List[List[Tuple[int, int, int]]] = [[] for _ in ids]
    for src, dst, weight, count in edges_out:
        succ[src].append((dst, weight, count))
    return list(ids), succ


class DependenceGraphBuilder:
    """Builds dependence graphs for basic blocks."""

    def __init__(self, db: UopsDatabase):
        self.db = db

    def build(self, block: BasicBlock) -> RatioGraph:
        """The dependence graph of *block* (see :func:`assemble`)."""
        keys, succ = assemble([dep_form(instr, self.db) for instr in block])
        graph = RatioGraph()
        for key in keys:
            graph.add_node(key)
        for key, edges in zip(keys, succ):
            for dst, weight, count in edges:
                graph.add_edge(key, keys[dst], weight, count)
        return graph


def build_dependence_graph(block: BasicBlock,
                           db: UopsDatabase) -> RatioGraph:
    """Convenience wrapper around :class:`DependenceGraphBuilder`."""
    return DependenceGraphBuilder(db).build(block)
