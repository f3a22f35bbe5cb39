"""The precedence-constraint bound (paper §4.9).

Assembles the weighted dependence graph of the block and computes the
maximum cycle ratio — the recurrence-constrained minimum initiation
interval, in modulo-scheduling terms — with Howard's policy iteration in
integer arithmetic.  Lawler's parametric search is kept only as the
reference of :func:`precedence_bound_lawler` (tests and the ablation).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence

from repro.graph.depgraph import DepForm, DependenceGraphBuilder, \
    assemble, dep_form
from repro.graph.howard import max_cycle_ratio
from repro.graph.lawler import lawler_max_cycle_ratio
from repro.isa.block import BasicBlock
from repro.uops.database import UopsDatabase


@dataclass(frozen=True)
class PrecedenceResult:
    """The bound plus the critical dependency chain.

    Attributes:
        bound: maximum cycle ratio (0 when the graph is acyclic).
        critical_chain: instruction indices on a critical cycle, for
            interpretable feedback when Precedence is the bottleneck.
    """

    bound: Fraction
    critical_chain: List[int]


def precedence_bound(block: BasicBlock,
                     db: UopsDatabase) -> PrecedenceResult:
    """The Precedence throughput bound of *block*."""
    return precedence_of_forms([dep_form(instr, db) for instr in block])


def precedence_of_forms(forms: Sequence[DepForm]) -> PrecedenceResult:
    """The Precedence bound of a block from its instructions' data."""
    keys, succ = assemble(forms)
    result = max_cycle_ratio(succ)
    if result is None:
        return PrecedenceResult(Fraction(0), [])
    weight, count, cycle = result
    return PrecedenceResult(Fraction(weight, count),
                            sorted({keys[node][1] for node, _pos in cycle}))


def precedence_bound_lawler(block: BasicBlock,
                            db: UopsDatabase) -> Fraction:
    """Reference implementation using Lawler's algorithm (ablation)."""
    graph = DependenceGraphBuilder(db).build(block)
    ratio = lawler_max_cycle_ratio(graph)
    return ratio if ratio is not None else Fraction(0)
