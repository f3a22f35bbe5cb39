"""Ablation: Howard's algorithm vs. Lawler's for the Precedence bound.

The paper uses Howard's policy iteration [16, 18].  The Precedence bound
runs it in integer arithmetic on an int-indexed adjacency
(:func:`repro.graph.howard.max_cycle_ratio`: gains as ``(W, C)`` pairs,
comparisons by cross-multiplication).  This bench confirms that the
integer Howard solver agrees exactly with Lawler's parametric search on
the full suite and quantifies the speed difference that motivates the
choice.
"""

import time
from fractions import Fraction

import pytest

from repro.graph.depgraph import build_dependence_graph
from repro.graph.howard import howard_max_cycle_ratio, max_cycle_ratio
from repro.graph.lawler import lawler_max_cycle_ratio
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase


@pytest.fixture(scope="module")
def graphs(suite):
    db = UopsDatabase(uarch_by_name("SKL"))
    return [build_dependence_graph(b.block_l, db) for b in suite]


@pytest.fixture(scope="module")
def adjacencies(graphs):
    return [graph.indexed()[1] for graph in graphs]


def integer_howard(succ):
    result = max_cycle_ratio(succ)
    return None if result is None else Fraction(result[0], result[1])


def test_algorithms_agree(graphs, adjacencies):
    for graph, succ in zip(graphs, adjacencies):
        howard = integer_howard(succ)
        assert howard == howard_max_cycle_ratio(graph)[0]
        assert howard == lawler_max_cycle_ratio(graph)


def test_howard_speed(benchmark, adjacencies):
    benchmark(lambda: [max_cycle_ratio(succ) for succ in adjacencies])


def test_howard_vs_lawler_speed(graphs, adjacencies):
    start = time.perf_counter()
    for succ in adjacencies:
        max_cycle_ratio(succ)
    howard_time = time.perf_counter() - start

    start = time.perf_counter()
    for graph in graphs:
        lawler_max_cycle_ratio(graph)
    lawler_time = time.perf_counter() - start

    print(f"\nInteger Howard {1000 * howard_time:.1f} ms vs "
          f"Lawler {1000 * lawler_time:.1f} ms "
          f"({lawler_time / max(howard_time, 1e-9):.0f}x) "
          f"on {len(graphs)} dependence graphs")
    assert howard_time < lawler_time
