"""Maximum-cycle-ratio algorithm tests: Howard vs Lawler vs brute force."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.graph.bruteforce import bruteforce_max_cycle_ratio
from repro.graph.core import RatioGraph
from repro.graph.howard import (
    ZeroIterationCycle,
    howard_max_cycle_ratio,
    max_cycle_ratio,
)
from repro.graph.lawler import lawler_max_cycle_ratio


def make_graph(edges):
    g = RatioGraph()
    for u, v, w, t in edges:
        g.add_edge(u, v, w, t)
    return g


class TestKnownGraphs:
    def test_single_self_loop(self):
        g = make_graph([("a", "a", 7, 2)])
        assert howard_max_cycle_ratio(g)[0] == Fraction(7, 2)

    def test_two_node_cycle(self):
        g = make_graph([("a", "b", 3, 0), ("b", "a", 2, 1)])
        assert howard_max_cycle_ratio(g)[0] == 5

    def test_max_over_two_cycles(self):
        g = make_graph([
            ("a", "b", 1, 0), ("b", "a", 1, 1),   # ratio 2
            ("c", "d", 9, 0), ("d", "c", 0, 1),   # ratio 9
        ])
        assert howard_max_cycle_ratio(g)[0] == 9

    def test_acyclic_graph_returns_none(self):
        g = make_graph([("a", "b", 5, 0), ("b", "c", 5, 1)])
        ratio, cycle = howard_max_cycle_ratio(g)
        assert ratio is None and cycle == []
        assert lawler_max_cycle_ratio(g) is None

    def test_shared_node_cycles(self):
        # Two cycles through "a": ratios 4/1 and 7/2.
        g = make_graph([
            ("a", "b", 4, 0), ("b", "a", 0, 1),
            ("a", "c", 3, 1), ("c", "a", 4, 1),
        ])
        assert howard_max_cycle_ratio(g)[0] == 4

    def test_critical_cycle_edges_form_cycle(self):
        g = make_graph([
            ("a", "b", 1, 0), ("b", "a", 1, 1),
            ("b", "c", 10, 0), ("c", "b", 2, 1),
        ])
        ratio, cycle = howard_max_cycle_ratio(g)
        assert ratio == 12
        nodes = {e.src for e in cycle} | {e.dst for e in cycle}
        assert nodes == {"b", "c"}


@st.composite
def random_graphs(draw):
    n = draw(st.integers(2, 7))
    n_edges = draw(st.integers(n, 3 * n))
    edges = []
    for _ in range(n_edges):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        w = draw(st.integers(0, 12))
        # Back/self edges always carry an iteration count so no
        # zero-count cycle can form (as in real dependence graphs).
        t = draw(st.integers(0, 1)) if u < v else 1
        edges.append((u, v, w, t))
    return make_graph(edges)


@st.composite
def multi_policy_cycle_graphs(draw):
    """Graphs whose initial policy (each node's first edge) already has
    several cycles: nodes 2k and 2k+1 point at each other first, so
    policy iteration must compare and merge ``n / 2`` policy cycles."""
    n = 2 * draw(st.integers(2, 4))
    edges = []
    for u in range(n):
        edges.append((u, u ^ 1, draw(st.integers(0, 12)), 1))
    for _ in range(draw(st.integers(n, 3 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        t = draw(st.integers(0, 1)) if u < v else 1
        edges.append((u, v, draw(st.integers(0, 12)), t))
    return make_graph(edges)


def initial_policy_cycles(g):
    """Number of cycles of the policy 'first out-edge of every node'."""
    _keys, succ = g.indexed()
    first = {u: out[0][0] for u, out in enumerate(succ) if out}
    cycles = set()
    for start in first:
        seen = []
        node = start
        while node in first and node not in seen:
            seen.append(node)
            node = first[node]
        if node in seen:
            cycles.add(frozenset(seen[seen.index(node):]))
    return len(cycles)


def assert_cycle_attains(g, ratio, cycle):
    """*cycle* is a closed walk of edges of *g* with ratio *ratio*."""
    assert cycle
    for edge, succ in zip(cycle, cycle[1:] + cycle[:1]):
        assert edge.dst == succ.src
        assert any(e is edge for e in g.out_edges(edge.src))
    weight = sum(e.weight for e in cycle)
    count = sum(e.count for e in cycle)
    assert count > 0
    assert Fraction(weight, count) == ratio


class TestCrossValidation:
    @given(random_graphs())
    @settings(max_examples=200, deadline=None)
    def test_howard_equals_lawler_equals_bruteforce(self, g):
        h = howard_max_cycle_ratio(g)[0]
        l = lawler_max_cycle_ratio(g)
        b = bruteforce_max_cycle_ratio(g)
        assert h == l == b

    @given(multi_policy_cycle_graphs())
    @settings(max_examples=200, deadline=None)
    def test_several_policy_cycles(self, g):
        assert initial_policy_cycles(g) >= 2
        ratio, cycle = howard_max_cycle_ratio(g)
        assert ratio == lawler_max_cycle_ratio(g) \
            == bruteforce_max_cycle_ratio(g)
        assert_cycle_attains(g, ratio, cycle)

    @given(random_graphs())
    @settings(max_examples=100, deadline=None)
    def test_critical_cycle_attains_reported_ratio(self, g):
        ratio, cycle = howard_max_cycle_ratio(g)
        if ratio is None:
            assert cycle == []
            return
        assert_cycle_attains(g, ratio, cycle)

    @given(random_graphs())
    @settings(max_examples=100, deadline=None)
    def test_integer_solver_matches_adapter(self, g):
        # The int-indexed solver returns the unreduced (W, C) of the
        # cycle the RatioGraph front end reports.
        keys, succ = g.indexed()
        result = max_cycle_ratio(succ)
        ratio, cycle = howard_max_cycle_ratio(g)
        if result is None:
            assert ratio is None
            return
        weight, count, nodes = result
        assert Fraction(weight, count) == ratio
        assert weight == sum(e.weight for e in cycle)
        assert count == sum(e.count for e in cycle)
        assert [keys[u] for u, _pos in nodes] == [e.src for e in cycle]


#: Two policy cycles of gain 11 whose handles used to follow the
#: traversal: policy iteration alternated between two policies forever.
ALTERNATING_EDGES = [
    (3, 2, 8, 1), (5, 4, 4, 1), (7, 6, 7, 1), (6, 4, 6, 1), (6, 7, 4, 0),
    (5, 3, 6, 1), (2, 0, 6, 1), (4, 7, 9, 1), (3, 6, 4, 1), (0, 5, 8, 0),
    (0, 0, 7, 1), (1, 6, 2, 1), (4, 3, 10, 1), (6, 4, 8, 2), (5, 0, 3, 1),
    (0, 6, 7, 2), (7, 3, 4, 1), (3, 0, 5, 2)]


class TestTermination:
    def test_equal_gain_basins_do_not_alternate(self):
        # In a child process, so a regression fails on the timeout
        # instead of hanging the suite.
        script = ("from repro.graph.core import RatioGraph\n"
                  "from repro.graph.howard import howard_max_cycle_ratio\n"
                  "g = RatioGraph()\n"
                  f"for e in {ALTERNATING_EDGES!r}: g.add_edge(*e)\n"
                  "print(howard_max_cycle_ratio(g)[0])\n")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        result = subprocess.run([sys.executable, "-c", script], env=env,
                                capture_output=True, text=True,
                                timeout=60, check=True)
        assert result.stdout == "11\n"
        g = make_graph(ALTERNATING_EDGES)
        ratio, cycle = howard_max_cycle_ratio(g)
        assert ratio == lawler_max_cycle_ratio(g) == 11
        assert_cycle_attains(g, ratio, cycle)


class TestZeroIterationCycle:
    def test_zero_count_cycle_raises(self):
        g = make_graph([("a", "b", 3, 0), ("b", "a", 2, 0)])
        with pytest.raises(ZeroIterationCycle):
            howard_max_cycle_ratio(g)

    def test_zero_count_self_loop_raises(self):
        with pytest.raises(ZeroIterationCycle):
            max_cycle_ratio([[(0, 0, 0)]])

    def test_zero_count_cycle_beside_a_valid_one_raises(self):
        g = make_graph([("a", "a", 5, 1),
                        ("b", "c", 1, 0), ("c", "b", 1, 0)])
        with pytest.raises(ZeroIterationCycle):
            howard_max_cycle_ratio(g)


class TestTarjanScc:
    def test_components_partition_nodes(self):
        rng = random.Random(3)
        g = RatioGraph()
        for _ in range(40):
            g.add_edge(rng.randrange(12), rng.randrange(12), 1, 1)
        components = g.strongly_connected_components()
        seen = [n for comp in components for n in comp]
        assert sorted(seen) == sorted(g.nodes)

    def test_against_networkx(self):
        import networkx as nx
        rng = random.Random(11)
        for _ in range(20):
            g = RatioGraph()
            nxg = nx.DiGraph()
            n = rng.randint(3, 10)
            nxg.add_nodes_from(range(n))
            for node in range(n):
                g.add_node(node)
            for _ in range(2 * n):
                u, v = rng.randrange(n), rng.randrange(n)
                g.add_edge(u, v, 1, 1)
                nxg.add_edge(u, v)
            ours = {frozenset(c) for c in g.strongly_connected_components()}
            theirs = {frozenset(c)
                      for c in nx.strongly_connected_components(nxg)}
            assert ours == theirs

    def test_unbounded_ratio_detected_by_lawler(self):
        g = make_graph([("a", "b", 3, 0), ("b", "a", 2, 0)])
        with pytest.raises(ValueError):
            lawler_max_cycle_ratio(g)
