"""Dependence-graph construction tests (paper §4.9 structure)."""

import pytest

from repro.core.precedence import precedence_bound
from repro.graph.depgraph import DependenceGraphBuilder
from repro.graph.howard import howard_max_cycle_ratio
from repro.isa.block import BasicBlock
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase


@pytest.fixture(scope="module")
def db():
    return UopsDatabase(uarch_by_name("SKL"))


def ratio_of(asm: str, db) -> float:
    block = BasicBlock.from_asm(asm)
    graph = DependenceGraphBuilder(db).build(block)
    ratio, _cycle = howard_max_cycle_ratio(graph)
    return float(ratio) if ratio is not None else 0.0


class TestChains:
    def test_self_chained_add(self, db):
        assert ratio_of("add rax, rax", db) == 1.0

    def test_imul_add_chain(self, db):
        assert ratio_of("imul rax, rbx\nadd rax, rcx", db) == 4.0

    def test_independent_instructions_have_no_cycle(self, db):
        assert ratio_of("mov rax, 1\nmov rbx, 2", db) == 0.0

    def test_zero_idiom_breaks_chain(self, db):
        # xor rax, rax resets the chain: imul's input does not depend on
        # the previous iteration's output.
        assert ratio_of("xor rax, rax\nimul rax, rbx", db) == 0.0

    def test_eliminated_move_contributes_zero_latency(self, db):
        # mov is eliminated on SKL: chain is imul only (3), carried
        # through two registers.
        chained = ratio_of("imul rax, rbx\nmov rcx, rax\n"
                           "imul rax, rcx", db)
        assert chained == 6.0  # two imuls, zero-cost move

    def test_flags_dependencies_are_tracked(self, db):
        # adc consumes and produces CF: a 1-cycle flag chain.
        assert ratio_of("adc rax, rbx", db) >= 1.0

    def test_load_latency_on_pointer_chase(self, db):
        # mov rax, [rax]: classic pointer chase = load latency.
        assert ratio_of("mov rax, qword ptr [rax]", db) == 4.0

    def test_live_in_values_do_not_create_cycles(self, db):
        # rbx is only read: its consumers have no producer edges.
        assert ratio_of("mov rax, rbx", db) == 0.0


class TestGraphShape:
    def test_node_naming_scheme(self, db):
        block = BasicBlock.from_asm("add rax, rbx")
        graph = DependenceGraphBuilder(db).build(block)
        kinds = {node[0] for node in graph.nodes}
        assert kinds == {"c", "p"}

    def test_intra_vs_inter_iteration_counts(self, db):
        block = BasicBlock.from_asm("imul rax, rbx\nadd rcx, rax")
        graph = DependenceGraphBuilder(db).build(block)
        dep_edges = [e for e in graph.edges() if e.weight == 0]
        counts = {e.count for e in dep_edges}
        assert counts == {0, 1}  # both intra- and loop-carried edges

    def test_cycle_instruction_extraction(self, db):
        block = BasicBlock.from_asm("imul rax, rbx\nadd rax, rcx\n"
                                    "mov rdx, 5")
        graph = DependenceGraphBuilder(db).build(block)
        _ratio, cycle = howard_max_cycle_ratio(graph)
        assert sorted({node[1] for edge in cycle
                       for node in (edge.src, edge.dst)}) == [0, 1]
        assert precedence_bound(block, db).critical_chain == [0, 1]
