"""Facile combination-logic tests (paper §4.1-4.2)."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import repro
from repro.core.components import Component, ThroughputMode
from repro.core.model import Facile
from repro.isa.block import BasicBlock
from repro.uarch import uarch_by_name

SKL = uarch_by_name("SKL")
SNB = uarch_by_name("SNB")
RKL = uarch_by_name("RKL")
U = ThroughputMode.UNROLLED
L = ThroughputMode.LOOP


@pytest.fixture(scope="module")
def dep_loop():
    return BasicBlock.from_asm("imul rax, rbx\nadd rax, rcx\n"
                               "cmp rax, r14\njne -14")


class TestCombination:
    def test_tpu_is_max_of_components(self, dep_loop):
        pred = Facile(SKL).predict(dep_loop, U)
        relevant = [Component.PREDEC, Component.DEC, Component.ISSUE,
                    Component.PORTS, Component.PRECEDENCE]
        assert pred.throughput == max(pred.bounds[c] for c in relevant)

    def test_bottleneck_bound_equals_throughput(self, dep_loop):
        pred = Facile(SKL).predict(dep_loop, U)
        for comp in pred.bottlenecks:
            assert pred.bounds[comp] == pred.throughput

    def test_loop_mode_reports_fe_path(self, dep_loop):
        pred = Facile(SKL).predict(dep_loop, L)
        assert pred.fe_component is Component.DSB  # LSD off on SKL

    def test_lsd_path_on_rkl(self, dep_loop):
        pred = Facile(RKL).predict(dep_loop, L)
        assert pred.fe_component is Component.LSD
        assert pred.lsd_applicable

    def test_dsb_path_for_large_loops_on_rkl(self):
        asm = "\n".join(["add rax, 1000000"] * 80) + "\njne -126"
        pred = Facile(RKL).predict(BasicBlock.from_asm(asm), L)
        assert pred.fe_component is Component.DSB

    def test_jcc_erratum_forces_legacy_path(self):
        block = BasicBlock.from_asm("nop15\nnop15\njne -32")
        pred = Facile(SKL).predict(block, L)
        assert pred.jcc_affected
        assert pred.fe_component in (Component.PREDEC, Component.DEC)

    def test_predictions_rounded_to_two_decimals(self, dep_loop):
        pred = Facile(SKL).predict(dep_loop, U)
        assert pred.cycles == round(pred.cycles, 2)


#: A JCC-affected SKL loop whose Predec and Dec bounds tie at 2 cycles.
TIE_HEX = ("488b8680000000488b1f0f28df4889d94c895500498995000100000f28e2"
           "75e0")

_TIE_SCRIPT = f"""
from repro.core.components import ThroughputMode
from repro.core.model import Facile
from repro.engine.columnar import ColumnarCore
from repro.isa.block import BasicBlock
from repro.uarch import uarch_by_name
cfg = uarch_by_name("SKL")
block = BasicBlock.from_bytes(bytes.fromhex("{TIE_HEX}"))
for predictor in (Facile(cfg), ColumnarCore(cfg)):
    print(predictor.predict(block, ThroughputMode.LOOP).fe_component)
"""


class TestFrontEndTie:
    def test_tie_reports_predec(self):
        pred = Facile(SKL).predict(
            BasicBlock.from_bytes(bytes.fromhex(TIE_HEX)), L)
        assert pred.jcc_affected
        assert pred.bounds[Component.PREDEC] == pred.bounds[Component.DEC]
        assert pred.fe_component is Component.PREDEC

    def test_tie_is_independent_of_hash_seed(self):
        # The tie used to be broken by set iteration order, which
        # follows the string hash seed of each fresh interpreter.
        src = os.path.dirname(os.path.dirname(repro.__file__))
        path = os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = set()
        for seed in ("0", "1", "2", "3"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            result = subprocess.run(
                [sys.executable, "-c", _TIE_SCRIPT], env=env,
                capture_output=True, text=True, timeout=120, check=True)
            outputs.add(result.stdout)
        assert outputs == {"Predec\nPredec\n"}


class TestAblationVariants:
    def test_exclusion_never_raises_prediction(self, dep_loop):
        full = Facile(SKL).predict(dep_loop, U)
        for comp in Component:
            reduced = Facile(SKL, exclude={comp}).predict(dep_loop, U)
            if reduced.throughput is not None:
                assert reduced.throughput <= full.throughput

    def test_only_component_prediction(self, dep_loop):
        only = Facile(SKL, components={Component.PRECEDENCE})
        pred = only.predict(dep_loop, U)
        assert pred.bottlenecks == [Component.PRECEDENCE]
        assert pred.throughput == pred.bounds[Component.PRECEDENCE]

    def test_only_dsb_in_unrolled_mode_predicts_nothing(self, dep_loop):
        only = Facile(SKL, components={Component.DSB})
        pred = only.predict(dep_loop, U)
        assert pred.throughput is None
        assert pred.cycles == 0.0

    def test_simple_variants_change_bounds(self):
        block = BasicBlock.from_asm("\n".join(["nop"] * 12))
        full = Facile(SKL).predict(block, U)
        simple = Facile(SKL, simple_predec=True).predict(block, U)
        assert simple.bounds[Component.PREDEC] < \
            full.bounds[Component.PREDEC]

    def test_recombined_matches_fresh_model(self, dep_loop):
        pred = Facile(SKL).predict(dep_loop, L)
        enabled = set(Component) - {Component.PRECEDENCE}
        recombined = pred.recombined(enabled)
        fresh = Facile(SKL, exclude={Component.PRECEDENCE}).predict(
            dep_loop, L)
        assert recombined.throughput == fresh.throughput


class TestComponentBound:
    def test_component_bound_matches_predict(self, dep_loop):
        model = Facile(SKL)
        pred = model.predict(dep_loop, L)
        for comp, value in pred.bounds.items():
            assert model.component_bound(dep_loop, comp, L) == value
