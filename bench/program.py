"""The program side of the library workloads and of the layer probes.

Run as ``python3 bench/program.py JOB.json`` in a fresh process with
``src`` on ``PYTHONPATH``; the benchmark writes the job and its input
files, and reads the pickled result this process leaves at
``job["out"]``.  Only the program's own work and the reading of its
input files happen here.

Job kinds:

* ``library`` — set up one library workload (imports, construction,
  warm-up), report when set-up ended, then time operations over all
  timed inputs (at most ``seconds``), with spans around each
  operation's calls when ``trace`` is set.
* ``probe`` — the traced run's layer probes: time calls into each
  layer's public functions on the workload's own inputs, and replay a
  fixed prefix of the workload through a fresh engine for its exact
  columnar counters.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.bhive.suite import Benchmark, BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.engine.engine import Engine
from repro.isa.block import BasicBlock
from repro.sim.measure import measure
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase

from records import MODES, iter_records, read_records
from spans import Tracer

UARCH = "SKL"
THROUGHPUT_MODES = tuple(ThroughputMode(mode) for mode in MODES)


class Predict:
    """cold-signatures: one ``predict_raw`` call per block on the
    engine's default (columnar) core."""

    def __init__(self) -> None:
        self.engine = Engine(uarch_by_name(UARCH))
        if self.engine.columnar is None:
            raise RuntimeError("the engine's default core is not columnar")
        self.core = self.engine.columnar

    def warm(self, items) -> None:
        for raw, mode in items:
            self.core.predict_raw(raw, THROUGHPUT_MODES[mode])

    def op(self, raw: bytes, mode: int, tracer: Optional[Tracer],
           index: int):
        if tracer is None:
            return self.core.predict_raw(raw, THROUGHPUT_MODES[mode])
        with tracer.span("op", "predict", index):
            with tracer.span("compute", "ColumnarCore.predict_raw", index):
                return self.core.predict_raw(raw, THROUGHPUT_MODES[mode])


class Evaluate:
    """oracle-eval: each block is decoded, measured on the oracle
    simulator (cache off) and predicted by the engine."""

    def __init__(self) -> None:
        self.cfg = uarch_by_name(UARCH)
        self.db = UopsDatabase(self.cfg)
        self.engine = Engine(self.cfg, db=self.db)

    def warm(self, items) -> None:
        for raw, mode in items:
            self.op(raw, mode, None, -1)

    def op(self, raw: bytes, mode: int, tracer: Optional[Tracer],
           index: int):
        tmode = THROUGHPUT_MODES[mode]
        if tracer is None:
            block = BasicBlock.from_bytes(raw)
            return (measure(block, self.cfg, tmode, self.db,
                            use_cache=False),
                    self.engine.predict(block, tmode))
        with tracer.span("op", "evaluate", index):
            with tracer.span("decode", "BasicBlock.from_bytes", index):
                block = BasicBlock.from_bytes(raw)
            with tracer.span("measure", "sim.measure.measure", index):
                cycles = measure(block, self.cfg, tmode, self.db,
                                 use_cache=False)
            with tracer.span("compute", "Engine.predict", index):
                return cycles, self.engine.predict(block, tmode)


WORKLOADS: Dict[str, Callable[[], object]] = {
    "cold-signatures": Predict,
    "oracle-eval": Evaluate,
}


def timed_phase(work, items: Iterator[Tuple[bytes, int]], seconds: float,
                tracer: Optional[Tracer]) -> Dict:
    """Closed loop: one operation after another until the inputs run out
    or *seconds* have passed.  Per-operation latency excludes reading
    the next input; the phase's wall time includes it."""
    latencies: List[float] = []
    outputs: Dict[int, object] = {}
    errors: Dict[int, str] = {}
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    end = start
    for index, (raw, mode) in enumerate(items):
        began = clock()
        try:
            out = work.op(raw, mode, tracer, index)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            out = None
            errors[index] = f"{type(exc).__name__}: {exc}"
        end = clock()
        latencies.append(end - began)
        if out is not None:
            outputs[index] = out
        if end >= deadline:
            break
    return {"seconds": end - start, "latencies": latencies,
            "outputs": outputs, "errors": errors}


def run_library(job: Dict) -> Dict:
    work = WORKLOADS[job["workload"]]()
    work.warm(read_records(job["warm"]))
    ready = time.monotonic()
    if job["setup_only"]:
        return {"ready": ready}
    tracer = Tracer() if job["trace"] else None
    phase = timed_phase(work, iter_records(job["timed"]), job["seconds"],
                        tracer)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ready": ready, "phase": phase, "rss_kb": rss_kb,
            "spans": tracer.spans if tracer is not None else []}


# -- layer probes ------------------------------------------------------------

def run_probe(job: Dict) -> Dict:
    from repro.engine.batching import MicroBatcher
    from repro.engine.columnar import ColumnarCore
    from repro.eval.timing import time_facile_components
    from repro.graph.depgraph import build_dependence_graph
    from repro.graph.howard import howard_max_cycle_ratio
    from repro.service import serialize
    from repro.service.shard import ShardEngine
    from repro.sim.backend import SimOptions
    from repro.sim.simulator import Simulator

    cfg = uarch_by_name(UARCH)
    db = UopsDatabase(cfg)
    tracer = Tracer()
    span = tracer.span
    probe = read_records(job["probe"])
    twins = read_records(job["twins"])  # (block, variant) interleaved
    out: Dict[str, object] = {}

    # Exact counters: the workload's own warm-up, then a fixed prefix of
    # its timed inputs, through a fresh engine's default core.
    replay = Engine(cfg)
    for raw, mode in iter_records(job["replay_warm"]):
        replay.columnar.predict_raw(raw, THROUGHPUT_MODES[mode])
    before = replay.columnar.stats()
    for raw, mode in iter_records(job["replay"]):
        replay.columnar.predict_raw(raw, THROUGHPUT_MODES[mode])
    after = replay.columnar.stats()
    out["counters"] = {key: after[key] - before[key]
                       for key in ("raw_hits", "sig_hits", "misses")}
    out["counters"]["entries"] = after["entries"]
    del replay

    blocks = []
    for index, (raw, mode) in enumerate(probe):
        with span("decode", "BasicBlock.from_bytes", index):
            blocks.append(BasicBlock.from_bytes(raw))
    for index, (raw, mode) in enumerate(probe):
        with span("decode", "serialize.parse_block", index):
            serialize.parse_block({"hex": raw.hex()})

    core = ColumnarCore(cfg, db=db)
    predictions = []
    for index, (raw, mode) in enumerate(probe):
        with span("compute", "ColumnarCore.predict_raw/cold", index):
            predictions.append(
                core.predict_raw(raw, THROUGHPUT_MODES[mode]))
    for index in range(0, len(twins), 2):
        raw, mode = twins[index]
        core.predict_raw(raw, THROUGHPUT_MODES[mode])
        raw, mode = twins[index + 1]
        with span("compute", "ColumnarCore.predict_raw/warm", index):
            core.predict_raw(raw, THROUGHPUT_MODES[mode])
    for index, (block, prediction) in enumerate(zip(blocks, predictions)):
        with span("serialize", "prediction_to_dict+json_bytes", index):
            serialize.json_bytes(serialize.prediction_to_dict(
                prediction, block, UARCH))

    for index, block in enumerate(blocks):
        with span("compute", "build_dependence_graph", index):
            graph = build_dependence_graph(block, db)
        with span("compute", "howard_max_cycle_ratio", index):
            howard_max_cycle_ratio(graph)

    by_mode = {mode: [b for b, (_, m) in zip(blocks, probe) if m == mode]
               for mode in (0, 1)}
    engine = Engine(cfg, db=UopsDatabase(cfg))
    for mode, group in by_mode.items():
        if group:
            with span("compute", "Engine.predict_many", mode,
                      len(group)):
                engine.predict_many(group, THROUGHPUT_MODES[mode])

    # Figure 4: per-component cost by deducting the shared overhead.
    components: Dict[str, List[float]] = {}
    n_comp = job["component_blocks"]
    for mode, group in by_mode.items():
        group = group[:n_comp]
        if not group:
            continue
        suite = BenchmarkSuite([Benchmark(f"probe_{i}", "probe", b, b)
                                for i, b in enumerate(group)], 0)
        with span("compute", "time_facile_components", mode):
            results = time_facile_components(cfg, suite,
                                             THROUGHPUT_MODES[mode], db)
        for name, result in results.items():
            components.setdefault(name, []).extend(result.samples_ms)
    out["components_ms"] = components

    sim_cycles = 0
    simulator = Simulator(cfg, SimOptions(), db)
    for index, block in enumerate(blocks[:job["sim_blocks"]]):
        tmode = THROUGHPUT_MODES[probe[index][1]]
        with span("measure", "sim.measure.measure", index):
            measure(block, cfg, tmode, db, use_cache=False)
        # The simulation measure() runs: warm-up plus three periods.
        with span("measure", "Simulator.simulate", index):
            retired = simulator.simulate(block, tmode, 32 + 3 * 36)
        sim_cycles += max(retired.values())
    out["sim_cycles"] = sim_cycles

    shard = ShardEngine(UARCH)
    try:
        for mode, group in by_mode.items():
            for start in range(0, len(group), job["bulk"]):
                chunk = group[start:start + job["bulk"]]
                with span("shard.roundtrip", "ShardEngine.predict_many",
                          start, len(chunk)):
                    shard.predict_many(chunk, THROUGHPUT_MODES[mode])
        batcher = MicroBatcher(shard)
        try:
            for mode, group in by_mode.items():
                if group:
                    with span("batcher.dispatch",
                              "MicroBatcher.submit_many", mode,
                              len(group)):
                        for future in batcher.submit_many(
                                group, THROUGHPUT_MODES[mode]):
                            future.result(timeout=60)
        finally:
            batcher.close()
    finally:
        shard.close()
    out["spans"] = tracer.spans
    return out


def main(argv: List[str]) -> int:
    with open(argv[1]) as handle:
        job = json.load(handle)
    result = run_library(job) if job["kind"] == "library" \
        else run_probe(job)
    with open(job["out"], "wb") as handle:
        pickle.dump(result, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
