"""The repository benchmark: three seeded workloads, end to end and per
layer.

Usage (from the repository root)::

    python3 bench/run.py --workload cold-signatures --seed 1 \\
        --seconds 10 --trace 0

The benchmark generates the workload's inputs from ``--seed`` in this
process, hands them to a fresh program process (``bench/program.py``
for the library workloads, ``facile serve`` for service-mix), times the
program for ``--seconds``, checks every output it can against the
object-model reference (``repro.core.model.Facile``), and prints each
metric with its unit and sample count.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  ``BENCHMARK.json`` at the repository root
declares both lists; ``bench/METHODS.md`` says why each workload
exists.

Run records, spans and inputs go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import random
import signal
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")

WORKLOADS = ("cold-signatures", "service-mix", "oracle-eval")

#: name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "blocks_per_s": "1/s",
    "latency_p50_ms": "ms",
    "ok_share": "share",
    "peak_rss_mb": "MB",
    "mape_pct": "%",
}

PER_LAYER = {
    "isa.decode_us": "us",
    "service.serialize.parse_block_us": "us",
    "service.serialize.encode_us": "us",
    "service.server.request_ms": "ms",
    "service.server.fragment_hit_ratio": "share",
    "engine.batching.dispatch_ms": "ms",
    "engine.batching.batch_size": "blocks",
    "service.shard.roundtrip_ms": "ms",
    "service.shard.roundtrip_us_per_block": "us",
    "service.shard.failures": "count",
    "engine.columnar.cold_us": "us",
    "engine.columnar.warm_us": "us",
    "engine.columnar.raw_hits": "count",
    "engine.columnar.sig_hits": "count",
    "engine.columnar.misses": "count",
    "engine.columnar.entries": "count",
    "engine.columnar.sig_hit_ratio": "share",
    "core.overhead_us": "us",
    "core.predec_us": "us",
    "core.dec_us": "us",
    "core.dsb_us": "us",
    "core.lsd_us": "us",
    "core.issue_us": "us",
    "core.ports_us": "us",
    "core.precedence_us": "us",
    "graph.depgraph_us": "us",
    "graph.howard_us": "us",
    "engine.engine.predict_many_us": "us",
    "sim.measure_ms": "ms",
    "sim.cycles": "cycles",
    "sim.host_us_per_cycle": "us/cycle",
    "obs.trace_overhead_pct": "%",
}

#: The hash seed of this process and of every program process.  Which
#: front-end component a prediction reports (``fe_component``) depends
#: on iteration order when two front-end bounds tie, so it differs
#: between processes with different hash seeds; the reference and the
#: program must share one for their outputs to be comparable.
HASH_SEED = "0"

#: Program processes and servers must finish well inside the run limit.
PROGRAM_TIMEOUT_S = 100.0

#: Time cap of a fixed-work timed phase, as a multiple of the time its
#: work is sized for.
FIXED_WORK_CAP = 2

#: Concurrent keep-alive connections of the service-mix load generator.
SERVICE_CLIENTS = 2

#: Blocks per bulk request when warming the server.
WARM_BULK = 1024


def host_probe(rounds: int = 5, n: int = 200_000) -> float:
    """Median milliseconds of a fixed pure-Python spin loop.

    A diagnostic of host speed recorded next to each run; it never
    rescales a metric.
    """
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for i in range(n):
            total += i * i
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def quantile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Report:
    """Metrics of one run, each with its unit and sample count."""

    def __init__(self, units: Dict[str, str]):
        self.units = units
        self.values: Dict[str, Tuple[float, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None
        self.notes: Dict[str, object] = {}

    def set(self, name: str, value: float, samples: int) -> None:
        if name not in self.units:
            raise KeyError(f"undeclared metric {name!r}")
        self.values[name] = (float(value), int(samples))

    def fail(self, reason: str) -> None:
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = reason

    def missing(self) -> List[str]:
        return [name for name in self.units if name not in self.values]


# -- program processes ---------------------------------------------------------

def program_env() -> Dict[str, str]:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("REPRO_FAULTS", None)  # never time an injected fault plan
    env.pop("REPRO_ENGINE_CORE", None)
    env.pop("REPRO_ENGINE_WORKERS", None)
    return env


def run_program(job: Dict, tag: str) -> Tuple[Dict, float]:
    """Run ``bench/program.py`` on *job*; returns (result, spawn time)."""
    job = dict(job, out=os.path.join(OUT, f"{tag}.pickle"))
    job_path = os.path.join(OUT, f"{tag}.json")
    with open(job_path, "w") as handle:
        json.dump(job, handle)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "program.py"), job_path],
        cwd=ROOT, env=program_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=PROGRAM_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"program {tag} exited {proc.returncode}: "
                           + proc.stderr.decode("utf-8", "replace")[-2000:])
    with open(job["out"], "rb") as handle:
        result = pickle.load(handle)
    return result, spawned


def write_inputs(name: str, items) -> str:
    from records import write_records
    path = os.path.join(OUT, f"{name}.rec")
    write_records(path, items)
    return path


# -- reference checks ---------------------------------------------------------

class Reference:
    """The object model, in this process and workers forked from it: a
    second implementation that shares no state (tables, memos, caches)
    with the program process."""

    def __init__(self) -> None:
        from repro.core.model import Facile
        from repro.uarch import uarch_by_name
        self.model = Facile(uarch_by_name("SKL"))
        self.memo: Dict[Tuple[bytes, int], object] = {}

    def _compute(self, items: Sequence[Tuple[bytes, int]]) -> List:
        from repro.core.components import ThroughputMode
        from repro.isa.block import BasicBlock
        from records import MODES
        return [self.model.predict(BasicBlock.from_bytes(raw),
                                   ThroughputMode(MODES[mode]))
                for raw, mode in items]

    def prefill(self, items: Sequence[Tuple[bytes, int]]) -> None:
        """Predict every new item of *items* in forked workers."""
        global _FORKED
        from inputs import WORKERS, fork_map
        todo = sorted(set(items) - self.memo.keys())
        chunks = [todo[i::WORKERS] for i in range(WORKERS)]
        _FORKED = self
        for chunk, predictions in zip(chunks,
                                      fork_map(_reference_chunk, chunks)):
            self.memo.update(zip(chunk, predictions))

    def predict(self, raw: bytes, mode: int):
        key = (raw, mode)
        if key not in self.memo:
            self.memo[key] = self._compute([key])[0]
        return self.memo[key]

    def fragment(self, raw: bytes, mode: int) -> bytes:
        from repro.isa.block import BasicBlock
        from repro.service.serialize import json_bytes, prediction_to_dict
        key = (raw, mode, "fragment")
        if key not in self.memo:
            self.memo[key] = json_bytes(prediction_to_dict(
                self.predict(raw, mode), BasicBlock.from_bytes(raw), "SKL"))
        return self.memo[key]


#: The reference a forked worker of :meth:`Reference.prefill` uses.
_FORKED: Optional[Reference] = None


def _reference_chunk(items: Sequence[Tuple[bytes, int]]) -> List:
    return _FORKED._compute(items)


def describe(raw: bytes, mode: int) -> str:
    from records import MODES
    return f"block {raw.hex()} ({MODES[mode]})"


def check_predictions(report: Report, phases: Sequence[Dict],
                      item_of: Callable[[int], Tuple[bytes, int]],
                      reference: Reference) -> List[Set[int]]:
    """Count every operation; fail errors and predictions that differ
    from the reference.  Returns the failed operations of each phase."""
    reference.prefill([item_of(index) for phase in phases
                       for index in phase["outputs"]])
    failed = []
    for phase in phases:
        bad = set()
        report.attempted += len(phase["latencies"])
        for index, error in sorted(phase["errors"].items()):
            bad.add(index)
            report.fail(f"op {index}: {describe(*item_of(index))}: {error}")
        for index, output in sorted(phase["outputs"].items()):
            # oracle-eval outputs are (measured cycles, prediction).
            prediction = output[1] if isinstance(output, tuple) else output
            if prediction != reference.predict(*item_of(index)):
                bad.add(index)
                report.fail(f"op {index}: {describe(*item_of(index))}: "
                            "prediction differs from the reference")
        failed.append(bad)
    return failed


def anchor_mape(size) -> Tuple[float, int]:
    """Facile's MAPE (%) against the oracle on the fixed anchor blocks."""
    from inputs import anchor
    from repro.core.components import ThroughputMode
    from repro.engine.engine import Engine
    from repro.eval.metrics import mape
    from repro.isa.block import BasicBlock
    from repro.sim.measure import measure
    from repro.uarch import uarch_by_name
    from records import MODES

    cfg = uarch_by_name("SKL")
    engine = Engine(cfg)
    measured, predicted = [], []
    for raw, mode in anchor(size):
        block = BasicBlock.from_bytes(raw)
        tmode = ThroughputMode(MODES[mode])
        measured.append(measure(block, cfg, tmode, engine.db,
                                use_cache=False))
        predicted.append(engine.predict(block, tmode).cycles)
    return 100.0 * mape(measured, predicted), len(measured)


# -- per-layer metrics from the probe process --------------------------------

def probe_metrics(report: Report, data: Dict, size, seed: int,
                  replay_warm: Sequence, replay: Sequence,
                  server_rows: Dict[str, float]) -> List[Dict]:
    """Run the layer probes in a fresh program process on *data*'s probe
    sample; fill the per-layer metrics; return the probe's spans."""
    from inputs import twins
    from spans import per_block

    pairs = twins(data["probe"], seed)
    job = {"kind": "probe",
           "probe": write_inputs("probe", data["probe"]),
           "twins": write_inputs("twins", [item for pair in pairs
                                           for item in pair]),
           "replay_warm": write_inputs("replay-warm", replay_warm),
           "replay": write_inputs("replay", replay),
           "component_blocks": size.probe_component_blocks,
           "sim_blocks": size.probe_sim_blocks, "bulk": size.bulk}
    result, _ = run_program(job, "probe")
    spans = result["spans"]
    n_probe = len(data["probe"])

    def us(name: str, call: str) -> float:
        return per_block(spans, name, call) * 1e6

    report.set("isa.decode_us", us("decode", "BasicBlock.from_bytes"),
               n_probe)
    report.set("service.serialize.parse_block_us",
               us("decode", "serialize.parse_block"), n_probe)
    report.set("service.serialize.encode_us",
               us("serialize", "prediction_to_dict+json_bytes"), n_probe)
    report.set("engine.columnar.cold_us",
               us("compute", "ColumnarCore.predict_raw/cold"), n_probe)
    report.set("engine.columnar.warm_us",
               us("compute", "ColumnarCore.predict_raw/warm"), len(pairs))
    report.set("graph.depgraph_us",
               us("compute", "build_dependence_graph"), n_probe)
    report.set("graph.howard_us",
               us("compute", "howard_max_cycle_ratio"), n_probe)
    report.set("engine.engine.predict_many_us",
               us("compute", "Engine.predict_many"), n_probe)
    report.set("service.shard.roundtrip_us_per_block",
               us("shard.roundtrip", "ShardEngine.predict_many"), n_probe)

    counters = result["counters"]
    for key in ("raw_hits", "sig_hits", "misses", "entries"):
        report.set(f"engine.columnar.{key}", counters[key], len(replay))
    lookups = counters["sig_hits"] + counters["misses"]
    report.set("engine.columnar.sig_hit_ratio",
               counters["sig_hits"] / lookups if lookups else 0.0,
               len(replay))

    components = result["components_ms"]
    for name, metric in (("Overhead", "overhead"), ("Predec", "predec"),
                         ("Dec", "dec"), ("DSB", "dsb"), ("LSD", "lsd"),
                         ("Issue", "issue"), ("Ports", "ports"),
                         ("Precedence", "precedence")):
        samples = components.get(name, [])
        report.set(f"core.{metric}_us",
                   1000.0 * statistics.fmean(samples) if samples else 0.0,
                   len(samples))

    sim_blocks = min(n_probe, size.probe_sim_blocks)
    report.set("sim.measure_ms",
               per_block(spans, "measure", "sim.measure.measure") * 1e3,
               sim_blocks)
    report.set("sim.cycles", result["sim_cycles"], sim_blocks)
    simulate_s = per_block(spans, "measure", "Simulator.simulate") \
        * sim_blocks
    report.set("sim.host_us_per_cycle",
               simulate_s * 1e6 / result["sim_cycles"]
               if result["sim_cycles"] else 0.0, sim_blocks)
    for name, value in server_rows.items():
        report.set(name, value, 1)
    return spans


def set_overhead(report: Report, untraced_bps: float,
                 traced_bps: float, ops: int) -> None:
    report.set("obs.trace_overhead_pct",
               (untraced_bps - traced_bps) / untraced_bps * 100.0
               if untraced_bps else 0.0, ops)


# -- library workloads ---------------------------------------------------------

def process_seconds(args, size) -> float:
    """How long each program process is timed (cold-signatures: the
    work it is given is sized to take about this long).

    A measuring run times ``size.segments`` fresh processes on the same
    inputs, ``--seconds`` split between them; a traced run times two
    (untraced, traced).
    """
    return args.seconds / (2 if args.trace else size.segments)


class Timed:
    """One program process's timed phase: its wall time, each
    operation's latency, and the blocks each completed correctly (0 for
    a failed operation)."""

    def __init__(self, seconds: float, latencies: Sequence[float],
                 good: Sequence[int]):
        self.seconds = seconds
        self.latencies = latencies
        self.good = good

    def rate(self) -> float:
        """Correct blocks per second of wall time."""
        return sum(self.good) / self.seconds


def set_timings(report: Report, setups: Sequence[float],
                processes: Sequence[Timed]) -> None:
    """The timing metrics of a measuring run.

    Host speed on a shared box moves in phases of seconds to minutes (a
    1.5x swing in a pure-Python loop).  A plain average over the whole
    timed phase moves smoothly with the share of the run a slow phase
    covers, where a median of short windows or of processes would jump
    between the two speeds; so ``blocks_per_s`` is every process's
    correct blocks over their summed wall time, and the percentiles pool
    every operation of the run.  Stalls count against all of them.

    The tail percentiles are recorded in ``report.notes["tails"]`` and
    printed, but are not end-to-end metrics: a slow host phase stretches
    them about twice as much as the median, and service-mix's p90 and
    p99 spread over 0.25 (IQR/median over ten runs) in such a phase.
    """
    latencies = [x for timed in processes for x in timed.latencies]
    report.notes["per_process"] = {
        "setup_s": list(setups),
        "blocks_per_s": [timed.rate() for timed in processes],
        "p50_ms": [quantile(t.latencies, 50) * 1e3 for t in processes]}
    report.set("setup_s", statistics.median(setups), len(setups))
    report.set("blocks_per_s",
               sum(sum(timed.good) for timed in processes)
               / sum(timed.seconds for timed in processes), len(latencies))
    report.set("latency_p50_ms", quantile(latencies, 50) * 1000.0,
               len(latencies))
    report.notes["tails"] = {f"latency_p{q}_ms": quantile(latencies, q)
                             * 1000.0 for q in (90, 99)}


def timed_library(phase: Dict, failed: Set[int]) -> Timed:
    n = len(phase["latencies"])
    return Timed(phase["seconds"], phase["latencies"],
                 [0 if index in failed else 1 for index in range(n)])


def library(args, size, report: Report) -> List[Dict]:
    """cold-signatures and oracle-eval."""
    import inputs
    from records import digest
    from spans import offset

    name = args.workload
    oracle = name == "oracle-eval"
    seconds = process_seconds(args, size)
    if name == "cold-signatures":
        data = inputs.cold_signatures(args.seed, seconds, size)
    else:
        data = inputs.oracle_eval(args.seed, args.seconds, size)
    timed = data["timed"]
    paths = [write_inputs("warm", data["warm"]),
             write_inputs("timed", timed)]
    report.notes["inputs_sha256"] = digest(paths)
    report.notes["inputs"] = {"warm": len(data["warm"]),
                              "timed": len(timed)}
    # Library workloads are fixed work, sized from --seconds: a process
    # runs through all its timed inputs, so what it holds (compiled
    # entries, kept outputs) does not grow with its speed.  The time cap
    # only keeps a much slower program inside the run's time limit.
    # oracle-eval is one Table-2 pass; a second timed process would
    # double the run, so its other set-ups are set-up only.
    job = {"kind": "library", "workload": name, "warm": paths[0],
           "timed": paths[1],
           "seconds": FIXED_WORK_CAP * (args.seconds if oracle else seconds),
           "trace": False, "setup_only": False}
    reference = Reference()

    def item_of(index: int):
        return timed[index]

    if args.trace:
        # Two fresh processes on the same inputs, untraced and traced:
        # their rates give the tracing overhead.
        results = [run_program(dict(job, trace=traced),
                               f"timed{int(traced)}")[0]
                   for traced in (False, True)]
        phases = [result["phase"] for result in results]
        failed = check_predictions(report, phases, item_of, reference)
        untraced, traced = (timed_library(phase, bad).rate()
                            for phase, bad in zip(phases, failed))
        set_overhead(report, untraced, traced, len(phases[1]["latencies"]))
        replay = timed if oracle else timed[:4000]
        rows, session_spans = server_session(data["probe"])
        spans = list(results[1]["spans"])
        for more in (session_spans, probe_metrics(
                report, data, size, args.seed, data["warm"], replay, rows)):
            spans.extend(offset(more, len(spans)))
        return spans

    setups, results = [], []
    for segment in range(size.segments):
        timed_here = not oracle or segment == size.segments - 1
        result, spawned = run_program(
            dict(job, setup_only=not timed_here), f"segment{segment}")
        setups.append(result["ready"] - spawned)
        if timed_here:
            results.append(result)
    phases = [result["phase"] for result in results]
    failed = check_predictions(report, phases, item_of, reference)
    ops = sum(len(phase["latencies"]) for phase in phases)
    set_timings(report, setups, [timed_library(phase, bad)
                                 for phase, bad in zip(phases, failed)])
    report.set("ok_share", (ops - sum(map(len, failed))) / ops, ops)
    report.set("peak_rss_mb", statistics.median(
        result["rss_kb"] for result in results) / 1024.0, len(results))
    if oracle:
        from repro.eval.metrics import mape
        outputs = [phases[0]["outputs"][index]
                   for index in sorted(phases[0]["outputs"])]
        report.set("mape_pct", 100.0 * mape(
            [cycles for cycles, _ in outputs],
            [prediction.cycles for _, prediction in outputs]),
            len(outputs))
    else:
        report.set("mape_pct", *anchor_mape(size))
    return []


# -- service-mix ---------------------------------------------------------------

def warm_server(server, hot: Sequence) -> None:
    """Answer the hot set once per mode (fills the fragment cache)."""
    from records import MODES
    from service import BULK_PATH, bulk_body, request

    conn = server.connection()
    try:
        for mode in (0, 1):
            blocks = [raw for raw, m in hot if m == mode]
            for start in range(0, len(blocks), WARM_BULK):
                status, body = request(conn, "POST", BULK_PATH, bulk_body(
                    blocks[start:start + WARM_BULK], MODES[mode]))
                if status != 200:
                    raise RuntimeError(f"warm-up bulk: HTTP {status}: "
                                       + body[:200].decode("utf-8",
                                                           "replace"))
    finally:
        conn.close()


def server_session(probe: Sequence) -> Tuple[Dict[str, float], List[Dict]]:
    """The traced run's server probe for the library workloads: the
    probe blocks sent as bulks twice (misses, then fragment hits), then
    one scrape.  Returns the scraped rows and the client's spans."""
    from records import MODES
    from service import BULK_PATH, Server, bulk_body, request, scrape
    from spans import Tracer

    tracer = Tracer()
    server = Server(ROOT)
    try:
        conn = server.connection()
        for call, name in (("all misses", "op"),
                           ("all hits", "fragment_lookup")):
            for mode in (0, 1):
                blocks = [raw for raw, m in probe if m == mode]
                if not blocks:
                    continue
                with tracer.span(name, f"POST {BULK_PATH} ({call})", mode,
                                 len(blocks)):
                    status, _ = request(conn, "POST", BULK_PATH,
                                        bulk_body(blocks, MODES[mode]))
                if status != 200:
                    raise RuntimeError(f"probe bulk: HTTP {status}")
        conn.close()
        rows = scrape(server)
    finally:
        server.stop()
    return rows, tracer.spans


def check_bulk(blocks: Sequence, index: int, status: int, body: bytes,
               hot_ref: Dict, sampled: set, reference: Reference
               ) -> Optional[str]:
    """Why one bulk answer is wrong, or None.  Every hot block's
    fragment and the sampled misses' fragments must equal the
    reference's canonical bytes, and appear verbatim in the body."""
    from repro.service.serialize import json_bytes

    if status != 200:
        return f"HTTP {status}"
    fragments = [json_bytes(prediction) for prediction
                 in json.loads(body)["result"]["predictions"]]
    if len(fragments) != len(blocks) or b",".join(fragments) not in body:
        return "malformed bulk answer"
    for slot, (item, fragment) in enumerate(zip(blocks, fragments)):
        want = hot_ref.get(item)
        if want is None and (index, slot) in sampled:
            want = reference.fragment(*item)
        if want is not None and fragment != want:
            return (f"slot {slot}: {describe(*item)}: fragment differs "
                    "from the reference")
    return None


def service_mix(args, size, report: Report) -> List[Dict]:
    import inputs
    from records import MODES, digest
    from service import Server, bulk_body, closed_loop, scrape
    from spans import Tracer, offset

    seconds = process_seconds(args, size)
    data = inputs.service_mix(args.seed, seconds, size)
    requests = data["requests"]
    bodies = [bulk_body([raw for raw, _ in blocks], MODES[index % 2])
              for index, blocks in enumerate(requests)]
    paths = [write_inputs("warm", data["warm"]),
             write_inputs("timed", [item for blocks in requests
                                    for item in blocks])]
    report.notes["inputs_sha256"] = digest(paths)
    report.notes["inputs"] = {"hot": len(data["warm"]),
                              "requests": len(requests)}

    # Each timed server is fresh and answers the same requests:
    # untraced then traced in a traced run, otherwise one per segment.
    tracer = Tracer()
    owns = [None, tracer] if args.trace else [None] * size.segments
    phases, setups, rss_kb = [], [], []
    for own in owns:
        server = Server(ROOT)
        try:
            warm_server(server, data["warm"])
            setups.append(time.monotonic() - server.spawned)
            phases.append(closed_loop(server, bodies, seconds,
                                      SERVICE_CLIENTS, own))
            rss_kb.append(server.peak_rss_kb())
            if own is not None:
                rows = scrape(server)
        finally:
            server.stop()

    # Checks: every hot block against its reference fragment, and a
    # seeded sample of the never-seen variants.
    hot = set(data["warm"])
    indices = sorted({index for phase in phases
                      for index, *_ in phase["answered"]})
    miss_slots = [(index, slot) for index in indices
                  for slot, item in enumerate(requests[index])
                  if item not in hot]
    rng = random.Random(inputs.derive(args.seed, "miss-check"))
    sampled = set(rng.sample(miss_slots,
                             min(size.misses_checked, len(miss_slots))))
    reference = Reference()
    reference.prefill(list(data["warm"]) + [requests[index][slot]
                                            for index, slot in sampled])
    hot_ref = {(raw, mode): reference.fragment(raw, mode)
               for raw, mode in data["warm"]}
    bad = [set() for _ in phases]
    for phase, failed in zip(phases, bad):
        for index, status, body, _ in phase["answered"]:
            report.attempted += 1
            reason = check_bulk(requests[index], index, status, body,
                                hot_ref, sampled, reference)
            if reason is not None:
                failed.add(index)
                report.fail(f"request {index}: {reason}")

    def timed(phase: Dict, failed: Set[int]) -> Timed:
        answered = phase["answered"]
        return Timed(phase["seconds"],
                     [latency for *_, latency in answered],
                     [0 if index in failed else len(requests[index])
                      for index, *_ in answered])

    report.notes["phase_s"] = [phase["seconds"] for phase in phases]
    if not args.trace:
        ops = sum(len(phase["answered"]) for phase in phases)
        set_timings(report, setups, [timed(phase, failed)
                                     for phase, failed in zip(phases, bad)])
        report.set("ok_share", (ops - sum(map(len, bad))) / ops, ops)
        report.set("peak_rss_mb", statistics.median(rss_kb) / 1024.0,
                   len(rss_kb))
        report.set("mape_pct", *anchor_mape(size))
        return []

    set_overhead(report, timed(phases[0], bad[0]).rate(),
                 timed(phases[1], bad[1]).rate(),
                 len(phases[1]["answered"]))
    replay = [item for blocks in requests[:max(2, 4000 // size.bulk)]
              for item in blocks]
    spans = list(tracer.spans)
    spans.extend(offset(probe_metrics(report, data, size, args.seed,
                                      data["warm"], replay, rows),
                        len(spans)))
    return spans


# -- entry point ---------------------------------------------------------------

def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes (tiny: the benchmark's own "
                             "tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"bench: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Restart this process under the shared hash seed (same pid).
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__)]
                  + list(sys.argv[1:] if argv is None else argv),
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    # A terminated run still stops its servers (``finally`` blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    from inputs import SIZES
    from spans import Tracer

    size = SIZES[args.size]
    report = Report(PER_LAYER if args.trace else END_TO_END)
    host_before = host_probe()
    spans = (service_mix if args.workload == "service-mix"
             else library)(args, size, report)
    host_after = host_probe()
    missing = report.missing()
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for name, (value, samples) in report.values.items():
        print(f"{name:<40} {value:>14.6g} {report.units[name]:<9} "
              f"n={samples}")
    for name, value in report.notes.get("tails", {}).items():
        print(f"{name:<40} {value:>14.6g} {'ms':<9} "
              f"n={report.values['latency_p50_ms'][1]} (not gated)")
    print(f"host spin probe: {host_before:.2f} ms before, "
          f"{host_after:.2f} ms after (diagnostic, never applied)")
    print(f"inputs sha256 {report.notes['inputs_sha256']}")
    if report.first_failure is not None:
        print(f"FAILED {report.failed} of {report.attempted}; first: "
              f"{report.first_failure}")
    if args.trace:
        tracer = Tracer()
        tracer.spans = spans
        tracer.write(os.path.join(OUT, f"trace-{tag}.json"))
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "size": args.size,
        "host_probe_ms": {"before": host_before, "after": host_after},
        "metrics": {name: {"value": value, "unit": report.units[name],
                           "samples": samples}
                    for name, (value, samples) in report.values.items()},
        "attempted": report.attempted, "failed": report.failed,
        "first_failure": report.first_failure,
        "notes": report.notes,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True, default=str)
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": report.units[name]}
                    for name, (value, _) in report.values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
