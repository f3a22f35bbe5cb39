"""Seeded inputs of the workloads.

Everything here runs in the benchmark's own process (and workers it
forks), before the program process starts, so input generation never
shares the program's timing, memory or interpreter lock.  The same
``--seed`` gives byte-identical input files (see
:func:`records.digest`).

Blocks come from the repository's BHive-style generator
(:class:`repro.bhive.suite.BenchmarkSuite`).  Each generated benchmark
is a pair: an unrolled variant and a loop variant with a back edge; the
workloads use both, alternating unrolled and loop mode.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

from repro.bhive.suite import BenchmarkSuite
from repro.isa.block import BasicBlock

from records import Item

#: Seed of the fixed Table-2 suite (the repository's evaluation default).
TABLE2_SEED = 2023

#: Worker processes for the benchmark's own bulk work (generating
#: inputs, the reference check), which never overlaps a timed phase.
WORKERS = 2


@dataclass(frozen=True)
class Sizes:
    """How much input a run generates (``full`` for measurement,
    ``tiny`` for the benchmark's own tests)."""

    segments: int                # program processes per measuring run
    cold_warmup_pairs: int
    cold_blocks_per_s: int       # blocks per second of timed work
    hot_pairs: int               # service-mix hot set (per mode: this many)
    bulk: int                    # blocks per bulk request
    requests_per_s: int
    miss_share: float
    misses_checked: int
    oracle_blocks_per_s: int     # suite size per second of --seconds
    anchor_benchmarks: int       # mape_pct anchor: a tenth of these
    probe_blocks: int            # layer probes of the traced run
    probe_sim_blocks: int
    probe_component_blocks: int


SIZES: Dict[str, Sizes] = {
    "full": Sizes(segments=5, cold_warmup_pairs=64, cold_blocks_per_s=800,
                  hot_pairs=512, bulk=32, requests_per_s=300,
                  miss_share=0.05, misses_checked=400,
                  oracle_blocks_per_s=40, anchor_benchmarks=150,
                  probe_blocks=64, probe_sim_blocks=16,
                  probe_component_blocks=24),
    "tiny": Sizes(segments=2, cold_warmup_pairs=4, cold_blocks_per_s=60,
                  hot_pairs=8, bulk=8, requests_per_s=40,
                  miss_share=0.25, misses_checked=40,
                  oracle_blocks_per_s=6, anchor_benchmarks=2,
                  probe_blocks=6, probe_sim_blocks=2,
                  probe_component_blocks=2),
}


def derive(seed: int, label: str) -> int:
    """An independent sub-seed for one input stream of one run."""
    digest_ = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest_[:8], "little")


def fork_map(fn: Callable, chunks: Sequence) -> List:
    """``[fn(chunk) for chunk in chunks]`` in :data:`WORKERS` forked
    processes, which have all ended when this returns."""
    pool = multiprocessing.get_context("fork").Pool(WORKERS)
    try:
        return pool.map(fn, chunks)
    finally:
        pool.close()
        pool.join()


def pairs(count: int, seed: int) -> List[Tuple[bytes, bytes]]:
    """*count* generated benchmarks as (unrolled, loop) block bytes."""
    suite = BenchmarkSuite.generate(count, seed)
    return [(bench.block_u.raw, bench.block_l.raw) for bench in suite]


def _pairs_chunk(args: Tuple[int, int]) -> List[Tuple[bytes, bytes]]:
    return pairs(*args)


def many_pairs(count: int, seed: int) -> List[Tuple[bytes, bytes]]:
    """Like :func:`pairs`, generated in :data:`WORKERS` independently
    seeded chunks at once."""
    chunks = [(count * (i + 1) // WORKERS - count * i // WORKERS,
               derive(seed, f"chunk{i}")) for i in range(WORKERS)]
    return [pair for chunk in fork_map(_pairs_chunk, chunks)
            for pair in chunk]


def alternate(raw_pairs: Sequence[Tuple[bytes, bytes]]) -> List[Item]:
    """Unrolled then loop block of every pair: the modes alternate."""
    return [item for unrolled, loop in raw_pairs
            for item in ((unrolled, 0), (loop, 1))]


def distinct(items: Sequence[Item], seen: Set[bytes]) -> List[Item]:
    """*items* without blocks already in *seen* (which is updated)."""
    out = []
    for raw, mode in items:
        if raw not in seen:
            seen.add(raw)
            out.append((raw, mode))
    return out


def variant_sites(raw: bytes) -> List[int]:
    """Byte offsets of *raw* that a payload variant may rewrite.

    These are immediate bytes, all but the top byte of each immediate
    (so signs and branch targets stay sane).  Rewriting them changes the
    block's bytes but not its instruction forms, so the columnar core
    resolves the variant to the already-compiled signature.
    """
    sites: List[int] = []
    offset = 0
    for instr in BasicBlock.from_bytes(raw):
        enc = instr.template.encoding
        width = enc.imm_width // 8 if enc.imm_width else 0
        end = offset + len(instr.raw)
        if width and enc.fixed_bytes is None:
            sites.extend(range(end - width, end - 1))
        offset = end
    return sites


class Variants:
    """Never-seen payload variants of a set of base blocks.

    Only bases with at least two rewritable bytes are used, so a base
    has at least 65,536 variants and the stream never runs dry.
    """

    def __init__(self, bases: Sequence[Item], rng: random.Random,
                 seen: Set[bytes]):
        self.bases = [(raw, mode, sites) for raw, mode in bases
                      for sites in (variant_sites(raw),)
                      if len(sites) >= 2]
        if not self.bases:
            raise ValueError("no base block has rewritable payload bytes")
        self.rng = rng
        self.seen = seen

    def draw(self) -> Item:
        """A fresh variant of a randomly drawn base."""
        raw, mode, sites = self.bases[self.rng.randrange(len(self.bases))]
        while True:
            buf = bytearray(raw)
            for site, value in zip(sites, self.rng.randbytes(len(sites))):
                buf[site] = value
            variant = bytes(buf)
            if variant not in self.seen:
                self.seen.add(variant)
                return variant, mode


def sample_indices(count: int, k: int, rng: random.Random) -> List[int]:
    return sorted(rng.sample(range(count), min(k, count)))


# -- the workloads' inputs ---------------------------------------------------

def cold_signatures(seed: int, seconds: float, size: Sizes
                    ) -> Dict[str, List[Item]]:
    """A warm-up set, then a stream of generated blocks in fresh forms.

    Both come from independent generator seeds; raw duplicates are
    dropped, so every timed block is new bytes to the process.
    """
    seen: Set[bytes] = set()
    warm = distinct(alternate(pairs(size.cold_warmup_pairs,
                                    derive(seed, "cold-warm"))), seen)
    timed = distinct(alternate(many_pairs(
        max(1, int(seconds * size.cold_blocks_per_s) // 2),
        derive(seed, "cold-timed"))), seen)
    rng = random.Random(derive(seed, "cold-probe"))
    probe = [timed[i] for i in sample_indices(len(timed),
                                              size.probe_blocks, rng)]
    return {"warm": warm, "timed": timed, "probe": probe}


def service_mix(seed: int, seconds: float, size: Sizes) -> Dict:
    """A hot set per mode and bulk requests that mostly repeat it.

    Request *r* is in mode ``r % 2``; each of its blocks repeats a hot
    block with probability ``1 - miss_share`` and is otherwise a
    never-seen payload variant of a hot block.
    """
    seen: Set[bytes] = set()
    hot = distinct(alternate(pairs(size.hot_pairs,
                                   derive(seed, "hot"))), seen)
    by_mode = [[item for item in hot if item[1] == mode] for mode in (0, 1)]
    rng = random.Random(derive(seed, "mix"))
    variants = [Variants(by_mode[mode], rng, seen) for mode in (0, 1)]
    requests: List[List[Item]] = []
    for index in range(max(2, int(seconds * size.requests_per_s))):
        mode = index % 2
        requests.append([
            variants[mode].draw() if rng.random() < size.miss_share
            else by_mode[mode][rng.randrange(len(by_mode[mode]))]
            for _ in range(size.bulk)])
    hot_set = set(raw for raw, _ in hot)
    misses = [item for request in requests for item in request
              if item[0] not in hot_set]
    probe = [misses[i] for i in sample_indices(
        len(misses), size.probe_blocks, random.Random(derive(seed, "mp")))]
    return {"warm": hot, "requests": requests, "probe": probe}


def oracle_eval(seed: int, seconds: float, size: Sizes
                ) -> Dict[str, List[Item]]:
    """The fixed Table-2 suite (both modes of every benchmark), sized to
    take about *seconds* to evaluate, in a seeded order.

    The suite itself does not depend on *seed*: MAPE over a few hundred
    generated blocks swings by about 20% between suites (one block in
    four carries all of the error), which would hide any real change in
    accuracy, so the seed only orders the evaluation.
    """
    suite = alternate(pairs(
        max(1, round(seconds * size.oracle_blocks_per_s / 2)), TABLE2_SEED))
    random.Random(derive(seed, "oracle-order")).shuffle(suite)
    warm = alternate(pairs(1, derive(seed, "oracle-warm")))
    probe = suite[:size.probe_blocks]
    return {"warm": warm, "timed": suite, "probe": probe}


def anchor(size: Sizes) -> List[Item]:
    """The fixed accuracy anchor the non-oracle workloads report
    ``mape_pct`` on: every tenth benchmark of the Table-2 suite."""
    return alternate(pairs(size.anchor_benchmarks, TABLE2_SEED)[::10])


def twins(items: Sequence[Item], seed: int) -> List[Tuple[Item, Item]]:
    """(block, never-seen payload variant) pairs, for the warm-predict
    probe; blocks without rewritable payload bytes are skipped."""
    rng = random.Random(derive(seed, "twins"))
    out = []
    for raw, mode in items:
        sites = variant_sites(raw)
        if len(sites) < 2:
            continue
        made = Variants([(raw, mode)], rng, {raw})
        out.append(((raw, mode), made.draw()))
    return out
