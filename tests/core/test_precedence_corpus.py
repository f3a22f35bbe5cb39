"""Frozen Precedence corpus: exact bounds and critical chains.

``tests/data/golden_precedence.json`` freezes the Precedence bound (the
exact fraction string) and the critical dependency chain of generator
blocks from every category, in both the unrolled and the loop variant,
on all nine µarchs.  A block the µarch cannot characterize records the
error type instead.  Both the reference ``precedence_bound`` and the
columnar core's per-form path must reproduce every record exactly, so
a change to the max-cycle-ratio solver or to the graph assembly cannot
move a bound or a chain unnoticed.

To regenerate after an intentional model change::

    PYTHONPATH=src python tests/core/test_precedence_corpus.py --regen
"""

import json
import os

import pytest

from repro.bhive.categories import CATEGORIES
from repro.bhive.generator import BlockGenerator
from repro.core.components import Component, ThroughputMode
from repro.core.precedence import precedence_bound
from repro.engine.columnar import ColumnarCore
from repro.uarch import ALL_UARCHS
from repro.uops.database import UopsDatabase

CORPUS_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                           "data", "golden_precedence.json")

#: Generator seed and block pairs drawn per category.
CORPUS_SEED = 2025
PAIRS_PER_CATEGORY = 40


def build_corpus():
    """``(category, variant, block)`` triples, both variants per pair."""
    generator = BlockGenerator(CORPUS_SEED)
    corpus = []
    for _ in range(PAIRS_PER_CATEGORY):
        for category in CATEGORIES:
            block_u, block_l = generator.block_pair(category)
            corpus.append((category.name, "unrolled", block_u))
            corpus.append((category.name, "loop", block_l))
    return corpus


def reference_result(block, db):
    """``[bound, chain]`` of the reference path, or ``{"error": type}``."""
    try:
        result = precedence_bound(block, db)
    except Exception as exc:  # noqa: BLE001 - recorded by type
        return {"error": type(exc).__name__}
    return [str(result.bound), result.critical_chain]


def compute_records():
    dbs = [(cfg.abbrev, UopsDatabase(cfg)) for cfg in ALL_UARCHS]
    return [{"category": category, "variant": variant,
             "hex": block.raw.hex(),
             "results": {name: reference_result(block, db)
                         for name, db in dbs}}
            for category, variant, block in build_corpus()]


def _dump(records):
    """One record per line: compact, and diffs stay reviewable."""
    lines = ",\n".join(json.dumps(record, sort_keys=True)
                       for record in records)
    return (f'{{"seed": {CORPUS_SEED}, "records": [\n{lines}\n]}}\n'
            ).encode()


@pytest.fixture(scope="module")
def golden():
    with open(CORPUS_PATH) as handle:
        return json.load(handle)["records"]


def test_corpus_covers_every_category_variant_and_uarch(golden):
    assert {(r["category"], r["variant"]) for r in golden} == {
        (c.name, v) for c in CATEGORIES for v in ("unrolled", "loop")}
    for record in golden:
        assert set(record["results"]) == {c.abbrev for c in ALL_UARCHS}


def test_corpus_file_is_canonical(golden):
    with open(CORPUS_PATH, "rb") as handle:
        assert handle.read() == _dump(golden)
    assert [r["hex"] for r in golden] == \
        [block.raw.hex() for _, _, block in build_corpus()]


def test_reference_path_reproduces_corpus(golden):
    assert compute_records() == golden


@pytest.mark.parametrize("cfg", ALL_UARCHS, ids=lambda c: c.abbrev)
def test_columnar_path_reproduces_corpus(golden, cfg):
    """The columnar core's per-form tables give the same bound and chain
    (every block is cold for a fresh core, so each one assembles its
    graph from the per-form table rather than reusing an entry)."""
    core = ColumnarCore(cfg)
    for record in golden:
        want = record["results"][cfg.abbrev]
        raw = bytes.fromhex(record["hex"])
        if isinstance(want, dict):
            with pytest.raises(Exception) as info:
                core.predict_raw(raw, ThroughputMode.UNROLLED)
            assert type(info.value).__name__ == want["error"]
            continue
        detail = core.predict_raw(raw, ThroughputMode.UNROLLED) \
            .precedence_detail
        got = [str(detail.bound), detail.critical_chain]
        assert got == want, (cfg.abbrev, record["hex"])
        assert core.predict_raw(raw, ThroughputMode.UNROLLED) \
            .bounds[Component.PRECEDENCE] == detail.bound


def _regen():
    records = compute_records()
    with open(CORPUS_PATH, "wb") as handle:
        handle.write(_dump(records))
    print(f"wrote {len(records)} records to {CORPUS_PATH}")


if __name__ == "__main__":
    import sys
    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
