"""In-memory spans for the benchmark's traced runs.

A span records one call the benchmark makes into a layer of the
program: its name (a layer boundary: ``decode``, ``fragment_lookup``,
``batcher.dispatch``, ``shard.roundtrip``, ``compute``, ``serialize``,
``measure``, or ``op`` for one whole timed operation), the public
function it timed, start and end on the monotonic clock, its parent span
and a trace id shared by every span of one operation.  Spans stay in
memory and are written out once, when the run ends.

The names match the layer boundaries of the program's own spans, so a
later in-program span can reuse them and a bench trace and a live
``/v1/metrics`` scrape read alike.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List

#: The span names a trace may use.
SPAN_NAMES = ("op", "decode", "fragment_lookup", "batcher.dispatch",
              "shard.roundtrip", "compute", "serialize", "measure")


class Tracer:
    """Collects spans; ``span`` is a context manager around one call."""

    def __init__(self) -> None:
        self.spans: List[Dict] = []
        self._stack: List[int] = []

    def span(self, name: str, call: str, trace: int,
             blocks: int = 1) -> "_Span":
        """A span around one call that handles *blocks* blocks."""
        if name not in SPAN_NAMES:
            raise ValueError(f"unknown span name {name!r}")
        return _Span(self, name, call, trace, blocks)

    def write(self, path: str) -> None:
        """Write every span, with its self time, as one JSON document."""
        selfs = self_times(self.spans)
        with open(path, "w") as handle:
            json.dump({"spans": [dict(span, self=selfs[i])
                                 for i, span in enumerate(self.spans)],
                       "summary": summarize(self.spans)}, handle)


class _Span:
    def __init__(self, tracer: Tracer, name: str, call: str,
                 trace: int, blocks: int) -> None:
        self.tracer = tracer
        self.record = {"name": name, "call": call, "trace": trace,
                       "blocks": blocks,
                       "parent": (tracer._stack[-1] if tracer._stack
                                  else None),
                       "start": 0.0, "end": 0.0}

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        tracer._stack.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record["start"] = time.monotonic()
        return self

    def __exit__(self, *exc) -> None:
        self.record["end"] = time.monotonic()
        self.tracer._stack.pop()


def self_times(spans: List[Dict]) -> List[float]:
    """Each span's duration minus the part its children cover.

    Children of one parent never overlap (calls are sequential), so the
    covered part is the sum of the children's durations, clipped to the
    parent's interval.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        parent = span["parent"]
        if parent is None:
            continue
        outer = spans[parent]
        start = max(span["start"], outer["start"])
        end = min(span["end"], outer["end"])
        if end > start:
            covered[parent] += end - start
    return [max(0.0, span["end"] - span["start"] - covered[i])
            for i, span in enumerate(spans)]


def summarize(spans: List[Dict]) -> Dict[str, Dict[str, float]]:
    """Count, total and self seconds per ``name/call``."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for index, span in enumerate(spans):
        entry = out.setdefault(f"{span['name']}/{span['call']}",
                               {"count": 0, "total_s": 0.0, "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span["end"] - span["start"]
        entry["self_s"] += selfs[index]
    return out


def per_block(spans: List[Dict], name: str, call: str) -> float:
    """Mean seconds per block over the spans of *name* timing *call*
    (0.0 when there are none)."""
    chosen = [s for s in spans if s["name"] == name and s["call"] == call]
    blocks = sum(s["blocks"] for s in chosen)
    return (sum(s["end"] - s["start"] for s in chosen) / blocks
            if blocks else 0.0)


def offset(spans: List[Dict], by: int) -> List[Dict]:
    """*spans* with parent indexes shifted by *by*, for appending them
    after *by* spans of another tracer."""
    return [dict(s, parent=None if s["parent"] is None
                 else s["parent"] + by) for s in spans]
