"""``facile serve`` as a separate process, and the closed-loop client.

The server runs with its default flags (only ``--port 0`` and the
µarch are given) in its own process, so the load generator here never
shares its interpreter lock.  The client uses ``http.client`` directly,
so client code stays constant whatever the repository's own client does.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from spans import Tracer, offset

UARCH = "SKL"
BULK_PATH = "/v1/predict/bulk"
HEADERS = {"Content-Type": "application/json"}

#: Runs ``python -m repro.cli`` with Python's own SIGINT handler: a
#: process started in the background can inherit SIGINT ignored, and
#: the server shuts its shard down cleanly only on KeyboardInterrupt.
LAUNCH = ("import runpy, signal; "
          "signal.signal(signal.SIGINT, signal.default_int_handler); "
          "runpy.run_module('repro.cli', run_name='__main__', "
          "alter_sys=True)")

#: How long the server may take to print its ``serving`` event.
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class Server:
    """One ``facile serve`` process (and the shard process it forks)."""

    def __init__(self, root: str):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        env.pop("REPRO_FAULTS", None)
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, "-c", LAUNCH, "serve", "--port", "0",
             "--uarch", UARCH],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        self.log: List[str] = []
        self.port: Optional[int] = None
        serving = threading.Event()
        # The server logs to stderr for its whole life; a reader thread
        # keeps the pipe drained and picks the port off ``serving``.
        self._reader = threading.Thread(target=self._read, args=(serving,),
                                        daemon=True)
        self._reader.start()
        if not serving.wait(START_TIMEOUT_S) or self.port is None:
            self.stop()
            raise RuntimeError("facile serve did not start: "
                               + " | ".join(self.log[-5:]))

    def _read(self, serving: threading.Event) -> None:
        for line in self.proc.stderr:
            text = line.decode("utf-8", "replace").strip()
            self.log.append(text)
            del self.log[:-50]
            if not serving.is_set():
                try:
                    event = json.loads(text)
                except ValueError:
                    continue
                if event.get("event") == "serving":
                    self.port = int(event["port"])
                    serving.set()
        serving.set()

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=120)

    def get(self, path: str) -> bytes:
        conn = self.connection()
        try:
            status, body = request(conn, "GET", path, None)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path}: HTTP {status}")
        return body

    def pids(self) -> List[int]:
        """The server and its child processes (the shard)."""
        children = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid:
                children.append(int(entry))
        return [self.proc.pid] + children

    def peak_rss_kb(self) -> int:
        """Summed peak resident memory (VmHWM) of server and shard."""
        total = 0
        for pid in self.pids():
            try:
                with open(f"/proc/{pid}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1])
            except OSError:
                continue
        return total

    def stop(self) -> None:
        """Interrupt the server (it closes its shard), wait, and make
        sure no process of it is left."""
        children = self.pids()[1:]
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(STOP_TIMEOUT_S)
        deadline = time.monotonic() + STOP_TIMEOUT_S
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
            while _running(pid) and time.monotonic() < deadline:
                time.sleep(0.02)
        self._reader.join(STOP_TIMEOUT_S)
        self.proc.stderr.close()


def _running(pid: int) -> bool:
    """Whether *pid* exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def request(conn: http.client.HTTPConnection, method: str, path: str,
            body: Optional[bytes]) -> Tuple[int, bytes]:
    conn.request(method, path, body=body, headers=HEADERS)
    response = conn.getresponse()
    return response.status, response.read()


def bulk_body(blocks: Sequence[bytes], mode: str) -> bytes:
    return json.dumps({"blocks": [{"hex": raw.hex()} for raw in blocks],
                       "mode": mode}).encode("utf-8")


def closed_loop(server: Server, bodies: Sequence[bytes], seconds: float,
                clients: int, tracer: Optional[Tracer]) -> Dict:
    """*clients* connections, each sending its next bulk request only
    after the previous answer, until *seconds* have passed or the
    bodies run out.

    Returns the phase's wall time and, per answered request, its index,
    HTTP status, body and latency.
    """
    counter = itertools.count()
    results: List[List[Tuple[int, int, bytes, float]]] = \
        [[] for _ in range(clients)]
    tracers = [Tracer() if tracer is not None else None
               for _ in range(clients)]
    ends = [0.0] * clients
    failures: List[BaseException] = []
    start_gate = threading.Barrier(clients + 1)
    deadline = [0.0]
    start = [0.0]

    def client(slot: int) -> None:
        conn = server.connection()
        clock = time.perf_counter
        own = tracers[slot]
        try:
            start_gate.wait()
            while True:
                index = next(counter)
                now = clock()
                if index >= len(bodies) or now >= deadline[0]:
                    break
                if own is None:
                    status, body = request(conn, "POST", BULK_PATH,
                                           bodies[index])
                else:
                    with own.span("op", "POST " + BULK_PATH, index):
                        status, body = request(conn, "POST", BULK_PATH,
                                               bodies[index])
                end = clock()
                results[slot].append((index, status, body, end - now))
                ends[slot] = end
        except BaseException as exc:  # re-raised by the caller
            failures.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(slot,))
               for slot in range(clients)]
    for thread in threads:
        thread.start()
    start[0] = time.perf_counter()
    deadline[0] = start[0] + seconds
    start_gate.wait()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    if tracer is not None:
        for own in tracers:
            tracer.spans.extend(offset(own.spans, len(tracer.spans)))
    answered = list(itertools.chain.from_iterable(results))
    return {"seconds": max(ends) - start[0] if answered else 0.0,
            "answered": answered}


def scrape(server: Server) -> Dict[str, float]:
    """The ``service.*`` and ``engine.batching.*`` per-layer metrics,
    from one read of ``/v1/metrics`` and ``/v1/stats``."""
    from repro.obs.metrics import parse_exposition

    families = parse_exposition(server.get("/v1/metrics").decode("utf-8"))
    stats = json.loads(server.get("/v1/stats"))

    def samples(name: str, **labels) -> float:
        family = families.get(name)
        for suffix in ("_sum", "_count"):
            if family is None and name.endswith(suffix):
                family = families.get(name[:-len(suffix)])
        if family is None:
            return 0.0
        return sum(value for sample_name, sample_labels, value
                   in family["samples"]
                   if sample_name == name
                   and all(sample_labels.get(k) == v
                           for k, v in labels.items()))

    def hist_mean(name: str, **labels) -> float:
        count = samples(name + "_count", **labels)
        return samples(name + "_sum", **labels) / count if count else 0.0

    hits = samples("facile_response_cache_hits_total", uarch=UARCH)
    misses = samples("facile_response_cache_misses_total", uarch=UARCH)
    counters = stats.get("counters", {})
    return {
        "service.server.request_ms": hist_mean(
            "facile_request_duration_ms", route=BULK_PATH),
        "service.server.fragment_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0),
        "engine.batching.dispatch_ms": hist_mean(
            "facile_span_duration_ms", span="batcher.dispatch"),
        "engine.batching.batch_size": hist_mean(
            "facile_batch_window_size"),
        "service.shard.roundtrip_ms": hist_mean(
            "facile_span_duration_ms", span="shard.roundtrip"),
        "service.shard.failures": float(
            counters.get("shard_respawns", 0)
            + counters.get("shard_fallback", 0)
            + samples("facile_batcher_shed_total")
            + samples("facile_batcher_deadline_drops_total")),
    }
