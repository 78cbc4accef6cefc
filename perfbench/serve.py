"""The serve-closed workload: a closed loop against ``python -m repro serve``.

One benchmark process holds two connections (one per core) to a default
service (2 shards, ``b; rf``).  Each connection sends its next request only
after the previous reply arrived, in blocks of 25 requests:

* 12 fresh circuits (misses): seeded PI permutations and complements of
  two small arithmetic bases, 6 of each, so every block carries the same
  work;
* 12 resubmissions (hits): a circuit this connection already had served,
  with every signal renamed — structurally identical, textually new;
* 1 request over the service's 64 KiB request-line limit (4%): an
  industrial-style design sent whole.  The service drops the connection
  (a known defect); the client counts a failed operation and reconnects.
  Such requests are never shrunk, skipped or re-encoded.

The even split of misses and hits weighs the two passes of
``benchmarks/bench_serve_throughput.py`` equally: its cold pass serves a
suite with 0% repeats, its warm pass serves it again with 100% repeats.

Latency runs from send to reply; a failed request ranks as +inf.  A
block's gated figures (its served time, reply ANDs and depth) cover its 24
in-limit requests only, so they do not move when the line limit is fixed
and the oversize request starts being answered.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np

from repro.aig.graph import AIG
from repro.aig.io_bench import from_text, to_text
from repro.circuits import industrial_design, multiplier, square

from common import Tracer, median, percentile, ratio, tree_peak_rss_mb

CONNECTIONS = 2
FRESH_PER_BASE = 6
RESUBMITS_PER_BASE = 6
MIN_BLOCKS = 4
"""Per connection; 2 x 4 blocks x 25 = 200 requests leave 10 samples
beyond p95."""

OVERSIZE_DESIGN = 1
LINE_LIMIT = 64 * 1024
_BOOT_TIMEOUT_S = 60.0
_REQUEST_TIMEOUT_S = 60.0


def _bases() -> list[AIG]:
    # 14 and 8 PIs: every reply is checked exhaustively.
    return [multiplier(7), square(8)]


def _variant(base: AIG, rng: np.random.Generator, name: str) -> AIG:
    """``base`` with its PIs permuted and some complemented: a new structure
    (the store's digest keys on PI positions) of the same size."""
    g = AIG(name)
    new_pis = [g.add_pi() for _ in range(base.n_pis)]
    perm = rng.permutation(base.n_pis)
    flips = rng.integers(0, 2, size=base.n_pis)
    lits = {0: 0}
    for index, pi in enumerate(base.pis):
        lits[pi] = new_pis[perm[index]] ^ int(flips[index])

    def mapped(lit: int) -> int:
        return lits[lit >> 1] ^ (lit & 1)

    for node in base.iter_ands():
        f0, f1 = base.fanin_lits(node)
        lits[node] = g.add_and(mapped(f0), mapped(f1))
    for lit in base.pos:
        g.add_po(mapped(lit))
    return g


_SIGNAL = re.compile(r"\b(n|po)(\d+)\b")
_LETTERS = "abcdefhijkmqrstuvwxyz"


def _renamed(text: str, variant: int) -> str:
    """Every signal of a BENCH text renamed, keeping the text's length."""
    letter = _LETTERS[variant % len(_LETTERS)]
    return _SIGNAL.sub(
        lambda m: (letter if m.group(1) == "n" else letter + "o") + m.group(2), text
    )


# -- the service process ------------------------------------------------------


class Service:
    """A ``python -m repro serve`` child in its own session (process group)."""

    def __init__(self, workdir, src) -> None:
        self.socket_path = os.path.relpath(workdir / "s.sock")
        env = dict(os.environ, PYTHONPATH=str(src))
        self.log = open(workdir / "serve.log", "ab")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", "s.sock"],
            cwd=workdir,
            env=env,
            stdout=self.log,
            stderr=self.log,
            start_new_session=True,
        )
        deadline = time.monotonic() + _BOOT_TIMEOUT_S
        while True:
            if self.process.poll() is not None:
                self.close()
                raise RuntimeError("the service exited during boot")
            try:
                if self.request({"op": "ping"}).get("ok"):
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError("the service did not answer within its boot timeout")
            time.sleep(0.01)

    def connect(self) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(_REQUEST_TIMEOUT_S)
        sock.connect(self.socket_path)
        return sock

    def request(self, payload: dict) -> dict:
        with self.connect() as sock:
            line = exchange(sock, json.dumps(payload).encode() + b"\n")
        return json.loads(line)

    def close(self) -> None:
        """Shut down, wait for the process, and reap anything left in its group."""
        if self.process.poll() is None:
            try:
                self.request({"op": "shutdown"})
            except (OSError, ValueError):
                pass
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.log.close()


def exchange(sock: socket.socket, payload: bytes) -> bytes:
    """Send one request line and read one reply line; ``b""`` when dropped."""
    sock.sendall(payload)
    buffer = b""
    while not buffer.endswith(b"\n"):
        chunk = sock.recv(1 << 16)
        if not chunk:
            return b""
        buffer += chunk
    return buffer


# -- the closed loop ----------------------------------------------------------


class Connection(threading.Thread):
    """One closed-loop client connection running blocks until the budget ends."""

    def __init__(self, run, service, index, bases, oversize, started) -> None:
        super().__init__(name=f"client-{index}")
        self.run_state = run
        self.service = service
        self.index = index
        self.bases = bases
        self.oversize = oversize  # (graph, BENCH text)
        self.started = started
        self.tracer = Tracer()
        self.records: list[dict] = []
        self.block_walls: dict[bool, list[float]] = {False: [], True: []}
        self.block_served: list[float] = []
        self.block_ands: list[int] = []
        self.block_levels: list[int] = []
        self.circuits: dict[str, AIG] = {}
        self.served = {0: [], 1: []}  # base -> keys served fresh on this link
        self.error: BaseException | None = None

    def _block(self, number: int, rng: np.random.Generator) -> list[tuple]:
        """``(kind, base, tag, text)`` per request; a resubmission's tag and
        text are drawn when it is sent, from what has been served by then."""
        kinds = (
            [("fresh", b) for b in (0, 1) for _ in range(FRESH_PER_BASE)]
            + [("resubmit", b) for b in (0, 1) for _ in range(RESUBMITS_PER_BASE)]
            + [("oversize", None)]
        )
        kinds = [kinds[i] for i in rng.permutation(len(kinds))]
        if number == 0:  # each base is served once before any resubmission
            for base in (0, 1):
                first = kinds.index(("fresh", base))
                kinds.insert(base, kinds.pop(first))
        block = []
        for position, (kind, base) in enumerate(kinds):
            tag = f"c{self.index}b{number}r{position}"
            if kind == "fresh":
                g = _variant(self.bases[base], rng, tag)
                self.circuits[tag] = g
                block.append((kind, base, tag, to_text(g)))
            elif kind == "resubmit":
                block.append((kind, base, None, None))
            else:
                self.circuits[tag] = self.oversize[0]
                block.append((kind, None, tag, self.oversize[1]))
        return block

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as error:  # reported by the main thread
            self.error = error

    def _loop(self) -> None:
        budget = self.run_state.seconds
        sock = self.service.connect()
        number, last = 0, 0.0
        try:
            while number < MIN_BLOCKS or (
                time.perf_counter() - self.started + last <= budget
            ):
                rng = np.random.default_rng([self.run_state.seed, self.index, number])
                block = self._block(number, rng)
                traced = self.run_state.trace and number % 2 == 1
                self.tracer.enabled = traced
                block_start = time.perf_counter()
                served_s = ands = levels = 0
                with self.tracer.span("block", "bench"):
                    for kind, base, tag, text in block:
                        if kind == "resubmit":
                            served = self.served[base]
                            tag = served[int(rng.integers(len(served)))]
                            text = _renamed(to_text(self.circuits[tag]), len(self.records))
                        record, sock = self._request(sock, kind, tag, text)
                        self.records.append(record)
                        if record["ok"] and kind != "oversize":
                            served_s += record["latency"]
                            ands += record["n_ands"]
                            levels += record["level"]
                            if kind == "fresh":
                                self.served[base].append(tag)
                last = time.perf_counter() - block_start
                self.block_walls[traced].append(last)
                self.block_served.append(served_s)
                self.block_ands.append(ands)
                self.block_levels.append(levels)
                number += 1
        finally:
            self.tracer.enabled = False
            sock.close()

    def _request(self, sock, kind, tag, text):
        payload = json.dumps({"op": "optimize", "name": tag, "bench": text}).encode()
        payload += b"\n"
        record = {"kind": kind, "tag": tag, "ok": False, "bytes": len(payload)}
        with self.tracer.span("request", "serve") as span:
            started = time.perf_counter()
            try:
                line = exchange(sock, payload)
            except OSError:
                line = b""
            latency = time.perf_counter() - started
        if not line:
            # The service dropped the connection: a failed operation.
            record["latency"] = float("inf")
            sock.close()
            return record, self.service.connect()
        reply = json.loads(line)
        record["latency"] = latency
        if reply.get("ok"):
            record.update(
                ok=True,
                cached=bool(reply.get("cached")),
                runtime=float(reply.get("runtime", 0.0)),
                n_ands=int(reply["n_ands"]),
                level=int(reply["level"]),
                bench=reply["bench"],
            )
            if span is not None and not record["cached"]:
                span.handed = {"opt": min(record["runtime"], latency)}
        else:
            record["error"] = reply.get("error")
        return record, sock


def serve_closed(run, src):
    """Served latency under a closed loop of two connections."""
    bases = _bases()
    oversize_graph = industrial_design(OVERSIZE_DESIGN)
    oversize = (oversize_graph, to_text(oversize_graph))
    if len(oversize[1]) <= LINE_LIMIT:
        raise RuntimeError("the oversize request no longer exceeds 64 KiB")

    def build(attempt):
        workdir = run.workdir / f"serve-{attempt}"
        workdir.mkdir(parents=True, exist_ok=True)
        return Service(workdir, src)

    service = run.set_up(build, teardown=lambda s: s.close())
    try:
        return _measure(run, service, bases, oversize)
    finally:
        service.close()


def _measure(run, service, bases, oversize):
    for index, base in enumerate(bases):
        run.register(f"base{index}", base)
    run.circuits[f"design_{OVERSIZE_DESIGN}"] = oversize[0].n_ands

    # Untimed warm-up: one miss and one hit of a circuit outside the stream.
    warm = to_text(_variant(bases[0], np.random.default_rng([run.seed, CONNECTIONS, 0]), "warm"))
    for text in (warm, _renamed(warm, 0)):
        if not service.request({"op": "optimize", "name": "warm", "bench": text}).get("ok"):
            raise RuntimeError("the warm-up request failed")

    started = time.perf_counter()
    links = [
        Connection(run, service, i, bases, oversize, started)
        for i in range(CONNECTIONS)
    ]
    for link in links:
        link.start()
    for link in links:
        link.join()
    loop_s = time.perf_counter() - started
    for link in links:
        if link.error is not None:
            raise link.error

    stats = service.request({"op": "stats"})
    prom = service.request({"op": "metrics"}).get("text", "")
    peak_rss = tree_peak_rss_mb(service.process.pid)

    records = [r for link in links for r in link.records]
    for link in links:
        for r in link.records:
            run.attempted += 1
            if not r["ok"]:
                reason = f"{r['tag']}: {r.get('error', 'connection dropped')}"
                run.fail(reason, expected=r["kind"] == "oversize")
                continue
            out = from_text(r["bench"], name=r["tag"])
            if out.n_ands != r["n_ands"]:
                run.fail(f"{r['tag']}: reply n_ands disagrees with its BENCH")
                continue
            run.check(r["tag"], link.circuits[r["tag"]], out)
            r["bench"] = None

    latencies = [r["latency"] for r in records]
    hits = [r for r in records if r["ok"] and r["cached"]]
    misses = [r for r in records if r["ok"] and not r["cached"]]
    oversized = [r for r in records if r["kind"] == "oversize"]
    ms = 1000.0
    run.samples.update(
        {
            "serve.p50_ms": len(latencies),
            "serve.p95_ms": len(latencies),
            "serve.hit_p50_ms": len(hits),
            "serve.miss_p50_ms": len(misses),
            "serve.miss_p95_ms": len(misses),
        }
    )
    run.turns = sum(len(link.block_ands) for link in links)  # blocks
    run.extra["oversize_share"] = ratio(len(oversized), len(records))
    run.extra["oversize_request_bytes"] = min((r["bytes"] for r in oversized), default=0)
    for link in links:
        for traced, walls in link.block_walls.items():
            for wall in walls:
                run.op_time(("block", link.index), traced, wall)

    metrics = {
        "setup_s": median(run.setup_times),
        "peak_rss_mb": peak_rss,
        "batch_s": median(s for l in links for s in l.block_served),
        "ands": median(a for l in links for a in l.block_ands),
        "levels": median(v for l in links for v in l.block_levels),
    }
    shards = stats.get("shards", {}).values()
    layer = {
        "serve.p50_ms": ms * percentile(latencies, 50),
        "serve.p95_ms": ms * percentile(latencies, 95),
        "serve.ok_per_s": ratio(len(hits) + len(misses), loop_s),
        "serve.hit_p50_ms": ms * percentile([r["latency"] for r in hits], 50),
        "serve.miss_p50_ms": ms * percentile([r["latency"] for r in misses], 50),
        "serve.miss_p95_ms": ms * percentile([r["latency"] for r in misses], 95),
        "serve.flow_p50_ms": ms * percentile([r["runtime"] for r in misses], 50),
        "serve.overhead_p50_ms": ms
        * percentile([r["latency"] - r["runtime"] for r in misses], 50),
        "serve.hit_rate": float(stats.get("cache", {}).get("hit_rate", 0.0)),
        "serve.evictions": float(stats.get("cache", {}).get("evictions", 0)),
        "serve.respawns": float(sum(s.get("respawns", 0) for s in shards)),
        "serve.rejected": _prom_total(prom, "serve_rejected_total"),
        "serve.oversize_failures": float(sum(not r["ok"] for r in oversized)),
    }
    run.tracers = [link.tracer for link in links]
    return metrics, layer


def _prom_total(text: str, name: str) -> float:
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name) and not line.startswith("#"):
            total += float(line.rsplit(" ", 1)[1])
    return total
