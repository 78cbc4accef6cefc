"""Tests for the production serve front: shard processes + service.

Covers the contracts the service is built on: `serve_suite` results
are byte-identical to blocking derivation at ``workers=1``
(cold, warm-through-cache, and across an injected shard-process kill
with only that shard's circuits re-run), shard-child metrics reach
the parent registry exactly once, and the asyncio service
applies admission control and typed validation before any shard sees a
request, including an oversized request line.
"""

import asyncio
import json
import multiprocessing
import os
import socket
import time

import pytest

from repro import obs
from repro.aig.io_bench import to_text
from repro.circuits import layered_random_aig
from repro.harness import serve_throughput
from repro.opt import run_flow
from repro.resilience import faults
from repro.serve import ResultStore, ServeParams, serve_suite
from repro.serve.service import (
    MAX_REQUEST_LINE_BYTES,
    OptimizeService,
    ServiceConfig,
    request,
    run_service,
)

from .util import random_aig

FLOW = "b; rf"


def small_suite(n=4, seed0=70):
    return {
        f"c{i}": random_aig(6, 80 + 20 * i, 3, seed=seed0 + i, name=f"c{i}")
        for i in range(n)
    }


def blocking_texts(suite, flow=FLOW):
    out = {}
    for name, g in suite.items():
        result, _ = run_flow(g.clone(), flow)
        out[name] = to_text(result)
    return out


class TestServeSuiteProcs:
    def test_byte_identical_to_blocking(self):
        suite = small_suite()
        report = serve_suite(suite, ServeParams(flow=FLOW, n_shards=2, workers=1))
        expected = blocking_texts(suite)
        assert sorted(r.name for r in report.results) == sorted(suite)
        for r in report.results:
            assert r.ok and not r.cached
            assert r.bench_text == expected[r.name], r.name

    def test_warm_pass_serves_every_circuit_from_cache(self):
        suite = small_suite()
        store = ResultStore()
        params = ServeParams(flow=FLOW, n_shards=2, workers=1)
        cold = serve_suite(suite, params, store=store)
        warm = serve_suite(suite, params, store=store)
        cold_text = {r.name: r.bench_text for r in cold.results}
        assert all(not r.cached for r in cold.results)
        for r in warm.results:
            assert r.cached and r.shard == -1
            assert r.bench_text == cold_text[r.name]
        assert store.hits == len(suite) and store.misses == len(suite)

    def test_shard_kill_recovers_byte_identical(self):
        suite = small_suite()
        params = ServeParams(flow=FLOW, n_shards=2, workers=1)
        clean = {r.name: r.bench_text for r in serve_suite(suite, params).results}

        metrics = obs.metrics()
        deaths0 = metrics.total("serve_shard_deaths_total")
        respawns0 = metrics.total("serve_shard_respawns_total")
        degraded0 = metrics.total("engine_degradations_total")
        # A *persistent* kill: the shard process dies on every arrival of
        # c2, respawn included, so the retry budget must exhaust and the
        # supervisor must degrade that shard's leftovers in-process (the
        # fault site fires in shard children only — that is what
        # guarantees termination).
        with faults.injected("shard.circuit=kill#circuit=c2"):
            report = serve_suite(suite, params)

        assert sorted(r.name for r in report.results) == sorted(suite)
        for r in report.results:
            assert r.ok, (r.name, r.error)
            assert r.bench_text == clean[r.name], r.name
        assert metrics.total("serve_shard_deaths_total") - deaths0 >= 2
        assert metrics.total("serve_shard_respawns_total") - respawns0 >= 1
        assert metrics.total("engine_degradations_total") - degraded0 >= 1

    @pytest.mark.parametrize("plan", [None, "shard.circuit=kill#circuit=c2"])
    def test_child_flow_metrics_reach_the_parent(self, plan):
        suite = small_suite()
        metrics = obs.metrics()
        rf0 = metrics.value("flow_commands_total", command="rf")
        b0 = metrics.value("flow_commands_total", command="b")
        params = ServeParams(flow=FLOW, n_shards=2, workers=1)
        if plan is None:
            report = serve_suite(suite, params)
        else:
            # Killed attempts never reply; the re-runs (respawned, then
            # degraded in-process) must count each circuit exactly once.
            with faults.injected(plan):
                report = serve_suite(suite, params)
        assert report.ok
        assert metrics.value("flow_commands_total", command="rf") - rf0 == len(suite)
        assert metrics.value("flow_commands_total", command="b") - b0 == len(suite)

    def test_shard_sessions_keep_distinct_labels(self):
        # Forked shards inherit the parent's label sequence; the labels
        # must still differ, or the two shards' session_* series fuse
        # into one when their metric deltas merge into the parent.
        suite = small_suite()
        metrics = obs.metrics()

        def runs_series():
            return {
                c.labels["session"]: c.value
                for c in metrics.counters()
                if c.name == "session_runs_total"
            }

        before = runs_series()
        report = serve_suite(suite, ServeParams(flow=FLOW, n_shards=2, workers=1))
        assert report.ok
        assert {r.shard for r in report.results} == {0, 1}
        new = {k: v for k, v in runs_series().items() if k not in before}
        assert len(new) == 2, new
        assert sum(new.values()) == len(suite)

    def test_concurrent_shards_audit_through_cache(self):
        suite = small_suite()
        store = ResultStore()
        cold_rows, _ = serve_throughput(
            suite, flow=FLOW, n_shards=2, workers=1, store=store
        )
        warm_rows, _ = serve_throughput(
            suite, flow=FLOW, n_shards=2, workers=1, store=store
        )
        assert all(row.identical for row in cold_rows)
        assert all(row.identical and row.cached for row in warm_rows)


class TestServiceValidation:
    """Protocol-level checks that never need a running shard."""

    def _optimize(self, service, message):
        return asyncio.run(service._optimize_inner(message))

    def test_overload_rejection_is_typed(self):
        service = OptimizeService(ServiceConfig(max_pending=0))
        before = obs.metrics().total("serve_rejected_total")
        bench = to_text(random_aig(5, 30, 2, seed=1))
        response = self._optimize(service, {"op": "optimize", "bench": bench})
        assert not response["ok"]
        assert response["error"]["type"] == "overloaded"
        assert response["error"]["limit"] == 0
        assert obs.metrics().total("serve_rejected_total") - before == 1

    def test_missing_bench_is_bad_request(self):
        service = OptimizeService(ServiceConfig())
        response = self._optimize(service, {"op": "optimize"})
        assert not response["ok"] and response["error"]["type"] == "bad_request"

    def test_unknown_command_is_bad_script(self):
        service = OptimizeService(ServiceConfig())
        bench = to_text(random_aig(5, 30, 2, seed=2))
        response = self._optimize(
            service, {"op": "optimize", "bench": bench, "script": "frobnicate"}
        )
        assert not response["ok"] and response["error"]["type"] == "bad_script"

    def test_classifier_script_is_unsupported(self):
        service = OptimizeService(ServiceConfig())
        bench = to_text(random_aig(5, 30, 2, seed=3))
        response = self._optimize(
            service, {"op": "optimize", "bench": bench, "script": "elf"}
        )
        assert not response["ok"] and response["error"]["type"] == "unsupported"

    def test_unknown_op(self):
        service = OptimizeService(ServiceConfig())
        response = asyncio.run(service._dispatch({"op": "nope"}))
        assert not response["ok"] and response["error"]["type"] == "unknown_op"


def start_service(socket_path):
    """Fork ``python -m repro serve``'s body on ``socket_path``; wait for ping."""
    config = ServiceConfig(socket_path=socket_path, script=FLOW, n_shards=1, workers=1)
    proc = multiprocessing.get_context("fork").Process(
        target=run_service, args=(config,)
    )
    proc.start()
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        assert proc.is_alive(), "service process exited early"
        if os.path.exists(socket_path):
            try:
                if request(socket_path, {"op": "ping"}, timeout=2.0).get("ok"):
                    return proc
            except OSError:
                pass
        time.sleep(0.05)
    proc.kill()
    proc.join()
    pytest.fail("service did not become ready")


def stop_service(proc, socket_path):
    if proc.is_alive():
        request(socket_path, {"op": "shutdown"})
        proc.join(timeout=15)
    if proc.is_alive():
        proc.kill()
        proc.join()


@pytest.mark.slow
class TestServiceEndToEnd:
    def test_miss_then_byte_identical_hit_over_socket(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")
        proc = start_service(socket_path)
        g = random_aig(6, 90, 3, seed=5, name="e2e")
        bench = to_text(g)
        try:
            first = request(socket_path, {"op": "optimize", "name": "e2e", "bench": bench})
            assert first["ok"] and first["cached"] is False
            expected, _ = run_flow(g.clone(), FLOW)
            assert first["bench"] == to_text(expected)

            second = request(socket_path, {"op": "optimize", "name": "e2e", "bench": bench})
            assert second["ok"] and second["cached"] is True
            assert second["bench"] == first["bench"]

            stats = request(socket_path, {"op": "stats"})
            assert stats["cache"]["hits"] == 1 and stats["cache"]["misses"] == 1

            metrics = request(socket_path, {"op": "metrics"})
            assert "serve_cache_hits_total" in metrics["text"]

            request(socket_path, {"op": "shutdown"})
            proc.join(timeout=15)
            assert proc.exitcode == 0
        finally:
            if proc.is_alive():
                proc.kill()
                proc.join()

    def test_metrics_op_lists_shard_flow_series(self, tmp_path):
        socket_path = str(tmp_path / "serve.sock")
        # The forked service starts from this process's registry.
        rf0 = obs.metrics().value("flow_commands_total", command="rf")
        proc = start_service(socket_path)
        bench = to_text(random_aig(6, 90, 3, seed=7, name="metered"))
        try:
            served = request(socket_path, {"op": "optimize", "bench": bench})
            assert served["ok"] and served["cached"] is False
            text = request(socket_path, {"op": "metrics"})["text"]
            samples = obs.parse_prometheus(text)
            rf = [
                value
                for labels, value in samples.get("flow_commands_total", [])
                if labels.get("command") == "rf"
            ]
            assert rf == [rf0 + 1]
        finally:
            stop_service(proc, socket_path)

    def test_oversized_line_is_typed_and_connection_survives(self, tmp_path):
        """A request line over the limit gets ``too_large``; the same
        connection then serves a normal optimize request."""
        socket_path = str(tmp_path / "serve.sock")
        # The forked service starts from this process's registry.
        registry = obs.metrics()
        too_large0 = registry.total("serve_request_too_large_total")
        rejected0 = registry.total("serve_rejected_total")
        proc = start_service(socket_path)
        big = layered_random_aig(14, 5500, seed=11, name="layered-5k")
        oversized = {"op": "optimize", "name": "layered-5k", "bench": to_text(big)}
        line = json.dumps(oversized).encode() + b"\n"
        assert len(line) > MAX_REQUEST_LINE_BYTES
        small = random_aig(6, 90, 3, seed=6, name="after")
        follow_up = {"op": "optimize", "name": "after", "bench": to_text(small)}
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(60.0)
                sock.connect(socket_path)
                replies = sock.makefile("rb")
                sock.sendall(line)
                rejected = json.loads(replies.readline())
                assert not rejected["ok"]
                assert rejected["error"]["type"] == "too_large"
                assert rejected["error"]["limit"] == MAX_REQUEST_LINE_BYTES
                sock.sendall(json.dumps(follow_up).encode() + b"\n")
                served = json.loads(replies.readline())
                replies.close()
            assert served["ok"] and served["cached"] is False
            expected, _ = run_flow(small.clone(), FLOW)
            assert served["bench"] == to_text(expected)

            text = request(socket_path, {"op": "metrics"})["text"]
            samples = obs.parse_prometheus(text)

            def total(name):
                return sum(value for _labels, value in samples.get(name, []))

            assert total("serve_request_too_large_total") - too_large0 == 1
            assert total("serve_rejected_total") == rejected0
        finally:
            stop_service(proc, socket_path)
