"""Streamed execution of a flow over a sharded circuit suite.

:func:`serve_stream` is the library entry point: it answers what it can
from an optional content-addressed :class:`~repro.serve.store.ResultStore`,
shards the rest (:mod:`repro.serve.shard`) across forked shard processes
(:class:`repro.serve.proc.ShardSupervisor`), and yields a
:class:`ServeResult` per circuit **in completion order** — a fast
circuit on shard 0 is delivered while a slow circuit on shard 1 is
still refactoring, so consumers (dashboards, downstream tooling, the
throughput benchmark) never block on the slowest shard.

Two properties the tests pin down:

* **Content determinism.**  Completion *order* depends on timing, but
  each circuit's *result* does not: every circuit is parsed fresh from
  its BENCH text in a shard process with per-run caches, and at
  ``workers=1`` every engine command delegates to the sequential
  operators — so a served circuit's BENCH text is byte-identical to a
  blocking ``run_flow`` on that circuit alone, through shard kills and
  respawns included.
* **Isolation.**  A circuit whose flow raises reports the error in its
  result; the other circuits of the shard still complete.

:func:`serve_suite` is the blocking wrapper: it drains the stream and
returns a :class:`ServeReport` with the plan and aggregate throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .. import obs
from ..aig.graph import AIG
from ..aig.io_bench import to_text
from .proc import ServeParams, ServeResult, ShardSupervisor
from .shard import ShardPlan, assign_shards
from .store import ResultStore


@dataclass
class ServeReport:
    """Aggregate view of a completed serving run."""

    plan: ShardPlan
    results: list[ServeResult] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def circuits_per_second(self) -> float:
        return len(self.results) / self.wall_time if self.wall_time > 0 else 0.0

    def result_of(self, name: str) -> ServeResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)


def serve_stream(
    suite: dict[str, AIG],
    params: ServeParams | None = None,
    classifier=None,
    cost: dict[str, int] | None = None,
    store: ResultStore | None = None,
) -> Iterator[ServeResult]:
    """Serve ``suite`` through ``params.flow``; yield results as they land.

    Input graphs are never mutated (shards work on parsed BENCH text).
    ``store`` puts the content-addressed cache in front: hits are
    yielded first (``cached`` set, ``shard`` -1, bench text
    byte-identical to the original miss), the misses are sharded and
    run, and their clean results are inserted on completion.
    Deadline-expired and errored results never enter the store, and a
    quality-budget run bypasses it entirely.
    """
    params = params or ServeParams()
    if params.quality_budget_s is not None:
        # Tuned content depends on the wall clock: the store can neither
        # answer nor learn from a quality-budget run.
        store = None
    keys: dict[str, tuple] = {}
    hits: list[ServeResult] = []
    misses: dict[str, AIG] = {}
    for name, g in suite.items():
        hit = None
        if store is not None:
            keys[name] = store.key(g, params.flow)
            hit = store.lookup_result(keys[name], name, g)
        if hit is not None:
            hits.append(hit)
        else:
            misses[name] = g
    plan = assign_shards(misses, params.n_shards, cost)
    supervisor = ShardSupervisor(plan.n_shards, params, classifier)
    try:
        # Shards name each output after its graph, exactly like a
        # blocking run_flow; the result is reported under its suite key.
        names: list[str] = []
        for host, members in zip(supervisor.hosts, plan.shards):
            for name in members:
                host.submit(len(names), misses[name].name, to_text(misses[name]))
                names.append(name)
        pending = len(names)
        order = 0
        for hit in hits:
            hit.order = order
            order += 1
            obs.counter("serve_circuits_total", outcome="ok").add(1)
            yield hit
        while pending:
            reply = supervisor.collect()
            if reply is None:
                continue
            req_id, result = reply
            result.name = names[req_id]
            if store is not None:
                store.insert_result(keys[result.name], result)
            pending -= 1
            result.order = order
            order += 1
            yield result
    finally:
        supervisor.close()


def serve_suite(
    suite: dict[str, AIG],
    params: ServeParams | None = None,
    classifier=None,
    cost: dict[str, int] | None = None,
    store: ResultStore | None = None,
) -> ServeReport:
    """Blocking serve: drain :func:`serve_stream`, return the full report.

    ``store`` forwards to :func:`serve_stream`'s content-addressed cache
    front; the reported ``plan`` still covers the whole suite (it is the
    logical assignment — cache hits simply never reach their shard).
    """
    params = params or ServeParams()
    plan = assign_shards(suite, params.n_shards, cost)
    with obs.span(
        "serve.suite", circuits=len(suite), shards=len(plan.shards), flow=params.flow
    ) as suite_span:
        results = list(serve_stream(suite, params, classifier, cost, store))
        suite_span.set(ok=all(r.ok for r in results))
    return ServeReport(plan=plan, results=results, wall_time=suite_span.duration)
