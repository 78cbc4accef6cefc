"""Sharded multi-circuit serving.

The engine (:mod:`repro.engine`) parallelizes one refactor pass over one
network; this subsystem serves a whole *suite* of circuits in flight:

* :mod:`repro.serve.shard` — deterministic LPT partition of the suite
  across shards (:func:`assign_shards` / :class:`ShardPlan`).
* :mod:`repro.serve.proc` — the one execution tier: :func:`run_circuit`
  serves one circuit on a warm shard session; :class:`ShardSupervisor`
  runs one forked :class:`ShardHost` process per shard, merges each
  reply's metrics delta into this process's registry, respawns dead
  shards and degrades hopeless ones to in-process execution.
* :mod:`repro.serve.stream` — the library orchestrator:
  :func:`serve_stream` yields per-circuit results in completion order
  instead of blocking on the slowest shard; :func:`serve_suite` drains
  it into a :class:`ServeReport` with throughput statistics.
* :mod:`repro.serve.store` — the content-addressed result cache
  (:class:`ResultStore`): finished results keyed by ``(structural
  digest, normalized script, registry version)``, fronting both the
  library and the service so repeat structures cost a hash instead of
  a flow.
* :mod:`repro.serve.service` — the long-lived entrypoint
  (``python -m repro serve``): an asyncio JSON-lines service over a
  unix socket with admission control in front of the same shard
  processes.

Quick use::

    from repro.circuits import epfl_suite
    from repro.serve import ServeParams, serve_suite

    report = serve_suite(epfl_suite("tiny"), ServeParams(flow="rf", n_shards=2))
    for r in report.results:          # completion order
        print(r.order, r.name, r.n_ands_before, "->", r.n_ands)

At ``workers=1`` every served result is byte-identical (BENCH text) to a
blocking ``run_flow`` on that circuit alone; see ``docs/serving.md``.
"""

from .proc import ServeParams, ServeResult, ShardHost, ShardSupervisor, run_circuit
from .shard import ShardPlan, assign_shards
from .store import CachedResult, ResultStore
from .stream import ServeReport, serve_stream, serve_suite

__all__ = [
    "CachedResult",
    "ResultStore",
    "ServeParams",
    "ServeReport",
    "ServeResult",
    "ShardHost",
    "ShardPlan",
    "ShardSupervisor",
    "assign_shards",
    "run_circuit",
    "serve_stream",
    "serve_suite",
]
