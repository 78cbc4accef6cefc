"""Process-sharded serving: one warm worker process per shard.

Every circuit :mod:`repro.serve` optimizes, for the library call and the
service alike, goes through the same three pieces:

* :func:`run_circuit` is the one per-circuit runner: parse the BENCH
  text, run the flow on the shard's warm :class:`repro.opt.OptSession`
  (or :func:`repro.tune.tune` under a quality budget), turn deadline
  expiry into a valid prefix and any other failure into
  ``ServeResult.error`` — inside one ``serve.circuit`` span, with the
  ``serve_circuit_seconds`` / ``serve_circuits_total`` metrics.
* :class:`ShardHost` owns one forked shard worker: a private inbox
  queue, the worker process, and the ``inflight`` ledger of submitted
  but unfinished circuits — exactly what a respawn must re-run.  The
  child body (:func:`_shard_worker_main`) builds one warm session and
  serves circuits off its inbox until told to stop.  Circuits cross the
  boundary as BENCH text — the serving wire format — never as pickled
  AIG objects; each reply carries the :class:`ServeResult` (flow report
  included) and the metrics registry delta that request produced.
* :class:`ShardSupervisor` forks the hosts around one shared outbox,
  collects replies (:meth:`ShardSupervisor.collect`, which folds each
  delta into this process's registry, so every ``flow_*`` / ``engine_*``
  / ``session_*`` / ``tune_*`` series a child records shows up here),
  and recovers dead shards.

Failure model: a shard process that dies — SIGKILL, OOM, a segfaulting
extension — is detected by the supervisor (``inflight`` non-empty,
process dead), counted (``serve_shard_deaths_total``), and respawned
with **only its unfinished circuits** resubmitted; completed results
were already delivered and are never recomputed.  Respawns follow the
engine's :class:`repro.resilience.RetryPolicy` budget; a shard that
keeps dying degrades to in-process sequential execution in the
supervisor (``record_degradation``), which also breaks deterministic
kill loops injected at the ``shard.circuit`` fault site — the site fires
in shard children only, never in the supervisor.  At ``workers=1`` every
recovery path re-derives byte-identical results, so a suite served
through kills matches a clean run exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import time
from dataclasses import dataclass

from .. import obs
from ..aig.io_bench import from_text, to_text
from ..errors import DeadlineExceeded
from ..opt.flow import FlowReport
from ..opt.registry import default_registry
from ..opt.session import OptSession
from ..resilience import DEFAULT_RETRY_POLICY, Deadline, RetryPolicy, policy
from ..resilience.faults import active as faults_active
from ..resilience.faults import fire, install
from ..tune import RecipeBook, TuneParams, tune

_POLL_S = 0.2  # outbox wait before the supervisor scans for dead shards


@dataclass
class ServeParams:
    """Serving-run configuration.

    ``flow`` is any :func:`repro.opt.flow.run_flow` script.  ``workers``
    is applied to parallel commands without an explicit ``-w`` (and
    sizes the per-shard engine pool); ``workers=1`` is the deterministic
    mode whose outputs are bit-identical to sequential runs.

    ``circuit_timeout_s`` is the per-circuit latency budget: a
    :class:`repro.resilience.Deadline` threaded through the session into
    every engine pass and pooled chunk wait, so one pathological circuit
    (or a hung worker) cannot stall its shard.  A circuit that blows the
    budget still yields a *valid* result — engine commits are serial, so
    the best committed prefix is CEC-equivalent to the input — marked
    ``deadline_exceeded`` and counted ``serve_deadline_exceeded_total``.
    ``None`` (the default) serves without a budget.

    ``engine_cache_entries`` bounds every per-run resynthesis cache a
    serving session creates (LRU entries per layer, see
    :class:`repro.engine.ResynthCache`); ``None`` is unbounded — fine
    for one suite, set it on long-lived services.

    ``quality_budget_s`` switches the run into **tuned** mode: instead
    of executing ``flow``, each circuit gets a per-circuit script search
    (:func:`repro.tune.tune`) under that wall-clock budget — capped at
    ``circuit_timeout_s`` when both are set — and yields the best
    committed result when it expires, never an error, never a torn
    network (see ``docs/tuning.md``).  Tuned results carry the chosen
    script on ``ServeResult.tuned_script`` and are **never** entered
    into a content-addressed store: their content depends on the wall
    clock, so caching one would freeze a timing accident.
    """

    flow: str = "rf"
    n_shards: int = 2
    workers: int = 1
    circuit_timeout_s: float | None = None
    engine_cache_entries: int | None = None
    quality_budget_s: float | None = None


@dataclass
class ServeResult:
    """Outcome of serving one circuit."""

    name: str
    shard: int
    order: int = -1  # completion index over the whole run, set on yield
    runtime: float = 0.0
    n_ands_before: int = 0
    level_before: int = 0
    n_ands: int = 0
    level: int = 0
    report: FlowReport | None = None
    bench_text: str | None = None
    error: str | None = None
    # True when the circuit's budget expired: the result then holds the
    # best committed prefix (valid and CEC-clean), not the full flow.
    deadline_exceeded: bool = False
    # True when the result came out of a content-addressed ResultStore
    # (shard is -1 then: no shard ever saw the request).
    cached: bool = False
    # The script the tuner chose (quality-budget mode only, else None).
    tuned_script: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


def run_circuit(
    session: OptSession,
    params: ServeParams,
    name: str,
    bench_text: str,
    shard: int,
    script: str | None = None,
    quality_budget_s: float | None = None,
    recipes: RecipeBook | None = None,
) -> ServeResult:
    """Serve one circuit through ``session``; always return a result.

    ``script`` of ``None`` means ``params.flow``.  A quality budget
    (``quality_budget_s``, falling back to ``params.quality_budget_s``)
    replaces the script with a tuner search sharing ``recipes``, bounded
    by ``params.circuit_timeout_s`` too; its expiry yields the best
    committed result, never an error.  A fixed script runs under a
    :class:`~repro.resilience.Deadline` of ``params.circuit_timeout_s``
    whose expiry yields the best committed prefix, flagged
    ``deadline_exceeded``.  Any other failure — parse errors included —
    lands on ``ServeResult.error``; nothing escapes.
    """
    if quality_budget_s is None:
        quality_budget_s = params.quality_budget_s
    timeout_s = params.circuit_timeout_s
    deadline = Deadline.after(timeout_s) if timeout_s is not None else None
    result = ServeResult(name=name, shard=shard)
    out = None
    # The span doubles as the latency clock: ``result.runtime`` is its
    # duration, and the registry histogram below is what the throughput
    # benchmark and a Prometheus scrape read.
    span = obs.span("serve.circuit", circuit=name, shard=shard)
    with span:
        try:
            g = from_text(bench_text, name=name)
            result.n_ands_before = g.n_ands
            result.level_before = g.max_level()
            if quality_budget_s is not None:
                if timeout_s is not None:
                    quality_budget_s = min(quality_budget_s, timeout_s)
                tuned = tune(
                    g,
                    TuneParams(budget_s=quality_budget_s, recipes=recipes),
                    session=session,
                )
                out = tuned.graph
                result.tuned_script = tuned.script
            else:
                out, result.report = session.run(
                    g, script or params.flow, deadline=deadline
                )
        except DeadlineExceeded as error:
            # The session attached the best committed prefix — a valid,
            # CEC-clean network — so the circuit still yields a result.
            policy.record_deadline("serve")
            result.deadline_exceeded = True
            result.report = error.report
            out = error.partial
        except Exception as error:
            obs.counter("serve_circuit_errors_total", type=type(error).__name__).add(1)
            result.error = f"{type(error).__name__}: {error}"
        if out is not None:
            result.n_ands = out.n_ands
            result.level = out.max_level()
            result.bench_text = to_text(out)
            span.set(n_ands=out.n_ands)
    result.runtime = span.duration
    metrics = obs.metrics()
    metrics.histogram("serve_circuit_seconds", shard=str(shard)).observe(result.runtime)
    metrics.counter("serve_circuits_total", outcome="ok" if result.ok else "error").add(1)
    return result


def _shard_session(params: ServeParams, classifier) -> OptSession:
    """A serving session: per-run caches, bounded by the params.

    Caches are per run (= per circuit): the wave engine's NPN cache
    layer is content-affecting, so sharing one across circuits would
    make a served result depend on what the shard served before it.
    """
    return OptSession(
        classifier=classifier,
        engine_workers=params.workers if params.workers > 0 else None,
        per_run_cache=True,
        cache_entries=params.engine_cache_entries,
    )


def _shard_worker_main(
    shard_index: int,
    params: ServeParams,
    classifier,
    fault_plan,
    inbox,
    outbox,
) -> None:
    """Child process body: serve circuits off ``inbox`` until ``None``.

    Work items are ``(req_id, name, bench_text, script, quality_budget_s)``
    — see :func:`run_circuit`; the shard keeps one in-memory recipe book,
    so tuned circuits warm-start from their shard siblings' winning
    scripts.  Each reply is ``(req_id, result, delta)`` on ``outbox``,
    where ``delta`` is what this request added to the child's metrics
    registry (:func:`repro.obs.snapshot_delta`); the delta is taken here
    and not in the runner, so the supervisor's in-process degrade path,
    which records straight into the parent registry, counts once.  The
    runner contains every error, so the process survives anything short
    of a crash — and a crash is exactly what the supervisor's respawn
    path is for.
    """
    install(fault_plan)  # forked children inherit, spawned ones would not
    registry = obs.metrics()
    baseline = registry.snapshot()
    needs = default_registry().script_requirements(params.flow)
    session = _shard_session(params, classifier)
    # The pool must cover the script's own -w pins as well as the
    # serve-level default, so no engine pass forks a pool mid-circuit.
    pool_workers = params.workers if params.workers > 0 else (os.cpu_count() or 1)
    pool_workers = max(pool_workers, needs.max_explicit_workers)
    if needs.engine_pool and pool_workers > 1:
        session.warm_engine(pool_workers)
    recipes = RecipeBook()
    with session:
        while True:
            item = inbox.get()
            if item is None:
                return
            req_id, name, bench_text, script, quality_budget_s = item
            fire("shard.circuit", pid=os.getpid(), shard=shard_index, circuit=name)
            result = run_circuit(
                session,
                params,
                name,
                bench_text,
                shard_index,
                script,
                quality_budget_s,
                recipes,
            )
            now = registry.snapshot()
            outbox.put((req_id, result, obs.snapshot_delta(baseline, now)))
            baseline = now


class ShardHost:
    """Supervisor-side handle of one shard process.

    Owns the spawn/respawn lifecycle and the ``inflight`` ledger
    (req_id -> (name, bench_text, script, quality_budget_s)) that makes
    recovery exact: a respawn
    resubmits precisely the submitted-but-unfinished circuits, nothing
    more.  Each (re)spawn gets a **fresh** inbox queue — a queue whose
    feeder thread died with a SIGKILLed reader is not trustworthy — while
    the shared ``outbox`` stays, so results the dead process already
    delivered remain delivered.
    """

    def __init__(self, ctx, shard_index: int, params: ServeParams, classifier, outbox) -> None:
        self.ctx = ctx
        self.shard = shard_index
        self.params = params
        self.classifier = classifier
        self.outbox = outbox
        self.inflight: dict[int, tuple[str, str, str | None, float | None]] = {}
        self.attempts = 0  # respawns consumed against the retry budget
        self.process = None
        self.inbox = None
        self._occupancy = obs.metrics().gauge(
            "serve_shard_occupancy", shard=str(shard_index)
        )

    def spawn(self) -> None:
        """Fork the shard worker (fresh inbox; inflight is resubmitted)."""
        self.inbox = self.ctx.Queue()
        self.process = self.ctx.Process(
            target=_shard_worker_main,
            name=f"repro-shard-{self.shard}",
            args=(
                self.shard,
                self.params,
                self.classifier,
                faults_active(),
                self.inbox,
                self.outbox,
            ),
            daemon=True,
        )
        self.process.start()
        for req_id, (name, bench_text, script, budget) in self.inflight.items():
            self.inbox.put((req_id, name, bench_text, script, budget))

    def submit(
        self,
        req_id: int,
        name: str,
        bench_text: str,
        script: str | None = None,
        quality_budget_s: float | None = None,
    ) -> None:
        self.inflight[req_id] = (name, bench_text, script, quality_budget_s)
        self._occupancy.set(len(self.inflight))
        self.inbox.put((req_id, name, bench_text, script, quality_budget_s))

    def complete(self, req_id: int) -> None:
        self.inflight.pop(req_id, None)
        self._occupancy.set(len(self.inflight))

    @property
    def dead(self) -> bool:
        """True when circuits are owed but the process is gone."""
        return bool(self.inflight) and (
            self.process is None or not self.process.is_alive()
        )

    def respawn(self) -> None:
        """Replace a dead worker; only the inflight ledger is re-run."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()
        if self.process is not None:
            self.process.join()
        obs.counter("serve_shard_respawns_total", shard=str(self.shard)).add(1)
        self.spawn()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, join, then force if needed."""
        if self.process is None:
            return
        if self.process.is_alive():
            try:
                self.inbox.put(None)
            except Exception:  # lint-faults: queue already torn down — force-kill below
                pass
            self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.process = None


class ShardSupervisor:
    """``n_shards`` forked shard processes behind one outbox, supervised.

    The constructor forks every :class:`ShardHost` (call it while the
    process is still single-threaded); callers submit through
    ``hosts[i].submit`` and drain with :meth:`collect`.  :meth:`check`
    scans for dead hosts and either respawns them (within the
    :class:`~repro.resilience.RetryPolicy` budget, with backoff) or
    degrades their unfinished circuits to in-process sequential
    execution, posting the results on the outbox like any reply — the
    caller cannot tell recovery happened.
    """

    def __init__(
        self,
        n_shards: int,
        params: ServeParams,
        classifier=None,
        retry: RetryPolicy | None = None,
    ) -> None:
        ctx = multiprocessing.get_context("fork")
        self.params = params
        self.classifier = classifier
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self.outbox = ctx.Queue()
        self.hosts = [
            ShardHost(ctx, index, params, classifier, self.outbox)
            for index in range(n_shards)
        ]
        self._fallback_session: OptSession | None = None
        try:
            for host in self.hosts:
                host.spawn()
        except BaseException:
            self.close()
            raise

    def collect(self) -> tuple[int, ServeResult] | None:
        """The next finished ``(req_id, result)``, or ``None`` after a
        quiet poll.

        Waits up to ``_POLL_S`` on the shared outbox; a quiet poll runs
        :meth:`check` instead.  A reply folds its metrics delta into
        this process's registry and settles its host's ledger.
        """
        try:
            req_id, result, delta = self.outbox.get(timeout=_POLL_S)
        except queue.Empty:
            self.check()
            return None
        obs.merge_worker_snapshot(delta)
        for host in self.hosts:
            host.complete(req_id)
        return req_id, result

    def check(self) -> None:
        """Scan every host; recover the dead ones (see class docstring)."""
        for host in self.hosts:
            if not host.dead:
                continue
            policy.record_worker_death()
            obs.counter("serve_shard_deaths_total", shard=str(host.shard)).add(1)
            host.attempts += 1
            if self.retry.allows(host.attempts):
                time.sleep(self.retry.backoff(host.attempts))
                policy.record_retry()
                host.respawn()
            else:
                self._degrade(host)

    def _degrade(self, host: ShardHost) -> None:
        """Run a hopeless shard's unfinished circuits in this process.

        Sequential, no fault sites consulted (``shard.circuit`` fires in
        shard children only) — so a scripted kill that murders every
        respawn still terminates here, with byte-identical results at
        ``workers=1``.  The runner records straight into this process's
        registry, so these replies carry no delta.
        """
        policy.record_degradation("in-process")
        if self._fallback_session is None:
            self._fallback_session = _shard_session(self.params, self.classifier)
        for req_id, (name, bench_text, script, budget) in list(host.inflight.items()):
            result = run_circuit(
                self._fallback_session,
                self.params,
                name,
                bench_text,
                host.shard,
                script,
                budget,
            )
            host.outbox.put((req_id, result, None))
            # Settle the ledger here (collect's complete() is a no-op
            # then): a host with an empty ledger is not "dead", so the
            # next check() cannot degrade it twice.
            host.complete(req_id)

    def close(self) -> None:
        for host in self.hosts:
            host.stop()
        if self._fallback_session is not None:
            self._fallback_session.close()
            self._fallback_session = None
