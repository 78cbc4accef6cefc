"""The conflict-aware wave scheduler (the engine's core).

One engine pass over a network runs in four phases; the cut- and
resynthesis-facing work sits in the :class:`repro.engine.operators.RefactorWaveOp`
hooks (``snapshot`` / ``evaluate`` / ``commit`` plus pass-level glue):

1. **Snapshot sweep** — every live AND is offered to the operator's
   ``snapshot`` hook exactly once, on the unmodified graph, which
   returns its reconvergence cut + cut-bounded MFFC (+ ELF features).
2. **Conflict planning** — candidates whose commits could interfere are
   linked in a conflict graph (:mod:`repro.engine.conflict`) and greedily
   colored into conflict-free commit waves; the same sweep builds the
   inverted candidate index the incremental machinery runs on.
3. **Per wave** — members with features are stacked and classified with
   a single fused inference (the paper's batching trick, applied per
   wave); survivors are handed to the operator's ``evaluate`` hook as
   one batch (multi-root truth kernel + pooled resynthesis through the
   cross-pass NPN-aware cache); results are gain-checked and committed
   serially in ascending node order through the operator's ``commit``
   hook — the same commit code the sequential operators use.
4. **Incremental re-snapshot** — each commit drains the graph's dirty
   journal; the killed set, pushed through the candidate index, yields
   the exact set of candidates whose snapshots the commit invalidated
   (O(damage), no per-candidate liveness probing).  An invalidated
   candidate scheduled in a later wave keeps its slot and is refreshed
   lazily (operator ``resnapshot`` hook) when that wave starts; an
   invalidated member of the *running* wave is deferred at replay and
   lands in a **repair wave** that runs immediately after — the wave
   effectively splits at the first realized conflict, keeping the
   global commit order close to the sequential sweep's node order.
   There is no sequential fallback: ``n_stale`` is structurally zero,
   and every node — fresh or refreshed — flows through the same batched
   classify/evaluate pipeline.

``workers <= 1`` bypasses all of the above and *delegates* to the
sequential operators, which makes the single-worker engine bit-identical
to ``refactor()`` / ``elf_refactor()`` by construction.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field

from .. import obs
from ..aig.graph import AIG
from ..cuts.features import stack_features
from ..errors import DeadlineExceeded
from ..opt.refactor import (
    RefactorParams,
    RefactorStats,
    refactor,
)
from ..resilience import Deadline, policy
from .cache import ResynthCache
from .conflict import Candidate, CandidateIndex, build_conflict_graph, color_waves
from .operators import RefactorWaveOp
from .parallel import ResynthExecutor


@dataclass
class EngineParams:
    """Engine knobs on top of the base refactor parameters.

    ``workers = 0`` means auto (one worker per available core).

    ``executor`` plugs in a caller-owned :class:`ResynthExecutor` so one
    worker pool can be shared across many engine passes — an
    :class:`repro.opt.session.OptSession` hands its pool to every
    parallel step instead of forking a fresh one per pass.  A passed
    executor overrides ``workers`` (the pool was sized at construction)
    and is left open when the pass finishes; its ``params`` are what
    pooled resynthesis uses, so keep them consistent with ``refactor``.

    ``resynth_cache`` plugs in an externally owned
    :class:`repro.engine.cache.ResynthCache` so factored forms survive
    across passes — ``run_flow`` hands every refactor-family step of one
    script the same cache, which is what makes the second ``elf`` of an
    ``elf; elf`` flow start warm.  Wave mode reads it through its NPN
    view; the ``workers=1`` delegation passes it to the sequential
    operator as an exact-only cache (bit-identical entries).
    """

    refactor: RefactorParams = field(default_factory=RefactorParams)
    workers: int = 0
    executor: "ResynthExecutor | None" = None
    resynth_cache: "ResynthCache | None" = None
    # Latency budget for this pass: checked at wave boundaries and bound
    # onto every pooled chunk wait; expiry raises DeadlineExceeded with
    # the graph left at a consistent committed prefix (commits are
    # serial, so there is no torn state to roll back).
    deadline: "Deadline | None" = None

    def resolved_workers(self) -> int:
        if self.executor is not None:
            return self.executor.workers
        if self.workers > 0:
            return self.workers
        return os.cpu_count() or 1


@dataclass
class EngineStats(RefactorStats):
    """`RefactorStats` plus the engine's scheduling counters."""

    workers: int = 1
    delegated: bool = False  # ran the plain sequential operator
    n_candidates: int = 0
    n_conflict_edges: int = 0
    n_waves: int = 0  # waves actually executed (incl. re-snapshot waves)
    # Retained for report compatibility; structurally zero since the
    # sequential fallback was replaced by incremental re-snapshot.
    n_stale: int = 0
    # Candidates newly marked stale; re-hits while already stale are not
    # double-counted (one refresh repairs them all the same).
    n_invalidated: int = 0
    n_resnapshotted: int = 0  # lazy cut/feature refreshes performed
    n_repair_waves: int = 0  # wave splits: repair rounds after deferrals
    n_tasks: int = 0  # survivor evaluations requested
    n_unique_tasks: int = 0  # after wave dedup + cross-pass cache hits
    n_cache_hits: int = 0  # exact resynthesis cache hits this pass
    n_npn_hits: int = 0  # NPN-class remap hits this pass
    time_snapshot: float = 0.0
    time_conflict: float = 0.0
    time_parallel: float = 0.0  # wall time inside the worker pool
    time_replay: float = 0.0
    time_resnapshot: float = 0.0  # cross-wave re-snapshot + requeue time

    @property
    def dedup_rate(self) -> float:
        """Fraction of evaluation tasks eliminated by dedup + caching."""
        if self.n_tasks == 0:
            return 0.0
        return 1.0 - self.n_unique_tasks / self.n_tasks

    @property
    def resnapshot_rate(self) -> float:
        """Fraction of candidates that needed a cross-wave re-snapshot."""
        if self.n_candidates == 0:
            return 0.0
        return self.n_resnapshotted / self.n_candidates


def engine_refactor(
    g: AIG,
    params: EngineParams | None = None,
    classifier=None,
) -> EngineStats:
    """One conflict-wave refactor pass over ``g`` in place.

    With ``classifier`` the engine is the parallel deployment of ELF
    (each wave is classified with one fused inference); without it, the
    engine parallelizes the plain refactor operator.
    """
    params = params or EngineParams()
    workers = params.resolved_workers()
    if workers <= 1:
        # The sequential delegation has no wave boundaries to check at;
        # an already-expired budget still refuses to start the pass.
        if params.deadline is not None:
            params.deadline.check("engine.pass")
        with obs.span("engine.pass", workers=1, delegated=True):
            stats = _delegate_sequential(g, params, classifier)
        _record_pass_metrics(stats)
        return stats

    stats = EngineStats(workers=workers)
    base_cache = params.resynth_cache
    if base_cache is None:
        base_cache = ResynthCache()
    executor = params.executor
    own_executor = executor is None
    if own_executor:
        executor = ResynthExecutor(workers, params.refactor)
    op = RefactorWaveOp(
        params.refactor,
        base_cache.npn_view(),
        executor,
        want_features=classifier is not None,
    )
    try:
        run_wave_pass(g, op, stats, classifier=classifier, deadline=params.deadline)
    finally:
        if own_executor:
            executor.close()
    return stats


def _delegate_sequential(g: AIG, params: EngineParams, classifier) -> EngineStats:
    """Deterministic in-process mode: run the sequential operator as-is.

    A shared ``resynth_cache`` is passed through as an exact-only cache:
    entries are pure functions of ``(tt, n_leaves)``, so warm starts stay
    bit-identical to a cold sequential run.
    """
    cache = params.resynth_cache
    if classifier is None:
        base = refactor(g, params.refactor, cache=cache)
    else:
        from ..elf.operator import ElfParams, elf_refactor

        base = elf_refactor(
            g,
            classifier,
            ElfParams(refactor=params.refactor),
            cache=cache,
        )
    stats = EngineStats(workers=1, delegated=True)
    for f in dataclasses.fields(RefactorStats):
        setattr(stats, f.name, getattr(base, f.name))
    stats.n_candidates = base.nodes_visited
    stats.n_waves = 1 if base.nodes_visited else 0
    return stats


def run_wave_pass(
    g: AIG,
    op: RefactorWaveOp,
    stats: EngineStats,
    classifier=None,
    deadline: "Deadline | None" = None,
) -> EngineStats:
    """Run one wave pass of ``op`` over ``g`` in place.

    The scheduler owns candidate bookkeeping, conflict planning, wave
    coloring, fused classification (when ``classifier`` is given and the
    operator snapshots features), invalidation and repair waves, and
    calls the operator's hooks for the rest.  ``stats`` is the
    caller-constructed :class:`EngineStats` (mutated in place and
    returned).

    ``deadline`` bounds the pass: it is checked before every wave (and
    repair round), handed to the operator (``op.deadline``) so pooled
    evaluation bounds its chunk waits, and expiry raises
    :class:`repro.errors.DeadlineExceeded` **after** the operator's
    ``finish`` hook and the pass metrics run — commits are serial, so
    the graph is always a consistent, CEC-verifiable prefix of the full
    pass at that point (counted ``engine_deadline_exceeded_total``).

    Every phase is bracketed by a :mod:`repro.obs` span (one pass span,
    ``engine.snapshot`` / ``engine.conflict`` children, one
    ``engine.wave`` child per executed wave with per-phase grandchildren)
    and the stats timing fields read the span durations — with tracing
    enabled, a Chrome-trace timeline and the stats report can never
    disagree, because they are the same measurements.
    """
    op.deadline = deadline
    exceeded: DeadlineExceeded | None = None
    with obs.span("engine.pass", workers=stats.workers) as pass_span:
        # Phase 1: pass-level prep + snapshot sweep on the intact graph.
        with obs.span("engine.snapshot") as snap_span:
            op.prepare(g, stats)
            candidates: list[Candidate] = []
            for node in g.iter_ands():
                candidate = op.snapshot(g, node, stats)
                if candidate is not None:
                    candidates.append(candidate)
            snap_span.set(n_candidates=len(candidates))
        stats.time_snapshot = snap_span.duration
        stats.time_cut += stats.time_snapshot
        stats.n_candidates = len(candidates)

        # Phase 2: conflict planning over the shared inverted index.
        with obs.span("engine.conflict") as conflict_span:
            index = CandidateIndex()
            for i, candidate in enumerate(candidates):
                index.add(i, candidate)
            adjacency, n_edges = build_conflict_graph(candidates, index)
            wave_queue = color_waves(adjacency)
            conflict_span.set(n_edges=n_edges, n_waves=len(wave_queue))
        stats.n_conflict_edges = n_edges
        stats.time_conflict = conflict_span.duration

        # Phases 3+4, wave by wave.  Snapshots describe the graph as of
        # now; discard older damage.
        g.drain_dirty()
        pending = set(range(len(candidates)))
        stale: set[int] = set()  # invalidated, not yet re-snapshotted
        try:
            for wave in wave_queue:
                members = [i for i in wave if i in pending]
                repair = False
                while members:
                    if deadline is not None:
                        deadline.check("engine.wave")
                    stats.n_waves += 1
                    if repair:
                        stats.n_repair_waves += 1
                    with obs.span(
                        "engine.wave",
                        wave=stats.n_waves - 1,
                        repair=repair,
                        members=len(members),
                    ) as wave_span:
                        deferred = _run_wave(
                            g,
                            op,
                            members,
                            candidates,
                            index,
                            classifier,
                            stats,
                            pending,
                            stale,
                        )
                        wave_span.set(deferred=len(deferred))
                    # Members invalidated mid-wave split off into a repair
                    # wave that runs immediately, preserving the sequential
                    # sweep's node-order locality.
                    members = sorted(i for i in deferred if i in pending)
                    repair = True
        except DeadlineExceeded as error:
            # Wave-boundary expiry, or a bounded chunk wait inside the
            # executor.  Evaluation runs before any of its wave's commits
            # and commits are serial, so the graph holds exactly the
            # waves committed so far — finish the pass bookkeeping, then
            # re-raise below (outside the spans) for the caller.
            exceeded = error
        op.finish(stats)
        pass_span.set(
            n_candidates=stats.n_candidates,
            n_waves=stats.n_waves,
            n_invalidated=stats.n_invalidated,
            n_resnapshotted=stats.n_resnapshotted,
            n_repair_waves=stats.n_repair_waves,
            n_cache_hits=stats.n_cache_hits,
            n_npn_hits=stats.n_npn_hits,
            dedup_rate=round(stats.dedup_rate, 6),
            commits=stats.commits,
        )
    stats.time_total = pass_span.duration
    _record_pass_metrics(stats)
    if exceeded is not None:
        policy.record_deadline("engine")
        raise exceeded
    return stats


def _record_pass_metrics(stats: EngineStats) -> None:
    """Fold one finished pass into the process metrics registry.

    The registry is always on (cheap, per-pass granularity); tracing
    spans are the opt-in part.  These counters are what the Prometheus
    and JSONL exports surface, and what benchmarks read instead of
    hand-rolled timers.
    """
    m = obs.metrics()
    m.counter("engine_passes_total").add(1)
    m.counter("engine_waves_total").add(stats.n_waves)
    m.counter("engine_commits_total").add(stats.commits)
    m.counter("engine_tasks_total").add(stats.n_tasks)
    m.counter("engine_unique_tasks_total").add(stats.n_unique_tasks)
    m.counter("engine_invalidated_total").add(stats.n_invalidated)
    m.counter("engine_resnapshotted_total").add(stats.n_resnapshotted)
    m.counter("engine_repair_waves_total").add(stats.n_repair_waves)
    m.counter("engine_cache_hits_total", layer="exact").add(stats.n_cache_hits)
    m.counter("engine_cache_hits_total", layer="npn").add(stats.n_npn_hits)
    m.histogram("engine_pass_seconds", workers=str(stats.workers)).observe(
        stats.time_total
    )


def _refresh_members(
    g: AIG,
    op: RefactorWaveOp,
    member_indices: list[int],
    candidates: list[Candidate],
    index: CandidateIndex,
    stats: EngineStats,
    pending: set[int],
    stale: set[int],
) -> list[tuple[int, Candidate]]:
    """Lazily re-snapshot the stale members of a wave about to run.

    Invalidated candidates keep their wave slot; the refresh — the
    operator's ``resnapshot`` hook, on the graph every earlier commit
    already shaped — happens exactly once per wave arrival.  Dead roots
    are dropped (the commit cascade consumed them; the sequential sweep
    skips those too), and roots whose fresh cut collapses are accounted
    by the hook and dropped as well.
    """
    refreshed: list[tuple[int, Candidate]] = []
    with obs.span("engine.resnapshot") as sp:
        n_refreshed = 0
        for i in member_indices:
            if i not in stale:
                refreshed.append((i, candidates[i]))
                continue
            stale.discard(i)
            if g.is_dead(candidates[i].node):
                pending.discard(i)
                continue
            fresh = op.resnapshot(g, candidates[i], stats)
            if fresh is None:
                pending.discard(i)
                continue
            candidates[i] = fresh
            index.add(i, fresh)
            stats.n_resnapshotted += 1
            n_refreshed += 1
            refreshed.append((i, fresh))
        sp.set(refreshed=n_refreshed)
    stats.time_resnapshot += sp.duration
    return refreshed


def _run_wave(
    g: AIG,
    op: RefactorWaveOp,
    member_indices: list[int],
    candidates: list[Candidate],
    index: CandidateIndex,
    classifier,
    stats: EngineStats,
    pending: set[int],
    stale: set[int],
) -> set[int]:
    """Classify, batch-evaluate and commit one wave through the operator.

    Stale members are re-snapshotted up front, so the operator's batch
    evaluation only ever sees snapshots that describe the current graph.
    Returns the indices deferred mid-wave (an earlier commit of this
    same wave dirtied their cone); the caller runs them as a repair wave
    next.
    """
    members = _refresh_members(
        g, op, member_indices, candidates, index, stats, pending, stale
    )

    # One fused classification per wave over the stacked feature matrix.
    survivors: list[tuple[int, Candidate]] = []
    if classifier is not None and op.wants_features:
        if not members:
            return set()
        with obs.span("engine.classify", members=len(members)) as sp:
            matrix = stack_features([c.features for _, c in members])
            keep = classifier.keep_mask(matrix)
        stats.time_inference += sp.duration
        for (i, candidate), keep_one in zip(members, keep):
            if keep_one:
                survivors.append((i, candidate))
            else:
                stats.nodes_visited += 1
                stats.pruned += 1
                pending.discard(i)
    else:
        survivors = members

    # The operator's batchable middle: truth kernels, cache lookups,
    # pooled resynthesis.
    with obs.span("engine.evaluate", survivors=len(survivors)):
        results = op.evaluate(g, survivors, stats)

    # Serial replay in ascending node order.  Each commit drains the
    # dirty journal and pushes the killed set through the candidate
    # index: invalidated candidates anywhere in the schedule are marked
    # stale (their wave refreshes them lazily on arrival), and
    # invalidated members of *this* wave are additionally deferred so
    # the caller can split them off into an immediate repair wave.
    with obs.span("engine.commit") as commit_span:
        replay = sorted(zip(survivors, results), key=lambda item: item[0][1].node)
        unprocessed = {i for i, _ in survivors}
        deferred: set[int] = set()
        for (i, candidate), result in replay:
            unprocessed.discard(i)
            if i in deferred:
                continue  # stays pending; the repair wave re-snapshots it
            if g.is_dead(candidate.node):  # pragma: no cover - journal catches this first
                deferred.add(i)
                stale.add(i)
                continue
            commit_dirty: set[int] = set()
            op.commit(g, candidate, result, stats, commit_dirty)
            pending.discard(i)
            if commit_dirty:
                invalidated = index.invalidated(commit_dirty, pending)
                stats.n_invalidated += len(invalidated - stale)
                stale |= invalidated
                deferred |= invalidated & unprocessed
        commit_span.set(replayed=len(replay), deferred=len(deferred))
    stats.time_replay += commit_span.duration
    return deferred
