"""The refactor wave operator: the hooks the conflict-wave scheduler drives.

The conflict-wave pipeline (:mod:`repro.engine.scheduler`) does the
snapshotting, conflict planning, wave coloring, fused classification,
incremental re-snapshot and the repair-wave protocol on
:class:`repro.engine.conflict.Candidate` alone.  Everything that touches
cuts and resynthesis lives in :class:`RefactorWaveOp` — three
graph-facing hooks plus pass-level glue:

* ``snapshot(g, node, stats)`` — build one candidate (reconvergence cut,
  cut-bounded MFFC, optional ELF features) on the intact graph, or
  account the node and return ``None``;
* ``resnapshot(g, candidate, stats)`` — refresh an invalidated snapshot
  on the current graph;
* ``evaluate(g, items, stats)`` — the batchable middle: given the wave's
  surviving ``(index, candidate)`` pairs, produce one result per pair
  (batched truth tables + pooled resynthesis through the cross-pass
  cache).  Runs *before* any of the wave's commits, so it may only
  depend on graph state every earlier wave already produced;
* ``commit(g, candidate, result, stats, dirty)`` — gain-check and commit
  one candidate against the current graph, accumulating journaled kills
  into ``dirty``; runs serially at replay, in ascending node order.

``prepare`` / ``finish`` bracket one pass.  The engine has this one
operator: the DAC'06 rewrite (``rw``) stays sequential, because a wave
pass of it never beat the sequential sweep (``docs/engine.md``).
"""

from __future__ import annotations

import time

from ..aig.graph import AIG
from ..aig.levels import RequiredLevels
from ..aig.mffc import mffc_nodes
from ..aig.simulate import batch_cone_truths
from ..cuts.reconv import reconv_cut
from ..opt.refactor import RefactorParams, commit_tree
from .cache import ResynthCache
from .conflict import Candidate


class RefactorWaveOp:
    """Refactor (and ELF-pruned refactor) on the wave pipeline.

    Snapshot: one reconvergence-driven cut + cut-bounded MFFC (+ features
    when a classifier is deployed).  Evaluate: the wave's survivor cones
    go through the multi-root truth kernel, unique cut functions through
    the cross-pass NPN-aware cache, and true misses to the worker pool
    (:mod:`repro.engine.parallel`).  Commit: the same ``commit_tree`` the
    sequential operator uses.
    """

    # Set by run_wave_pass before the wave loop: the pass's latency
    # budget (or None).  Pooled resynthesis bounds its chunk waits on it
    # so a dead worker cannot stall past the budget.
    deadline = None

    def __init__(
        self,
        params: RefactorParams,
        cache: ResynthCache,
        executor,
        want_features: bool,
    ) -> None:
        self.params = params
        self.cache = cache
        self.executor = executor
        self.wants_features = want_features
        self.required: RequiredLevels | None = None
        self._hits_exact0 = 0
        self._hits_npn0 = 0

    def prepare(self, g: AIG, stats) -> None:
        if self.params.preserve_levels:
            self.required = RequiredLevels(g)
        owner = self.cache._owner()
        self._hits_exact0 = owner.hits_exact
        self._hits_npn0 = owner.hits_npn

    def snapshot(self, g: AIG, node: int, stats) -> Candidate | None:
        cut = reconv_cut(
            g, node, self.params.max_leaves, collect_features=self.wants_features
        )
        if cut.n_leaves < 2:
            # Degenerate cuts mirror the sequential accounting (visited,
            # formed, failed) without entering the wave machinery.
            stats.nodes_visited += 1
            stats.cuts_formed += 1
            stats.fail_trivial += 1
            return None
        mffc = frozenset(mffc_nodes(g, node, boundary=set(cut.leaves)))
        return Candidate(
            node=node,
            leaves=tuple(cut.leaves),
            interior=frozenset(cut.interior),
            mffc=mffc,
            features=cut.features,
        )

    def resnapshot(self, g: AIG, candidate: Candidate, stats) -> Candidate | None:
        """Fresh reconvergence cut with the conservative ``mffc = interior``
        bound (the cut-bounded MFFC is a subset of the interior, and the
        commit-time gain check recomputes the exact value anyway)."""
        cut = reconv_cut(
            g,
            candidate.node,
            self.params.max_leaves,
            collect_features=self.wants_features,
        )
        if cut.n_leaves < 2:
            stats.nodes_visited += 1
            stats.cuts_formed += 1
            stats.fail_trivial += 1
            return None
        interior = frozenset(cut.interior)
        return Candidate(
            node=candidate.node,
            leaves=tuple(cut.leaves),
            interior=interior,
            mffc=interior,
            features=cut.features,
        )

    def evaluate(self, g: AIG, items: list, stats) -> list:
        # Truth tables of all surviving cones in one batched kernel call.
        t0 = time.perf_counter()
        tts = batch_cone_truths(
            g, [(c.node, c.leaves, c.interior) for _, c in items]
        )
        stats.time_truth += time.perf_counter() - t0

        # Resolve each unique cut function through the cross-pass cache;
        # only true misses are shipped to the worker pool.
        entries: dict[tuple[int, int], tuple | None] = {}
        todo: list[tuple[int, int]] = []
        for (_i, candidate), tt in zip(items, tts):
            key = (tt, len(candidate.leaves))
            if key in entries:
                continue
            hit = self.cache.get(key)
            entries[key] = hit
            if hit is None:
                todo.append(key)
        stats.n_tasks += len(items)
        stats.n_unique_tasks += len(todo)
        if todo:
            pooled = self.executor.will_pool(len(todo))
            t0 = time.perf_counter()
            for key, entry in zip(todo, self.executor.run(todo, deadline=self.deadline)):
                self.cache[key] = entry
                entries[key] = entry
            elapsed = time.perf_counter() - t0
            if pooled:
                stats.time_parallel += elapsed
            stats.time_resynth += elapsed
        return [
            entries[(tt, len(candidate.leaves))]
            for (_i, candidate), tt in zip(items, tts)
        ]

    def commit(self, g: AIG, candidate: Candidate, result, stats, dirty: set) -> None:
        stats.nodes_visited += 1
        stats.cuts_formed += 1
        commit_tree(
            g,
            candidate.node,
            list(candidate.leaves),
            self.params,
            self.required,
            stats,
            lambda: result,
            dirty=dirty,
        )

    def finish(self, stats) -> None:
        owner = self.cache._owner()
        stats.n_cache_hits = owner.hits_exact - self._hits_exact0
        stats.n_npn_hits = owner.hits_npn - self._hits_npn0
