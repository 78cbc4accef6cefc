"""ELF: the pruned refactor operator (Algorithm 2 of the paper).

Batched mode (the paper's deployment):

1. one array sweep (:func:`repro.cuts.batch.batch_reconv_cuts`) forms
   every node's cut and its six features, keeping the cones;
2. one fused matmul classifies all nodes at once;
3. the refactor sweep then skips every node classified as
   will-not-improve and resynthesizes the survivors.  A survivor reuses
   its pass-1 cone when no node of it (leaves or interior) was killed or
   rewired by an earlier commit of this pass (the graph's dirty journal,
   :meth:`repro.aig.graph.AIG.untouched`); growth reads only the fanins
   of visited nodes, so that cone is exactly the cut a regrowth would
   form.  Otherwise the cut is grown again with the scalar path.

Keep decisions are taken once, on the graph pass 1 saw, and are not
revisited after commits (Algorithm 2): a pruned node stays pruned even
when an earlier commit changed its cone, and a survivor is always
resynthesized on its current cut.

Streaming mode classifies each node on its own (batch of one) right
before resynthesis; it exists for the batching-ablation benchmark.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..aig.graph import AIG
from ..aig.levels import RequiredLevels
from ..cuts.batch import BatchCuts, batch_reconv_cuts
from ..cuts.reconv import cut_features, reconv_cut
from ..opt.refactor import RefactorParams, RefactorStats, refactor_node
from .classifier import ElfClassifier


@dataclass
class ElfParams:
    """ELF knobs on top of the base refactor parameters."""

    refactor: RefactorParams = field(default_factory=RefactorParams)
    batched: bool = True


def elf_refactor(
    g: AIG,
    classifier: ElfClassifier,
    params: ElfParams | None = None,
    collector=None,
    cache: dict | None = None,
) -> RefactorStats:
    """One ELF pass over ``g`` in place; returns stats incl. prune counts.

    ``collector(features, committed)`` sees only non-pruned nodes (the
    pruned ones never reach resynthesis, exactly as in Algorithm 2).

    ``cache`` plugs in an externally owned resynthesis cache (e.g. a
    flow-level :class:`repro.engine.ResynthCache`): entries are pure
    functions of ``(tt, n_leaves)`` under fixed factoring knobs, so the
    second ``elf`` of an ``elf; elf`` flow reuses the first pass's
    factored forms with bit-identical results (all sharers must use the
    same ``try_complement``/``method`` settings, as flows do).
    """
    params = params or ElfParams()
    max_leaves = params.refactor.max_leaves
    stats = RefactorStats()
    g.drain_dirty()  # pass 2 reads this pass's journal to reuse cones
    with obs.span("elf.refactor", batched=params.batched) as pass_span:
        required = RequiredLevels(g) if params.refactor.preserve_levels else None

        nodes = g.and_ids()
        if cache is None:
            cache = {}
        if params.batched:
            cuts, keep = _batch_classify(g, nodes, classifier, max_leaves, stats)

        for position, node in enumerate(nodes):
            if g.is_dead(node):
                continue
            stats.nodes_visited += 1
            if params.batched:
                if not keep[position]:
                    stats.pruned += 1
                    continue
                t0 = time.perf_counter()
                cut = cuts.cut(position)
                if g.untouched(cut.leaves) and g.untouched(cut.interior):
                    stats.cuts_reused += 1
                else:
                    cut = reconv_cut(g, node, max_leaves, collect_features=False)
                stats.time_cut += time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                cut = reconv_cut(g, node, max_leaves, collect_features=True)
                stats.time_cut += time.perf_counter() - t0
                t0 = time.perf_counter()
                keep_one = classifier.keep_mask(
                    cut.features.as_array()[None, :]
                )[0]
                stats.time_inference += time.perf_counter() - t0
                if not keep_one:
                    stats.pruned += 1
                    continue
            stats.cuts_formed += 1
            if collector is not None:
                # The cut about to be resynthesized, read before the commit
                # rewires (or kills) its cone.
                features = cut.features or cut_features(g, cut)
            committed = refactor_node(
                g, node, cut, params.refactor, required, stats, cache
            )
            if collector is not None:
                collector(features, committed)
        pass_span.set(
            nodes=stats.nodes_visited,
            pruned=stats.pruned,
            commits=stats.commits,
            reused=stats.cuts_reused,
        )
    stats.time_total = pass_span.duration
    return stats


def elf_refactor_parallel(
    g: AIG,
    classifier: ElfClassifier,
    params: ElfParams | None = None,
    workers: int = 0,
):
    """ELF deployed on the conflict-wave engine (``repro.engine``).

    Candidates are partitioned into conflict-free commit waves, each wave
    is classified with one fused inference, and surviving cuts are
    resynthesized by a worker pool.  ``workers=0`` uses one worker per
    core; ``workers=1`` is the deterministic in-process mode, identical
    to :func:`elf_refactor`.  Returns :class:`repro.engine.EngineStats`.
    """
    from ..engine import EngineParams, engine_refactor

    params = params or ElfParams()
    return engine_refactor(
        g,
        EngineParams(
            refactor=params.refactor,
            workers=workers,
            elf_batched=params.batched,
        ),
        classifier=classifier,
    )


def _batch_classify(
    g: AIG,
    nodes: list[int],
    classifier: ElfClassifier,
    max_leaves: int,
    stats: RefactorStats,
) -> tuple[BatchCuts, np.ndarray]:
    """Pass 1 of Algorithm 2: every node's cut in one sweep, classified once."""
    t0 = time.perf_counter()
    cuts = batch_reconv_cuts(g, nodes, max_leaves)
    stats.time_cut += time.perf_counter() - t0
    t0 = time.perf_counter()
    keep = classifier.keep_mask(cuts.features)
    stats.time_inference += time.perf_counter() - t0
    return cuts, keep
