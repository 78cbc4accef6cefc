"""The refactor operator (ABC's ``abcRefactor.c`` flow, in Python).

For every AND node (Algorithm 1 of the paper):

1. form a reconvergence-driven cut (default leaf limit 10);
2. compute the cut function's truth table;
3. derive an ISOP, algebraically factor it (both polarities, keep the
   cheaper), and *count* — against the structural hash table — how many
   fresh nodes the factored form would need;
4. commit when that beats the MFFC the replacement frees
   (``gain = nodes removed - nodes added > 0``; ``== 0`` accepted in
   zero-cost mode), optionally rejecting commits that would push the root
   past its required level.

Per-phase wall-clock buckets are recorded because the whole point of ELF
is where refactor's time goes: most cuts fail step 3/4, and pruning them
is the paper's contribution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .. import obs
from ..aig.graph import AIG
from ..aig.levels import RequiredLevels
from ..aig.literal import lit_node, lit_not, make_lit
from ..aig.mffc import mffc_nodes
from ..aig.simulate import cone_truth, full_mask
from ..cuts.features import CutFeatures
from ..cuts.reconv import reconv_cut
from ..factor.factoring import factor
from ..factor.to_aig import build_tree, count_tree
from ..tt.isop import isop_exact

DataCollector = "callable[[CutFeatures, bool], None]"


@dataclass
class RefactorParams:
    """Knobs of the refactor operator (ABC's ``refactor`` defaults).

    ``preserve_levels`` mirrors ABC's ``-l`` update-level mode; the
    paper's experiments run with it off (their reported levels drift
    slightly), which is also the default here.
    """

    max_leaves: int = 10
    zero_cost: bool = False
    preserve_levels: bool = False
    try_complement: bool = True
    method: str = "quick"


@dataclass
class RefactorStats:
    """Counters and timing buckets of one refactor pass."""

    nodes_visited: int = 0
    cuts_formed: int = 0
    commits: int = 0
    gain_total: int = 0
    fail_gain: int = 0  # resynthesis done, but not cheaper
    fail_level: int = 0  # rejected by required-level check
    fail_poison: int = 0  # build would have reused the replaced root
    fail_trivial: int = 0  # degenerate cuts
    pruned: int = 0  # skipped by a classifier (ELF only)
    cuts_reused: int = 0  # pass-1 cones resynthesized as-is (batched ELF only)
    time_total: float = 0.0
    time_cut: float = 0.0
    time_truth: float = 0.0
    time_resynth: float = 0.0  # isop + factoring + counting
    time_commit: float = 0.0
    time_inference: float = 0.0  # classifier time (ELF only)

    @property
    def fails(self) -> int:
        return self.fail_gain + self.fail_level + self.fail_poison + self.fail_trivial

    @property
    def failure_rate(self) -> float:
        """Fraction of formed cuts that did not get committed."""
        if self.cuts_formed == 0:
            return 0.0
        return 1.0 - self.commits / self.cuts_formed


def refactor(
    g: AIG,
    params: RefactorParams | None = None,
    collector=None,
    cache: dict | None = None,
) -> RefactorStats:
    """Run one refactor pass over ``g`` in place.

    ``collector(features, committed)`` — when given — receives the six
    ELF features and the commit outcome of every visited node; this is how
    classifier training data is harvested (paper SS IV-A).

    ``cache`` plugs in an externally owned resynthesis cache (anything
    with dict-like ``get``/``__setitem__`` keyed ``(tt, n_leaves)``, e.g.
    :class:`repro.engine.ResynthCache`).  Entries are pure functions of
    the key *and* the factoring knobs (``try_complement``, ``method``),
    so sharing a cache across passes — the ``rf; ...; rfz`` steps of one
    flow — changes nothing but runtime **provided every sharer uses the
    same factoring knobs**; do not share one cache across differing
    ``RefactorParams`` factoring settings.
    """
    params = params or RefactorParams()
    stats = RefactorStats()
    g.drain_dirty()  # sequential pass: retire the previous journal epoch
    with obs.span("opt.refactor") as pass_span:
        required = RequiredLevels(g) if params.preserve_levels else None
        want_features = collector is not None
        if cache is None:
            cache = {}
        for node in g.and_ids():
            if g.is_dead(node):
                continue
            stats.nodes_visited += 1
            t0 = time.perf_counter()
            cut = reconv_cut(g, node, params.max_leaves, collect_features=want_features)
            stats.time_cut += time.perf_counter() - t0
            stats.cuts_formed += 1
            committed = refactor_node(g, node, cut, params, required, stats, cache)
            if collector is not None:
                collector(cut.features, committed)
        pass_span.set(nodes=stats.nodes_visited, commits=stats.commits)
    stats.time_total = pass_span.duration
    return stats


def _resynthesize(
    tt: int,
    n_leaves: int,
    params: RefactorParams,
    cache: dict | None,
) -> tuple:
    """ISOP + algebraic factoring of the cut function, cached by table.

    Following ABC's ``Kit_TruthIsop(..., fTryBoth)``, the polarity is
    chosen at the ISOP level (fewer literals wins) and only that polarity
    is factored.  Cut functions repeat heavily inside a circuit (e.g. the
    full-adder cones of a multiplier), so one pass-level cache entry
    serves many nodes.
    """
    key = (tt, n_leaves)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    cubes = isop_exact(tt, n_leaves)
    inverted = False
    if params.try_complement:
        complement = isop_exact(tt ^ full_mask(n_leaves), n_leaves)
        if sum(c.bit_count() for c in complement) < sum(c.bit_count() for c in cubes):
            cubes = complement
            inverted = True
    tree = factor(cubes, method=params.method)
    entry = (tree, inverted)
    if cache is not None:
        cache[key] = entry
    return entry


def refactor_node(
    g: AIG,
    node: int,
    cut,
    params: RefactorParams,
    required: RequiredLevels | None,
    stats: RefactorStats,
    cache: dict | None = None,
) -> bool:
    """Attempt to refactor one node given its cut; returns commit status."""
    leaves = cut.leaves
    n_leaves = len(leaves)
    if n_leaves < 2:
        stats.fail_trivial += 1
        return False

    t0 = time.perf_counter()
    tt = cone_truth(g, node, leaves)
    stats.time_truth += time.perf_counter() - t0

    return commit_tree(
        g,
        node,
        leaves,
        params,
        required,
        stats,
        lambda: _resynthesize(tt, n_leaves, params, cache),
    )


def commit_tree(
    g: AIG,
    node: int,
    leaves: list[int],
    params: RefactorParams,
    required: RequiredLevels | None,
    stats: RefactorStats,
    resolve,
    dirty: set[int] | None = None,
) -> bool:
    """Gain-check and commit a factored replacement for ``node``.

    ``resolve()`` lazily supplies the ``(tree, inverted)`` pair — the
    sequential operator resynthesizes on demand, the parallel engine hands
    over a form precomputed in a worker process.  It is only invoked when
    the MFFC leaves any budget for new nodes, preserving the sequential
    operator's exact skip behavior.

    ``dirty`` — when given — accumulates the nodes this commit killed
    (drained from the graph's dirty journal), which is how the engine's
    scheduler learns, in O(damage), which later-wave snapshots one commit
    invalidated.
    """
    t0 = time.perf_counter()
    mffc = mffc_nodes(g, node, boundary=set(leaves))
    saved = len(mffc)
    max_added = saved if params.zero_cost else saved - 1
    best = None  # (cost, root_level, tree, inverted, existing_lit)
    level_rejected = False
    if max_added >= 0:
        tree, inverted = resolve()
        forbidden = set(mffc)
        leaf_lits = [make_lit(leaf) for leaf in leaves]
        result = count_tree(g, tree, leaf_lits, forbidden, max_added)
        if result is not None:
            if (
                required is not None
                and result.cost > 0
                and result.root_level > required.required(node)
            ):
                level_rejected = True
            else:
                best = (
                    result.cost,
                    result.root_level,
                    tree,
                    inverted,
                    result.existing_lit,
                )
    stats.time_resynth += time.perf_counter() - t0

    if best is None:
        if level_rejected:
            stats.fail_level += 1
        else:
            stats.fail_gain += 1
        return False
    cost, _root_level, tree, inverted, existing = best

    t0 = time.perf_counter()
    try:
        if existing is not None:
            if lit_node(existing) == node:
                stats.fail_gain += 1
                return False
            new_lit = lit_not(existing) if inverted else existing
        else:
            built = build_tree(
                g, tree, [make_lit(leaf) for leaf in leaves], avoid_root=node
            )
            if built is None:
                stats.fail_poison += 1
                return False
            if lit_node(built) == node:  # rebuilt the same node
                stats.fail_gain += 1
                return False
            new_lit = lit_not(built) if inverted else built
        before = g.n_ands
        g.replace(node, new_lit)
        stats.commits += 1
        stats.gain_total += before - g.n_ands
        if dirty is not None:
            dirty.update(g.drain_dirty().killed)
    finally:
        stats.time_commit += time.perf_counter() - t0
    return True
