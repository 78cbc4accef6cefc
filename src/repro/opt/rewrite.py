"""DAG-aware AIG rewriting (Mishchenko et al., DAC'06).

For each node, enumerate its 4-input cuts, canonicalize each cut
function into its NPN class, instantiate the library's precomputed
factored implementation on the cut leaves, and commit the candidate with
the best non-negative gain (MFFC freed minus strash-aware nodes added).

Cuts are enumerated once per pass on the entering network; cuts
invalidated by earlier commits in the same pass are detected (dead
leaves / uncovered cones) and skipped, which matches the greedy one-pass
character of the original.

The per-node work runs in three phases:

* **snapshot** — :func:`usable_node_cuts` filters a node's enumerated
  cuts down to the live, >= 2-leaf ones (counting the stale rest);
* **evaluate** — each cut's truth table, padded to four variables,
  resolves to a library entry + NPN transform
  (:meth:`repro.opt.npn_library.NpnLibrary.lookup`, which memoizes
  canonizations, so each distinct function canonizes once per library);
* **commit** — :func:`commit_scored` gain-checks every scored cut
  against the *current* graph (MFFC, strash-aware node count, optional
  required-level bound) and commits the best, exactly once.

The operator is sequential only: the ``prw``/``prwz`` flow spellings run
this same pass at any ``-w``, because a conflict-wave version of it never
beat the sequential sweep (``docs/engine.md``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from ..aig.graph import AIG
from ..aig.levels import RequiredLevels
from ..aig.literal import lit_node, lit_not, make_lit
from ..aig.mffc import mffc_nodes
from ..aig.simulate import cone_truth
from ..cuts.enumerate import enumerate_cuts, node_cuts
from ..errors import TruthTableError
from ..factor.to_aig import build_tree, count_tree
from .npn_library import NpnLibrary, default_library

N_LIBRARY_VARS = 4
"""Library cut width: every scored cut is padded to this many variables."""


@dataclass
class RewriteParams:
    k: int = 4
    max_cuts: int = 8
    zero_cost: bool = False
    preserve_levels: bool = False


@dataclass
class RewriteStats:
    nodes_visited: int = 0
    cuts_tried: int = 0
    commits: int = 0
    gain_total: int = 0
    stale_cuts: int = 0
    time_total: float = 0.0


def rewrite(
    g: AIG,
    params: RewriteParams | None = None,
    library: NpnLibrary | None = None,
) -> RewriteStats:
    """One rewrite pass over ``g`` in place."""
    params = params or RewriteParams()
    if library is None:  # NB: a fresh library is empty and therefore falsy
        library = default_library()
    stats = RewriteStats()
    g.drain_dirty()  # sequential pass: retire the previous journal epoch
    with obs.span("opt.rewrite") as pass_span:
        required = RequiredLevels(g) if params.preserve_levels else None
        all_cuts = enumerate_cuts(g, params.k, params.max_cuts)
        for node in g.and_ids():
            if g.is_dead(node):
                continue
            stats.nodes_visited += 1
            _rewrite_node(g, node, all_cuts, library, params, required, stats)
        pass_span.set(nodes=stats.nodes_visited, commits=stats.commits)
    stats.time_total = pass_span.duration
    return stats


def usable_node_cuts(
    g: AIG,
    node: int,
    all_cuts,
) -> tuple[list[list[int]], int]:
    """Snapshot phase: the node's live, non-trivial cuts as sorted leaves.

    Returns ``(cuts, n_stale)`` where ``n_stale`` counts enumerated cuts
    dropped because a leaf died since enumeration (earlier commits of the
    same pass).  Single-leaf cuts are silently skipped, as in the
    original sweep.
    """
    cuts: list[list[int]] = []
    n_stale = 0
    for cut in node_cuts(g, node, all_cuts):
        if len(cut) < 2:
            continue
        leaves = sorted(cut)
        if any(g.is_dead(leaf) for leaf in leaves):
            n_stale += 1
            continue
        cuts.append(leaves)
    return cuts, n_stale


def commit_scored(
    g: AIG,
    node: int,
    scored: list,
    library: NpnLibrary,
    params: RewriteParams,
    required: RequiredLevels | None,
) -> int | None:
    """Commit phase: gain-check every scored cut, commit the best.

    ``scored`` is a list of ``(leaves, entry, transform)`` triples from
    the library lookup; everything graph-dependent — the cut-bounded
    MFFC, the strash-aware node count, the required-level bound and the
    final build/replace — is evaluated here, against the graph as it is
    *now*.  Returns the realized gain (AND nodes removed) or ``None``
    when no cut commits.
    """
    best = None  # ((gain, -cost), tree, arranged_lits, out_invert, leaves)
    for leaves, entry, transform in scored:
        padded = list(leaves) + [0] * (N_LIBRARY_VARS - len(leaves))
        leaf_lits = [make_lit(leaf) for leaf in padded]
        arranged, flip = library.leaf_literals(leaf_lits, transform)
        out_invert = flip ^ entry.inverted
        mffc = mffc_nodes(g, node, boundary=set(leaves))
        saved = len(mffc)
        max_added = saved if params.zero_cost else saved - 1
        if max_added < 0:
            continue
        result = count_tree(g, entry.tree, arranged, set(mffc), max_added)
        if result is None:
            continue
        if (
            required is not None
            and result.cost > 0
            and result.root_level > required.required(node)
        ):
            continue
        gain = saved - result.cost
        key = (gain, -result.cost)
        if best is None or key > best[0]:
            best = (key, entry.tree, arranged, out_invert, leaves)
    if best is None:
        return None
    _key, tree, arranged, out_invert, _leaves = best
    built = build_tree(g, tree, arranged, avoid_root=node)
    if built is None or lit_node(built) == node:
        return None
    before = g.n_ands
    g.replace(node, lit_not(built) if out_invert else built)
    return before - g.n_ands


def _rewrite_node(
    g: AIG,
    node: int,
    all_cuts,
    library: NpnLibrary,
    params: RewriteParams,
    required: RequiredLevels | None,
    stats: RewriteStats,
) -> bool:
    cuts, n_stale = usable_node_cuts(g, node, all_cuts)
    stats.stale_cuts += n_stale
    scored = []
    for leaves in cuts:
        try:
            tt = cone_truth(g, node, leaves)
        except TruthTableError:
            stats.stale_cuts += 1
            continue
        stats.cuts_tried += 1
        entry, transform = library.lookup(pad_tt(tt, len(leaves)))
        scored.append((leaves, entry, transform))
    gain = commit_scored(g, node, scored, library, params, required)
    if gain is None:
        return False
    stats.commits += 1
    stats.gain_total += gain
    return True


def pad_tt(tt: int, n_leaves: int) -> int:
    """Extend a k<4-leaf truth table to 4 variables (new vars are don't-
    affect: the function simply ignores them)."""
    width = 1 << n_leaves
    while width < 16:
        tt = tt | (tt << width)
        width *= 2
    return tt & 0xFFFF
