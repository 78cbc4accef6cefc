"""Reconvergence-driven cut computation (ABC's ``abcReconv.c`` scheme).

Starting from ``leaves = {root}``, repeatedly expand the leaf whose
replacement by its fanins grows the leaf set the least
(``cost = fanins not yet visited - 1``), until no expansion fits within
the leaf limit.  This is the cut construction the refactor operator uses
(default limit 10, ABC's ``nNodeSizeMax``).

The paper's six features are derived from the *finished* cone in one
loop over its interior (:func:`cut_features`), so growth itself carries
no feature bookkeeping.  This scalar path is what ``rf``, the wave
engine and the tuner use, and it is the oracle of the batch kernel in
:mod:`repro.cuts.batch`, which grows a whole sweep of roots at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..aig.graph import AIG
from .features import CutFeatures

DEFAULT_MAX_LEAVES = 10


@dataclass
class ReconvCut:
    """A reconvergence-driven cut rooted at ``root``.

    ``leaves`` are in discovery order (this fixes the truth-table variable
    order); ``interior`` is the cone between leaves and root, root
    included, leaves excluded.
    """

    root: int
    leaves: list[int]
    interior: set[int]
    features: CutFeatures | None = field(default=None)

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    @property
    def size(self) -> int:
        return len(self.interior)


def reconv_cut(
    g: AIG,
    root: int,
    max_leaves: int = DEFAULT_MAX_LEAVES,
    collect_features: bool = True,
) -> ReconvCut:
    """Grow a reconvergence-driven cut for ``root``.

    ``root`` must be a live AND node.
    """
    leaves: list[int] = [root]
    visited: set[int] = {root}
    interior: set[int] = set()
    fanin0, fanin1 = g._fanin0, g._fanin1

    while True:
        best_leaf = -1
        best_cost = 1 << 30
        for leaf in leaves:
            f0 = fanin0[leaf]
            if f0 < 0:  # PI or constant: not expandable
                continue
            f1 = fanin1[leaf]
            cost = -1
            if (f0 >> 1) not in visited:
                cost += 1
            if (f1 >> 1) not in visited:
                cost += 1
            if cost < best_cost:
                best_cost = cost
                best_leaf = leaf
                if cost <= 0:
                    break  # free expansion: take it immediately
        if best_leaf < 0 or len(leaves) + best_cost > max_leaves:
            break
        # Expand: move best_leaf into the interior, add unseen fanins.
        leaves.remove(best_leaf)
        interior.add(best_leaf)
        for fanin_lit in (fanin0[best_leaf], fanin1[best_leaf]):
            fanin = fanin_lit >> 1
            if fanin not in visited:
                visited.add(fanin)
                leaves.append(fanin)

    cut = ReconvCut(root=root, leaves=leaves, interior=interior)
    if collect_features:
        cut.features = cut_features(g, cut)
    return cut


def cut_features(g: AIG, cut: ReconvCut) -> CutFeatures:
    """The six ELF features of a finished cut, read off the current graph.

    ``cut_fanout`` is every interior node's reference count minus the
    edges that stay inside the interior; ``n_reconvergent`` counts the
    nodes that feed two or more interior nodes.
    """
    fanin0, fanin1, refs = g._fanin0, g._fanin1, g._refs
    interior = cut.interior
    cut_fanout = 0
    seen: set[int] = set()
    reconvergent: set[int] = set()
    for node in interior:
        cut_fanout += refs[node]
        for fanin in (fanin0[node] >> 1, fanin1[node] >> 1):
            if fanin in interior:
                cut_fanout -= 1
            if fanin in seen:
                reconvergent.add(fanin)
            else:
                seen.add(fanin)
    root = cut.root
    return CutFeatures(
        root_fanout=refs[root],
        root_level=g._level[root],
        cut_fanout=cut_fanout,
        cut_size=len(interior),
        n_reconvergent=len(reconvergent),
        n_leaves=len(cut.leaves),
    )
