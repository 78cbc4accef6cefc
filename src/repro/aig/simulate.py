"""Bit-parallel simulation of AIGs.

Three engines:

* :func:`simulate` — whole-network random/explicit simulation on NumPy
  ``uint64`` words (64 patterns per word), used by the CEC checker and the
  resubstitution divisor filter;
* :func:`cone_truth` — exact truth table of a cut root as a Python integer
  (arbitrary precision), used by refactor/rewrite/resub resynthesis;
* :func:`batch_cone_truths` — the multi-root batch kernel: one shared
  topological pass ranks the union of many cut cones, then each cone is
  evaluated by a flat loop over its pre-ranked interior.  This replaces
  the per-candidate recursive DFS of :func:`cone_truth` on the parallel
  engine's hot path, where a whole commit wave's survivor cones are
  evaluated back to back against the same graph.
"""

from __future__ import annotations

import numpy as np

from ..errors import TruthTableError
from .graph import AIG
from .literal import lit_node

MAX_TT_VARS = 16
"""Upper bound on cut truth-table support (2^16 bits = 8 KiB per table)."""


def simulate(
    g: AIG,
    pi_values: np.ndarray | None = None,
    n_words: int = 4,
    seed: int | None = 0,
) -> np.ndarray:
    """Simulate the whole network on 64-bit pattern words.

    ``pi_values`` has shape ``(n_pis, n_words)`` of dtype uint64; when
    omitted, random patterns are drawn from ``seed``.  Returns an array of
    shape ``(n_pos, n_words)`` with the PO values.
    """
    if pi_values is None:
        rng = np.random.default_rng(seed)
        pi_values = rng.integers(0, 2**64, size=(g.n_pis, n_words), dtype=np.uint64)
    else:
        pi_values = np.asarray(pi_values, dtype=np.uint64)
        if pi_values.shape[0] != g.n_pis:
            raise TruthTableError(
                f"expected {g.n_pis} PI rows, got {pi_values.shape[0]}"
            )
        n_words = pi_values.shape[1]
    values = node_values(g, pi_values, n_words)
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    out = np.empty((g.n_pos, n_words), dtype=np.uint64)
    for i, lit in enumerate(g.pos):
        v = values[lit_node(lit)]
        out[i] = v ^ ones if (lit & 1) else v
    return out


def node_values(g: AIG, pi_values: np.ndarray, n_words: int) -> np.ndarray:
    """Per-node simulation values, indexed by node id (dead rows are junk)."""
    from .traversal import topological_order

    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    values = np.zeros((g.n_nodes, n_words), dtype=np.uint64)
    for i, pi in enumerate(g.pis):
        values[pi] = pi_values[i]
    fanin0, fanin1 = g._fanin0, g._fanin1
    for node in topological_order(g):
        f0, f1 = fanin0[node], fanin1[node]
        a = values[f0 >> 1]
        if f0 & 1:
            a = a ^ ones
        b = values[f1 >> 1]
        if f1 & 1:
            b = b ^ ones
        values[node] = a & b
    return values


def _var_mask(var: int, n_vars: int) -> int:
    """Truth table (as int) of input variable ``var`` over ``n_vars`` inputs."""
    bits = 1 << n_vars
    if var >= n_vars:
        raise TruthTableError(f"variable {var} out of range for {n_vars} inputs")
    block = (1 << (1 << var)) - 1  # 2^(2^var) - 1: run of zeros then ones
    pattern = 0
    period = 1 << (var + 1)
    for offset in range(0, bits, period):
        pattern |= (block << (1 << var)) << offset
    return pattern


# Cache of variable masks: (var, n_vars) -> int.
_VAR_MASKS: dict[tuple[int, int], int] = {}


def var_mask(var: int, n_vars: int) -> int:
    """Cached truth table of variable ``var`` over ``n_vars`` variables."""
    key = (var, n_vars)
    mask = _VAR_MASKS.get(key)
    if mask is None:
        mask = _var_mask(var, n_vars)
        _VAR_MASKS[key] = mask
    return mask


def full_mask(n_vars: int) -> int:
    """All-ones truth table over ``n_vars`` variables."""
    return (1 << (1 << n_vars)) - 1


def cone_truth(g: AIG, root: int, leaves: list[int]) -> int:
    """Exact truth table of ``root`` as a function of ``leaves``.

    ``leaves`` are node ids forming a cut of ``root``; the table is a
    Python int with bit ``i`` = value of the root under the assignment
    encoded by ``i`` (leaf 0 is the least significant variable).  The root
    literal is taken in regular (non-complemented) phase.
    """
    n = len(leaves)
    if n > MAX_TT_VARS:
        raise TruthTableError(f"cut has {n} leaves; max is {MAX_TT_VARS}")
    ones = full_mask(n)
    values: dict[int, int] = {0: 0}
    for i, leaf in enumerate(leaves):
        values[leaf] = var_mask(i, n)
    if root in values:
        return values[root]

    fanin0, fanin1 = g._fanin0, g._fanin1
    order: list[int] = []
    stack: list[int] = [root]
    visited = set(values)
    while stack:  # iterative post-order over the cone
        node = stack[-1]
        if node in visited:
            stack.pop()
            continue
        f0, f1 = fanin0[node], fanin1[node]
        if f0 < 0:
            raise TruthTableError(f"cut of {root} does not cover node {node}")
        pending = [f for f in (f0 >> 1, f1 >> 1) if f not in visited]
        if pending:
            stack.extend(pending)
        else:
            visited.add(node)
            order.append(node)
            stack.pop()

    for node in order:
        f0, f1 = fanin0[node], fanin1[node]
        a = values[f0 >> 1]
        if f0 & 1:
            a ^= ones
        b = values[f1 >> 1]
        if f1 & 1:
            b ^= ones
        values[node] = a & b
    return values[root]


def batch_cone_truths(
    g: AIG,
    cones: list[tuple[int, tuple[int, ...] | list[int], frozenset[int] | set[int]]],
) -> list[int]:
    """Exact truth tables of many cut cones in one batch.

    Each element of ``cones`` is ``(root, leaves, interior)`` — exactly
    the data a snapshot of a reconvergence-driven cut carries: ``leaves``
    fix the variable order, ``interior`` is the cone between leaves and
    root with the root included.  Results align with the input order and
    are bit-identical to calling :func:`cone_truth` per cone.

    The win over per-cone calls is structural: cut interiors need a
    fanins-first evaluation order, and :func:`cone_truth` derives it with
    a fresh recursive DFS per root.  Here a single pass assigns a
    topological rank to every node in the *union* of the interiors
    (overlapping cones are visited once), after which each cone is just a
    sort of its pre-known interior by rank plus a flat AND/XOR loop.
    """
    fanin0, fanin1 = g._fanin0, g._fanin1
    union: set[int] = set()
    for _root, _leaves, interior in cones:
        union.update(interior)

    # One shared post-order pass over the union-induced subgraph: for any
    # interior node, its in-union fanins are ranked first.  Seeding from
    # the roots covers every interior (a cone's interior is reachable from
    # its own root without leaving the union).
    rank: dict[int, int] = {}
    next_rank = 0
    stack: list[int] = []
    for root, _leaves, _interior in cones:
        if root in rank or root not in union:
            continue
        stack.append(root)
        while stack:
            node = stack[-1]
            if node in rank:
                stack.pop()
                continue
            pending = [
                f
                for f in (fanin0[node] >> 1, fanin1[node] >> 1)
                if f in union and f not in rank
            ]
            if pending:
                stack.extend(pending)
            else:
                rank[node] = next_rank
                next_rank += 1
                stack.pop()

    out: list[int] = []
    rank_of = rank.__getitem__
    for root, leaves, interior in cones:
        n = len(leaves)
        if n > MAX_TT_VARS:
            raise TruthTableError(f"cut has {n} leaves; max is {MAX_TT_VARS}")
        ones = full_mask(n)
        values: dict[int, int] = {0: 0}
        for i, leaf in enumerate(leaves):
            values[leaf] = var_mask(i, n)
        if root in values:
            out.append(values[root])
            continue
        try:
            for node in sorted(interior, key=rank_of):
                f0, f1 = fanin0[node], fanin1[node]
                a = values[f0 >> 1]
                if f0 & 1:
                    a ^= ones
                b = values[f1 >> 1]
                if f1 & 1:
                    b ^= ones
                values[node] = a & b
            out.append(values[root])
        except KeyError as exc:  # pragma: no cover - structural corruption
            raise TruthTableError(
                f"cone of {root} is not closed over its leaves/interior"
            ) from exc
    return out

