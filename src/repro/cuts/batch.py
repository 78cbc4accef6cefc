"""Batch reconvergence-driven cuts: a whole sweep of roots in lock-step numpy.

:func:`batch_reconv_cuts` grows the cut of every root at once with the
exact semantics of the scalar :func:`repro.cuts.reconv.reconv_cut` (its
oracle), one expansion per step for all rows still growing:

* a leaf's cost is its number of unvisited fanins minus one;
* the picked leaf is the first with cost <= 0, else the first of minimum
  cost; a row stops when nothing is expandable or
  ``n_leaves + cost > max_leaves``;
* the picked leaf is removed in place and its unseen fanins are
  appended, fanin0 first.

Visited membership is a per-row bitmap over node ids.  Leaves and
interior live in fixed-width int32 arrays.  Rows are processed in chunks
whose bitmaps and arrays fit in :data:`CHUNK_BYTES`; a row whose
interior outgrows :data:`INTERIOR_WIDTH` is grown again by the scalar
path.  The six features are then computed per chunk from the finished
cones (see :func:`repro.cuts.reconv.cut_features` for their definition).

This is pass 1 of ELF's Algorithm 2 (:mod:`repro.elf.operator`): every
node's cut and features in one sweep, with the cones kept so pass 2 can
reuse the ones no commit touched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..aig.graph import AIG
from .features import N_FEATURES
from .reconv import ReconvCut, reconv_cut

CHUNK_BYTES = 1 << 20
"""Budget of one chunk of rows: their visited bitmaps and fixed-width arrays."""

INTERIOR_WIDTH = 64
"""Interior slots per row; wider cones fall back to the scalar path."""

_NOT_EXPANDABLE = 1 << 20


@dataclass
class BatchCuts:
    """Cuts of ``roots`` in flat int32 arrays, row ``i`` for ``roots[i]``.

    Row ``i``'s leaves (discovery order) are
    ``leaves[leaf_ptr[i]:leaf_ptr[i + 1]]`` and its interior
    ``interior[interior_ptr[i]:interior_ptr[i + 1]]``; ``features`` is the
    ``(n, 6)`` matrix :func:`repro.cuts.features.stack_features` would
    build from the scalar cuts.
    """

    roots: np.ndarray
    leaf_ptr: np.ndarray
    leaves: np.ndarray
    interior_ptr: np.ndarray
    interior: np.ndarray
    features: np.ndarray

    def cut(self, i: int) -> ReconvCut:
        """Row ``i`` as a :class:`ReconvCut` (features not attached)."""
        lo, hi = self.leaf_ptr[i], self.leaf_ptr[i + 1]
        ilo, ihi = self.interior_ptr[i], self.interior_ptr[i + 1]
        return ReconvCut(
            root=int(self.roots[i]),
            leaves=self.leaves[lo:hi].tolist(),
            interior=set(self.interior[ilo:ihi].tolist()),
        )


def batch_reconv_cuts(g: AIG, roots: list[int], max_leaves: int) -> BatchCuts:
    """Grow the reconvergence-driven cut of every root (live ANDs) at once."""
    graph = _GraphArrays(g)
    roots_arr = np.asarray(roots, dtype=np.int32)
    n_rows = roots_arr.size
    row_bytes = graph.bitmap_bytes + 4 * (max_leaves + 1 + INTERIOR_WIDTH)
    chunk = max(1, CHUNK_BYTES // row_bytes)
    # Row lengths go to ptr[1:] and become offsets in place at the end.
    leaf_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    inner_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    features = np.zeros((n_rows, N_FEATURES), dtype=np.float64)
    bits = _Bitmap(min(chunk, n_rows), graph.bitmap_bytes)  # reused by every chunk
    leaf_parts, inner_parts = [], []
    for lo in range(0, n_rows, chunk):
        rows = slice(lo, min(lo + chunk, n_rows))
        bits.bytes.fill(0)
        leaves, inner = _chunk(
            g, graph, bits, roots_arr[rows], max_leaves,
            leaf_ptr[1:][rows], inner_ptr[1:][rows], features[rows],
        )
        leaf_parts.append(leaves)
        inner_parts.append(inner)
    np.cumsum(leaf_ptr, out=leaf_ptr)
    np.cumsum(inner_ptr, out=inner_ptr)
    return BatchCuts(
        roots_arr,
        leaf_ptr,
        np.concatenate(leaf_parts or [np.zeros(0, np.int32)]),
        inner_ptr,
        np.concatenate(inner_parts or [np.zeros(0, np.int32)]),
        features,
    )


class _GraphArrays:
    """Fanins, reference counts and levels of ``g`` as numpy arrays.

    Non-AND nodes (PIs, the constant, dead slots) get the sentinel fanin
    ``pad = n_nodes``, which is also the padding of every row array.
    """

    def __init__(self, g: AIG) -> None:
        self.pad = pad = g.n_nodes
        lits0 = np.array(g._fanin0 + [-1], dtype=np.int64)
        lits1 = np.array(g._fanin1 + [-1], dtype=np.int64)
        is_and = lits0 >= 0
        self.fanin0 = np.where(is_and, lits0 >> 1, pad).astype(np.int32)
        self.fanin1 = np.where(is_and, lits1 >> 1, pad).astype(np.int32)
        self.refs = np.array(g._refs + [0], dtype=np.int64)
        self.levels = np.array(g._level + [0], dtype=np.int64)
        self.bitmap_bytes = (pad + 8) >> 3  # bits for ids 0..pad


def _chunk(g, graph, bits, roots, max_leaves, n_leaves, n_inner, features):
    """Cuts and features of one chunk of rows; returns the flat leaves and
    interior, and fills the chunk's slices of the per-row outputs."""
    leaves, inner, overflow = _grow(graph, roots, max_leaves, bits, n_leaves, n_inner)
    _features(graph, roots, bits, leaves, inner, n_leaves, n_inner, features)
    flat_leaves = leaves[np.arange(leaves.shape[1]) < n_leaves[:, None]]
    flat_inner = inner[np.arange(inner.shape[1]) < n_inner[:, None]]
    if overflow.size:
        scalar = [reconv_cut(g, int(roots[i]), max_leaves) for i in overflow]
        flat_leaves = _splice(flat_leaves, n_leaves, overflow, [c.leaves for c in scalar])
        flat_inner = _splice(flat_inner, n_inner, overflow, [c.interior for c in scalar])
        for i, cut in zip(overflow, scalar):
            n_leaves[i], n_inner[i] = cut.n_leaves, cut.size
            features[i] = cut.features.as_tuple()
    return flat_leaves, flat_inner


class _Bitmap:
    """One visited bitmap per row over node ids, in one flat byte array."""

    def __init__(self, n_rows: int, row_bytes: int) -> None:
        self.bytes = np.zeros(n_rows * row_bytes, dtype=np.uint8)
        self.row_bytes = row_bytes

    def test(self, rows: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        byte = self.bytes.take(rows * self.row_bytes + (nodes >> 3))
        return (byte >> (nodes & 7).astype(np.uint8) & 1).astype(bool)

    def mark(self, rows: np.ndarray, nodes: np.ndarray, clear: bool = False) -> None:
        """Set (or clear) one bit per row; ``rows`` must be distinct."""
        at = rows * self.row_bytes + (nodes >> 3)
        mask = np.left_shift(1, nodes & 7).astype(np.uint8)
        if clear:
            self.bytes[at] &= ~mask
        else:
            self.bytes[at] |= mask


def _grow(graph, roots, max_leaves, bits, n_leaves, n_inner):
    """Lock-step growth of one chunk: every growing row expands once a step.

    Returns the ``(rows, max_leaves + 1)`` leaves, the
    ``(rows, INTERIOR_WIDTH)`` interior and the rows that outgrew it
    (their lengths are left 0); fills ``n_leaves``/``n_inner``.
    """
    fanin0, fanin1, pad = graph.fanin0, graph.fanin1, graph.pad
    n_rows = roots.size
    width = max_leaves + 1  # the last column is always padding
    cols = np.arange(width)[None, :]
    out = np.full((n_rows, width), pad, dtype=np.int32)
    inner = np.full((n_rows, INTERIOR_WIDTH), pad, dtype=np.int32)
    rid = np.arange(n_rows)  # chunk row of each growing row
    leaves = out.copy()
    leaves[:, 0] = roots
    count = np.ones(n_rows, dtype=np.int64)
    bits.mark(rid, roots)
    for step in range(INTERIOR_WIDTH + 1):  # ``step`` = interior size so far
        if not rid.size:
            break
        at = np.arange(rid.size)
        a = fanin0[leaves]
        b = fanin1[leaves]
        fresh_a = ~bits.test(rid[:, None], a)
        fresh_b = ~bits.test(rid[:, None], b)
        cost = fresh_a.astype(np.int64) + fresh_b - 1
        cost[a == pad] = _NOT_EXPANDABLE  # PIs, constants and padding
        pick = np.argmin(np.maximum(cost, 0), axis=1)
        stop = count + cost[at, pick] > max_leaves
        node, a, b = leaves[at, pick], a[at, pick], b[at, pick]
        fresh_a = fresh_a[at, pick]
        fresh_b = fresh_b[at, pick]
        if stop.any():
            out[rid[stop]] = leaves[stop]
            n_leaves[rid[stop]] = count[stop]
            n_inner[rid[stop]] = step
            grow = ~stop
            rid, leaves, count, pick = rid[grow], leaves[grow], count[grow], pick[grow]
            node, a, b = node[grow], a[grow], b[grow]
            fresh_a, fresh_b = fresh_a[grow], fresh_b[grow]
            at = np.arange(rid.size)
        if step == INTERIOR_WIDTH:
            break
        inner[rid, step] = node
        # Remove the picked leaf in place: shift the later ones left.
        later = np.empty_like(leaves)
        later[:, :-1] = leaves[:, 1:]
        later[:, -1] = pad
        leaves = np.where(cols < pick[:, None], leaves, later)
        # Append the unseen fanins; a seen one writes padding in place.
        count -= 1
        leaves[at, count] = np.where(fresh_a, a, pad)
        count += fresh_a
        leaves[at, count] = np.where(fresh_b, b, pad)
        count += fresh_b
        bits.mark(rid, a)
        bits.mark(rid, b)
    return out, inner, rid  # rows still growing outgrew the interior


def _features(graph, roots, bits, leaves, inner, n_leaves, n_inner, out) -> None:
    """The six features of one grown chunk, into ``out`` (consumes ``bits``)."""
    n_rows = roots.size
    for col in range(leaves.shape[1]):  # visited minus leaves = interior
        live = np.flatnonzero(col < n_leaves)
        bits.mark(live, leaves[live, col], clear=True)
    nodes = inner[np.arange(inner.shape[1]) < n_inner[:, None]]
    rows = np.repeat(np.arange(n_rows), n_inner)
    fanins = np.concatenate((graph.fanin0[nodes], graph.fanin1[nodes]))
    fanin_rows = np.concatenate((rows, rows))
    internal = np.bincount(
        fanin_rows, weights=bits.test(fanin_rows, fanins), minlength=n_rows
    )
    # A reconvergent node feeds two or more interior nodes of its row.
    keys = fanin_rows * np.int64(graph.pad + 1) + fanins
    keys.sort()
    dup = keys[1:] == keys[:-1]
    first_dup = dup.copy()
    first_dup[1:] &= ~dup[:-1]
    out[:, 0] = graph.refs[roots]
    out[:, 1] = graph.levels[roots]
    out[:, 2] = np.bincount(rows, weights=graph.refs[nodes], minlength=n_rows) - internal
    out[:, 3] = n_inner
    out[:, 4] = np.bincount(keys[1:][first_dup] // (graph.pad + 1), minlength=n_rows)
    out[:, 5] = n_leaves


def _splice(flat, lengths, rows, values) -> np.ndarray:
    """Insert ``values[k]`` as the (empty) row ``rows[k]`` of ragged ``flat``."""
    starts = np.cumsum(lengths) - lengths
    at = np.repeat(starts[rows], [len(v) for v in values])
    return np.insert(flat, at, [x for v in values for x in v])
