"""Randomized parity battery: every vectorized kernel vs its scalar oracle.

The truth-table hot loops (ISOP core, NPN canonizer, ``expand_tt``, the
batched cone-truth kernel) are rewrites of a straightforward
formulation, and each claims bit-identity with it.  This module pins
every claim against an embedded or retained scalar reference over
hundreds of random tables and cut shapes, plus the degenerate corners
(constants, single-leaf cuts, duplicate leaves) where index arithmetic
likes to go wrong.  The batch reconvergence-cut kernel behind ELF's
pass 1 is pinned the same way, against the scalar ``reconv_cut``.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.aig import AIG, cone_truth, full_mask, var_mask
from repro.aig.simulate import batch_cone_truths
from repro.circuits import epfl_circuit
from repro.cuts import batch as batch_cuts
from repro.cuts.batch import batch_reconv_cuts
from repro.cuts.reconv import reconv_cut
from repro.errors import TruthTableError
from repro.opt import rewrite
from repro.tt import isop, isop_exact, npn_canonize, sop_tt
from repro.tt.isop import clear_isop_memo
from repro.tt.npn import _FULL, apply_transform, npn_canonize_scalar
from repro.tt.truth import (
    bits_to_tt,
    cofactor0,
    cofactor1,
    expand_tt,
    expand_tt_scalar,
    tt_to_bits,
)

from .util import random_aig


def _random_tables(rng: random.Random, n_vars: int, count: int) -> list[int]:
    ones = full_mask(n_vars)
    tables = [0, ones]  # always hit the constants
    if n_vars:
        tables.append(var_mask(0, n_vars))
    tables += [rng.getrandbits(1 << n_vars) & ones for _ in range(count)]
    return tables


# ----------------------------------------------------------------------
# Minato-Morreale ISOP: inlined big-int core vs truth-helper composition
# ----------------------------------------------------------------------


def _isop_reference(lower: int, upper: int, n_vars: int) -> tuple[list[int], int]:
    """The pre-optimization formulation: cofactors via the
    :mod:`repro.tt.truth` helpers, base cases checked on entry, no memo.

    The production ``_isop`` must return the *same cube list in the same
    order* — the factored forms (and therefore committed graphs) depend
    on it.
    """
    ones = full_mask(n_vars)
    if lower == 0:
        return [], 0
    if upper == ones:
        return [0], ones
    var = n_vars - 1
    while var >= 0:
        if cofactor0(lower, var, n_vars) != cofactor1(lower, var, n_vars) or (
            cofactor0(upper, var, n_vars) != cofactor1(upper, var, n_vars)
        ):
            break
        var -= 1
    assert var >= 0
    l0 = cofactor0(lower, var, n_vars)
    l1 = cofactor1(lower, var, n_vars)
    u0 = cofactor0(upper, var, n_vars)
    u1 = cofactor1(upper, var, n_vars)
    cubes0, cover0 = _isop_reference(l0 & ~u1, u0, n_vars)
    cubes1, cover1 = _isop_reference(l1 & ~u0, u1, n_vars)
    remainder = (l0 & ~cover0) | (l1 & ~cover1)
    cubes_star, cover_star = _isop_reference(remainder, u0 & u1, n_vars)
    mask = var_mask(var, n_vars)
    cubes = (
        [c | 1 << (2 * var + 1) for c in cubes0]
        + [c | 1 << (2 * var) for c in cubes1]
        + cubes_star
    )
    cover = (cover0 & ~mask & ones) | (cover1 & mask) | cover_star
    return cubes, cover


class TestIsopParity:
    def test_exact_covers_match_reference_cube_lists(self):
        rng = random.Random(71)
        clear_isop_memo()
        for n_vars in (1, 2, 3, 4, 6, 8):
            for tt in _random_tables(rng, n_vars, 60):
                expected, cover = _isop_reference(tt, tt, n_vars)
                assert cover == tt
                assert isop_exact(tt, n_vars) == expected

    def test_interval_covers_match_reference_cube_lists(self):
        rng = random.Random(72)
        for n_vars in (2, 3, 4, 6):
            ones = full_mask(n_vars)
            for _ in range(80):
                lower = rng.getrandbits(1 << n_vars) & ones
                upper = lower | (rng.getrandbits(1 << n_vars) & ones)
                assert isop(lower, upper, n_vars) == (
                    _isop_reference(lower, upper, n_vars)[0]
                )

    def test_memo_state_never_changes_results(self):
        # The same table asked cold and warm must produce the same list.
        rng = random.Random(73)
        tables = _random_tables(rng, 6, 40)
        clear_isop_memo()
        cold = [isop_exact(tt, 6) for tt in tables]
        warm = [isop_exact(tt, 6) for tt in tables]
        assert cold == warm
        for tt, cubes in zip(tables, cold):
            assert sop_tt(cubes, 6) == tt


# ----------------------------------------------------------------------
# NPN canonizer: argmin gather vs the scalar first-strict-minimum scan
# ----------------------------------------------------------------------


class TestNpnParity:
    def test_random_tables_pick_identical_transforms(self):
        rng = random.Random(74)
        tables = [0, _FULL, 0xAAAA, 0x8000, 0x0001]
        tables += [rng.getrandbits(16) for _ in range(400)]
        for tt in tables:
            canonical, transform = npn_canonize(tt)
            ref_canonical, ref_transform = npn_canonize_scalar(tt)
            assert canonical == ref_canonical
            # Not just the same class: the same representative transform
            # (the rewrite cache keys instantiation off it).
            assert transform == ref_transform
            assert apply_transform(canonical, transform) == tt

    def test_rejects_wide_tables(self):
        with pytest.raises(TruthTableError):
            npn_canonize(1 << 16)


class TestPackRoundTrips:
    @pytest.mark.parametrize("n_vars", [0, 2, 6, 8])
    def test_bit_expansion_round_trips(self, n_vars):
        rng = random.Random(77 + n_vars)
        for tt in _random_tables(rng, n_vars, 30):
            bits = tt_to_bits(tt, n_vars)
            assert bits.shape == (1 << n_vars,)
            assert bits_to_tt(bits) == tt


class TestExpandParity:
    def test_random_var_maps_match_scalar(self):
        rng = random.Random(78)
        for _ in range(150):
            n_from = rng.randint(1, 6)
            # Cover both dispatch arms (scalar below 7 target vars).
            n_to = rng.randint(n_from, 9)
            var_map = [rng.randrange(n_to) for _ in range(n_from)]
            tt = rng.getrandbits(1 << n_from)
            assert expand_tt(tt, var_map, n_from, n_to) == expand_tt_scalar(
                tt, var_map, n_from, n_to
            )

    def test_duplicate_targets_and_constants(self):
        # Two source inputs on one target variable: f(a, a) semantics.
        assert expand_tt(0b1000, [3, 3], 2, 7) == expand_tt_scalar(
            0b1000, [3, 3], 2, 7
        )
        ones = full_mask(3)
        assert expand_tt(ones, [0, 1, 2], 3, 8) == full_mask(8)
        assert expand_tt(0, [0, 1, 2], 3, 8) == 0

    def test_length_mismatch_rejected_on_both_arms(self):
        with pytest.raises(TruthTableError):
            expand_tt(0b10, [0, 1], 1, 8)
        with pytest.raises(TruthTableError):
            expand_tt(0b10, [0, 1], 1, 3)


# ----------------------------------------------------------------------
# Batched cone truths: one shared ranking pass vs per-cone cone_truth
# ----------------------------------------------------------------------


def _graph_cones(g: AIG, max_leaves: int = 10):
    cones = []
    for node in g.and_ids():
        cut = reconv_cut(g, node, max_leaves, collect_features=False)
        if cut.n_leaves < 1:
            continue
        cones.append((node, tuple(cut.leaves), frozenset(cut.interior)))
    return cones


class TestBatchConeParity:
    def test_both_routes_match_cone_truth_on_random_graphs(self):
        for seed in (3, 9, 21):
            g = random_aig(10, 250, 6, seed=seed)
            cones = _graph_cones(g)
            assert len(cones) > 15
            expected = [cone_truth(g, root, list(leaves)) for root, leaves, _ in cones]
            assert batch_cone_truths(g, cones) == expected

    def test_degenerate_cones(self):
        g = AIG("deg")
        a = g.add_pi()
        b = g.add_pi()
        ab = g.add_and(a, b)
        g.add_po(ab)
        node = ab >> 1
        cones = [
            # Single-leaf cut: the root *is* the only leaf.
            (node, (node,), frozenset()),
            # Duplicate leaves: the later index names the variable.
            (node, (a >> 1, b >> 1, a >> 1), frozenset({node})),
            # Constant-zero root over an empty cut.
            (0, (), frozenset()),
            # Leaf list containing the constant node.
            (node, (0, a >> 1, b >> 1), frozenset({node})),
        ]
        expected = [cone_truth(g, root, list(leaves)) for root, leaves, _ in cones]
        assert batch_cone_truths(g, cones) == expected

    def test_uncovered_cone_raises_on_both_routes(self):
        g = random_aig(6, 40, 2, seed=5)
        node = next(iter(g.and_ids()))
        bad = [(node, (node + 1000,), frozenset({node}))]
        with pytest.raises(TruthTableError):
            batch_cone_truths(g, bad)


# ----------------------------------------------------------------------
# Batch reconvergence-driven cuts vs the scalar grower
# ----------------------------------------------------------------------


def _assert_batch_matches_scalar(g, roots, max_leaves):
    cuts = batch_reconv_cuts(g, roots, max_leaves)
    assert cuts.features.shape == (len(roots), 6)
    for i, root in enumerate(roots):
        expected = reconv_cut(g, root, max_leaves)
        got = cuts.cut(i)
        assert got.root == root
        assert got.leaves == expected.leaves  # order fixes the truth table
        assert got.interior == expected.interior
        assert tuple(cuts.features[i]) == expected.features.as_tuple()
    return cuts


def _rewritten(name: str) -> AIG:
    g = epfl_circuit(name, "tiny")
    rewrite(g)
    return g


class TestBatchCutParity:
    @pytest.mark.parametrize("max_leaves", range(2, 13))
    def test_random_graphs_every_leaf_limit(self, max_leaves):
        for seed in (4, 17):
            g = random_aig(9, 220, 5, seed=seed)
            _assert_batch_matches_scalar(g, g.and_ids(), max_leaves)

    @pytest.mark.parametrize("max_leaves", [4, 8, 10])
    def test_rewritten_graphs_with_non_topological_ids(self, max_leaves):
        for name in ("div", "sqrt", "multiplier"):
            g = _rewritten(name)
            roots = g.and_ids()
            order = {node: i for i, node in enumerate(roots)}
            # rewrite leaves fanins allocated after their fanouts
            assert any(
                order.get(lit >> 1, -1) > order[node]
                for node in roots
                for lit in g.fanin_lits(node)
            )
            _assert_batch_matches_scalar(g, roots, max_leaves)

    def test_roots_in_any_order_and_repeated(self):
        g = random_aig(8, 150, 4, seed=23)
        roots = g.and_ids()[::-1] + g.and_ids()[:5]
        _assert_batch_matches_scalar(g, roots, 10)

    def test_empty_root_list(self):
        cuts = batch_reconv_cuts(random_aig(6, 40, 2, seed=1), [], 10)
        assert cuts.features.shape == (0, 6)
        assert cuts.leaf_ptr.tolist() == [0] and cuts.leaves.size == 0
        assert cuts.interior_ptr.tolist() == [0] and cuts.interior.size == 0

    def test_scalar_fallback_for_wide_interiors(self, monkeypatch):
        monkeypatch.setattr(batch_cuts, "INTERIOR_WIDTH", 2)
        g = _rewritten("hyp")
        cuts = _assert_batch_matches_scalar(g, g.and_ids(), 10)
        sizes = np.diff(cuts.interior_ptr)
        assert (sizes > 2).any() and (sizes <= 2).any()  # both paths taken

    def test_one_row_chunks(self, monkeypatch):
        monkeypatch.setattr(batch_cuts, "CHUNK_BYTES", 1)
        g = _rewritten("log2")
        _assert_batch_matches_scalar(g, g.and_ids(), 6)
