"""Micro-kernel benchmarks: the per-cut primitives of the refactor loop.

These are the operations whose balance determines ELF's speedup: cut
construction and feature collection stay (per cut on the scalar path, or
for a whole sweep in the batch kernel of ELF's pass 1); truth table +
ISOP + factoring + counting are what pruning eliminates.
"""

import pytest

from repro.aig import cone_truth, lit_node, make_lit, mffc_nodes
from repro.circuits import epfl_circuit
from repro.cuts import batch_reconv_cuts, reconv_cut
from repro.factor import count_tree, factor
from repro.tt import isop_exact


@pytest.fixture(scope="module")
def workload():
    g = epfl_circuit("multiplier")
    nodes = g.and_ids()[200:260]
    cuts = [reconv_cut(g, n) for n in nodes]
    tts = [cone_truth(g, c.root, c.leaves) for c in cuts]
    sops = [isop_exact(tt, c.n_leaves) for tt, c in zip(tts, cuts)]
    trees = [factor(s) for s in sops]
    return g, nodes, cuts, tts, sops, trees


def test_kernel_reconv_cut(benchmark, workload):
    g, nodes, *_ = workload
    benchmark(lambda: [reconv_cut(g, n) for n in nodes])


def test_kernel_cut_features(benchmark, workload):
    g, nodes, *_ = workload
    out = benchmark(
        lambda: [reconv_cut(g, n, collect_features=True).features for n in nodes]
    )
    assert all(f is not None for f in out)


@pytest.fixture(scope="module")
def sweep():
    g = epfl_circuit("multiplier")
    return g, g.and_ids()


def test_kernel_sweep_cut_features(benchmark, sweep):
    """Scalar ELF pass 1: one featured cut per AND of the circuit."""
    g, nodes = sweep
    benchmark(lambda: [reconv_cut(g, n, collect_features=True).features for n in nodes])


def test_kernel_batch_cuts(benchmark, sweep):
    """The same sweep through the batch kernel (ELF's pass 1 in production).

    Its per-step numpy overhead is amortized over the rows of a sweep; on a
    few dozen roots the scalar path is faster.
    """
    g, nodes = sweep
    cuts = benchmark(lambda: batch_reconv_cuts(g, nodes, 10))
    assert cuts.features.shape == (len(nodes), 6)


def test_kernel_cone_truth(benchmark, workload):
    g, _nodes, cuts, *_ = workload
    benchmark(lambda: [cone_truth(g, c.root, c.leaves) for c in cuts])


def test_kernel_isop(benchmark, workload):
    _g, _nodes, cuts, tts, *_ = workload
    benchmark(lambda: [isop_exact(tt, c.n_leaves) for tt, c in zip(tts, cuts)])


def test_kernel_factor(benchmark, workload):
    *_rest, sops, _trees = workload
    benchmark(lambda: [factor(s) for s in sops])


def test_kernel_mffc(benchmark, workload):
    g, _nodes, cuts, *_ = workload
    benchmark(lambda: [mffc_nodes(g, c.root, set(c.leaves)) for c in cuts])


def test_kernel_count_tree(benchmark, workload):
    g, _nodes, cuts, _tts, _sops, trees = workload
    def run():
        out = []
        for cut, tree in zip(cuts, trees):
            leaf_lits = [make_lit(leaf) for leaf in cut.leaves]
            out.append(count_tree(g, tree, leaf_lits, set(), 1 << 20))
        return out
    results = benchmark(run)
    assert all(r is not None for r in results)
