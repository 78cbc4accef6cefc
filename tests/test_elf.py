"""Tests for the ELF classifier wrapper, operator and pipeline."""

import numpy as np
import pytest

from repro import obs
from repro.aig import check
from repro.circuits import EPFL_NAMES, epfl_circuit
from repro.circuits.arith import adder, multiplier
from repro.cuts import reconv_cut, stack_features
from repro.elf import (
    ElfClassifier,
    ElfParams,
    collect_dataset,
    compare,
    elf_refactor,
    evaluate_classifier,
    train_leave_one_out,
)
from repro.errors import TrainingError
from repro.ml import MLP, CutDataset, TrainConfig, train_classifier
from repro.opt import RefactorParams, RefactorStats, refactor_node, rewrite
from repro.verify import equivalent

from .util import random_aig


def constant_classifier(keep_everything=True):
    """A classifier whose output is effectively constant."""
    model = MLP((6, 2, 1), seed=0)
    for w in model.weights:
        w[:] = 0.0
    model.biases[-1][:] = 10.0 if keep_everything else -10.0
    return ElfClassifier(model, threshold=0.5)


def trained_classifier(seed=0):
    graphs = [random_aig(7, 150, 4, seed=s, name=f"g{s}") for s in (1, 2, 3)]
    datasets = {g.name: collect_dataset(g) for g in graphs}
    return train_leave_one_out(
        datasets, "g1", TrainConfig(epochs=5, seed=seed), target_recall=0.95
    )


class TestClassifier:
    def test_parameter_count_paper(self):
        clf = trained_classifier()
        assert clf.n_parameters == 325

    def test_keep_mask_shapes(self):
        clf = constant_classifier(True)
        x = np.random.default_rng(0).uniform(0, 10, size=(7, 6))
        mask = clf.keep_mask(x)
        assert mask.shape == (7,)
        assert mask.all()
        assert not constant_classifier(False).keep_mask(x).any()
        assert clf.keep_mask(np.zeros((0, 6))).shape == (0,)

    def test_input_dimension_enforced(self):
        with pytest.raises(TrainingError):
            ElfClassifier(MLP((5, 2, 1)))

    def test_save_load_roundtrip(self, tmp_path):
        clf = trained_classifier()
        path = tmp_path / "clf.npz"
        clf.save(path)
        loaded = ElfClassifier.load(path)
        x = np.random.default_rng(1).uniform(0, 20, size=(9, 6))
        assert np.allclose(clf.predict_proba(x), loaded.predict_proba(x))
        assert loaded.threshold == clf.threshold


class TestOperator:
    def test_keep_all_equals_baseline_quality(self):
        g = random_aig(7, 150, 4, seed=10)
        reference = g.clone()
        baseline = g.clone()
        from repro.opt import refactor

        base_stats = refactor(baseline)
        elf_stats = elf_refactor(g, constant_classifier(True))
        check(g)
        assert equivalent(reference, g)
        assert g.n_ands == baseline.n_ands
        assert elf_stats.pruned == 0
        assert elf_stats.commits == base_stats.commits

    def test_prune_all_does_nothing_fast(self):
        g = random_aig(7, 150, 4, seed=11)
        before = g.n_ands
        stats = elf_refactor(g, constant_classifier(False))
        assert g.n_ands == before
        assert stats.commits == 0
        assert stats.pruned == stats.nodes_visited

    def test_function_preserved_with_trained_classifier(self):
        clf = trained_classifier()
        for seed in (20, 21):
            g = random_aig(7, 150, 4, seed=seed)
            reference = g.clone()
            before = g.n_ands
            elf_refactor(g, clf)
            check(g)
            assert equivalent(reference, g)
            assert g.n_ands <= before

    def test_streaming_mode_works(self):
        # Batched mode classifies on the *initial* graph's features and can
        # go stale after commits (paper SS III-B: costs runtime, not area);
        # streaming sees fresh features, so decisions may differ slightly.
        clf = trained_classifier()
        g1 = random_aig(7, 120, 4, seed=30)
        g2 = g1.clone()
        reference = g1.clone()
        s_batched = elf_refactor(g1, clf, ElfParams(batched=True))
        s_stream = elf_refactor(g2, clf, ElfParams(batched=False))
        check(g1)
        check(g2)
        assert equivalent(reference, g1)
        assert equivalent(reference, g2)
        assert s_batched.pruned > 0
        assert s_stream.pruned > 0
        assert s_stream.time_inference > 0

    def test_collector_sees_survivors_only(self):
        clf = trained_classifier()
        g = random_aig(7, 120, 4, seed=31)
        records = []
        stats = elf_refactor(g, clf, collector=lambda f, c: records.append((f, c)))
        assert len(records) == stats.nodes_visited - stats.pruned


class TestPipeline:
    def test_collect_dataset_leaves_graph_untouched(self):
        g = random_aig(7, 120, 4, seed=40)
        before = g.n_ands
        ds = collect_dataset(g)
        assert g.n_ands == before
        assert len(ds) > 0
        assert ds.name == g.name

    def test_leave_one_out_excludes_test(self):
        datasets = {
            "a": CutDataset(np.random.rand(50, 6), np.random.rand(50) < 0.2, "a"),
            "b": CutDataset(np.random.rand(50, 6), np.random.rand(50) < 0.2, "b"),
        }
        clf = train_leave_one_out(datasets, "a", TrainConfig(epochs=2))
        assert clf.n_parameters == 325
        with pytest.raises(TrainingError):
            train_leave_one_out(datasets, "zzz")
        with pytest.raises(TrainingError):
            train_leave_one_out({"only": datasets["a"]}, "only")

    def test_evaluate_classifier_counts(self):
        ds = CutDataset(np.random.rand(40, 6) * 5, np.zeros(40))
        c = evaluate_classifier(ds, constant_classifier(False))
        assert c.tn == 40 and c.tp == 0
        assert c.accuracy == 1.0

    def test_compare_row(self):
        clf = trained_classifier()
        g = adder(8)
        g.name = "adder8"
        row = compare(g, clf)
        assert row.design == "adder8"
        assert row.baseline_runtime > 0 and row.elf_runtime > 0
        assert row.speedup > 0
        assert row.elf_ands >= row.baseline_ands  # pruning can only miss gains
        assert abs(row.and_diff_pct) < 50
        assert 0 <= row.prune_fraction <= 1

    def test_compare_elf_twice(self):
        clf = trained_classifier()
        g = multiplier(5)
        row1 = compare(g, clf, elf_applications=1)
        row2 = compare(g, clf, elf_applications=2)
        assert row2.elf_ands <= row1.elf_ands  # second pass can only help
        assert row2.elf_runtime >= row1.elf_runtime * 0.5


def reference_elf(g, classifier, params=None):
    """Algorithm 2 as written: a scalar cut with features for every node,
    one ``keep_mask`` over them all, then every kept cut grown again."""
    params = (params or ElfParams()).refactor
    stats = RefactorStats()
    nodes = g.and_ids()
    cuts = [reconv_cut(g, node, params.max_leaves) for node in nodes]
    keep = classifier.keep_mask(stack_features([cut.features for cut in cuts]))
    cache = {}
    for position, node in enumerate(nodes):
        if g.is_dead(node):
            continue
        stats.nodes_visited += 1
        if not keep[position]:
            stats.pruned += 1
            continue
        stats.cuts_formed += 1
        cut = reconv_cut(g, node, params.max_leaves, collect_features=False)
        refactor_node(g, node, cut, params, None, stats, cache)
    return stats


ORACLE_COUNTERS = ("nodes_visited", "pruned", "cuts_formed", "commits")


class TestAlgorithm2Oracle:
    """The batch sweep and pass-2 cone reuse change runtime, never results."""

    @pytest.fixture(scope="class")
    def clf(self):
        return trained_classifier()

    def assert_same_pass(self, g, clf, params, passes=1):
        ours, theirs = g.clone(), g.clone()
        for _ in range(passes):
            stats = elf_refactor(ours, clf, params)
            expected = reference_elf(theirs, clf, params)
            for name in ORACLE_COUNTERS:
                assert getattr(stats, name) == getattr(expected, name), name
            assert ours.structural_digest() == theirs.structural_digest()
            assert 0 < stats.pruned < stats.nodes_visited
            assert 0 <= stats.cuts_reused <= stats.cuts_formed
        return stats

    @pytest.mark.parametrize("name", EPFL_NAMES)
    def test_default_epfl_circuits(self, clf, name):
        stats = self.assert_same_pass(epfl_circuit(name), clf, ElfParams())
        assert stats.cuts_reused > 0

    @pytest.mark.parametrize("max_leaves", [6, 10])
    @pytest.mark.parametrize("name", ["div", "sqrt"])
    def test_after_rewrite(self, clf, name, max_leaves):
        g = epfl_circuit(name)
        rewrite(g)
        params = ElfParams(refactor=RefactorParams(max_leaves=max_leaves))
        self.assert_same_pass(g, clf, params)

    @pytest.mark.parametrize("max_leaves", [6, 10])
    def test_elf_twice_after_rewrite(self, clf, max_leaves):
        g = epfl_circuit("multiplier")
        rewrite(g)
        params = ElfParams(refactor=RefactorParams(max_leaves=max_leaves))
        self.assert_same_pass(g, clf, params, passes=2)

    def test_collector_sees_the_resynthesized_cut(self, clf):
        g = epfl_circuit("div")
        records = []
        stats = elf_refactor(g, clf, collector=lambda f, c: records.append((f, c)))
        committed = [f for f, c in records if c]
        assert len(committed) == stats.commits > 0
        assert all(f.cut_size > 0 and f.n_leaves >= 2 for f in committed)
        assert all(f.root_fanout > 0 for f in committed)

    def test_span_reports_pass_two_reuse(self, clf):
        obs.configure(enabled=True)
        try:
            stats = elf_refactor(epfl_circuit("sqrt"), clf)
            (span,) = [s for s in obs.tracer().spans() if s.name == "elf.refactor"]
        finally:
            obs.configure(enabled=False)
            obs.reset()
        assert span.attrs["reused"] == stats.cuts_reused > 0
        assert span.attrs["pruned"] == stats.pruned
