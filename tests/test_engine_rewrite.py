"""Tests for ``prw``/``prwz``: the spellings that run the sequential rewrite."""

import pytest

from repro.aig.io_bench import to_text
from repro.circuits import layered_random_aig
from repro.errors import ReproError
from repro.opt import rewrite, run_flow
from repro.opt.rewrite import RewriteStats
from repro.verify import equivalent


class TestWorkersOneParity:
    def test_flow_prw_w1_matches_rw(self):
        g = layered_random_aig(12, 600, seed=7)
        via_flow, report = run_flow(g.clone(), "prw -w 1")
        sequential = g.clone()
        rewrite(sequential)
        assert to_text(via_flow) == to_text(sequential)
        assert isinstance(report.steps[0].detail, RewriteStats)
        # prw runs the sequential rewrite at every width: -w is parsed,
        # validated and ignored.
        for script, reference in (("prw -w 2", "rw"), ("prwz -l -w 2", "rwz -l")):
            out, _ = run_flow(g.clone(), script)
            expected, _ = run_flow(g.clone(), reference)
            assert to_text(out) == to_text(expected), script


class TestWaveRewrite:
    def test_zero_cost_and_levels_variant(self):
        g = layered_random_aig(12, 500, seed=3)
        level_before = g.max_level()
        out, _report = run_flow(g.clone(), "prwz -l -w 2")
        assert equivalent(g, out, method="exhaustive")
        assert out.max_level() <= level_before

    def test_bad_workers_flag(self):
        g = layered_random_aig(8, 60, seed=1)
        with pytest.raises(ReproError):
            run_flow(g, "prw -w")


class TestServeCompatibility:
    def test_served_prw_flow_is_byte_identical_at_w1(self):
        from repro.harness import serve_throughput

        suite = {
            f"rw-{seed}": layered_random_aig(10, 300, seed=seed, name=f"rw-{seed}")
            for seed in (1, 2, 3)
        }
        rows, report = serve_throughput(
            suite, flow="b; prw; b", n_shards=2, workers=1, check_identity=True
        )
        assert len(rows) == 3
        assert all(row.error is None for row in rows)
        assert all(row.identical for row in rows)
