"""The three in-process workloads: elf-epfl, resyn2-industrial, waves-mixed.

Every timed call starts from a fresh clone and a cleared process-wide ISOP
memo, and each ``resyn2`` run from a fresh ``OptSession`` with its own
``NpnLibrary``, so no call inherits another's memo.  The seed draws the
order of each cycle over the circuits and which side of an interleaved
pair runs first, and seeds the probabilistic output checks.  The circuit
sets are fixed, so that every seed measures the same work.
"""

from __future__ import annotations

import os
import shutil
from collections import defaultdict

from repro.circuits import epfl_circuit, epfl_suite, industrial_design
from repro.elf.operator import elf_refactor
from repro.elf.pipeline import evaluate_classifier
from repro.engine import EngineParams, engine_refactor
from repro.harness import loo_classifiers, suite_datasets
from repro.opt.flow import RESYN2
from repro.opt.npn_library import NpnLibrary
from repro.opt.refactor import refactor
from repro.opt.session import OptSession
from repro.tt.isop import clear_isop_memo

from common import geomean, median, pct_delta, ratio, self_peak_rss_mb

PAPER_SPEEDUP = {
    "div": 4.76,
    "hyp": 7.33,
    "log2": 5.46,
    "multiplier": 7.69,
    "sqrt": 2.50,
    "square": 4.00,
}
"""ELF's speedup over ``rf`` per circuit in the paper's Table III."""


def _sides(run, pair):
    return pair if run.rng.random() < 0.5 else pair[::-1]


def _fresh(run, g):
    """A clone of ``g`` and a cold ISOP memo (the benchmark's own work)."""
    with run.tracer.span("prepare", "bench"):
        clone = g.clone()
        clear_isop_memo()
    return clone


def _hand(span, **seconds) -> None:
    """Attribute parts of a traced call to other layers (stats buckets)."""
    if span is not None:
        span.handed = seconds


def _refactor_values(prefix: str, stats) -> dict[str, float]:
    return {
        f"{prefix}.cut_s": stats.time_cut,
        f"{prefix}.truth_s": stats.time_truth,
        f"{prefix}.resynth_s": stats.time_resynth,
        f"{prefix}.commit_s": stats.time_commit,
        f"{prefix}.cuts_formed": stats.cuts_formed,
        f"{prefix}.commits": stats.commits,
        f"{prefix}.visited": stats.nodes_visited,
    }


def _refactor_metrics(run, prefix: str) -> dict[str, float]:
    t = run.total
    return {
        f"{prefix}.cut_s": t(f"{prefix}.cut_s"),
        f"{prefix}.truth_s": t(f"{prefix}.truth_s"),
        f"{prefix}.resynth_s": t(f"{prefix}.resynth_s"),
        f"{prefix}.commit_s": t(f"{prefix}.commit_s"),
        f"{prefix}.commit_frac": ratio(t(f"{prefix}.commits"), t(f"{prefix}.cuts_formed")),
    }


def _reference_rf(run, name: str, clone) -> bool:
    """The sequential ``rf`` pass the candidate is compared against; False
    when it raised."""
    seconds, stats, span = run.timed_call((name, "rf"), f"rf:{name}", "opt", refactor, clone)
    if stats is None:
        return False
    _hand(span, cuts=stats.time_cut)
    run.record(
        name,
        {
            "rf_s": seconds,
            "rf_ands": clone.n_ands,
            "rf_levels": clone.max_level(),
            **_refactor_values("refactor", stats),
        },
    )
    return True


def _end_to_end(run, key: str, ands_key: str, levels_key: str) -> dict[str, float]:
    """The end-to-end metrics every in-process workload reports."""
    return {
        "setup_s": median(run.setup_times),
        "peak_rss_mb": self_peak_rss_mb(),
        "batch_s": run.total(key),
        "ands": run.total(ands_key),
        "levels": run.total(levels_key),
    }


# -- elf-epfl -----------------------------------------------------------------


def elf_epfl(run):
    """Table III: ``rf`` vs ELF on the six EPFL-like circuits at ``large``."""

    def build(attempt):
        # A private, empty cache per set-up: harvest and LOO training run
        # cold and never load an artifact of another scale or run (the
        # harness keys ``epfl_<name>`` ignore scale).
        cache = run.workdir / f"cache-{attempt}"
        shutil.rmtree(cache, ignore_errors=True)
        os.environ["REPRO_CACHE_DIR"] = str(cache)
        default = epfl_suite("default")
        datasets = suite_datasets(default, "epfl")
        classifiers = loo_classifiers(datasets, "epfl")
        return epfl_suite("large"), default, datasets, classifiers

    large, default, datasets, classifiers = run.set_up(build)
    for name, g in large.items():
        run.register(name, g)

    # Untimed warm-up: one pass of each side on a default-scale circuit.
    refactor(default["square"].clone())
    elf_refactor(default["square"].clone(), classifiers["square"])

    names = list(large)
    for name in run.schedule(names):
        outputs = []
        for side in _sides(run, ("rf", "elf")):
            clone = _fresh(run, large[name])
            if side == "rf":
                ok = _reference_rf(run, name, clone)
            else:
                ok = _elf_pass(run, name, clone, classifiers[name])
            if ok:
                outputs.append(clone)
        for clone in outputs:
            run.check(name, large[name], clone)

    t = run.total
    metrics = _end_to_end(run, "elf_s", "elf_ands", "elf_levels")
    layer = {
        "elf.rf_s": t("rf_s"),
        "elf.cut_calls": t("elf.cut_calls"),
        "elf.inference_s": t("elf.inference_s"),
        "elf.pruned": t("elf.pruned"),
        "elf.keep_frac": 1.0 - ratio(t("elf.pruned"), t("elf.visited")),
        "refactor.cuts_formed": t("refactor.cuts_formed"),
        "refactor.commits": t("refactor.commits"),
        "refactor.ands": t("rf_ands"),
        "elf.and_delta_pct": pct_delta(metrics["ands"], t("rf_ands")),
        "elf.level_delta_pct": pct_delta(metrics["levels"], t("rf_levels")),
        **_refactor_metrics(run, "elf"),
        **_refactor_metrics(run, "refactor"),
    }

    per = {
        key: defaultdict(float, run.per_circuit(key))
        for key in ("rf_s", "elf_s", "rf_ands", "elf_ands", "rf_levels", "elf_levels")
    }
    rows = []
    for name in names:
        confusion = evaluate_classifier(datasets[name], classifiers[name])
        row = {
            "design": name,
            "nodes": large[name].n_ands,
            "rf_s": per["rf_s"][name],
            "elf_s": per["elf_s"][name],
            "speedup": ratio(per["rf_s"][name], per["elf_s"][name]),
            "paper_speedup": PAPER_SPEEDUP[name],
            "and_delta_pct": pct_delta(per["elf_ands"][name], per["rf_ands"][name]),
            "level_delta_pct": pct_delta(per["elf_levels"][name], per["rf_levels"][name]),
            "loo_recall": confusion.recall,
            "loo_precision": confusion.precision,
        }
        rows.append(row)
        layer[f"elf.{name}.speedup"] = row["speedup"]
        layer[f"elf.{name}.and_delta_pct"] = row["and_delta_pct"]
    layer["elf.speedup"] = geomean(r["speedup"] for r in rows)
    layer["elf.loo_recall"] = sum(r["loo_recall"] for r in rows) / len(rows)
    layer["elf.loo_precision"] = sum(r["loo_precision"] for r in rows) / len(rows)
    run.extra["table3_rows"] = rows
    return metrics, layer


def _elf_pass(run, name: str, clone, classifier) -> bool:
    seconds, stats, span = run.timed_call(
        (name, "elf"), f"elf:{name}", "elf", elf_refactor, clone, classifier
    )
    if stats is None:
        return False
    _hand(
        span,
        cuts=stats.time_cut,
        opt=stats.time_truth + stats.time_resynth + stats.time_commit,
    )
    run.record(
        name,
        {
            "elf_s": seconds,
            "elf_ands": clone.n_ands,
            "elf_levels": clone.max_level(),
            "elf.inference_s": stats.time_inference,
            "elf.pruned": stats.pruned,
            # Pass 1 forms a featured cut per AND; pass 2 re-forms the kept.
            "elf.cut_calls": stats.nodes_visited + stats.cuts_formed,
            **_refactor_values("elf", stats),
        },
    )
    return True


# -- resyn2-industrial --------------------------------------------------------

RESYN2_DESIGNS = (2, 4, 9, 10)
RESYN2_SIZE = 0.5
"""Industrial-style designs of similar ``resyn2`` cost, at half size so
that a run gets several turns of each: three with refactoring success
below 1% and design 10, a high-redundancy outlier of Table II."""


def resyn2_industrial(run):
    """``resyn2`` through one ``OptSession`` per design and turn."""

    def build(_attempt):
        return {
            f"design_{i}": industrial_design(i, RESYN2_SIZE) for i in RESYN2_DESIGNS
        }

    designs = run.set_up(build)
    for name, g in designs.items():
        run.register(name, g)

    # Untimed warm-up on the smallest industrial-style design.
    with OptSession(library=NpnLibrary()) as session:
        session.run(industrial_design(8, RESYN2_SIZE), RESYN2)

    for name in run.schedule(list(designs)):
        clone = _fresh(run, designs[name])
        library = NpnLibrary()
        with OptSession(library=library) as session:
            seconds, result, span = run.timed_call(
                name, f"resyn2:{name}", "opt", session.run, clone, RESYN2
            )
            cache = session.resynth_cache if session.cache_materialized else None
        if result is None:
            continue
        out, report = result
        values = _flow_values(report, cache, library)
        _hand(span, cuts=values["refactor.cut_s"])
        run.record(
            name,
            {
                "flow_s": seconds,
                "flow_ands": out.n_ands,
                "flow_levels": out.max_level(),
                **values,
            },
        )
        run.check(name, designs[name], out)

    t = run.total
    layer = {
        "flow.balance_s": t("flow.balance_s"),
        "flow.rewrite_s": t("flow.rewrite_s"),
        "flow.refactor_s": t("flow.refactor_s"),
        "flow.rewrite_gain": t("flow.rewrite_gain"),
        "flow.refactor_gain": t("flow.refactor_gain"),
        "flow.rewrite_commit_frac": ratio(t("flow.rewrite_commits"), t("flow.rewrite_tried")),
        "flow.cache_hit_frac": ratio(t("flow.cache_hits"), t("flow.cache_lookups")),
        "flow.npn_library_size": t("flow.npn_library_size"),
        "refactor.cuts_formed": t("refactor.cuts_formed"),
        "refactor.commits": t("refactor.commits"),
        **_refactor_metrics(run, "refactor"),
    }
    return _end_to_end(run, "flow_s", "flow_ands", "flow_levels"), layer


def _flow_values(report, cache, library) -> dict[str, float]:
    """Per-layer sums over the steps of one ``resyn2`` report."""
    values: dict[str, float] = defaultdict(float)
    for step in report.steps:
        head = step.normalized.split()[0]
        if head == "b":
            values["flow.balance_s"] += step.runtime
        elif head in ("rw", "rwz"):
            values["flow.rewrite_s"] += step.runtime
            values["flow.rewrite_gain"] += step.detail.gain_total
            values["flow.rewrite_commits"] += step.detail.commits
            values["flow.rewrite_tried"] += step.detail.cuts_tried
        elif head in ("rf", "rfz"):
            values["flow.refactor_s"] += step.runtime
            values["flow.refactor_gain"] += step.detail.gain_total
            for key, value in _refactor_values("refactor", step.detail).items():
                values[key] += value
    if cache is not None:
        hits = cache.hits_exact + cache.hits_npn
        values["flow.cache_hits"] = hits
        values["flow.cache_lookups"] = hits + cache.misses
    values["flow.npn_library_size"] = len(library)
    return values


# -- waves-mixed --------------------------------------------------------------

WAVE_WORKERS = 2
WAVE_SIZE = 0.15
"""Size of the industrial-style designs of ``waves-mixed``: small enough
that, next to the EPFL-like multiplier, each circuit gets three to four
turns in an 18 s run, so that its median rests on more than two samples."""


def waves_mixed(run):
    """Sequential ``rf`` vs ``engine_refactor(workers=2)``, interleaved.

    Two industrial-style designs at 15% size, where resynthesis dominates
    and the worker pool does the work (the pool holds 70-85% of the
    engine's time), and the EPFL-like multiplier at ``large`` scale, where
    about 97% of evaluation tasks dedup away and the engine's serial
    stages dominate.
    """

    def build(_attempt):
        return {
            "design_3": industrial_design(3, WAVE_SIZE),
            "design_6": industrial_design(6, WAVE_SIZE),
            "multiplier": epfl_circuit("multiplier", "large"),
        }

    circuits = run.set_up(build)
    for name, g in circuits.items():
        run.register(name, g)

    # Untimed warm-up of both sides (the engine side forks its pool).
    warm = epfl_circuit("square", "default")
    refactor(warm.clone())
    engine_refactor(warm.clone(), EngineParams(workers=WAVE_WORKERS))

    names = list(circuits)
    for name in run.schedule(names):
        outputs = []
        for side in _sides(run, ("rf", "wave")):
            clone = _fresh(run, circuits[name])
            if side == "rf":
                ok = _reference_rf(run, name, clone)
            else:
                ok = _wave_pass(run, name, clone)
            if ok:
                outputs.append(clone)
        for clone in outputs:
            run.check(name, circuits[name], clone)

    t = run.total
    metrics = _end_to_end(run, "wave_s", "wave_ands", "wave_levels")
    rf_s = defaultdict(float, run.per_circuit("rf_s"))
    wave_s = defaultdict(float, run.per_circuit("wave_s"))
    layer = {
        "wave.snapshot_s": t("wave.snapshot_s"),
        "wave.conflict_s": t("wave.conflict_s"),
        "wave.parallel_s": t("wave.parallel_s"),
        "wave.replay_s": t("wave.replay_s"),
        "wave.resnapshot_s": t("wave.resnapshot_s"),
        "wave.serial_frac": 1.0 - ratio(t("wave.parallel_s"), metrics["batch_s"]),
        "wave.n_waves": t("wave.n_waves"),
        "wave.repair_waves": t("wave.repair_waves"),
        "wave.dedup_frac": 1.0 - ratio(t("wave.unique_tasks"), t("wave.tasks")),
        "wave.invalidated": t("wave.invalidated"),
        "wave.delegated": t("wave.delegated"),
        "wave.rf_s": sum(rf_s.values()),
        "wave.speedup": geomean(ratio(rf_s[n], wave_s[n]) for n in names),
        "wave.and_delta_pct": pct_delta(metrics["ands"], t("rf_ands")),
        "refactor.cuts_formed": t("refactor.cuts_formed"),
        "refactor.commits": t("refactor.commits"),
        "refactor.ands": t("rf_ands"),
        **_refactor_metrics(run, "refactor"),
    }
    return metrics, layer


def _wave_pass(run, name: str, clone) -> bool:
    seconds, stats, span = run.timed_call(
        (name, "wave"),
        f"wave:{name}",
        "engine",
        engine_refactor,
        clone,
        EngineParams(workers=WAVE_WORKERS),
    )
    if stats is None:
        return False
    # Snapshots form the cuts; the pool's wall time is resynthesis (opt).
    _hand(span, cuts=stats.time_snapshot, opt=stats.time_parallel)
    run.record(
        name,
        {
            "wave_s": seconds,
            "wave_ands": clone.n_ands,
            "wave_levels": clone.max_level(),
            "wave.snapshot_s": stats.time_snapshot,
            "wave.conflict_s": stats.time_conflict,
            "wave.parallel_s": stats.time_parallel,
            "wave.replay_s": stats.time_replay,
            "wave.resnapshot_s": stats.time_resnapshot,
            "wave.n_waves": stats.n_waves,
            "wave.repair_waves": stats.n_repair_waves,
            "wave.tasks": stats.n_tasks,
            "wave.unique_tasks": stats.n_unique_tasks,
            "wave.invalidated": stats.n_invalidated,
            "wave.delegated": int(stats.delegated),
        },
    )
    return True
