"""Sharded serving throughput: many circuits in flight on shard processes.

A suite of 9 circuits (the tiny EPFL-like six plus three synthetic
designs) is served through an ELF flow across 3 shard processes.  The
run records

* the **streamed completion order** — results are consumed as circuits
  finish, not after the slowest shard;
* a **byte-identity audit** — at ``workers=1`` every streamed result is
  re-derived by a blocking per-circuit ``run_flow`` and the BENCH texts
  must match exactly (the serving layer's correctness contract);
* **tail latency** — nearest-rank p50/p95/p99 of the per-circuit
  runtimes — and the content-addressed cache **hit rate** of the run.

A second measurement, :func:`run_cold_warm`, serves the same suite twice
with one shared
:class:`repro.serve.ResultStore` — a cold pass (0% repeat traffic) and a
warm pass (100% repeats, every circuit answered from the cache) — and
folds the pair into the repo-level ``BENCH_engine.json`` trajectory as
``operator: "serve"`` rows.  The warm row certifies the cache contract:
every hit is byte-identical to its cold miss, at double-digit speedup.

Results go to ``benchmarks/results/serve_throughput.json`` alongside the
rendered table.  Throughput depends on the cores behind the shard
processes; the ``cpu_count`` field records them.

Runs standalone too: ``PYTHONPATH=src python benchmarks/bench_serve_throughput.py``.
"""

import json
import os
from pathlib import Path

from repro import obs
from repro.circuits import epfl_suite, layered_random_aig, random_aig
from repro.elf import collect_dataset, train_leave_one_out
from repro.harness import format_table, serve_throughput, write_report
from repro.ml import TrainConfig
from repro.serve import ResultStore, ServeParams, serve_suite

FLOW = "b; elf"
COLD_WARM_FLOW = "b; rf"  # classifier-less: the flow the service runs
N_SHARDS = 3
WORKERS = 1  # the deterministic mode the byte-identity contract covers


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile (the convention perf dashboards use)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without math import
    return ordered[int(rank) - 1]


def latency_percentiles(runtimes: list) -> dict:
    return {
        "p50_s": round(percentile(runtimes, 50), 4),
        "p95_s": round(percentile(runtimes, 95), 4),
        "p99_s": round(percentile(runtimes, 99), 4),
    }


def build_suite() -> dict:
    """Nine small circuits: EPFL-like tiny six + three synthetic designs."""
    suite = dict(epfl_suite("tiny"))
    suite["layered-a"] = layered_random_aig(n_pis=12, n_ands=500, seed=5, name="layered-a")
    suite["layered-b"] = layered_random_aig(n_pis=13, n_ands=700, seed=9, name="layered-b")
    suite["rand-c"] = random_aig(n_pis=10, n_ands=400, n_pos=8, seed=3, name="rand-c")
    return suite


def build_classifier():
    """Quick classifier trained on held-out random circuits (not the suite)."""
    graphs = [
        random_aig(n_pis=8, n_ands=200, n_pos=4, seed=s, name=f"train{s}")
        for s in (21, 22, 23)
    ]
    datasets = {g.name: collect_dataset(g) for g in graphs}
    return train_leave_one_out(
        datasets, "train21", TrainConfig(epochs=8, seed=0), target_recall=0.95
    )


def run_serve(flow=FLOW, n_shards=N_SHARDS, workers=WORKERS) -> dict:
    suite = build_suite()
    classifier = build_classifier()
    obs.reset()  # per-run registry numbers: serving metrics start at zero
    store = ResultStore(max_entries=64)
    rows, report = serve_throughput(
        suite,
        flow=flow,
        n_shards=n_shards,
        workers=workers,
        classifier=classifier,
        check_identity=(workers == 1),
        store=store,
    )
    payload = {
        "cores": os.cpu_count() or 1,
        "cpu_count": os.cpu_count() or 1,
        "flow": flow,
        "n_shards": report.plan.n_shards,
        "workers": workers,
        "n_circuits": len(rows),
        "wall_time": report.wall_time,
        "circuits_per_sec": report.circuits_per_second,
        "shard_plan": [list(members) for members in report.plan.shards],
        "plan_imbalance": report.plan.imbalance,
        "latency": latency_percentiles([row.runtime for row in rows]),
        "cache": {
            "hits": store.hits,
            "misses": store.misses,
            "hit_rate": round(store.hit_rate, 4),
        },
        "results": [
            {
                "circuit": row.design,
                "shard": row.shard,
                "order": row.order,
                "runtime": row.runtime,
                "n_ands_before": row.n_ands_before,
                "n_ands": row.n_ands,
                "level": row.level,
                "identical_to_sequential": row.identical,
                "error": row.error,
                "cached": row.cached,
            }
            for row in rows
        ],
        # Straight off the obs registry (per-circuit latency + outcome
        # counters the shard processes recorded and shipped home): the
        # audit numbers above must agree with these or the
        # instrumentation is lying.
        "registry": {
            "circuits_ok": obs.metrics().total("serve_circuits_total"),
            "latency_sum_s": sum(
                h.sum
                for h in obs.metrics().histograms()
                if h.name == "serve_circuit_seconds"
            ),
        },
    }
    payload["cold_warm"] = run_cold_warm()
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / "serve_throughput.json").write_text(
        json.dumps(payload, indent=2) + "\n", encoding="utf-8"
    )
    return payload


def run_cold_warm(flow=COLD_WARM_FLOW, n_shards=N_SHARDS, workers=WORKERS) -> dict:
    """Serve the suite twice, one shared cache.

    The cold pass sees 0% repeat traffic (every lookup misses, every
    circuit runs in a shard process); the warm pass is 100% repeats —
    all answered from the content-addressed store, byte-identical to the
    cold results.  Both rows merge into ``BENCH_engine.json`` under
    ``operator: "serve"``.
    """
    from bench_engine_scaling import merge_bench_records

    suite = build_suite()
    store = ResultStore(max_entries=64)
    params = ServeParams(flow=flow, n_shards=n_shards, workers=workers)
    passes = {}
    for mode in ("cold", "warm"):
        before = (store.hits, store.misses)
        report = serve_suite(suite, params, store=store)
        runtimes = [r.runtime for r in report.results]
        lookups = (store.hits - before[0]) + (store.misses - before[1])
        passes[mode] = {
            "mode": mode,
            "runtime_s": round(report.wall_time, 4),
            "circuits_per_sec": round(report.circuits_per_second, 4),
            "hit_rate": round((store.hits - before[0]) / lookups, 4) if lookups else 0.0,
            "cached": sum(r.cached for r in report.results),
            "ok": report.ok,
            **latency_percentiles(runtimes),
            "_results": {r.name: r.bench_text for r in report.results},
        }
    identical = all(
        passes["cold"]["_results"][name] == passes["warm"]["_results"][name]
        for name in suite
    )
    warm_runtime = passes["warm"]["runtime_s"]
    speedup = passes["cold"]["runtime_s"] / warm_runtime if warm_runtime > 0 else float("inf")
    records = []
    for mode in ("cold", "warm"):
        entry = passes[mode]
        entry.pop("_results")
        records.append(
            {
                "operator": "serve",
                "circuit": "tiny-suite-9",
                "mode": f"serve-{mode}-w{workers}",
                "workers": workers,
                "runtime_s": entry["runtime_s"],
                "circuits_per_sec": entry["circuits_per_sec"],
                "hit_rate": entry["hit_rate"],
                "p50_s": entry["p50_s"],
                "p95_s": entry["p95_s"],
                "p99_s": entry["p99_s"],
                "speedup": 1.0 if mode == "cold" else round(speedup, 4),
                "byte_identical": identical,
            }
        )
    merge_bench_records(records, os.cpu_count() or 1)
    return {
        "flow": flow,
        "n_shards": n_shards,
        "workers": workers,
        "speedup": round(speedup, 4) if speedup != float("inf") else None,
        "byte_identical": identical,
        "passes": {mode: passes[mode] for mode in ("cold", "warm")},
    }


def render(payload: dict) -> str:
    rows = [
        [
            point["order"],
            point["circuit"],
            point["shard"],
            f"{point['runtime']:.2f}s",
            point["n_ands_before"],
            point["n_ands"],
            {True: "yes", False: "NO", None: "-"}[point["identical_to_sequential"]],
        ]
        for point in payload["results"]
    ]
    latency = payload["latency"]
    table = format_table(
        ["Done", "Circuit", "Shard", "Runtime", "ANDs in", "ANDs out", "Identical"],
        rows,
        title=(
            f"Sharded serving: {payload['n_circuits']} circuits, "
            f"{payload['n_shards']} shards, flow {payload['flow']!r} "
            f"({payload['circuits_per_sec']:.2f} circuits/s, "
            f"p50/p95/p99 {latency['p50_s']:.2f}/{latency['p95_s']:.2f}/"
            f"{latency['p99_s']:.2f}s, "
            f"cache hit rate {100 * payload['cache']['hit_rate']:.0f}%)"
        ),
    )
    cold_warm = payload["cold_warm"]
    cw_rows = [
        [
            mode,
            f"{entry['runtime_s']:.2f}s",
            f"{entry['circuits_per_sec']:.2f}",
            f"{100 * entry['hit_rate']:.0f}%",
            f"{entry['p50_s']:.3f}s",
            f"{entry['p95_s']:.3f}s",
            f"{entry['p99_s']:.3f}s",
        ]
        for mode, entry in cold_warm["passes"].items()
    ]
    cw_table = format_table(
        ["Pass", "Wall", "Circuits/s", "Hit rate", "p50", "p95", "p99"],
        cw_rows,
        title=(
            f"Cold vs warm (flow {cold_warm['flow']!r}): "
            f"{cold_warm['speedup']:.1f}x warm speedup, byte-identical="
            f"{cold_warm['byte_identical']}"
        ),
    )
    return table + "\n" + cw_table


def test_serve_throughput(benchmark):
    from conftest import record_report

    payload = benchmark.pedantic(run_serve, rounds=1, iterations=1)
    text = render(payload)
    write_report("serve_throughput", text)
    record_report("serve_throughput", text)

    assert payload["n_circuits"] >= 8
    orders = sorted(point["order"] for point in payload["results"])
    assert orders == list(range(payload["n_circuits"]))
    for point in payload["results"]:
        assert point["error"] is None, point
        assert point["identical_to_sequential"] is True, point
    # Shard processes record serve_circuits_total; their deltas reach
    # this process's registry once per circuit.
    assert payload["registry"]["circuits_ok"] == payload["n_circuits"]
    # The cold/warm cache contract: a fully-warm pass answers everything
    # from the content-addressed store, byte-identical, >= 10x faster.
    cold_warm = payload["cold_warm"]
    assert cold_warm["byte_identical"] is True
    assert cold_warm["passes"]["cold"]["hit_rate"] == 0.0
    assert cold_warm["passes"]["warm"]["hit_rate"] == 1.0
    assert cold_warm["speedup"] is None or cold_warm["speedup"] >= 10.0, cold_warm
    assert payload["latency"]["p50_s"] <= payload["latency"]["p99_s"]


if __name__ == "__main__":
    report = run_serve()
    print(render(report))
    print("\nwritten: benchmarks/results/serve_throughput.json")
