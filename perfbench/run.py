"""The repository's benchmark: one command, four seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload elf-epfl --seed 1 --seconds 12 --trace 0

Workloads, metrics and bounds are declared in ``BENCHMARK.json`` at the
root.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload again with spans around the calls into each layer and prints the
per-layer metrics, every one of them on every workload (0 where the
workload does not exercise that layer).  The line before the result holds
the run's provenance.  The last line is the result::

    {"correct": true, "attempted": 24, "failed": 0, "metrics": {...}}

Exit status: 0 when every output passed its check, 1 when one did not,
2 when the program could not be run at all (no result line then).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("elf-epfl", "resyn2-industrial", "waves-mixed", "serve-closed")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(args, workdir):
    """Run one workload; returns ``(run, end_to_end, per_layer)`` metrics."""
    from common import Run

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    if args.workload == "serve-closed":
        from serve import serve_closed

        metrics, layer = serve_closed(run, SRC)
    else:
        import batch

        workload = {
            "elf-epfl": batch.elf_epfl,
            "resyn2-industrial": batch.resyn2_industrial,
            "waves-mixed": batch.waves_mixed,
        }[args.workload]
        metrics, layer = workload(run)
    if run.trace:
        layer.update(run.trace_metrics())
        spans = [tracer.export() for tracer in run.tracers]
        out = workdir.parent / f"trace-{args.workload}-{args.seed}.json"
        out.write_text(json.dumps(spans))
    layer["fail_frac"] = run.failed / max(1, run.attempted)
    return run, metrics, layer


def stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process that multiprocessing starts
    for the engine's shared-memory transport; it would otherwise outlive
    the run until its pipe closes."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"perfbench: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run, metrics, layer = measure(args, workdir)
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        stop_resource_tracker()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer if args.trace else metrics
    names = {m["name"] for m in declared}
    unknown = set(values) - names
    missing = set() if args.trace else names - set(values)
    if unknown or missing:
        print(f"perfbench: undeclared {sorted(unknown)}, missing {sorted(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }
    for reason in run.errors:
        print(f"perfbench: {reason}", file=sys.stderr)
    print(json.dumps({"provenance": run.provenance()}))
    print(json.dumps(result), flush=True)
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
