"""Shared machinery of the benchmark: the turn schedule, spans, output checks.

Every workload measures the program from outside: it times calls into the
public functions of ``src/repro`` and reads the stats objects those calls
already return.  This module holds what the four workloads share:

* :class:`Run` — one invocation's state: seed, time budget, operation and
  failure counts, the turn schedule, per-circuit samples and provenance;
* :class:`Tracer` — spans recorded around the calls into each layer, plus
  the time a call's stats buckets hand to other layers;
* :class:`OutputCheck` — functional checks of optimized networks against
  their inputs (exact for at most 20 PIs, seeded random simulation
  otherwise) and the set-up check that no circuit is a constant function;
* statistics helpers and the peak-RSS probes.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.aig.simulate import simulate
from repro.verify import exhaustive_pi_patterns

EXACT_PI_LIMIT = 20
"""Inputs with at most this many PIs are checked on every input pattern."""

RANDOM_WORDS = 64
"""Probabilistic checks simulate ``64 * RANDOM_WORDS`` = 4096 seeded patterns."""

_CHUNK_WORDS = 1 << 21
"""Exhaustive checks simulate in chunks of at most this many node-words."""

LAYERS = ("cuts", "elf", "opt", "engine", "serve", "bench")
"""Self-time buckets of a traced run: the ``src/repro`` layers plus the
benchmark's own work between the calls (cloning, memo resets, encoding
requests, parsing replies).  Output checks are not traced."""

MIN_SETUPS = 3
MAX_SETUPS = 15
SETUP_BUDGET_S = 2.0
"""A run sets up at least ``MIN_SETUPS`` times and keeps going while the
set-ups took under ``SETUP_BUDGET_S`` in total, so that a cheap set-up's
median rests on enough samples; ``setup_s`` is the median."""


class Failure(Exception):
    """An output failed its check, or an operation failed."""


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; ``inf`` entries rank last."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pct_delta(new: float, base: float) -> float:
    return 100.0 * (new - base) / base if base else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- memory -------------------------------------------------------------------


def self_peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (``VmHWM``) of a live process and its children, MiB."""
    total_kb = 0
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            with open(f"/proc/{current}/task/{current}/children") as kids:
                pending.extend(int(k) for k in kids.read().split())
        except OSError:
            continue
    return total_kb / 1024.0


# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int
    end: float = 0.0
    # Seconds this call handed to other layers, read off its stats buckets
    # (e.g. ``RefactorStats.time_cut`` inside an ``opt`` refactor call).
    handed: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans around the benchmark's calls into each layer.

    Disabled (the untraced cycles) it records nothing.  A layer's
    self time is its spans' duration minus their child spans and minus
    what their stats buckets hand to other layers.  One tracer per
    thread: the span stack is not shared.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, layer, time.perf_counter(), parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per-layer self seconds over every recorded span."""
        totals = dict.fromkeys(LAYERS, 0.0)
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        for index, span in enumerate(self.spans):
            handed = sum(span.handed.values())
            totals[span.layer] += span.duration - child_time[index] - handed
            for layer, seconds in span.handed.items():
                totals[layer] += seconds
        return totals

    def root_seconds(self) -> float:
        """Wall time the spans cover: the sum of the top-level spans."""
        return sum(s.duration for s in self.spans if s.parent < 0)

    def export(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "handed": s.handed,
            }
            for s in self.spans
        ]


# -- output checks ------------------------------------------------------------


class OutputCheck:
    """Functional checks of optimized networks against their inputs.

    Inputs with at most :data:`EXACT_PI_LIMIT` PIs are simulated on all
    ``2^n`` patterns (exact); larger ones on :data:`RANDOM_WORDS` words of
    seeded random patterns (probabilistic).  Input responses are cached
    per key, so each input is simulated once per run.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.exact = 0
        self.probabilistic = 0
        self._reference: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def _patterns(self, g) -> np.ndarray:
        if g.n_pis <= EXACT_PI_LIMIT:
            return exhaustive_pi_patterns(g.n_pis)
        rng = np.random.default_rng([self.seed, g.n_pis, g.n_pos])
        return rng.integers(0, 2**64, size=(g.n_pis, RANDOM_WORDS), dtype=np.uint64)

    @staticmethod
    def _simulate(g, patterns: np.ndarray) -> np.ndarray:
        chunk = max(1, _CHUNK_WORDS // max(1, g.n_nodes))
        parts = [
            simulate(g, patterns[:, start : start + chunk])
            for start in range(0, patterns.shape[1], chunk)
        ]
        return np.concatenate(parts, axis=1)

    def _reference_of(self, key: str, g) -> tuple[np.ndarray, np.ndarray]:
        if key not in self._reference:
            patterns = self._patterns(g)
            self._reference[key] = (patterns, self._simulate(g, patterns))
        return self._reference[key]

    def assert_nonconstant(self, key: str, g) -> int:
        """Raise unless the PO onset is neither empty nor full.

        A PO is witnessed non-constant when the simulated patterns drive
        it both ways; a witness is a proof, so random patterns cannot pass
        a constant function.  At least half of the POs must be witnessed,
        which rules out single-PO tautologies such as the layered random
        generator's.  Returns the number of witnessed POs.
        """
        out = self._reference_of(key, g)[1]
        ones = np.uint64(0xFFFFFFFFFFFFFFFF)
        if g.n_pis < 6:  # an exhaustive word repeats 2^n patterns; mask them
            ones = np.uint64((1 << (1 << g.n_pis)) - 1)
            out = out & ones
        varies = ~((out == 0).all(axis=1) | (out == ones).all(axis=1))
        witnessed = int(varies.sum())
        if 2 * witnessed < g.n_pos:
            raise Failure(f"{key}: only {witnessed} of {g.n_pos} POs vary")
        return witnessed

    def check(self, key: str, original, optimized) -> None:
        """Raise :class:`Failure` unless ``optimized`` matches ``original``."""
        if (optimized.n_pis, optimized.n_pos) != (original.n_pis, original.n_pos):
            raise Failure(f"{key}: interface changed")
        patterns, expected = self._reference_of(key, original)
        if not np.array_equal(self._simulate(optimized, patterns), expected):
            raise Failure(f"{key}: optimized network differs from its input")
        if original.n_pis <= EXACT_PI_LIMIT:
            self.exact += 1
        else:
            self.probabilistic += 1

    def describe(self) -> dict:
        return {
            "exact_checks": self.exact,
            "probabilistic_checks": self.probabilistic,
            "probabilistic_patterns": 64 * RANDOM_WORDS,
            "exact_pi_limit": EXACT_PI_LIMIT,
        }


# -- one invocation -----------------------------------------------------------


class Run:
    """State of one benchmark invocation of one workload.

    Workloads :meth:`record` each operation's measurements per circuit;
    :meth:`total` sums each circuit's median over the run, so a slow spell
    of the host during one turn of one circuit does not carry into it.
    Counts that do not vary between turns (AND counts, commits) read
    exactly through it.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)
        self.checker = OutputCheck(seed)
        self.tracer = Tracer()
        self.tracers = [self.tracer]  # one per client thread in serve-closed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.correct = True
        self.samples: dict[str, int] = {}
        self.circuits: dict[str, int] = {}
        self.extra: dict = {}
        self.setup_times: list[float] = []
        self.turns = 0
        self._values: dict[str, dict[str, list[float]]] = defaultdict(
            lambda: defaultdict(list)
        )
        # op key -> {traced: [seconds]}, for the tracing overhead
        self._op_times: dict = defaultdict(lambda: {False: [], True: []})

    # -- set-up -------------------------------------------------------------

    def set_up(self, build, teardown=None):
        """Run ``build`` several times (see :data:`MIN_SETUPS`); keep the last.

        ``teardown(state)`` releases an earlier set-up's resources (a
        booted service) outside the timed region.
        """
        state = None
        attempt = 0
        while attempt < MIN_SETUPS or (
            attempt < MAX_SETUPS and sum(self.setup_times) < SETUP_BUDGET_S
        ):
            if state is not None and teardown is not None:
                teardown(state)
            started = time.perf_counter()
            state = build(attempt)
            self.setup_times.append(time.perf_counter() - started)
            attempt += 1
        return state

    def register(self, name: str, g) -> None:
        """Record a workload circuit and prove it is not a constant function.

        A circuit that fails the proof is counted as a failed operation and
        makes the run incorrect.
        """
        self.circuits[name] = g.n_ands
        try:
            self.checker.assert_nonconstant(name, g)
        except Failure as error:
            self.attempted += 1
            self.fail(str(error))

    # -- measurement --------------------------------------------------------

    def schedule(self, names: list[str]):
        """Yield circuit names, cycle after cycle in seeded order, until the
        time budget is spent.

        The first cycle always completes (the first two when tracing: one
        untraced, one traced).  After that a circuit's next turn starts
        only while the time its previous turn took still fits in the
        budget, so a run overshoots ``seconds`` by at most one turn and
        ends on a partial cycle instead of leaving budget unused.  Tracing
        is on in odd cycles of a traced run.
        """
        started = time.perf_counter()
        last: dict[str, float] = {}
        need = 2 if self.trace else 1
        cycle = 0
        try:
            while True:
                self.tracer.enabled = self.trace and cycle % 2 == 1
                for index in self.rng.permutation(len(names)):
                    name = names[index]
                    elapsed = time.perf_counter() - started
                    if cycle >= need and elapsed + last[name] > self.seconds:
                        return
                    turn = time.perf_counter()
                    yield name
                    last[name] = time.perf_counter() - turn
                    self.turns += 1
                cycle += 1
        finally:
            self.tracer.enabled = False

    def timed_call(self, key, name: str, layer: str, fn, *args):
        """Time ``fn(*args)`` inside a span; returns ``(seconds, result, span)``.

        The span (``None`` when not tracing) lets the caller hand parts
        of the call's time to other layers from its stats buckets.  A call
        that raises is counted as a failed operation and returns ``None``
        as its result; the caller skips its output.
        """
        traced = self.tracer.enabled
        self.attempted += 1
        with self.tracer.span(name, layer) as span:
            started = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as error:
                self.fail(f"{name}: {type(error).__name__}: {error}")
                return time.perf_counter() - started, None, span
            seconds = time.perf_counter() - started
        self.op_time(key, traced, seconds)
        return seconds, result, span

    def op_time(self, key, traced: bool, seconds: float) -> None:
        self._op_times[key][traced].append(seconds)

    def record(self, name: str, values: dict[str, float]) -> None:
        """One operation's measurements on circuit ``name``."""
        for key, value in values.items():
            self._values[key][name].append(value)

    def per_circuit(self, key: str) -> dict[str, float]:
        return {name: median(v) for name, v in self._values[key].items()}

    def total(self, key: str) -> float:
        return sum(self.per_circuit(key).values())

    def check(self, key: str, original, optimized) -> None:
        """Check one output; a failure is counted and makes the run incorrect."""
        try:
            self.checker.check(key, original, optimized)
        except Failure as error:
            self.fail(str(error))

    def fail(self, reason: str, expected: bool = False) -> None:
        """Count a failed operation; unexpected ones make the run incorrect."""
        self.failed += 1
        if not expected:
            self.correct = False
            self.errors.append(reason)

    # -- results ------------------------------------------------------------

    def trace_metrics(self) -> dict[str, float]:
        """Self-time shares of the traced cycles, plus the tracing overhead."""
        totals = dict.fromkeys(LAYERS, 0.0)
        wall = 0.0
        for tracer in self.tracers:
            for layer, seconds in tracer.self_times().items():
                totals[layer] += seconds
            wall += tracer.root_seconds()
        metrics = {f"trace.{layer}_frac": ratio(totals[layer], wall) for layer in LAYERS}
        both = [t for t in self._op_times.values() if t[False] and t[True]]
        metrics["trace.overhead_frac"] = (
            ratio(sum(median(t[True]) for t in both), sum(median(t[False]) for t in both))
            - 1.0
            if both
            else 0.0
        )
        return metrics

    def provenance(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "turns": self.turns,
            "setup_runs": [round(t, 4) for t in self.setup_times],
            "circuits": self.circuits,
            "samples": self.samples,
            "check": self.checker.describe(),
            **self.extra,
        }
