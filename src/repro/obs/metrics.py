"""Metrics: a thread-safe registry of counters, gauges and histograms.

One :class:`MetricsRegistry` holds every instrument of a process (the
default instance lives in :mod:`repro.obs`); instruments are addressed
by name plus an optional label set, Prometheus-style, so per-session /
per-shard series coexist under one metric name::

    reg.counter("session_commands_total", session="s1").add(1)
    reg.histogram("serve_circuit_seconds", shard="0").observe(0.12)

Everything is dependency-free and cheap enough to stay **always on**
(unlike tracing, which is opt-in): an update is one dict probe plus an
add under the registry lock.  The registry serializes to a plain-dict
:meth:`~MetricsRegistry.snapshot` and merges snapshots back with
:meth:`~MetricsRegistry.merge` — the mechanism worker processes use to
ship their per-chunk deltas home by piggybacking on pool task results
(:mod:`repro.engine.parallel`), with no extra IPC round-trips.  A worker
whose chunk errors contributes no snapshot, so a lost task loses only
its own delta.  Long-lived workers (serve shard processes) diff two
snapshots with :func:`snapshot_delta` to ship one request's share.
"""

from __future__ import annotations

import threading

DEFAULT_BUCKETS = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    30.0,
    60.0,
)
"""Default histogram bucket upper bounds (seconds-oriented)."""


def _series_key(name: str, labels: dict) -> str:
    """Stable string key for (name, labels): ``name{k=v,k2=v2}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_series_key(key: str) -> tuple[str, dict]:
    """Inverse of the snapshot key encoding: ``name{k=v}`` -> (name, labels)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    rest = rest.rstrip("}")
    labels = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            labels[k] = v
    return name, labels


class Counter:
    """Monotonic accumulator (floats allowed: seconds are counters too)."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = lock

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Last-write-wins instantaneous value."""

    __slots__ = ("name", "labels", "_value", "_lock")

    def __init__(self, name: str, labels: dict, lock: threading.Lock) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Histogram:
    """Cumulative-bucket histogram (count / sum / min / max kept too)."""

    __slots__ = ("name", "labels", "buckets", "counts", "count", "sum", "min", "max", "_lock")

    def __init__(
        self,
        name: str,
        labels: dict,
        lock: threading.Lock,
        buckets: tuple = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets))
        self.counts = [0] * len(self.buckets)  # per-bucket (non-cumulative)
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = lock

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.counts[i] += 1
                    break

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs, +Inf last."""
        out = []
        running = 0
        for bound, n in zip(self.buckets, self.counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), self.count))
        return out

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Named, labeled instruments with get-or-create semantics.

    One lock covers creation and every update — coarse, but the repo's
    instruments update at wave/command/circuit granularity, far below
    contention range.  ``snapshot()``/``merge()`` are the worker-delta
    transport: a snapshot is a plain (JSON-able) dict, and merging adds
    counters, last-writes gauges and folds histogram moments, so deltas
    from any number of workers compose associatively.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        key = _series_key(name, labels)
        with self._lock:
            inst = self._counters.get(key)
            if inst is None:
                inst = Counter(name, labels, self._lock)
                self._counters[key] = inst
        return inst

    def gauge(self, name: str, **labels) -> Gauge:
        key = _series_key(name, labels)
        with self._lock:
            inst = self._gauges.get(key)
            if inst is None:
                inst = Gauge(name, labels, self._lock)
                self._gauges[key] = inst
        return inst

    def histogram(self, name: str, buckets: tuple = DEFAULT_BUCKETS, **labels) -> Histogram:
        key = _series_key(name, labels)
        with self._lock:
            inst = self._histograms.get(key)
            if inst is None:
                inst = Histogram(name, labels, self._lock, buckets)
                self._histograms[key] = inst
        return inst

    # -- reads ---------------------------------------------------------------

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        """Current value of a counter or gauge (0.0 when absent)."""
        key = _series_key(name, labels)
        inst = self._counters.get(key) or self._gauges.get(key)
        return inst.value if inst is not None else default

    def total(self, name: str) -> float:
        """Sum of a counter metric over all of its label sets."""
        return sum(
            c.value for c in list(self._counters.values()) if c.name == name
        )

    def counters(self) -> list[Counter]:
        return list(self._counters.values())

    def gauges(self) -> list[Gauge]:
        return list(self._gauges.values())

    def histograms(self) -> list[Histogram]:
        return list(self._histograms.values())

    # -- snapshot / merge (the worker-delta transport) -----------------------

    def snapshot(self) -> dict:
        """Serializable (plain-dict) state of every instrument."""
        with self._lock:
            return {
                "counters": {k: c._value for k, c in self._counters.items()},
                "gauges": {k: g._value for k, g in self._gauges.items()},
                "histograms": {
                    k: {
                        "buckets": list(h.buckets),
                        "counts": list(h.counts),
                        "count": h.count,
                        "sum": h.sum,
                        "min": h.min,
                        "max": h.max,
                    }
                    for k, h in self._histograms.items()
                },
            }

    def merge(self, snapshot: dict | None) -> None:
        """Fold a :meth:`snapshot` delta into this registry.

        ``None`` is a no-op — the natural encoding of "this worker chunk
        produced no delta" (errored, or observability was off when it
        ran), so merging a result stream never needs special-casing.
        """
        if not snapshot:
            return
        for key, value in snapshot.get("counters", {}).items():
            name, labels = parse_series_key(key)
            self.counter(name, **labels).add(value)
        for key, value in snapshot.get("gauges", {}).items():
            name, labels = parse_series_key(key)
            self.gauge(name, **labels).set(value)
        for key, data in snapshot.get("histograms", {}).items():
            name, labels = parse_series_key(key)
            hist = self.histogram(name, buckets=tuple(data["buckets"]), **labels)
            with self._lock:
                if tuple(data["buckets"]) == hist.buckets:
                    for i, n in enumerate(data["counts"]):
                        hist.counts[i] += n
                else:  # bucket mismatch: moments still merge exactly
                    pass
                hist.count += data["count"]
                hist.sum += data["sum"]
                hist.min = min(hist.min, data["min"])
                hist.max = max(hist.max, data["max"])

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def snapshot_delta(before: dict, after: dict) -> dict:
    """What ``after`` recorded since ``before`` (two :meth:`~MetricsRegistry.snapshot`
    results of one registry), as a snapshot :meth:`~MetricsRegistry.merge`
    folds in: counter and histogram increments, and gauges whose value
    changed.  Histogram ``min``/``max`` are ``after``'s, which merges
    exactly (the extremes of a superset of the observations).
    """
    old_counters, old_gauges = before["counters"], before["gauges"]
    old_histograms = before["histograms"]
    counters = {
        key: value - old_counters.get(key, 0.0)
        for key, value in after["counters"].items()
        if value != old_counters.get(key, 0.0)
    }
    gauges = {
        key: value
        for key, value in after["gauges"].items()
        if old_gauges.get(key) != value
    }
    histograms = {}
    for key, data in after["histograms"].items():
        old = old_histograms.get(key)
        if old is None:
            histograms[key] = data
        elif data["count"] != old["count"]:
            histograms[key] = {
                **data,
                "counts": [a - b for a, b in zip(data["counts"], old["counts"])],
                "count": data["count"] - old["count"],
                "sum": data["sum"] - old["sum"],
            }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
