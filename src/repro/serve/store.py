"""Content-addressed result store: serve repeat circuits from memory.

Production synthesis traffic is heavily repetitive — the same cores,
arithmetic blocks and glue cones arrive again and again under different
node numberings and names.  :class:`ResultStore` memoizes finished
optimization results under a key that sees through that noise:

    ``(structural digest, normalized script, registry version)``

* the **structural digest** (:func:`repro.aig.structural_digest`) is a
  Merkle fold of the PO-reachable AND/inverter structure — independent
  of node numbering, construction order, names and dangling logic, so
  two strash-equivalent submissions of one function share an entry;
* the **normalized script**
  (:meth:`repro.opt.registry.CommandRegistry.normalize_script`) resolves
  aliases and flag spellings to one canonical form, so ``"f; fz"`` and
  ``"rf; rfz"`` hit the same entry while ``"rf"`` vs ``"rf -l"`` miss;
* the **registry version**
  (:attr:`repro.opt.registry.CommandRegistry.version`) fences entries to
  the command surface that produced them — registering, renaming or
  re-flagging a command invalidates every old key.

A hit returns the stored :class:`CachedResult` verbatim: its
``bench_text`` is byte-for-byte the text the original miss computed (at
``workers=1`` that text is itself byte-identical to a blocking
``run_flow``), so cache placement is invisible to result content.  One
caveat follows from keying on structure rather than names: the BENCH
header line carries the *first* submitter's circuit name — the canonical
result for a structure is whatever the first miss computed.

The store is a bounded LRU (``max_entries``), safe for concurrent
readers/writers, and fully instrumented on the :mod:`repro.obs`
registry: ``serve_cache_hits_total`` / ``serve_cache_misses_total`` /
``serve_cache_evictions_total`` counters plus a ``serve_cache_entries``
gauge, each labeled with the store's process-unique ``store`` label so
several stores (tests, benchmarks, a live service) never collide.

``spill_dir`` adds an on-disk tier under the same content addresses:
every insert also writes one digest-named JSON file (atomically), and a
memory miss lazily reloads from disk before giving up — so a restarted
service (or a memory-evicted entry) answers warm traffic from the spill
instead of re-paying the flow.  Spill files are never deleted by LRU
eviction (surviving restarts is their whole point), loads verify the
embedded key before trusting a file, and a corrupt or alien file simply
degrades to a miss.  Counted on ``serve_cache_spill_writes_total`` /
``serve_cache_spill_loads_total``.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

from .. import obs
from ..aig.digest import structural_digest
from ..aig.graph import AIG
from ..opt.registry import CommandRegistry, default_registry
from .proc import ServeResult

Key = tuple[str, str, str]  # (structural digest, normalized script, registry version)


@dataclass(frozen=True)
class CachedResult:
    """The content of one store entry: what a flow run produced.

    ``bench_text`` is the canonical payload (the byte-identity contract
    lives on it); the size/level stats ride along so hits can fill a
    result record without re-parsing the text.
    """

    bench_text: str
    n_ands: int
    level: int
    n_ands_before: int
    level_before: int


class ResultStore:
    """Bounded LRU of :class:`CachedResult` keyed by content address.

    ``max_entries`` bounds the entry count (LRU eviction, counted on
    ``serve_cache_evictions_total``); ``registry`` supplies script
    normalization and the version fence — every key this store builds
    embeds *that* registry's version, so a store is coherent for exactly
    one command surface.  ``spill_dir`` enables the on-disk tier (see
    the module docstring): inserts also write digest-named JSON files
    there, and memory misses lazily reload from them.
    """

    def __init__(
        self,
        max_entries: int = 256,
        registry: CommandRegistry | None = None,
        spill_dir: str | Path | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("ResultStore needs max_entries >= 1")
        self.max_entries = max_entries
        self.registry = registry if registry is not None else default_registry()
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        if self.spill_dir is not None:
            self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.label = obs.next_label("store")
        labels = {"store": self.label}
        metrics = obs.metrics()
        self._hits = metrics.counter("serve_cache_hits_total", **labels)
        self._misses = metrics.counter("serve_cache_misses_total", **labels)
        self._evictions = metrics.counter("serve_cache_evictions_total", **labels)
        self._spill_writes = metrics.counter(
            "serve_cache_spill_writes_total", **labels
        )
        self._spill_loads = metrics.counter("serve_cache_spill_loads_total", **labels)
        self._entries = metrics.gauge("serve_cache_entries", **labels)
        self._lock = threading.Lock()
        self._store: dict[Key, CachedResult] = {}

    # -- keying ---------------------------------------------------------------

    def key(self, g: AIG, script: str) -> Key:
        """Content address of serving ``script`` on ``g``.

        Raises :class:`repro.errors.ReproError` when the script does not
        resolve — an unservable request must fail here, not fabricate a
        key that could never have a valid entry.
        """
        return (
            structural_digest(g),
            self.registry.normalize_script(script),
            self.registry.version,
        )

    # -- lookup / insert ------------------------------------------------------

    def lookup(self, key: Key) -> CachedResult | None:
        """Entry for ``key`` (refreshed as most-recently-used) or None.

        With a spill tier, a memory miss tries the on-disk file before
        reporting a miss; a successful reload re-enters the memory LRU
        and counts as a hit (the store *did* answer the request).
        """
        with self._lock:
            entry = self._store.get(key)
            if entry is not None:
                self._store[key] = self._store.pop(key)  # MRU refresh
                self._hits.add(1)
                return entry
        entry = self._spill_load(key)
        if entry is None:
            self._misses.add(1)
            return None
        with self._lock:
            self._insert_locked(key, entry)
            self._hits.add(1)
        return entry

    def insert(self, key: Key, result: CachedResult) -> None:
        """Store ``result`` under ``key``, evicting LRU past the bound.

        Memory eviction never touches spill files — the disk tier exists
        precisely to outlive both the LRU bound and the process.
        """
        with self._lock:
            self._insert_locked(key, result)
        self._spill_write(key, result)

    def _insert_locked(self, key: Key, result: CachedResult) -> None:
        self._store.pop(key, None)  # re-insert = refresh, never double
        self._store[key] = result
        while len(self._store) > self.max_entries:
            self._store.pop(next(iter(self._store)))
            self._evictions.add(1)
        self._entries.set(len(self._store))

    # -- spill tier -----------------------------------------------------------

    def _spill_path(self, key: Key) -> Path:
        digest = hashlib.blake2b("\x1f".join(key).encode(), digest_size=16)
        return self.spill_dir / f"{digest.hexdigest()}.json"

    def _spill_write(self, key: Key, result: CachedResult) -> None:
        if self.spill_dir is None:
            return
        path = self._spill_path(key)
        payload = {"key": list(key), "result": asdict(result)}
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(json.dumps(payload) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            return  # a full/read-only disk degrades the tier, not the serve
        self._spill_writes.add(1)

    def _spill_load(self, key: Key) -> CachedResult | None:
        if self.spill_dir is None:
            return None
        try:
            payload = json.loads(self._spill_path(key).read_text(encoding="utf-8"))
            if tuple(payload["key"]) != key:  # filename collision / alien file
                return None
            entry = CachedResult(
                bench_text=str(payload["result"]["bench_text"]),
                n_ands=int(payload["result"]["n_ands"]),
                level=int(payload["result"]["level"]),
                n_ands_before=int(payload["result"]["n_ands_before"]),
                level_before=int(payload["result"]["level_before"]),
            )
        except (OSError, ValueError, KeyError, TypeError):
            return None  # absent or corrupt spill file = plain miss
        self._spill_loads.add(1)
        return entry

    def get(self, g: AIG, script: str) -> CachedResult | None:
        """Convenience: :meth:`key` + :meth:`lookup` in one call."""
        return self.lookup(self.key(g, script))

    # -- serve results --------------------------------------------------------

    def lookup_result(self, key: Key, name: str, g: AIG) -> ServeResult | None:
        """A hit as the served result for circuit ``name`` (input ``g``),
        ``cached`` and on shard -1; ``None`` on a miss."""
        hit = self.lookup(key)
        if hit is None:
            return None
        return ServeResult(
            name=name,
            shard=-1,
            n_ands_before=g.n_ands,
            level_before=g.max_level(),
            n_ands=hit.n_ands,
            level=hit.level,
            bench_text=hit.bench_text,
            cached=True,
        )

    def insert_result(self, key: Key, result: ServeResult) -> None:
        """Insert a served result — only a clean one: errored and
        deadline-expired results are absent or timing-dependent."""
        if result.ok and not result.deadline_exceeded and result.bench_text is not None:
            self.insert(
                key,
                CachedResult(
                    bench_text=result.bench_text,
                    n_ands=result.n_ands,
                    level=result.level,
                    n_ands_before=result.n_ands_before,
                    level_before=result.level_before,
                ),
            )

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._store)

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return key in self._store

    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @property
    def spill_writes(self) -> int:
        return int(self._spill_writes.value)

    @property
    def spill_loads(self) -> int:
        return int(self._spill_loads.value)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
