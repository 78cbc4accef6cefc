"""Conflict-aware parallel optimization engine (the wave pipeline).

The sequential operator sweeps visit nodes one at a time; the only speed
lever ELF adds on top is classifier pruning.  This subsystem adds the
other lever: footprint-disjoint candidates are grouped into
conflict-free commit waves (:mod:`repro.engine.conflict`), each wave is
batch-evaluated off the main graph, and winning commits are replayed
serially (:mod:`repro.engine.scheduler`).  The scheduler drives one
operator, :class:`repro.engine.operators.RefactorWaveOp` (refactor /
ELF: pooled resynthesis via :mod:`repro.engine.parallel` through the
cross-pass NPN-aware cache of :mod:`repro.engine.cache`).  Snapshots an
earlier wave invalidates are incrementally re-cut and re-waved via the
graph's dirty journal and the candidate inverted index — there is no
sequential fallback.  ``workers=1`` delegates to the sequential
operators, bit for bit.
"""

from .cache import ResynthCache, remap_tree
from .conflict import Candidate, CandidateIndex, build_conflict_graph, color_waves
from .operators import RefactorWaveOp
from .parallel import ResynthExecutor, resynthesize_batch
from .scheduler import EngineParams, EngineStats, engine_refactor, run_wave_pass

__all__ = [
    "Candidate",
    "CandidateIndex",
    "EngineParams",
    "EngineStats",
    "RefactorWaveOp",
    "ResynthCache",
    "ResynthExecutor",
    "build_conflict_graph",
    "color_waves",
    "engine_refactor",
    "remap_tree",
    "resynthesize_batch",
    "run_wave_pass",
]
