"""Cut computation: reconvergence-driven cuts (one root at a time, or a
whole sweep of roots in one batch kernel), k-feasible enumeration, and
the ELF feature vectors derived from each finished cut."""

from .batch import BatchCuts, batch_reconv_cuts
from .enumerate import cut_cone, enumerate_cuts, node_cuts
from .features import FEATURE_NAMES, N_FEATURES, CutFeatures, stack_features
from .reconv import DEFAULT_MAX_LEAVES, ReconvCut, cut_features, reconv_cut

__all__ = [
    "BatchCuts",
    "CutFeatures",
    "DEFAULT_MAX_LEAVES",
    "FEATURE_NAMES",
    "N_FEATURES",
    "ReconvCut",
    "batch_reconv_cuts",
    "cut_cone",
    "cut_features",
    "enumerate_cuts",
    "node_cuts",
    "reconv_cut",
    "stack_features",
]
