"""repro — a full reproduction of *ELF: Efficient Logic Synthesis by
Pruning Redundancy in Refactoring* (DAC 2025).

Quickstart::

    from repro import AIG, refactor, elf_refactor
    from repro.circuits import multiplier
    from repro.elf import collect_dataset, train_leave_one_out

    g = multiplier(12)
    stats = refactor(g.clone())          # baseline ABC-style refactor
    # ... train a classifier and run the pruned operator:
    # elf_refactor(g, classifier)

Subpackages: ``aig`` (the AND-inverter-graph substrate), ``cuts``,
``tt`` (truth tables/ISOP/NPN), ``factor`` (algebraic factoring),
``opt`` (refactor/rewrite/resub/balance/flows), ``ml`` (NumPy training
stack), ``elf`` (the paper's contribution), ``engine`` (conflict-aware
parallel refactoring), ``serve`` (sharded multi-circuit serving on
shard processes), ``circuits`` (benchmark
generators), ``verify`` (SAT/CEC), ``analysis`` (t-SNE/SHAP), and
``harness`` (experiment drivers).
"""

from .aig import AIG
from .elf import ElfClassifier, ElfParams, elf_refactor
from .engine import EngineParams, EngineStats, engine_refactor
from .opt import OptSession, RefactorParams, refactor, run_flow

__version__ = "1.0.0"

__all__ = [
    "AIG",
    "ElfClassifier",
    "ElfParams",
    "EngineParams",
    "EngineStats",
    "OptSession",
    "RefactorParams",
    "elf_refactor",
    "engine_refactor",
    "refactor",
    "run_flow",
    "__version__",
]
