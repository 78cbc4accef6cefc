"""Deterministic shard assignment for multi-circuit serving.

A serving run partitions a suite of circuits across a fixed number of
shards; each shard is one worker process holding one warm session
(and, for parallel flows, one engine pool).  The assignment is the classic LPT
(longest-processing-time-first) greedy: circuits are ordered by
descending cost estimate and each is placed on the currently lightest
shard.  Every tie — equal costs, equal loads — is broken by name /
lowest shard index, so the plan is a pure function of the suite: the
same suite always produces byte-for-byte the same plan, which makes
serving runs reproducible and lets tests pin shard-local behaviour.

The default cost estimate is the AND count: refactor-family passes sweep
every AND node, so node count is proportional to pass runtime to first
order.  Callers with better priors (e.g. measured runtimes from an
earlier serving run) can pass an explicit cost map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ReproError


@dataclass(frozen=True)
class ShardPlan:
    """An immutable circuit -> shard partition.

    ``shards[i]`` lists the circuit names owned by shard ``i`` in
    assignment order; ``cost`` records the estimate each placement used.
    """

    n_shards: int
    shards: tuple[tuple[str, ...], ...]
    cost: dict[str, int] = field(default_factory=dict)

    def shard_of(self, name: str) -> int:
        """Index of the shard serving ``name``."""
        for index, members in enumerate(self.shards):
            if name in members:
                return index
        raise ReproError(f"circuit {name!r} is not in this plan")

    @property
    def names(self) -> tuple[str, ...]:
        """All circuit names in shard order."""
        return tuple(name for members in self.shards for name in members)

    def load(self, index: int) -> int:
        """Total estimated cost assigned to shard ``index``."""
        return sum(self.cost.get(name, 0) for name in self.shards[index])

    @property
    def imbalance(self) -> float:
        """Heaviest shard load over mean load (1.0 = perfectly balanced)."""
        loads = [self.load(i) for i in range(self.n_shards)]
        mean = sum(loads) / max(1, len(loads))
        return max(loads) / mean if mean > 0 else 1.0


def assign_shards(
    suite: dict[str, object],
    n_shards: int,
    cost: dict[str, int] | None = None,
) -> ShardPlan:
    """LPT-partition ``suite`` (name -> AIG) into at most ``n_shards``.

    Shard count is capped at the suite size so no shard is empty.  The
    result is deterministic: descending cost with names as tie-break,
    each circuit placed on the least-loaded (then lowest-index) shard.
    """
    if n_shards < 1:
        raise ReproError(f"n_shards must be >= 1, got {n_shards}")
    if not suite:
        return ShardPlan(n_shards=0, shards=())
    if cost is None:
        cost = {name: max(1, g.n_ands) for name, g in suite.items()}
    else:
        missing = [name for name in suite if name not in cost]
        if missing:
            raise ReproError(f"cost map is missing circuits: {missing[:5]}")
        cost = {name: max(1, int(cost[name])) for name in suite}
    n_shards = min(n_shards, len(suite))
    order = sorted(suite, key=lambda name: (-cost[name], name))
    members: list[list[str]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    for name in order:
        index = min(range(n_shards), key=lambda i: (loads[i], i))
        members[index].append(name)
        loads[index] += cost[name]
    return ShardPlan(
        n_shards=n_shards,
        shards=tuple(tuple(m) for m in members),
        cost=cost,
    )
