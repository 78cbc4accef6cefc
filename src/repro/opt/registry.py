"""Declarative flow-command registry (the extensible half of ``run_flow``).

ABC scales to dozens of operators because commands are *registered*, not
switch-cased; this module gives the flow layer the same shape.  Every
command a script may name is a :class:`CommandSpec`: its canonical name,
aliases, flag schema (``-l`` / ``-w N`` support plus the ``<cmd>z``
zero-cost pairing), declared resource requirements (classifier, engine
worker pool, shared resynthesis cache) and an ``execute(g, ctx, flags)``
callable.  :class:`CommandRegistry` resolves raw command strings against
the registered specs with **strict flag validation** — an unsupported
flag raises :class:`repro.errors.ReproError` instead of being silently
dropped — and :func:`default_registry` holds the built-in command set
(``b``, ``rw/rwz``, ``rf/rfz`` + ``f/fz``, ``rs/rsz``, ``elf/elfz``,
``pf/pfz``, ``pelf/pelfz``, and ``prw/prwz`` — which runs the
sequential ``rw`` at any ``-w``).

Adding an operator no longer touches ``opt/flow.py``: build a spec and
``register`` it — on :func:`default_registry` for process-wide effect,
or on a :meth:`CommandRegistry.copy` handed to one
:class:`repro.opt.session.OptSession`.  The session supplies the ``ctx``
argument (classifier handle, lazily created cache/library, engine
worker resolution); see ``docs/engine.md`` for a worked example.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterator

from ..errors import ReproError
from .balance import balance
from .refactor import RefactorParams, refactor
from .resub import ResubParams, resub
from .rewrite import RewriteParams, rewrite


@dataclass(frozen=True)
class CommandFlags:
    """Parsed per-command flags, validated against the spec's schema.

    ``workers`` is ``None`` when the command carried no ``-w``; ``0``
    (an explicit ``-w 0``) behaves exactly like omitting ``-w`` — the
    session's ``engine_workers`` default applies first, then auto (one
    worker per core) — so only ``-w N`` with ``N >= 1`` pins a step.
    """

    zero_cost: bool = False
    preserve_levels: bool = False
    workers: int | None = None


@dataclass(frozen=True)
class CommandSpec:
    """One registered flow command: schema, resource needs, behavior.

    ``execute(g, ctx, flags)`` receives the network, the session's
    :class:`repro.opt.session.FlowContext` and the parsed
    :class:`CommandFlags`; it returns ``(network, detail)`` where
    ``detail`` lands on the step's :attr:`repro.opt.FlowStep.detail`.

    Schema fields: ``zero_cost_pair`` additionally registers the
    ``<name>z`` spelling of the name and of every alias (resolved into
    ``flags.zero_cost``); ``supports_levels`` admits ``-l``;
    ``supports_workers`` admits ``-w N``.  Resource fields are
    *declarative* so the session (and the serving layer) can provision
    without running anything: ``needs_classifier`` makes the session
    reject the command when no classifier is attached,
    ``needs_engine_pool`` marks commands that dispatch resynthesis to a
    :class:`repro.engine.ResynthExecutor` (the serving layer pre-forks
    pools for these), and ``uses_cache`` marks commands that share the
    session's cross-pass :class:`repro.engine.ResynthCache`.
    """

    name: str
    execute: Callable
    aliases: tuple[str, ...] = ()
    zero_cost_pair: bool = False
    supports_levels: bool = False
    supports_workers: bool = False
    needs_classifier: bool = False
    needs_engine_pool: bool = False
    uses_cache: bool = False
    help: str = ""

    def spellings(self) -> Iterator[tuple[str, bool]]:
        """Every accepted head token as ``(spelling, zero_cost)``."""
        for head in (self.name, *self.aliases):
            yield head, False
            if self.zero_cost_pair:
                yield head + "z", True


@dataclass(frozen=True)
class ResolvedCommand:
    """A raw command string bound to its spec and validated flags."""

    raw: str
    canonical: str  # alias-resolved head + the flags as spelled
    spec: CommandSpec
    flags: CommandFlags

    @property
    def head(self) -> str:
        """The canonical head spelling (``rfz`` for raw ``fz``)."""
        return self.canonical.split()[0]


@dataclass
class ScriptNeeds:
    """Resource requirements of a whole script, from the specs alone."""

    classifier: bool = False
    engine_pool: bool = False
    max_explicit_workers: int = 0


class CommandRegistry:
    """Spelling -> :class:`CommandSpec` table with strict resolution."""

    def __init__(self) -> None:
        self._specs: dict[str, CommandSpec] = {}
        self._lookup: dict[str, tuple[CommandSpec, bool]] = {}

    def register(self, spec: CommandSpec) -> CommandSpec:
        """Add ``spec``; every spelling (aliases, ``z`` pair) must be free."""
        spellings = list(spec.spellings())
        for spelling, _ in spellings:
            if spelling in self._lookup:
                raise ReproError(
                    f"flow command spelling {spelling!r} is already registered"
                )
        for spelling, zero in spellings:
            self._lookup[spelling] = (spec, zero)
        self._specs[spec.name] = spec
        return spec

    def copy(self) -> "CommandRegistry":
        """Independent registry with the same specs (for per-session use)."""
        dup = CommandRegistry()
        dup._specs = dict(self._specs)
        dup._lookup = dict(self._lookup)
        return dup

    def specs(self) -> list[CommandSpec]:
        return list(self._specs.values())

    def __contains__(self, spelling: str) -> bool:
        return spelling in self._lookup

    def canonical(self, command: str) -> str:
        """Alias-resolved form of ``command`` (flags kept as spelled).

        Lenient by design: an unknown head comes back unchanged, so
        report normalization never raises — :meth:`resolve` is where
        unknown commands become errors.
        """
        tokens = command.split()
        if not tokens:
            return command.strip()
        hit = self._lookup.get(tokens[0])
        if hit is not None:
            spec, zero = hit
            tokens[0] = spec.name + ("z" if zero else "")
        return " ".join(tokens)

    def resolve(self, command: str) -> ResolvedCommand:
        """Parse one raw command; strict about spellings *and* flags."""
        raw = command.strip()
        tokens = raw.split()
        if not tokens:
            raise ReproError("empty flow command")
        hit = self._lookup.get(tokens[0])
        if hit is None:
            raise ReproError(f"unknown flow command {raw!r}")
        spec, zero = hit
        preserve = False
        workers: int | None = None
        i = 1
        while i < len(tokens):
            token = tokens[i]
            if token == "-l" and spec.supports_levels:
                preserve = True
            elif token == "-w" and spec.supports_workers:
                i += 1
                if i >= len(tokens) or not tokens[i].isdigit():
                    raise ReproError("-w requires an integer worker count")
                workers = int(tokens[i])
            elif token in ("-l", "-w"):
                raise ReproError(
                    f"flow command {tokens[0]!r} does not support the "
                    f"{token!r} flag"
                )
            else:
                raise ReproError(
                    f"flow command {tokens[0]!r} got unknown argument {token!r}"
                )
            i += 1
        head = spec.name + ("z" if zero else "")
        return ResolvedCommand(
            raw=raw,
            canonical=" ".join([head] + tokens[1:]),
            spec=spec,
            flags=CommandFlags(
                zero_cost=zero, preserve_levels=preserve, workers=workers
            ),
        )

    def normalize_script(self, script: str) -> str:
        """Canonical spelling of ``script``: aliases resolved, one flag form.

        Strict (unlike :meth:`canonical`): every command must resolve,
        so unknown commands and unsupported flags raise
        :class:`repro.errors.ReproError` here rather than producing a
        key that could never execute.  Two scripts normalize equal iff
        they resolve to the same command sequence with the same flags —
        ``"f ; fz"`` and ``"rf; rfz"`` coincide, ``"rf"`` and ``"rf -l"``
        do not.  The content-addressed serving cache keys on this, so
        alias traffic shares entries and flag changes miss correctly.
        """
        parts = [
            self.resolve(part).canonical
            for part in script.split(";")
            if part.strip()
        ]
        return "; ".join(parts)

    @property
    def version(self) -> str:
        """Digest of the registered command surface (names, flags, needs).

        Changes whenever a command is added, renamed, re-aliased or its
        schema/resource declaration changes — the serving cache includes
        it in every key, so results computed under one command set are
        never served under another.  Behavioral changes *inside* an
        operator are out of scope (bump by registering under a new
        name, or clear the store on deploy).
        """
        h = hashlib.blake2b(digest_size=8)
        for spelling in sorted(self._lookup):
            spec, zero = self._lookup[spelling]
            h.update(
                (
                    f"{spelling}:{spec.name}:{int(zero)}:"
                    f"{int(spec.supports_levels)}{int(spec.supports_workers)}"
                    f"{int(spec.needs_classifier)}{int(spec.needs_engine_pool)}"
                    f"{int(spec.uses_cache)};"
                ).encode("ascii")
            )
        return h.hexdigest()

    def script_requirements(self, script: str) -> ScriptNeeds:
        """Aggregate resource needs of ``script`` without executing it.

        Lenient: commands that fail to resolve contribute nothing (the
        error surfaces when the script actually runs), so provisioning
        layers can size resources for any script they are handed.
        """
        needs = ScriptNeeds()
        for part in script.split(";"):
            if not part.strip():
                continue
            try:
                resolved = self.resolve(part)
            except ReproError:
                continue
            needs.classifier |= resolved.spec.needs_classifier
            needs.engine_pool |= resolved.spec.needs_engine_pool
            if resolved.spec.needs_engine_pool and resolved.flags.workers:
                needs.max_explicit_workers = max(
                    needs.max_explicit_workers, resolved.flags.workers
                )
        return needs


# --- built-in command behaviors --------------------------------------------
# Heavy subsystems (elf, engine) are imported lazily inside the callables,
# exactly like the old if/elif chain did, to keep import order acyclic.


def _refactor_params(flags: CommandFlags) -> RefactorParams:
    return RefactorParams(
        zero_cost=flags.zero_cost, preserve_levels=flags.preserve_levels
    )


def _exec_balance(g, ctx, flags):
    return balance(g), None


def _exec_rewrite(g, ctx, flags):
    stats = rewrite(
        g,
        RewriteParams(
            zero_cost=flags.zero_cost, preserve_levels=flags.preserve_levels
        ),
        library=ctx.npn_library,
    )
    return g, stats


def _exec_refactor(g, ctx, flags):
    stats = refactor(g, _refactor_params(flags), cache=ctx.resynth_cache)
    return g, stats


def _exec_resub(g, ctx, flags):
    return g, resub(g, ResubParams(zero_cost=flags.zero_cost))


def _exec_elf(g, ctx, flags):
    from ..elf.operator import ElfParams, elf_refactor

    stats = elf_refactor(
        g,
        ctx.classifier,
        ElfParams(refactor=_refactor_params(flags)),
        cache=ctx.resynth_cache,
    )
    return g, stats


def _make_engine_refactor(elf: bool):
    def execute(g, ctx, flags):
        from ..engine import EngineParams, engine_refactor

        workers, executor = ctx.engine_resources(flags)
        stats = engine_refactor(
            g,
            EngineParams(
                refactor=_refactor_params(flags),
                workers=workers,
                executor=executor,
                resynth_cache=ctx.resynth_cache,
                deadline=ctx.deadline,
            ),
            classifier=ctx.classifier if elf else None,
        )
        return g, stats

    return execute


def _build_default_registry() -> CommandRegistry:
    registry = CommandRegistry()
    registry.register(
        CommandSpec(
            name="b",
            execute=_exec_balance,
            # Balance is depth-optimal by construction, so ``-l`` asks
            # for something it already guarantees; accepted for ABC
            # script compatibility (COMPRESS2 spells ``b -l``).
            supports_levels=True,
            help="AND-tree balancing (depth-optimal associativity)",
        )
    )
    registry.register(
        CommandSpec(
            name="rw",
            execute=_exec_rewrite,
            zero_cost_pair=True,
            supports_levels=True,
            help="cut rewriting against the NPN library",
        )
    )
    registry.register(
        CommandSpec(
            name="rf",
            execute=_exec_refactor,
            aliases=("f",),
            zero_cost_pair=True,
            supports_levels=True,
            uses_cache=True,
            help="reconvergence-driven refactoring (paper spelling: f)",
        )
    )
    registry.register(
        CommandSpec(
            name="rs",
            execute=_exec_resub,
            zero_cost_pair=True,
            help="resubstitution (no level-preserving mode: -l rejected)",
        )
    )
    registry.register(
        CommandSpec(
            name="elf",
            execute=_exec_elf,
            zero_cost_pair=True,
            supports_levels=True,
            needs_classifier=True,
            uses_cache=True,
            help="classifier-pruned refactoring (the paper's operator)",
        )
    )
    registry.register(
        CommandSpec(
            name="pf",
            execute=_make_engine_refactor(elf=False),
            zero_cost_pair=True,
            supports_levels=True,
            supports_workers=True,
            needs_engine_pool=True,
            uses_cache=True,
            help="conflict-wave parallel refactoring",
        )
    )
    registry.register(
        CommandSpec(
            name="pelf",
            execute=_make_engine_refactor(elf=True),
            zero_cost_pair=True,
            supports_levels=True,
            supports_workers=True,
            needs_classifier=True,
            needs_engine_pool=True,
            uses_cache=True,
            help="conflict-wave parallel ELF",
        )
    )
    registry.register(
        CommandSpec(
            name="prw",
            # The sequential rewrite at every width: a wave pass of it
            # never beat ``rw`` (docs/engine.md).  ``-w N`` is still
            # parsed and validated, so existing scripts keep running.
            execute=_exec_rewrite,
            zero_cost_pair=True,
            supports_levels=True,
            supports_workers=True,
            help="rewriting, kept as a spelling of rw (-w accepted, ignored)",
        )
    )
    return registry


_DEFAULT: CommandRegistry | None = None


def default_registry() -> CommandRegistry:
    """The process-wide registry of built-in flow commands.

    Registering here makes a command available to every subsequent
    session and ``run_flow`` call of the process; tests and experiments
    that want isolation should ``copy()`` first and hand the copy to
    ``OptSession(registry=...)``.
    """
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = _build_default_registry()
    return _DEFAULT
