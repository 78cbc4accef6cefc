"""Fault-tolerance battery: worker death, hangs, deadlines, degradation.

Every recovery path the resilience layer promises is driven here
deterministically through the fault-injection registry
(:mod:`repro.resilience.faults`) — no real flakiness is required to test
flakiness handling.  The invariants pinned throughout:

* recovery is **transparent**: results are bit-identical to a clean run
  on every path (retry, sequential floor);
* recovery is **counted**: the obs registry carries exact death / retry /
  degradation / deadline counters, asserted to the integer.

The container runs on one core, so pooled tests monkeypatch
``cpu_count`` (the ``two_cores`` fixture) exactly like the engine tests.
"""

import os
import random

import pytest

import repro.engine.parallel as parallel
from repro import obs
from repro.aig.io_bench import from_text
from repro.circuits.random_aig import layered_random_aig
from repro.engine import EngineParams, engine_refactor
from repro.engine.parallel import ResynthExecutor, resynthesize_batch
from repro.errors import (
    DeadlineExceeded,
    FatalError,
    ReproError,
    RetryableError,
    WorkerCrashError,
)
from repro.opt.refactor import RefactorParams
from repro.opt.session import OptSession
from repro.resilience import (
    Deadline,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
)
from repro.resilience import faults
from repro.serve.stream import ServeParams, serve_suite
from repro.verify.cec import equivalent


@pytest.fixture(autouse=True)
def clean_slate():
    """Fresh fault registry + metrics registry around every test."""
    faults.clear()
    obs.reset()
    yield
    faults.clear()
    obs.configure(enabled=False)


@pytest.fixture
def two_cores(monkeypatch):
    """Pretend the host has two cores so ``will_pool`` admits the pool."""
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)


def _resynth_tasks(n=200, leaves=10, seed=13):
    from repro.aig.simulate import full_mask

    rng = random.Random(seed)
    return [(rng.getrandbits(1 << leaves) & full_mask(leaves), leaves) for _ in range(n)]


class FakeClock:
    """Deterministic monotonic clock: +1.0 "second" per read."""

    def __init__(self, start=0.0, step=1.0):
        self.t = start
        self.step = step

    def __call__(self):
        self.t += self.step
        return self.t


# --------------------------------------------------------------------------
# Error taxonomy
# --------------------------------------------------------------------------


class TestErrorTaxonomy:
    def test_hierarchy(self):
        assert issubclass(RetryableError, ReproError)
        assert issubclass(FatalError, ReproError)
        assert issubclass(WorkerCrashError, RetryableError)
        assert issubclass(InjectedFault, RetryableError)
        assert not issubclass(FatalError, RetryableError)

    def test_deadline_exceeded_payload(self):
        error = DeadlineExceeded("late", site="engine.wave")
        assert error.site == "engine.wave"
        assert error.partial is None
        assert error.report is None
        assert isinstance(error, ReproError)


# --------------------------------------------------------------------------
# Deadline unit behavior
# --------------------------------------------------------------------------


class TestDeadline:
    def test_unlimited(self):
        deadline = Deadline()
        assert deadline.unlimited
        assert not deadline.expired
        assert deadline.remaining() == float("inf")
        assert deadline.bound(7.5) == 7.5
        deadline.check("anywhere")  # never raises

    def test_fake_clock_expiry_by_call_count(self):
        deadline = Deadline(3.0, clock=FakeClock())  # expires at t=4.0
        assert not deadline.expired  # t=2
        assert not deadline.expired  # t=3
        with pytest.raises(DeadlineExceeded) as excinfo:
            deadline.check("unit.site")  # t=4 -> expired
        assert excinfo.value.site == "unit.site"
        assert "unit.site" in str(excinfo.value)

    def test_bound_clips_to_remaining(self):
        deadline = Deadline(10.0, clock=FakeClock())  # expires at t=11
        # Second read at t=2: 9 seconds remain, so 30 clips to 9.
        assert deadline.bound(30.0) == pytest.approx(9.0)
        assert deadline.bound(0.5) == pytest.approx(0.5)

    def test_remaining_clamps_at_zero(self):
        deadline = Deadline(0.5, clock=FakeClock())
        assert deadline.remaining() == 0.0
        assert deadline.bound(10.0) == 0.0


# --------------------------------------------------------------------------
# Retry policy + degradation ladder
# --------------------------------------------------------------------------


class TestRetryPolicy:
    def test_budget_is_zero_based(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.allows(0)
        assert policy.allows(1)
        assert not policy.allows(2)

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_s=0.05, backoff_factor=2.0, max_backoff_s=0.15)
        assert policy.backoff(0) == pytest.approx(0.05)
        assert policy.backoff(1) == pytest.approx(0.10)
        assert policy.backoff(2) == pytest.approx(0.15)  # capped
        assert policy.backoff(10) == pytest.approx(0.15)


# --------------------------------------------------------------------------
# Fault spec grammar + registry
# --------------------------------------------------------------------------


class TestFaultSpecs:
    def test_parse_full_grammar(self):
        spec = FaultSpec.parse("worker.chunk=delay(0.25)@2,4#chunk=7")
        assert spec.site == "worker.chunk"
        assert spec.action == "delay"
        assert spec.value == pytest.approx(0.25)
        assert spec.hits == frozenset({2, 4})
        assert spec.match == ("chunk", "7")

    def test_parse_minimal(self):
        spec = FaultSpec.parse("worker.start=raise")
        assert spec.hits == frozenset()
        assert spec.match is None

    @pytest.mark.parametrize(
        "text", ["", "nosite", "a=explode", "a=raise@x", "a=kill#=3"]
    )
    def test_malformed_specs_raise(self, text):
        with pytest.raises(ReproError):
            FaultSpec.parse(text)

    def test_hits_and_match_filtering(self):
        spec = FaultSpec.parse("s=raise@2#k=1")
        assert not spec.triggers(1, {"k": 1})  # wrong hit
        assert not spec.triggers(2, {"k": 9})  # wrong match
        assert not spec.triggers(2, {})  # match key absent
        assert spec.triggers(2, {"k": 1})  # string-compared

    def test_plan_fires_raise_and_counts(self):
        plan = faults.install("unit.site=raise@2")
        plan.fire("unit.site")  # hit 1: no trigger
        with pytest.raises(InjectedFault):
            plan.fire("unit.site")  # hit 2
        plan.fire("unit.site")  # hit 3: no trigger
        assert plan.arrivals("unit.site") == 3
        assert (
            obs.metrics().value(
                "faults_injected_total", site="unit.site", action="raise"
            )
            == 1
        )

    def test_inactive_fire_is_noop(self):
        faults.fire("anywhere")  # no plan installed: must not raise

    def test_env_adoption_once(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "env.site=raise")
        faults.clear()  # forget the explicit-install override
        with pytest.raises(InjectedFault):
            faults.fire("env.site")
        monkeypatch.setenv(faults.ENV_VAR, "env.site=raise;other=raise")
        faults.fire("other")  # env was adopted once; changes are ignored

    def test_injected_contextmanager_restores(self):
        outer = faults.install("outer=raise")
        with faults.injected("inner=raise"):
            faults.fire("outer")  # inner plan replaced the outer one
            with pytest.raises(InjectedFault):
                faults.fire("inner")
        assert faults.active() is outer
        faults.clear()

    def test_kill_without_pid_context_raises(self):
        spec = FaultSpec.parse("s=kill")
        plan = FaultPlan(specs=(spec,))
        with pytest.raises(ReproError):
            plan.fire("s")


# --------------------------------------------------------------------------
# Worker-death recovery (the tentpole), driven through injection
# --------------------------------------------------------------------------


class TestWorkerDeathRecovery:
    def test_kill_ladder_exact_counters_and_bit_identity(self, two_cores):
        """A worker SIGKILLed on every attempt walks the whole ladder.

        Rounds 1, 2 and 3 each lose chunk 0 to a death; the retry budget
        (2) exhausts and the lost chunk lands on the sequential floor.
        Results stay bit-identical throughout and every decision is
        counted exactly.
        """
        tasks = _resynth_tasks()
        params = RefactorParams()
        expected = resynthesize_batch(tasks, params)
        with faults.injected("worker.chunk=kill#chunk=0"):
            with ResynthExecutor(2, params, chunk_timeout_s=1.0) as executor:
                assert executor.will_pool(len(tasks))
                out = executor.run(tasks)
                assert executor.in_process  # budget exhausted: floor is sticky
        assert out == expected
        reg = obs.metrics()
        assert reg.value("engine_worker_deaths_total") == 3
        assert reg.value("engine_retries_total") == 2
        assert reg.value("engine_degradations_total", to="sequential") == 1
        assert reg.value("engine_worker_hangs_total") == 0

    def test_lost_result_retries_only_lost_chunks(self, two_cores):
        """A single lost chunk result recovers in one retry round.

        ``chunk.result=raise@1`` drops exactly the first chunk wait in
        the parent; the worker was healthy, so the retry round re-ships
        only that chunk and succeeds — one retry, zero deaths.
        """
        tasks = _resynth_tasks()
        params = RefactorParams()
        expected = resynthesize_batch(tasks, params)
        with faults.injected("chunk.result=raise@1"):
            with ResynthExecutor(2, params, chunk_timeout_s=5.0) as executor:
                out = executor.run(tasks)
                assert not executor.in_process  # pool survived
        assert out == expected
        reg = obs.metrics()
        assert reg.value("engine_retries_total") == 1
        assert reg.value("engine_worker_deaths_total") == 0
        assert reg.value("engine_degradations_total", to="sequential") == 0
        assert (
            reg.value("engine_chunk_failures_total", reason="InjectedFault") == 1
        )

    def test_hung_worker_detected_and_floored(self, two_cores):
        """A hung (alive but stalled) worker is a hang, not a death."""
        tasks = _resynth_tasks()
        params = RefactorParams()
        expected = resynthesize_batch(tasks, params)
        with faults.injected("worker.chunk=delay(30)#chunk=1"):
            with ResynthExecutor(
                2,
                params,
                chunk_timeout_s=0.4,
                retry_policy=RetryPolicy(max_retries=1, backoff_s=0.01),
            ) as executor:
                out = executor.run(tasks)
        assert out == expected
        reg = obs.metrics()
        # At least the stalled chunk per round; on a time-sliced single
        # CPU a healthy-but-slow chunk may blow the tight timeout too,
        # so the hang count is a floor, not an exact figure.
        assert reg.value("engine_worker_hangs_total") >= 2
        assert reg.value("engine_worker_deaths_total") == 0
        assert reg.value("engine_retries_total") == 1
        assert reg.value("engine_degradations_total", to="sequential") == 1

    def test_pool_creation_fault_degrades_in_process(self, two_cores):
        """Pool creation failure is a counted, logged, in-process fallback."""
        tasks = _resynth_tasks(n=64)
        params = RefactorParams()
        expected = resynthesize_batch(tasks, params)
        with faults.injected("worker.start=raise"):
            with ResynthExecutor(2, params) as executor:
                out = executor.run(tasks)
                assert executor.in_process
        assert out == expected
        reg = obs.metrics()
        assert (
            reg.value("engine_pool_fallbacks_total", reason="InjectedFault") == 1
        )
        assert reg.value("engine_worker_deaths_total") == 0
        assert reg.value("engine_retries_total") == 0


class TestEngineWideRecovery:
    """Worker death mid-wave, through the full engine pass."""

    def test_mid_wave_kill_is_transparent(self, two_cores):
        g = layered_random_aig(12, 700, seed=7)
        from repro.aig.io_bench import to_text

        clean = g.clone()
        with ResynthExecutor(2, RefactorParams(), chunk_timeout_s=5.0) as executor:
            engine_refactor(clean, EngineParams(executor=executor))

        faulted = g.clone()
        # Lose one chunk result in the parent mid-pass: the engine's
        # executor retries it; the pass output must not change.
        with faults.injected("chunk.result=raise@1"):
            with ResynthExecutor(
                2, RefactorParams(), chunk_timeout_s=5.0
            ) as executor:
                engine_refactor(faulted, EngineParams(executor=executor))
        assert to_text(faulted) == to_text(clean)
        assert equivalent(g, faulted)
        assert obs.metrics().value("engine_retries_total") == 1

    def test_mid_wave_sigkill_is_transparent(self, two_cores):
        """SIGKILL a pool worker mid-wave; the pass result is unchanged."""
        g = layered_random_aig(12, 700, seed=7)
        from repro.aig.io_bench import to_text

        clean = g.clone()
        with ResynthExecutor(2, RefactorParams(), chunk_timeout_s=5.0) as executor:
            engine_refactor(clean, EngineParams(executor=executor))

        faulted = g.clone()
        with faults.injected("worker.chunk=kill@1#chunk=0"):
            with ResynthExecutor(
                2,
                RefactorParams(),
                chunk_timeout_s=1.0,
                retry_policy=RetryPolicy(max_retries=2, backoff_s=0.01),
            ) as executor:
                engine_refactor(faulted, EngineParams(executor=executor))
        assert to_text(faulted) == to_text(clean)
        assert equivalent(g, faulted)
        reg = obs.metrics()
        assert reg.value("engine_worker_deaths_total") >= 1
        assert reg.value("engine_retries_total") >= 1


# --------------------------------------------------------------------------
# Deadlines through the stack
# --------------------------------------------------------------------------


class TestDeadlinePropagation:
    def test_flow_deadline_yields_consistent_prefix(self):
        g = layered_random_aig(12, 700, seed=7)
        deadline = Deadline(5.0, clock=FakeClock())
        with OptSession(engine_workers=1) as session:
            with pytest.raises(DeadlineExceeded) as excinfo:
                session.run(g.clone(), "b; rw; rf; rw; rf", deadline=deadline)
        error = excinfo.value
        assert error.partial is not None
        assert error.report is not None
        # The completed steps are a strict prefix of the script.
        done = [step.command for step in error.report.steps]
        assert 0 < len(done) < 5
        assert done == ["b", "rw", "rf", "rw", "rf"][: len(done)]
        # The partial is a valid network, CEC-clean against the input.
        assert equivalent(g, error.partial)

    def test_engine_wave_deadline_mid_pass(self, two_cores):
        g = layered_random_aig(12, 700, seed=7)
        out = g.clone()
        # Generous fake budget: survives session/prep reads, expires
        # across the wave loop's checks.
        deadline = Deadline(60.0, clock=FakeClock())
        with pytest.raises(DeadlineExceeded):
            engine_refactor(out, EngineParams(workers=2, deadline=deadline))
        # Commits are serial: whatever prefix landed is consistent.
        assert equivalent(g, out)
        assert obs.metrics().value("engine_deadline_exceeded_total") == 1

    def test_expired_deadline_refuses_sequential_delegation(self):
        g = layered_random_aig(10, 120, seed=4)
        deadline = Deadline(0.0, clock=FakeClock())
        with pytest.raises(DeadlineExceeded):
            engine_refactor(g, EngineParams(workers=1, deadline=deadline))

    def test_executor_sequential_floor_checks_deadline(self):
        tasks = _resynth_tasks(n=32)
        deadline = Deadline(2.0, clock=FakeClock())
        with ResynthExecutor(1, RefactorParams()) as executor:
            with pytest.raises(DeadlineExceeded) as excinfo:
                executor.run(tasks, deadline=deadline)
        assert excinfo.value.site == "executor.sequential"

    def test_serve_circuit_timeout_keeps_valid_prefix(self):
        suite = {
            "a": layered_random_aig(10, 150, seed=1),
            "b": layered_random_aig(10, 150, seed=2),
        }
        from repro.aig.io_bench import to_text

        # A zero budget expires before the first step: every circuit
        # comes back valid-but-unoptimized, flagged, and counted.
        report = serve_suite(
            suite,
            ServeParams(flow="b; rf", n_shards=1, circuit_timeout_s=0.0),
        )
        assert report.ok  # a blown budget is degradation, not an error
        for result in report.results:
            assert result.deadline_exceeded
            assert result.bench_text == to_text(suite[result.name])
        assert obs.metrics().value("serve_deadline_exceeded_total") == 2

        # Without a budget the same serve completes normally.
        report = serve_suite(suite, ServeParams(flow="b; rf", n_shards=1))
        assert report.ok
        assert not any(r.deadline_exceeded for r in report.results)


# --------------------------------------------------------------------------
# Serving still completes under engine faults (isolation)
# --------------------------------------------------------------------------


class TestServeUnderFaults:
    def test_pool_fallback_does_not_fail_serving(self, two_cores):
        """Serving degrades to in-process execution when no pool forks."""
        suite = {
            "a": layered_random_aig(10, 150, seed=1),
            "b": layered_random_aig(10, 150, seed=2),
        }
        clean = serve_suite(suite, ServeParams(flow="rf", n_shards=1, workers=1))
        with faults.injected("worker.start=raise"):
            faulted = serve_suite(
                suite, ServeParams(flow="pf", n_shards=1, workers=2)
            )
        assert faulted.ok
        for result in faulted.results:
            assert equivalent(suite[result.name], from_text(result.bench_text))
        assert clean.ok
