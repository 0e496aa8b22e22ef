"""RunGuard mechanics: stride sampling, budgets, cancellation, progress."""

from __future__ import annotations

import time

import pytest

from repro.runtime import (
    CancellationToken,
    MemoryBudgetExceeded,
    MiningCancelled,
    MiningTimeout,
    RunGuard,
)
from repro.runtime.guard import checker
from repro.stats import OperationCounters


class TestCheckSampling:
    def test_first_check_is_real(self):
        # A pre-expired deadline must trip on the very first check even
        # with a huge stride — otherwise a driver could burn a full
        # stride of work before noticing.
        guard = RunGuard(timeout=0.0, stride=10_000)
        with pytest.raises(MiningTimeout):
            guard.check()
        assert guard.checks == 1
        assert guard.real_checks == 1

    def test_stride_sampling(self):
        guard = RunGuard(stride=64)
        for _ in range(1000):
            guard.check()
        assert guard.checks == 1000
        # 1 first check + every 64th thereafter.
        assert guard.real_checks == pytest.approx(1000 / 64, abs=2)

    @pytest.mark.parametrize("stride", (1, 7, 64))
    def test_tick_counts_like_single_checks(self, stride):
        bulk, single = RunGuard(stride=stride), RunGuard(stride=stride)
        for n in (1, 5, 64, 0, 130, 3):
            bulk.tick(n)
            for _ in range(n):
                single.check()
            assert bulk.checks == single.checks
        assert bulk.checks == 203
        # One real check per poll that reaches the countdown, never more.
        assert 1 <= bulk.real_checks <= single.real_checks

    @pytest.mark.parametrize("index", (1, 10, 11, 25, 26))
    def test_stride_one_fault_trips_at_first_tick_at_or_past_index(self, index):
        from repro.runtime import FaultPlan

        guard = RunGuard(fault_plan=FaultPlan(timeout_at=index), stride=1)
        polls = []
        with pytest.raises(MiningTimeout):
            for n in (10, 1, 14, 50):
                polls.append(guard.checks + n)
                guard.tick(n)
        first = next(count for count in polls if count >= index)
        assert guard.checks == first == polls[-1]
        assert guard.fault_plan.trips == [("timeout", first)]

    def test_tick_trips_deadline(self):
        guard = RunGuard(deadline=time.monotonic() - 1.0, stride=64)
        with pytest.raises(MiningTimeout):
            guard.tick(1_000)
        assert guard.checks == 1_000

    def test_invalid_config(self):
        with pytest.raises(ValueError, match="timeout"):
            RunGuard(timeout=-1)
        with pytest.raises(ValueError, match="memory limit"):
            RunGuard(memory_limit_mb=0)
        with pytest.raises(ValueError, match="stride"):
            RunGuard(stride=0)
        with pytest.raises(ValueError, match="memory meter"):
            RunGuard(memory_meter="psutil")


class TestDeadline:
    def test_timeout_trips(self):
        guard = RunGuard(timeout=0.02, stride=1)
        deadline = time.monotonic() + 5.0
        with pytest.raises(MiningTimeout, match="timeout"):
            while time.monotonic() < deadline:
                guard.check()

    def test_absolute_deadline(self):
        guard = RunGuard(deadline=time.monotonic() - 1.0, stride=1)
        with pytest.raises(MiningTimeout, match="deadline"):
            guard.check()

    def test_remaining(self):
        guard = RunGuard(timeout=60.0)
        assert 0 < guard.remaining() <= 60.0
        assert RunGuard().remaining() is None
        assert RunGuard().elapsed() >= 0.0


class TestMemoryBudget:
    def test_tracemalloc_budget_trips(self):
        guard = RunGuard(memory_limit_mb=0.25, stride=1)
        try:
            hoard = []
            with pytest.raises(MemoryBudgetExceeded) as info:
                for _ in range(10_000):
                    hoard.append(bytearray(4096))
                    guard.check()
            assert info.value.used_bytes > info.value.limit_bytes
            del hoard
        finally:
            guard.finish()

    def test_unmetered_memory_used_is_none(self):
        assert RunGuard().memory_used() is None

    def test_finish_stops_owned_tracing(self):
        import tracemalloc

        was_tracing = tracemalloc.is_tracing()
        guard = RunGuard(memory_limit_mb=100)
        guard.finish()
        assert tracemalloc.is_tracing() == was_tracing


class TestCancellation:
    def test_precancelled_trips_immediately(self):
        token = CancellationToken()
        token.cancel("operator said stop")
        guard = RunGuard(cancel=token, stride=1)
        with pytest.raises(MiningCancelled, match="operator said stop"):
            guard.check()

    def test_cancel_mid_run(self):
        token = CancellationToken()
        guard = RunGuard(cancel=token, stride=1)
        guard.check()
        token.cancel()
        with pytest.raises(MiningCancelled):
            guard.check()


class TestProgress:
    def test_progress_callback_fires(self):
        seen = []
        guard = RunGuard(progress=seen.append, progress_interval=0.0, stride=1)
        for _ in range(5):
            guard.check()
        assert len(seen) >= 1
        info = seen[0]
        assert info.elapsed >= 0.0
        assert info.checks >= 1

    def test_progress_sees_counters(self):
        seen = []
        guard = RunGuard(progress=seen.append, progress_interval=0.0, stride=1)
        counters = OperationCounters()
        counters.intersections = 7
        check = checker(guard, counters)
        check()
        assert seen and seen[0].counters.get("intersections") == 7


class TestChecker:
    def test_none_guard_is_noop(self):
        check = checker(None, OperationCounters())
        for _ in range(100):
            check()  # must never raise

    def test_binds_counters_once(self):
        guard = RunGuard()
        first = OperationCounters()
        second = OperationCounters()
        checker(guard, first)
        checker(guard, second)
        assert guard.counters is first


class TestRespawn:
    def test_respawn_shares_cancel_and_faults(self):
        token = CancellationToken()
        guard = RunGuard(timeout=5.0, cancel=token)
        fresh = guard.respawn()
        assert fresh is not guard
        assert fresh.cancel is token
        assert fresh.timeout == 5.0
        assert fresh.checks == 0

    def test_interrupt_carries_counter_snapshot(self):
        guard = RunGuard(timeout=0.0, stride=1)
        counters = OperationCounters()
        counters.recursion_calls = 42
        check = checker(guard, counters)
        with pytest.raises(MiningTimeout) as info:
            check()
        assert info.value.counters.get("recursion_calls") == 42
        assert info.value.checks == 1
