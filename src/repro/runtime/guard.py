"""The run guard: deadlines, memory budgets, cancellation, progress.

Every algorithm driver polls a :class:`RunGuard` at its recursion/loop
heads through :meth:`RunGuard.check`.  The check is *stride-sampled*:
only every ``stride``-th call performs the real (clock + memory +
cancellation + fault-plan) inspection, so the per-iteration cost in the
hot loops is one attribute decrement and a compare.  The very first
call always performs a real check, so an already-expired deadline or a
pre-cancelled token trips before any work is done.

Budgets
-------

* **Deadline / timeout** — ``timeout`` seconds of wall clock from guard
  creation, or an absolute ``deadline`` on :func:`time.monotonic`.
* **Memory** — ``memory_limit_mb`` of *additional* allocation since the
  guard started.  Two meters are available: ``"tracemalloc"``
  (default), which measures Python-level allocations exactly but slows
  allocation-heavy code while tracing, and ``"rss"``, which reads
  ``resource.getrusage`` peak RSS — near-free but coarse and
  monotonic.  The meter only engages when a limit is set.
* **Cancellation** — a :class:`~repro.runtime.cancel.CancellationToken`
  polled at every real check.
* **Fault plan** — a :class:`~repro.runtime.faults.FaultPlan` consulted
  first at every real check, so tests can force any trip at a chosen
  operation count.

``progress`` is an optional callback invoked at most every
``progress_interval`` seconds with a :class:`ProgressInfo` snapshot —
enough to drive a spinner, a log line, or an external watchdog.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, NamedTuple, Optional

from .cancel import CancellationToken
from .errors import MemoryBudgetExceeded, MiningCancelled, MiningTimeout

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None

import tracemalloc

__all__ = ["RunGuard", "ProgressInfo", "checker"]


class ProgressInfo(NamedTuple):
    """Snapshot handed to the progress callback."""

    elapsed: float        # seconds since the guard started
    checks: int           # guard.check() calls so far
    counters: Dict[str, int]  # operation-counter snapshot (may be empty)


def _noop() -> None:
    return None


def checker(guard: Optional["RunGuard"], counters: Any = None) -> Callable[[], None]:
    """The guard's check callable, or a no-op when no guard is active.

    Drivers call this once in their preamble::

        check = checker(guard, counters)
        while stack:
            check()
            ...

    Binding ``counters`` lets the guard snapshot the driver's operation
    counts into any exception it raises.
    """
    if guard is None:
        return _noop
    if counters is not None and guard.counters is None:
        guard.counters = counters
    return guard.check


class RunGuard:
    """Deadline + memory budget + cancellation + progress, polled cheaply."""

    __slots__ = (
        "timeout",
        "memory_limit_mb",
        "cancel",
        "fault_plan",
        "progress",
        "progress_interval",
        "stride",
        "memory_meter",
        "counters",
        "probe",
        "checks",
        "real_checks",
        "_deadline",
        "_started",
        "_countdown",
        "_memory_limit_bytes",
        "_memory_baseline",
        "_owns_tracing",
        "_next_progress",
        "_finished",
    )

    def __init__(
        self,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        memory_limit_mb: Optional[float] = None,
        cancel: Optional[CancellationToken] = None,
        fault_plan: Optional[Any] = None,
        progress: Optional[Callable[[ProgressInfo], None]] = None,
        progress_interval: float = 1.0,
        stride: int = 64,
        memory_meter: str = "tracemalloc",
        probe: Optional[Any] = None,
    ) -> None:
        if timeout is not None and timeout < 0:
            raise ValueError(f"timeout must be non-negative, got {timeout}")
        if memory_limit_mb is not None and memory_limit_mb <= 0:
            raise ValueError(
                f"memory limit must be positive, got {memory_limit_mb}"
            )
        if stride < 1:
            raise ValueError(f"stride must be positive, got {stride}")
        if memory_meter not in ("tracemalloc", "rss"):
            raise ValueError(f"unknown memory meter {memory_meter!r}")
        if memory_meter == "rss" and _resource is None:
            raise ValueError("memory meter 'rss' needs the resource module")
        self.timeout = timeout
        self.memory_limit_mb = memory_limit_mb
        self.cancel = cancel
        self.fault_plan = fault_plan
        self.progress = progress
        self.progress_interval = progress_interval
        self.stride = stride
        self.memory_meter = memory_meter
        #: Operation counters bound by the running driver (see
        #: :func:`checker`); snapshotted into raised exceptions.
        self.counters: Any = None
        #: Optional observability probe (duck-typed to avoid importing
        #: :mod:`repro.obs` here): every *real* check feeds it one
        #: ``sample_guard(elapsed, remaining, memory_used)`` sample —
        #: deadline headroom and memory high water, the two quantities a
        #: post-mortem of a budget trip needs.  ``None`` (or an inactive
        #: probe) costs nothing.
        self.probe = probe if probe is not None and getattr(probe, "active", False) else None
        self.checks = 0
        self.real_checks = 0
        self._started = time.monotonic()
        if deadline is not None:
            self._deadline = deadline
        elif timeout is not None:
            self._deadline = self._started + timeout
        else:
            self._deadline = None
        self._countdown = 1  # first check() is always a real check
        self._owns_tracing = False
        self._finished = False
        self._memory_limit_bytes = (
            int(memory_limit_mb * 1024 * 1024) if memory_limit_mb is not None else None
        )
        self._memory_baseline = 0
        if self._memory_limit_bytes is not None:
            if memory_meter == "tracemalloc":
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                    self._owns_tracing = True
                self._memory_baseline = tracemalloc.get_traced_memory()[0]
            else:
                self._memory_baseline = self._rss_bytes()
        self._next_progress = (
            self._started + progress_interval if progress is not None else None
        )

    # ------------------------------------------------------------------

    def check(self) -> None:
        """Poll the guard; raises a typed interruption when a budget trips.

        Cheap by design: all but every ``stride``-th call return after a
        decrement.  Call at every loop/recursion head.
        """
        self.checks += 1
        self._countdown -= 1
        if self._countdown > 0:
            return
        self._countdown = self.stride
        self._real_check()

    def tick(self, n: int) -> None:
        """Count ``n`` operations at once, as ``n`` :meth:`check` calls would.

        For a vectorised step that covers ``n`` operations in one go:
        ``checks`` advances by ``n``, and one real check runs when the
        stride countdown reaches zero within them.  A fault plan then
        fires at this poll, the first at or past its operation count.
        """
        self.checks += n
        self._countdown -= n
        if self._countdown > 0:
            return
        self._countdown = self.stride
        self._real_check()

    def elapsed(self) -> float:
        """Wall-clock seconds since the guard started."""
        return time.monotonic() - self._started

    def remaining(self) -> Optional[float]:
        """Seconds until the deadline, ``None`` if unbounded."""
        if self._deadline is None:
            return None
        return self._deadline - time.monotonic()

    def memory_used(self) -> Optional[int]:
        """Bytes allocated since the guard started (``None`` if unmetered)."""
        if self._memory_limit_bytes is None:
            return None
        if self.memory_meter == "tracemalloc":
            if not tracemalloc.is_tracing():
                return 0
            return tracemalloc.get_traced_memory()[0] - self._memory_baseline
        return self._rss_bytes() - self._memory_baseline

    def respawn(self) -> "RunGuard":
        """A fresh guard with the same configuration and a new deadline.

        The fallback machinery gives every attempt in the chain its own
        budget; the cancellation token and fault plan are *shared* (a
        cancelled token cancels every attempt, and a fault plan's trip
        accounting spans the whole chain).
        """
        self.finish()
        return RunGuard(
            timeout=self.timeout,
            memory_limit_mb=self.memory_limit_mb,
            cancel=self.cancel,
            fault_plan=self.fault_plan,
            progress=self.progress,
            progress_interval=self.progress_interval,
            stride=self.stride,
            memory_meter=self.memory_meter,
            probe=self.probe,
        )

    def finish(self) -> None:
        """Release guard resources (stops tracemalloc if this guard started it).

        Idempotent: safe to call from a ``finally`` block *and* from
        :meth:`__exit__` on the same guard.
        """
        if self._finished:
            return
        self._finished = True
        if self._owns_tracing and tracemalloc.is_tracing():
            tracemalloc.stop()

    # Context-manager protocol: ``with RunGuard(...) as guard`` releases
    # the memory meter even when an exception escapes between start and
    # close — the leak the process-isolation bench path used to hit when
    # tracemalloc stayed enabled after a failed run.
    def __enter__(self) -> "RunGuard":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish()

    # ------------------------------------------------------------------

    def _rss_bytes(self) -> int:
        # ru_maxrss is KiB on Linux, bytes on macOS; normalise to bytes.
        peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
        import sys

        return peak if sys.platform == "darwin" else peak * 1024

    def _snapshot(self) -> Dict[str, int]:
        counters = self.counters
        if counters is None:
            return {}
        try:
            return counters.as_dict()
        except Exception:
            return {}

    def _interrupt_kwargs(self) -> Dict[str, Any]:
        return {
            "counters": self._snapshot(),
            "elapsed": self.elapsed(),
            "checks": self.checks,
        }

    def _real_check(self) -> None:
        self.real_checks += 1
        if self.fault_plan is not None:
            self.fault_plan.fire(self)
        if self.cancel is not None and self.cancel.cancelled:
            reason = self.cancel.reason
            message = "mining cancelled" + (f": {reason}" if reason else "")
            raise MiningCancelled(message, **self._interrupt_kwargs())
        now = time.monotonic()
        if self.probe is not None:
            self.probe.sample_guard(
                now - self._started,
                None if self._deadline is None else self._deadline - now,
                self.memory_used(),
            )
        if self._deadline is not None and now >= self._deadline:
            if self.timeout is not None:
                message = (
                    f"mining exceeded the {self.timeout}s timeout "
                    f"after {now - self._started:.3f}s"
                )
            else:
                message = f"mining exceeded its deadline after {now - self._started:.3f}s"
            raise MiningTimeout(message, **self._interrupt_kwargs())
        if self._memory_limit_bytes is not None:
            used = self.memory_used()
            if used is not None and used > self._memory_limit_bytes:
                raise MemoryBudgetExceeded(
                    f"mining exceeded the {self.memory_limit_mb} MB memory "
                    f"budget ({used / (1024 * 1024):.1f} MB allocated)",
                    used_bytes=used,
                    limit_bytes=self._memory_limit_bytes,
                    **self._interrupt_kwargs(),
                )
        if self._next_progress is not None and now >= self._next_progress:
            self._next_progress = now + self.progress_interval
            self.progress(
                ProgressInfo(now - self._started, self.checks, self._snapshot())
            )

    def __repr__(self) -> str:
        parts = []
        if self.timeout is not None:
            parts.append(f"timeout={self.timeout}")
        if self.memory_limit_mb is not None:
            parts.append(f"memory_limit_mb={self.memory_limit_mb}")
        if self.cancel is not None:
            parts.append(f"cancel={self.cancel!r}")
        if self.fault_plan is not None:
            parts.append("fault_plan=...")
        parts.append(f"checks={self.checks}")
        return f"RunGuard({', '.join(parts)})"
