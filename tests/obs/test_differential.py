"""S3: probing must never change results, and the off switch is free.

Two claims, tested separately:

* **Differential** — for every algorithm, ``mine(..., probe=Probe())``
  returns exactly the item sets and supports of ``mine(..., probe=None)``.
* **Zero overhead when off** — with ``probe=None`` the drivers make a
  small, *input-size-independent* number of null-probe hook calls per
  run (phases, ensure/record-counters — never per-operation hooks), and
  the measured cost of those calls is far below 5% of the cheapest
  mining run.  Counting hook calls instead of comparing wall clocks
  keeps the test deterministic on noisy CI runners while still pinning
  the property that matters: observability cost cannot scale with the
  database.
"""

from __future__ import annotations

import time

import pytest

from repro.mining import ALGORITHMS, mine
from repro.obs import NullProbe, Probe
from repro.obs.probe import _NULL_SPAN

from ..conftest import make_random_db

#: Ceiling on null-probe hook invocations for ONE mining run.  Phases,
#: one ensure_counters, record_counters per exit path — order tens, not
#: thousands.  A driver that starts calling the probe per operation
#: blows straight through this.
MAX_HOOKS_PER_RUN = 40


class CountingNullProbe(NullProbe):
    """Null probe that tallies how often the drivers touch it."""

    __slots__ = ("calls",)

    def __init__(self):
        self.calls = 0

    def phase(self, name, **attrs):
        self.calls += 1
        return _NULL_SPAN

    def event(self, name, **attrs):
        self.calls += 1

    def count(self, name, amount=1):
        self.calls += 1

    def observe(self, name, value):
        self.calls += 1

    def gauge_max(self, name, value):
        self.calls += 1

    def wrap_kernel(self, kernel):
        self.calls += 1
        return kernel

    def ensure_counters(self, counters):
        self.calls += 1
        return super().ensure_counters(counters)

    def record_counters(self, counters):
        self.calls += 1

    def sample_guard(self, elapsed, remaining, memory_used):
        self.calls += 1

    def merge_worker(self, snapshot, index=None):
        self.calls += 1


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
class TestProbedResultsIdentical:
    def test_probe_on_equals_probe_off(self, algorithm, table1_db):
        off = mine(table1_db, 3, algorithm=algorithm)
        on = mine(table1_db, 3, algorithm=algorithm, probe=Probe())
        assert sorted(on.items()) == sorted(off.items())

    def test_probe_on_equals_probe_off_random(self, algorithm):
        for seed in range(5):
            db = make_random_db(seed, max_transactions=14, max_items=9)
            off = mine(db, 2, algorithm=algorithm)
            on = mine(db, 2, algorithm=algorithm, probe=Probe())
            assert sorted(on.items()) == sorted(off.items()), f"seed={seed}"


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_null_probe_hook_calls_are_input_size_independent(algorithm):
    counts = {}
    for label, transactions in (("small", 8), ("large", 64)):
        db = make_random_db(7, max_transactions=transactions, max_items=10)
        probe = CountingNullProbe()
        mine(db, 2, algorithm=algorithm, probe=probe)
        counts[label] = probe.calls
        assert probe.calls <= MAX_HOOKS_PER_RUN, (
            f"{algorithm} made {probe.calls} probe hook calls on one run"
        )
    # Hooks mark run structure (phases, counter hand-off), so a database
    # eight times larger must not add hook traffic.
    assert counts["large"] <= counts["small"] + 2


#: Both sides of the overhead ratio are priced as the best of this many
#: runs, taken in alternation so a slow spell of a shared host lands on
#: both.  (Two separate best-of loops let a drift in the host's speed
#: between them tip the ratio either way.)
OVERHEAD_REPEATS = 7


def test_null_probe_overhead_is_below_five_percent(table1_db):
    # Price one hook call, then bound total hook cost per run against
    # the cheapest real mining run.  The margin is not wide: on a
    # 2-core host the 40 hooks come to 3.4-4.3% of the IsTa run on the
    # Table-1 example (medians of 20 trials).
    probe = CountingNullProbe()
    rounds = 4_000

    def hooks():
        for _ in range(rounds):
            with probe.phase("mine"):
                pass
            probe.count("x")
            probe.record_counters(None)

    hook_runs, mine_runs = [], []
    for _ in range(OVERHEAD_REPEATS):
        hook_runs.append(_timed(hooks))
        mine_runs.append(_timed(lambda: mine(table1_db, 3, algorithm="ista")))
    hook_seconds = min(hook_runs) / (rounds * 3)
    best_run = min(mine_runs)
    assert MAX_HOOKS_PER_RUN * hook_seconds < 0.05 * best_run, (
        f"hook cost {hook_seconds * 1e9:.0f}ns x {MAX_HOOKS_PER_RUN} exceeds "
        f"5% of a {best_run * 1e3:.2f}ms run"
    )


def _timed(thunk):
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started
