"""The streaming fold path keeps the <5% probe-overhead bound.

Same strategy as the one-shot bound in ``test_differential``: count
null-probe hook calls (deterministic on noisy runners), price one hook
call, and hold priced hook cost under 5% of the cheapest real run.
Two new surfaces are covered here:

* the **streaming fold path** — ingest/fold/compact must make a small,
  per-record-bounded number of probe hook calls with the probe off
  (the WAL append histograms are guarded by ``probe.active`` so the
  off path never reads the clock);
* the **flight recorder cadence** — an :meth:`~FlightRecorder.emit`
  call inside the rate-limit window is a clock read and a compare, so
  hooking it at every fold boundary cannot scale with the database.
"""

from __future__ import annotations

import time

from repro.obs import FlightRecorder, NullProbe, Probe
from repro.obs.probe import _NULL_SPAN
from repro.serving import StreamingMiner

#: Hook-call ceiling for ONE ingested record on the probe-off path:
#: the WAL append counters plus its share of the per-batch fold hooks.
MAX_HOOKS_PER_RECORD = 10
#: Constant per-run hook budget (open/recover/compact/close phases).
MAX_HOOKS_PER_RUN = 60


class CountingNullProbe(NullProbe):
    """Null probe that tallies how often the serving layer touches it."""

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

    def observe(self, name, value, buckets=None):
        self.calls += 1

    def gauge_max(self, name, value):
        self.calls += 1

    def trace_context(self):
        self.calls += 1
        return None

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

    def merge_worker(self, snapshot, index=None, trace=None):
        self.calls += 1


def _rows(n):
    return [
        [label for label in "abcdef" if (index * 5 + ord(label)) % 3]
        or ["a"]
        for index in range(n)
    ]


def _ingest_run(tmp_path, name, rows, probe):
    store = StreamingMiner.open(
        tmp_path / name, batch_records=8, probe=probe, fsync="os"
    )
    for row in rows:
        store.ingest(row)
    store.close()


class TestFoldPathHookBudget:
    def test_hook_calls_bounded_per_record(self, tmp_path):
        for label, n in (("small", 16), ("large", 128)):
            probe = CountingNullProbe()
            _ingest_run(tmp_path, label, _rows(n), probe)
            assert probe.calls <= MAX_HOOKS_PER_RECORD * n + MAX_HOOKS_PER_RUN, (
                f"{probe.calls} hook calls for {n} records: the fold "
                "path is calling the probe per operation, not per record"
            )

    def test_hook_rate_does_not_grow_with_input(self, tmp_path):
        rates = {}
        for label, n in (("small", 16), ("large", 128)):
            probe = CountingNullProbe()
            _ingest_run(tmp_path, label, _rows(n), probe)
            rates[label] = probe.calls / n
        # Eight times the records must not raise the per-record hook
        # rate: the constant per-run hooks amortise away instead.
        assert rates["large"] <= rates["small"] + 1


class TestFoldPathPricedBound:
    #: Both sides of the ratio are priced as the best of this many runs,
    #: taken in alternation so a slow spell of a shared host lands on
    #: both.  (Pricing the hooks from one sample against a best-of fold
    #: biased the ratio against the hooks.)
    REPEATS = 5

    def test_null_hook_cost_below_five_percent_of_fold_path(self, tmp_path):
        probe = CountingNullProbe()
        rounds = 20_000

        def hooks():
            for _ in range(rounds):
                probe.count("wal.appends")
                probe.observe("wal.append.seconds", 0.0)
                with probe.phase("serve.fold"):
                    pass

        rows = _rows(64)
        hook_runs, fold_runs = [], []
        for run in range(self.REPEATS):
            hook_runs.append(_timed(hooks))
            fold_runs.append(_timed(lambda run=run: _ingest_run(
                tmp_path, f"run{run}", rows, None
            )))
        hook_seconds = min(hook_runs) / (rounds * 3)
        per_record = min(fold_runs) / len(rows)
        assert MAX_HOOKS_PER_RECORD * hook_seconds < 0.05 * per_record, (
            f"hook cost {hook_seconds * 1e9:.0f}ns x {MAX_HOOKS_PER_RECORD} "
            f"exceeds 5% of a {per_record * 1e6:.1f}us/record fold path"
        )


class TestRecorderCadenceBound:
    def test_rate_limited_emit_is_cheap(self, tmp_path):
        # Inside the interval window emit() is a clock read + compare;
        # that is what every fold boundary pays once the recorder is on.
        probe = Probe()
        recorder = FlightRecorder(
            tmp_path / "flight", probe, interval=3600.0
        )
        recorder.emit(force=True)  # open the window
        rounds = 20_000
        started = time.perf_counter()
        for _ in range(rounds):
            recorder.emit()
        noop_seconds = (time.perf_counter() - started) / rounds
        recorder.close(final_emit=False)

        rows = _rows(64)
        best = min(
            _timed(lambda run=run: _ingest_run(
                tmp_path, f"run{run}", rows, None
            ))
            for run in range(3)
        )
        per_record = best / len(rows)
        assert noop_seconds < 0.05 * per_record, (
            f"rate-limited emit costs {noop_seconds * 1e9:.0f}ns, over 5% "
            f"of a {per_record * 1e6:.1f}us/record fold path"
        )

    def test_probe_off_wal_append_never_reads_clock(self, monkeypatch, tmp_path):
        # The histogram timing in the WAL append path is guarded by
        # probe.active: with the probe off, perf_counter is untouched
        # on the per-record path.
        from repro.serving import wal as wal_module

        store = StreamingMiner.open(
            tmp_path / "store", batch_records=1000, fsync="os"
        )
        calls = {"n": 0}
        real = wal_module.perf_counter

        def counting_perf_counter():
            calls["n"] += 1
            return real()

        monkeypatch.setattr(
            wal_module, "perf_counter", counting_perf_counter
        )
        for row in _rows(32):
            store.ingest(row)
        assert calls["n"] == 0
        store.close()


def _timed(thunk):
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started
