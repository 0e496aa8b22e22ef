"""Workload ``ingest-stream``: the durable write path.

A yeast-shaped stream (1500 genes, 240 conditions as transactions) is
fed through ``StreamingMiner.ingest`` at the ``repro-mine ingest``
defaults (fsync ``batch``, 64-record folds, flight recorder on) and
closed durably.  A short tail that never reaches a fold is then logged
and the store abandoned as in a crash; a reopen answers
``closed_sets(smin)``, which must equal a cold mine of the whole fed
stream.  No batch mining happens here: the time goes to ``serving.wal``
appends, ``core.incremental`` folds, ``serving.snapshot`` compaction
and recovery.  The stream stays in the few-transactions regime because
the incremental miner holds the whole smin-1 family.

An iteration is one fresh store through all of that; iterations repeat
while the next one fits in ``--seconds`` (at least one) and report
medians, scaled to the reference box's speed (``common.SpeedClock``),
which is calibrated while the stream runs and after each recovery.
"""

from __future__ import annotations

import gc
import shutil
import time
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from common import (
    Ledger,
    SpeedClock,
    family_digest,
    make_timing_backend,
    median,
    one_cpu,
    repeat_within,
    tail,
    timing_calls,
    token_rows,
)

PAPER = {"gen": {"n_genes": 1500, "n_conditions": 240}, "tail": 16, "smin": 8}
SETUP_REPEATS = 9
RECOVERIES = 5
#: With a speed clock, the core is calibrated after every this many
#: ingest calls.
TICK_EVERY = 32


def open_store(directory: Path, backend=None):
    """A store opened the way ``repro-mine ingest`` opens it by default."""
    from repro.obs import Probe
    from repro.serving import StreamingMiner

    return StreamingMiner.open(
        directory, fsync="batch", batch_records=64, compact_segments=4,
        segment_max_bytes=1 << 20, flight=True, flight_interval=1.0,
        probe=Probe(), backend=backend,
    )


@dataclass
class Inputs:
    fed: List[List[str]]
    tail: List[List[str]]
    smin: int
    reference: str


def setup(seed: int, scale: dict) -> Inputs:
    """Generate the stream and cold-mine the reference answer."""
    from repro.data.database import TransactionDatabase
    from repro.datasets.gene_expression import yeast_compendium
    from repro.mining import mine

    rows = token_rows(yeast_compendium(seed=seed, **scale["gen"]))
    reference = family_digest(
        mine(TransactionDatabase.from_iterable(rows), scale["smin"], algorithm="lcm").labeled()
    )
    cut = len(rows) - scale["tail"]
    return Inputs(rows[:cut], rows[cut:], scale["smin"], reference)


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def iteration(ledger: Ledger, inputs: Inputs, store_dir: Path, clock: Optional[SpeedClock] = None,
              layers: Optional[Dict[str, object]] = None) -> Optional[Dict[str, float]]:
    """One store from empty to recovered; ``None`` when it failed.

    Times are raw wall seconds; a ``clock`` is calibrated while the
    stream runs (the pauses are not counted) and after each timed
    piece.  With ``layers`` (a dict), the per-layer split is filled in:
    kernel timing proxies replace the default backend and each ingest
    call is timed and classified by whether it folded.
    """
    tick = clock.tick if clock is not None else (lambda: None)
    shutil.rmtree(store_dir, ignore_errors=True)
    traced = layers is not None
    proxy = None
    if traced:
        from repro.kernels import resolve_backend

        proxy = make_timing_backend(resolve_backend(None))
    store = open_store(store_dir, proxy)
    wal_bytes = 0
    appends: List[float] = []
    folds: List[float] = []
    extends: List[float] = []
    compactions: List[float] = []
    with ExitStack() as stack:
        if traced:
            from repro.core.incremental import IncrementalMiner
            from repro.serving import StreamingMiner

            stack.enter_context(timing_calls(IncrementalMiner, "extend", extends))
            stack.enter_context(timing_calls(StreamingMiner, "compact", compactions))
        gc.collect()
        slowest = 0.0
        paused = 0.0
        start = time.perf_counter()
        try:
            for index, row in enumerate(inputs.fed):
                if clock is not None and index % TICK_EVERY == TICK_EVERY - 1:
                    # Calibrate the core while the stream runs; the
                    # pause is not counted as ingest time.
                    begin = time.perf_counter()
                    clock.tick()
                    paused += time.perf_counter() - begin
                begin = time.perf_counter()
                store.ingest(row)
                spent = time.perf_counter() - begin
                slowest = max(slowest, spent)
                if traced:
                    (folds if store.pending_records == 0 else appends).append(spent)
            if traced:
                wal_bytes = dir_bytes(store_dir / "wal")
            store.close()
        except Exception as exc:
            ledger.op(False, f"ingest: {type(exc).__name__}: {exc}")
            return None
        ingest_s = time.perf_counter() - start - paused
        tick()
        ledger.op(True)
    folded = store.n_transactions
    family = store.miner.repository_size
    snapshot_bytes = sum(p.stat().st_size for p in store_dir.glob("snapshot-*.rsnp"))

    # The tail is logged but never folded; the store is then dropped
    # without close(), as a crashed writer would leave it.
    store = open_store(store_dir)
    try:
        for row in inputs.tail:
            store.ingest(row)
    except Exception as exc:
        ledger.op(False, f"tail ingest: {type(exc).__name__}: {exc}")
        return None
    store = None
    gc.collect()

    # Every reopen replays the same tail: close(compact=False) leaves
    # the log as recovery found it.
    recover_proxy = None
    if traced:
        from repro.kernels import resolve_backend

        recover_proxy = make_timing_backend(resolve_backend(None))
    recoveries = []
    for attempt in range(RECOVERIES):
        gc.collect()
        begin = time.perf_counter()
        try:
            store = open_store(store_dir, recover_proxy)
            opened = time.perf_counter()
            answer = store.closed_sets(inputs.smin)
            recovered = time.perf_counter()
            recoveries.append(recovered - begin)
            tick()
            replayed = store.recovery.replayed_records
            store.close(compact=False)
        except Exception as exc:
            ledger.op(False, f"recovery: {type(exc).__name__}: {exc}")
            return None
        digest = family_digest(answer.items())
        if not ledger.op(digest == inputs.reference, f"recovered closed_sets {digest[:12]} != cold mine"):
            return None
        if traced and attempt == 0:
            layers.update({
                "appends": appends, "folds": folds, "extends": extends,
                "compactions": compactions, "kernels_s": proxy.total_seconds,
                "kernel_calls": sum(proxy.calls.values()),
                "wal_bytes": wal_bytes, "snapshot_bytes": snapshot_bytes, "folded": folded,
                "family": family, "recover_open_s": opened - begin,
                "first_query_s": recovered - opened, "replayed": replayed,
            })
    return {"ingest_s": ingest_s, "slowest_s": slowest, "recover_s": recoveries}


def run(ledger: Ledger, seed: int, seconds: float, trace: bool, work: Path,
        scale: dict = PAPER) -> None:
    with one_cpu():
        clock = SpeedClock()
        setups = []
        for _ in range(1 if trace else SETUP_REPEATS):
            start = time.perf_counter()
            inputs = setup(seed, scale)
            setups.append(time.perf_counter() - start)
            clock.tick()
        ledger.note("stream", {"fed": len(inputs.fed), "tail": len(inputs.tail), "smin": inputs.smin})
        if trace:
            traced(ledger, inputs, work)
        else:
            measure(ledger, inputs, work, seconds, clock)
    ledger.metric("setup_s", median(setups) / clock.slowdown, "s")
    ledger.note("slowdown", clock.slowdown)
    ledger.note("yardstick ratio", clock.ratio)


def measure(ledger: Ledger, inputs: Inputs, work: Path, seconds: float, clock: SpeedClock) -> None:
    results = []
    for _ in repeat_within(seconds):
        outcome = iteration(ledger, inputs, work / "store", clock)
        shutil.rmtree(work / "store", ignore_errors=True)
        if outcome is None:
            return
        results.append(outcome)
    ledger.note("iterations", len(results))
    slow = clock.slowdown
    ingest_s = median([r["ingest_s"] for r in results]) / slow
    recover_s = median([s for r in results for s in r["recover_s"]]) / slow
    slowest_s = median([r["slowest_s"] for r in results]) / slow
    ledger.metric("ingest_tps", len(inputs.fed) / ingest_s, "1/s")
    ledger.metric("recover_s", recover_s, "s")
    # The stream to its durable close; a recovery; the slowest ingest
    # call, which is a fold.
    ledger.metric("work_s", ingest_s, "s")
    ledger.metric("op_ms", 1000.0 * recover_s, "ms")
    ledger.metric("tail_ms", 1000.0 * slowest_s, "ms")


def traced(ledger: Ledger, inputs: Inputs, work: Path) -> None:
    """One untraced iteration, then one with the layer wrappers on."""
    plain = iteration(ledger, inputs, work / "store-plain")
    layers: Dict[str, object] = {}
    outcome = iteration(ledger, inputs, work / "store-traced", layers=layers)
    if plain is None or outcome is None:
        return
    appends, folds = layers["appends"], layers["folds"]
    extend_s = sum(layers["extends"])
    ledger.metric("kernels_s", layers["kernels_s"], "s")
    ledger.metric("kernels.calls", layers["kernel_calls"], "count")
    ledger.metric("engine_s", extend_s - layers["kernels_s"], "s")
    ledger.metric("around_s", outcome["ingest_s"] - extend_s, "s")
    ledger.metric("trace_overhead_s", outcome["ingest_s"] - plain["ingest_s"], "s")
    n = layers["folded"]
    ledger.metric("serving.wal.append_us.p50", 1e6 * median(appends), "us")
    p99 = tail(appends)
    if p99 is not None:
        ledger.metric("serving.wal.append_us.p99", 1e6 * p99[0], "us")
        ledger.note("serving.wal.append_us.p99", {"percentile": p99[1], "samples": len(appends)})
    if folds:
        ledger.metric("serving.streaming.fold_s", sum(folds), "s")
        ledger.metric("serving.streaming.fold_max_s", max(folds), "s")
    ledger.metric("core.incremental.extend_s", extend_s, "s")
    ledger.metric("serving.snapshot.compact_s", sum(layers["compactions"]), "s")
    ledger.metric("serving.wal.bytes_per_txn", layers["wal_bytes"] / n, "B")
    ledger.metric("serving.snapshot.bytes_per_txn", layers["snapshot_bytes"] / n, "B")
    ledger.metric("core.incremental.family_size", layers["family"], "count")
    ledger.metric("serving.streaming.recover_open_s", layers["recover_open_s"], "s")
    ledger.metric("serving.streaming.replayed_records", layers["replayed"], "count")
    ledger.metric("core.incremental.first_query_s", layers["first_query_s"], "s")
