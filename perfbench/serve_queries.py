"""Workload ``serve-queries``: the read path of ``repro-mine serve``.

Set-up mines a yeast-shaped store (1500 genes, 160 conditions as
transactions) into one snapshot generation and starts ``repro-mine
serve`` on it as a child process at its command-line defaults.  The
load mixes ``support_of``, ``supersets_of``, ``top_k`` and
``closed_sets``, with item arguments drawn with a Zipf skew so that the
query memo both hits and misses.  After an untimed warm-up it runs
three phases, each cut into six slices that alternate: an open loop at
the ``light`` rate for 40% of ``--seconds``, one at the ``heavy`` rate
for 45%, and a closed loop of two connections for the rest.  The rates
are about a quarter and three quarters of the ~200 qps the daemon
served when the workload was designed, before the warm-up was added.
Open-loop
requests are due on a fixed schedule and timed from when they were due,
so a stall also delays the requests behind it; the box has two cores,
so never more than two connections are in flight.  No mining happens
here: the time goes to HTTP parsing, admission, the query engine,
encoding and writing.

The daemon runs on one core and the load generator on the other.  The
daemon's core is calibrated during set-up, before each round of the
load and after it (``common.SpeedClock``), and the times and the
throughput are scaled to the reference box's speed.  ``work_s`` is the
daemon's handler time for 1000 requests of the mix, read from its
``/metrics`` before and after the timed phases; ``op_ms`` (the detail
line) is the light-rate latency the client saw.

After the load, every distinct request's body is compared with the
in-process ``repro.serving.queries.query_lines`` answer, and every
repeat with the first body served.
"""

from __future__ import annotations

import bisect
import json
import os
import random
import signal
import socket
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple
from urllib.parse import urlencode

from common import (
    Ledger,
    SpeedClock,
    child_env,
    make_timing_backend,
    median,
    pinned,
    repro_command,
    tail,
    token_rows,
)

PAPER = {"gen": {"n_genes": 1500, "n_conditions": 160}}
SETUP_REPEATS = 3
#: Requests per second of the two open-loop phases.
RATES = {"light": 50.0, "heavy": 150.0}
#: Share of --seconds for each phase.
SHARES = {"light": 0.4, "heavy": 0.45, "closed": 0.15}
#: The phases alternate in this many slices each, so that a slow spell
#: of the host touches every phase alike.
ROUNDS = 6
WARM_REQUESTS = 300
#: ``work_s`` is the daemon's handler time for this many requests of
#: the mix.
WORK_REQUESTS = 1000
CONNECTIONS = 2
ZIPF_S = 1.1
#: Share of each verb in the mix, and the argument choices per verb.
MIX = (("support_of", 0.4), ("supersets_of", 0.3), ("top_k", 0.15), ("closed_sets", 0.15))
SUPERSETS_SMIN = (4, 6)
TOP_K = (5, 10, 20)
CLOSED_SMIN = (8, 10, 12, 16)
READY_TIMEOUT = 60.0


class Server:
    """A ``repro-mine serve`` child process and the port it listens on."""

    def __init__(self, store: Path, log: Path) -> None:
        self._log = open(log, "w+", encoding="utf-8")
        self.proc = subprocess.Popen(
            repro_command("serve", str(store)), env=child_env(),
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.port = self._wait_ready(log)

    def _wait_ready(self, log: Path) -> int:
        deadline = time.monotonic() + READY_TIMEOUT
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"serve exited with {self.proc.returncode}: {log.read_text()}")
            for line in log.read_text().splitlines():
                if line.startswith("# serving ") and " on http://" in line:
                    return int(line.rsplit(":", 1)[1])
            time.sleep(0.01)
        raise RuntimeError("serve did not report its address")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def get(port: int, target: str, timeout: float = 30.0) -> Tuple[int, bytes]:
    """One HTTP/1.1 GET on a fresh connection; status 0 when it failed."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
            sock.sendall(
                f"GET {target} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n".encode()
            )
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
    except OSError:
        return 0, b""
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    try:
        return int(head.split(b" ", 2)[1]), body
    except (IndexError, ValueError):
        return 0, body


def request_sequence(items: List[str], seed: int, n: int) -> List[Tuple[str, dict]]:
    """``n`` requests ``(verb, params)``; items Zipf-skewed by support rank."""
    rng = random.Random(seed)
    ranks = [1.0 / (rank ** ZIPF_S) for rank in range(1, len(items) + 1)]
    cumulative = []
    total = 0.0
    for weight in ranks:
        total += weight
        cumulative.append(total)

    def item() -> str:
        return items[min(bisect.bisect_left(cumulative, rng.random() * total), len(items) - 1)]

    verbs = [verb for verb, _ in MIX]
    weights = [share for _, share in MIX]
    sequence = []
    for _ in range(n):
        verb = rng.choices(verbs, weights)[0]
        if verb == "support_of":
            params = {"items": ",".join(sorted({item(), item()}))}
        elif verb == "supersets_of":
            params = {"items": item(), "smin": rng.choice(SUPERSETS_SMIN)}
        elif verb == "top_k":
            params = {"k": rng.choice(TOP_K), "smin": 2}
        else:
            params = {"smin": rng.choice(CLOSED_SMIN)}
        sequence.append((verb, params))
    return sequence


def target(verb: str, params: dict) -> str:
    return f"/{verb}?{urlencode(params)}"


@dataclass
class Setup:
    store: Path
    snapshot: Path
    items: List[str]
    server: Server


def setup(work: Path, seed: int, scale: dict) -> Setup:
    """Mine the store's snapshot and start the daemon on it."""
    from repro.core.incremental import IncrementalMiner
    from repro.data.database import TransactionDatabase
    from repro.datasets.gene_expression import yeast_compendium
    from repro.serving import save_snapshot

    db = TransactionDatabase.from_iterable(
        token_rows(yeast_compendium(seed=seed, **scale["gen"]))
    )
    store = work / "store"
    store.mkdir(parents=True, exist_ok=True)
    snapshot = store / f"snapshot-{db.n_transactions:012d}.rsnp"
    save_snapshot(IncrementalMiner.from_database(db), snapshot)
    supports = db.item_supports()
    items = [str(label) for _, label in sorted(zip((-s for s in supports), db.item_labels))]
    return Setup(store, snapshot, items, Server(store, work / "serve.log"))


class Sample(NamedTuple):
    index: int
    due: float
    sent: float
    done: float
    status: int


class Load:
    """Sends requests from one sequence and keeps the first body of each
    distinct request for the check after the timed window."""

    def __init__(self, port: int, sequence: List[Tuple[str, dict]]) -> None:
        self.port = port
        self.sequence = sequence
        self.targets = [target(verb, params) for verb, params in sequence]
        self.next = 0
        self.bodies: Dict[str, bytes] = {}
        self.mismatched: List[str] = []
        self._lock = threading.Lock()

    def _take(self, limit: Optional[int] = None) -> Optional[int]:
        with self._lock:
            if self.next >= min(len(self.sequence), limit or len(self.sequence)):
                return None
            index = self.next
            self.next += 1
            return index

    def _send(self, index: int, due: float) -> Sample:
        sent = time.monotonic()
        status, body = get(self.port, self.targets[index])
        done = time.monotonic()
        if status == 200:
            key = self.targets[index]
            with self._lock:
                first = self.bodies.setdefault(key, body)
            if first != body:
                self.mismatched.append(key)
        return Sample(index, due, sent, done, status)

    def send_next(self) -> Sample:
        """The next request of the sequence, now, on this thread."""
        return self._send(self._take(), time.monotonic())

    def open_loop(self, rate: float, seconds: float) -> List[Sample]:
        """Requests due every ``1/rate`` seconds for ``seconds`` seconds."""
        count = max(1, int(rate * seconds))
        start = time.monotonic() + 0.05
        first = self.next
        self.next += count
        if self.next > len(self.sequence):
            raise ValueError("request sequence too short for the open loop")
        pending = iter(range(count))
        samples: List[Sample] = []

        def worker() -> None:
            while True:
                with self._lock:
                    offset = next(pending, None)
                if offset is None:
                    return
                due = start + offset / rate
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                samples.append(self._send(first + offset, due))

        self._run(worker)
        return samples

    def closed_loop(self, seconds: float, count: Optional[int] = None) -> Tuple[List[Sample], float]:
        """Each connection sends its next request when the last returns,
        for ``seconds`` or until ``count`` requests were sent."""
        stop = time.monotonic() + seconds
        last = len(self.sequence) if count is None else self.next + count
        samples: List[Sample] = []

        def worker() -> None:
            while time.monotonic() < stop:
                index = self._take(last)
                if index is None:
                    return
                now = time.monotonic()
                samples.append(self._send(index, now))

        start = time.monotonic()
        self._run(worker)
        return samples, time.monotonic() - start

    @staticmethod
    def _run(worker) -> None:
        threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()


def answer(miner, verb: str, params: dict) -> List[str]:
    """The in-process answer to one request."""
    from repro.serving.queries import parse_items, query_lines

    items = parse_items(params["items"], miner) if "items" in params else None
    return query_lines(miner, verb, smin=params.get("smin", 1), k=params.get("k"), items=items)


def check_answers(ledger: Ledger, load: Load, snapshot: Path, samples: List[Sample]) -> None:
    """Count every request as one operation: it must have answered 200
    with the in-process answer (repeats: with the first body served)."""
    from repro.serving import load_snapshot

    miner = load_snapshot(snapshot)
    request = dict(zip(load.targets, load.sequence))
    correct: Dict[str, bool] = {}
    for key, body in load.bodies.items():
        try:
            correct[key] = json.loads(body)["lines"] == answer(miner, *request[key])
        except (ValueError, KeyError):
            correct[key] = False
    mismatched = set(load.mismatched)
    for sample in samples:
        key = load.targets[sample.index]
        ledger.op(
            sample.status == 200 and correct.get(key, False) and key not in mismatched,
            f"{key}: status {sample.status}" if sample.status != 200 else f"{key}: wrong answer",
        )


def ms(seconds: float) -> float:
    return 1000.0 * seconds


def run(ledger: Ledger, seed: int, seconds: float, trace: bool, work: Path,
        scale: dict = PAPER) -> None:
    # The daemon gets one core and the load generator the other, so
    # the generator never takes CPU from what it measures.
    cpus = sorted(os.sched_getaffinity(0))
    server_cpu, client_cpu = {cpus[-1]}, {cpus[0]}
    setups = []
    server = None
    try:
        with pinned(server_cpu):
            clock = SpeedClock()
            for _ in range(1 if trace else SETUP_REPEATS):
                if server is not None:
                    server.stop()
                start = time.perf_counter()
                prepared = setup(work / f"setup-{len(setups)}", seed, scale)
                setups.append(time.perf_counter() - start)
                server = prepared.server
                clock.tick()
        # Before timing, the daemon answers every distinct top_k and
        # closed_sets request once, then WARM_REQUESTS of the mix: the
        # phases see a daemon that has been serving this traffic, not
        # first-query costs whose place in the sequence depends on the
        # seed.
        warm = [("top_k", {"k": k, "smin": 2}) for k in TOP_K]
        warm += [("closed_sets", {"smin": smin}) for smin in CLOSED_SMIN]
        sequence = warm + request_sequence(
            prepared.items, seed, WARM_REQUESTS + int((sum(RATES.values()) + 3000) * (seconds + 1))
        )
        load = Load(server.port, sequence)
        with pinned(client_cpu):
            warmed = [load.send_next() for _ in warm]
            warmed += load.closed_loop(seconds, WARM_REQUESTS)[0]
            before = parse_prom(get(server.port, "/metrics")[1].decode("utf-8"))[0]
            rounds = []
            for _ in range(ROUNDS):
                # The daemon's core is calibrated between the slices,
                # while the daemon waits for the next one.
                with pinned(server_cpu):
                    clock.tick()
                light = load.open_loop(RATES["light"], SHARES["light"] * seconds / ROUNDS)
                heavy = load.open_loop(RATES["heavy"], SHARES["heavy"] * seconds / ROUNDS)
                closed, elapsed = load.closed_loop(SHARES["closed"] * seconds / ROUNDS)
                rounds.append((light, heavy, closed, elapsed))
            with pinned(server_cpu):
                clock.tick()
        metrics_text = get(server.port, "/metrics")[1].decode("utf-8")
    finally:
        if server is not None:
            server.stop()
    light = [s for phase, _, _, _ in rounds for s in phase]
    heavy = [s for _, phase, _, _ in rounds for s in phase]
    closed = [s for _, _, phase, _ in rounds for s in phase]
    samples = warmed + light + heavy + closed
    check_answers(ledger, load, prepared.snapshot, samples)

    slow = clock.slowdown
    # Open-loop requests count from when they were due; a refused or
    # failed request misses any latency limit.
    scaled = {
        name: [ms(s.done - s.due) / slow if s.status == 200 else float("inf") for s in phase]
        for name, phase in (("light", light), ("heavy", heavy))
    }
    ledger.metric("setup_s", median(setups) / slow, "s")
    ledger.note("slowdown", slow)
    ledger.note("yardstick ratio", clock.ratio)
    closed_s = sum(elapsed for *_, elapsed in rounds)
    ledger.metric("query.capacity_qps", sum(s.status == 200 for s in closed) / closed_s * slow, "1/s")
    # The daemon's own handler time per verb over the timed window, from
    # its serve.http.<verb>.seconds histograms, weighted by the mix.  The
    # client's service time (connection, parsing, encoding, writing and
    # the generator itself included) swung by up to a half between
    # stretches of a few seconds on the reference box; across ten seeds
    # the handler time spread by 0.09, the light-rate latency by 0.39.
    after = parse_prom(metrics_text)[0]
    handled = {}
    for verb, _ in MIX:
        key = f"repro_serve_http_{verb}_seconds"
        count = after.get(f"{key}_count", 0.0) - before.get(f"{key}_count", 0.0)
        if count:
            handled[verb] = (after[f"{key}_sum"] - before.get(f"{key}_sum", 0.0)) / count
    if len(handled) == len(MIX):
        ledger.metric("work_s", WORK_REQUESTS * sum(share * handled[verb] for verb, share in MIX) / slow, "s")
    # The verbs' latencies lie far apart, so the median of the whole
    # sample jumps with the mix a seed happens to draw; op_ms (in the
    # detail line) weighs each verb's median by its share of MIX instead.
    opened = light + heavy
    ledger.note("client service per 1000 requests (s)", mix_median(load, opened, [
        ms(s.done - s.sent) / slow if s.status == 200 else float("inf") for s in opened
    ]))
    ledger.note("query.closed", {"samples": len(closed), "connections": CONNECTIONS})
    for name in ("light", "heavy"):
        latencies = scaled[name]
        ordered = sorted(latencies)
        ledger.note(f"query.{name}", {
            "samples": len(latencies), "rate_qps": RATES[name],
            "p50_ms": median(latencies), "p90_ms": ordered[int(0.9 * len(ordered))],
        })
        if name == "light" and median(latencies) < float("inf"):
            ledger.metric("query.light.p50_ms", median(latencies), "ms")
            ledger.metric("op_ms", mix_median(load, light, latencies), "ms")
        p99 = tail(latencies)
        if p99 is not None and p99[0] < float("inf"):
            ledger.metric(f"query.{name}.p99_ms", p99[0], "ms")
            if name == "heavy":
                ledger.metric("tail_ms", p99[0], "ms")
            ledger.note(f"query.{name}.p99_ms", {"percentile": p99[1], "samples": len(latencies)})
    if trace:
        traced(ledger, load, prepared, samples, {"light": light, "heavy": heavy}, metrics_text)


def mix_median(load: Load, samples: List[Sample], latencies: List[float]) -> float:
    """The verbs' median latencies, weighted by their shares in ``MIX``."""
    by_verb: Dict[str, List[float]] = {}
    for sample, latency in zip(samples, latencies):
        by_verb.setdefault(load.sequence[sample.index][0], []).append(latency)
    if set(by_verb) != {verb for verb, _ in MIX}:
        return float("inf")
    return sum(share * median(by_verb[verb]) for verb, share in MIX)


def parse_prom(text: str) -> Tuple[Dict[str, float], Dict[str, Dict[float, float]]]:
    """Counters and cumulative histogram buckets of a Prometheus text page."""
    values: Dict[str, float] = {}
    buckets: Dict[str, Dict[float, float]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        if "_bucket{le=" in name:
            base, _, le = name.partition("_bucket{le=")
            bound = float("inf") if le.strip('"}') == "+Inf" else float(le.strip('"}'))
            buckets.setdefault(base, {})[bound] = float(value)
        else:
            values[name] = float(value)
    return values, buckets


def bucket_p50(cumulative: Dict[float, float]) -> Optional[float]:
    from repro.obs.metrics import estimate_quantile

    bounds = sorted(b for b in cumulative if b != float("inf"))
    counts, previous = [], 0.0
    for bound in bounds + [float("inf")]:
        counts.append(int(cumulative[bound] - previous))
        previous = cumulative[bound]
    return estimate_quantile(bounds, counts, int(previous), 0.5)


def traced(ledger: Ledger, load: Load, prepared: Setup, samples: List[Sample],
           phases: Dict[str, List[Sample]], metrics_text: str) -> None:
    """The per-layer split: client vs server time per verb, the memo,
    admission, the generator's own lateness and an in-process replay."""
    from repro.kernels import resolve_backend
    from repro.serving import load_snapshot
    from repro.serving.queries import QUERY_VERBS

    counters, buckets = parse_prom(metrics_text)
    service: Dict[str, List[float]] = {}
    for sample in samples:
        if sample.status == 200:
            service.setdefault(load.sequence[sample.index][0], []).append(ms(sample.done - sample.sent))
    merged: Dict[float, float] = {}
    for verb in QUERY_VERBS:
        if verb in service:
            ledger.metric(f"client.{verb}.p50_ms", median(service[verb]), "ms")
        histogram = buckets.get(f"repro_serve_http_{verb}_seconds")
        if histogram:
            ledger.metric(f"serving.server.{verb}.p50_ms", ms(bucket_p50(histogram)), "ms")
            for bound, count in histogram.items():
                merged[bound] = merged.get(bound, 0.0) + count
    if merged:
        every = [latency for values in service.values() for latency in values]
        ledger.metric("serving.server.overhead_ms", median(every) - ms(bucket_p50(merged)), "ms")
    hits = counters.get("repro_serving_memo_hits_total", 0.0)
    misses = counters.get("repro_serving_memo_misses_total", 0.0)
    if hits + misses:
        ledger.metric("core.incremental.memo_hit_ratio", hits / (hits + misses), "ratio")
    ledger.metric(
        "runtime.admission.rejected",
        counters.get("repro_serve_http_status_429_total", 0.0)
        + counters.get("repro_serve_http_status_503_total", 0.0),
        "count",
    )
    for name, phase in phases.items():
        late = tail([ms(s.sent - s.due) for s in phase])
        if late is not None:
            ledger.metric(f"loadgen.{name}.late_p99_ms", late[0], "ms")

    # Time the client saw outside the daemon's query handlers: connection
    # set-up, parsing, encoding, writing and waiting for the other
    # connection's request.
    handled = sum(counters.get(f"repro_serve_http_{verb}_seconds_sum", 0.0) for verb in QUERY_VERBS)
    ledger.metric("around_s", sum(s.done - s.sent for s in samples) - handled, "s")

    indices = sorted(sample.index for sample in samples)
    replays = {}
    # The first replay pays one-off costs the others do not; it is not used.
    for name, backend in (("warm", None), ("plain", None),
                          ("traced", make_timing_backend(resolve_backend(None)))):
        start = time.perf_counter()
        miner = load_snapshot(prepared.snapshot, backend=backend)
        loaded = time.perf_counter()
        for index in indices:
            answer(miner, *load.sequence[index])
        replays[name] = (loaded - start, time.perf_counter() - loaded)
    proxy = backend
    replay_s = replays["traced"][1]
    ledger.metric("serving.snapshot.load_s", replays["traced"][0], "s")
    ledger.metric("serving.queries.kernels_s", proxy.total_seconds, "s")
    ledger.metric("serving.queries.interp_s", replay_s - proxy.total_seconds, "s")
    ledger.metric("kernels_s", proxy.total_seconds, "s")
    ledger.metric("kernels.calls", sum(proxy.calls.values()), "count")
    ledger.metric("engine_s", replay_s - proxy.total_seconds, "s")
    ledger.metric("trace_overhead_s", replay_s - replays["plain"][1], "s")
