"""Shared pieces of the end-to-end benchmark.

Statistics (medians and the tail percentile the sample supports), the
machine-speed yardstick and CPU pinning, closed-family digests, the
kernel timing proxy, the generated yeast inputs and the result ledger
every workload fills in.  Nothing here
imports :mod:`repro` at module level: ``run.py`` first checks that the
checkout it runs in holds the package source, then puts it on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout: the directory holding ``perfbench/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def child_env() -> Dict[str, str]:
    """Environment for ``repro-mine`` child processes.

    The package is run from the checkout's source tree, never from an
    installed copy, and the backend comes only from ``--backend``.
    """
    env = dict(os.environ)
    env.pop("REPRO_KERNEL_BACKEND", None)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def repro_command(*args: str) -> List[str]:
    """The ``repro-mine`` command line, run from the checkout's source."""
    return [sys.executable, "-m", "repro.cli", *args]


# -- statistics -------------------------------------------------------------


def tail(values: Sequence[float], q: float = 0.99) -> Optional[Tuple[float, float]]:
    """``(value, percentile)`` of the highest percentile up to ``q``
    that still has at least ten samples beyond it; ``None`` when the
    sample is too small to support any."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return None
    index = min(math.ceil(q * n) - 1, n - 11)
    return ordered[index], 100.0 * (index + 1) / n


def repeat_within(seconds: float):
    """Yield repetition indices while the next one is expected to end
    within ``seconds`` of the first; there is always at least one."""
    start = time.monotonic()
    index = 0
    while True:
        yield index
        index += 1
        elapsed = time.monotonic() - start
        if elapsed + elapsed / index > seconds:
            return


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(value) for value in values) / len(values))


# -- machine speed ----------------------------------------------------------------

#: Seconds one :meth:`SpeedClock.yardstick` run takes on the reference
#: box (a 2-core VM running CPython 3.11) when nothing slows it down.
REFERENCE_YARDSTICK_S = 0.010
#: Seconds each :meth:`SpeedClock.tick` spends on the yardstick.
TICK_S = 0.25
#: The share of the yardstick's slowdown, in logarithms, that the
#: program's wall times show.  On the reference box the yardstick swung
#: about twice as much as the program did under the same neighbours
#: (regressing the log of raw wall time on the log of the yardstick's
#: ratio over ten seeds gave slopes of 0.4-0.6), so dividing by the full
#: ratio over-corrected and spread runs as much as not correcting at all.
ELASTICITY = 0.5


class SpeedClock:
    """How much slower this core runs than the reference box.

    The boxes the benchmark runs on share their cores with other
    machines, and a core's speed can stay a third below its best for
    minutes.  A workload calls :meth:`tick` between the pieces of work
    it times, on the core that does the work, and divides its wall
    times by :attr:`slowdown`, derived from the mean yardstick time of
    the run over ``REFERENCE_YARDSTICK_S``: the metrics then measure
    the program rather than its neighbours.  The raw wall times are
    reported too.

    The yardstick is fixed work that shares nothing with the program:
    an interpreter loop, a walk over several megabytes of Python ints
    in shuffled order, and big-integer AND and popcount over 1 MB, the
    three kinds of work the miners do.  A tight loop alone missed much
    of the slowdown the miners saw.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        self._ints = [1000 + value for value in range(200_000)]
        self._order = list(range(len(self._ints)))
        rng.shuffle(self._order)
        self._masks = [rng.getrandbits(1 << 18) for _ in range(32)]
        self.calibrations: List[float] = []
        self.tick()

    def yardstick(self) -> float:
        """Seconds of one try of the yardstick work, averaged over the
        tries that fit in ``TICK_S``: the core's speed swings within a
        second, so one short try says little."""
        ints, masks = self._ints, self._masks
        tries = 0
        start = perf_counter()
        while True:
            total = 0
            for value in range(60_000):
                total += value * value
            for index in self._order[:15_000]:
                total += ints[index]
            for left, right in zip(masks, masks[1:]):
                total += (left & right).bit_count()
            tries += 1
            elapsed = perf_counter() - start
            if elapsed >= TICK_S:
                return elapsed / tries

    def tick(self) -> None:
        self.calibrations.append(self.yardstick())

    @property
    def ratio(self) -> float:
        """The run's mean yardstick time over the reference box's."""
        # Wall times add up the core's slowness over the work, so the
        # mean, not the median, matches them.
        return sum(self.calibrations) / len(self.calibrations) / REFERENCE_YARDSTICK_S

    @property
    def slowdown(self) -> float:
        """How much slower the program ran than on the reference box."""
        return self.ratio ** ELASTICITY


@contextmanager
def pinned(cpus):
    """Run this thread, and the threads and processes it starts, on
    ``cpus`` only, so that calibration and measured work share a core."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def one_cpu():
    return pinned({min(os.sched_getaffinity(0))})


# -- closed-family digests -----------------------------------------------------


def family_digest(pairs: Iterable[Tuple[Iterable[object], int]]) -> str:
    """Order-independent digest of a ``(labels, support)`` family."""
    lines = sorted(
        " ".join(sorted(str(label) for label in labels)) + f" ({support})"
        for labels, support in pairs
    )
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def parse_family_lines(lines: Iterable[str]) -> List[Tuple[List[str], int]]:
    """Parse ``item item (support)`` lines, the ``repro-mine`` output."""
    pairs = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        head, _, support = line.rpartition(" (")
        pairs.append((head.split(), int(support.rstrip(")"))))
    return pairs


def file_digest(path: Path) -> str:
    with open(path, encoding="utf-8") as handle:
        return family_digest(parse_family_lines(handle))


# -- kernel timing proxy -------------------------------------------------------


def make_timing_backend(inner):
    """Wrap a kernel backend so every primitive call is timed and counted.

    The primitive set is every public method of ``KernelBackend``, read
    from the interface itself; only the primitives actually called show
    up in the totals.  ``vectorized`` and ``name`` forward unchanged,
    so the miners take exactly the code paths they take on ``inner``.
    The ``*_bounded`` primitives that return ``(joints, supports)``
    also feed the early-abort tally: ``BELOW_BOUND`` entries over
    entries tested.
    """
    from repro.kernels import BELOW_BOUND, KernelBackend

    class TimingBackend(KernelBackend):
        __slots__ = ("_inner", "seconds", "calls", "bounded_rows", "bounded_below")

        def __init__(self, wrapped) -> None:
            self._inner = wrapped
            self.seconds: Dict[str, float] = defaultdict(float)
            self.calls: Counter = Counter()
            self.bounded_rows = 0
            self.bounded_below = 0

        @property
        def name(self) -> str:
            return self._inner.name

        @property
        def vectorized(self) -> bool:
            return self._inner.vectorized

        @property
        def total_seconds(self) -> float:
            return sum(self.seconds.values())

    def timed(primitive: str):
        def method(self, *args, **kwargs):
            start = perf_counter()
            result = getattr(self._inner, primitive)(*args, **kwargs)
            self.seconds[primitive] += perf_counter() - start
            self.calls[primitive] += 1
            if primitive.endswith("_bounded") and isinstance(result, tuple):
                supports = result[1]
                self.bounded_rows += len(supports)
                self.bounded_below += sum(1 for s in supports if s == BELOW_BOUND)
            return result

        method.__name__ = primitive
        return method

    for primitive, attr in vars(KernelBackend).items():
        if not primitive.startswith("_") and callable(attr):
            setattr(TimingBackend, primitive, timed(primitive))
    return TimingBackend(inner)


@contextmanager
def timing_calls(owner, attr: str, durations: List[float]):
    """Time every call of ``owner.attr`` into ``durations`` while active.

    ``owner`` is a class (every instance's calls) or one object.
    """
    original = getattr(owner, attr)
    own = attr in vars(owner)

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(perf_counter() - start)

    setattr(owner, attr, timed)
    try:
        yield durations
    finally:
        if own:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)


# -- generated inputs ----------------------------------------------------------


def token(label) -> str:
    """One whitespace-free FIMI token per ``(gene, direction)`` label.

    ``repro.data.io.format_fimi`` writes a tuple label with ``str()``,
    so ``('g48', '+')`` reads back as the two items ``('g48',`` and
    ``'+')``; joining the parts keeps one label one item.
    """
    text = "".join(str(part) for part in label) if isinstance(label, tuple) else str(label)
    if not text or any(ch.isspace() for ch in text):
        raise ValueError(f"label {label!r} has no whitespace-free token")
    return text


def token_rows(db) -> List[List[str]]:
    """The database's transactions as rows of tokens, one per label."""
    tokens = {label: token(label) for label in db.item_labels}
    if len(set(tokens.values())) != len(tokens):
        raise ValueError("two item labels share a FIMI token")
    return [[tokens[label] for label in db.decode(mask)] for mask in db.transactions]


def write_rows(rows: Sequence[Sequence[str]], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(" ".join(row) + "\n")


def round_trip(rows: Sequence[Sequence[str]], path: Path):
    """Write ``rows`` as FIMI, read them back, and prove nothing was lost.

    Raises ``ValueError`` unless the transaction count, the item count
    and every item's support survive; returns the database read back.
    """
    from repro.data.io import read_fimi

    write_rows(rows, path)
    db = read_fimi(path)
    expected = Counter(item for row in rows for item in set(row))
    got = dict(zip((str(label) for label in db.item_labels), db.item_supports()))
    if db.n_transactions != len(rows):
        raise ValueError(
            f"FIMI round trip: {db.n_transactions} transactions, wrote {len(rows)}"
        )
    if db.n_items != len(expected):
        raise ValueError(f"FIMI round trip: {db.n_items} items, wrote {len(expected)}")
    if got != dict(expected):
        raise ValueError("FIMI round trip changed item supports")
    return db


# -- the result ledger ---------------------------------------------------------


class Ledger:
    """Operations attempted and failed, metrics, and notes of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.details: Dict[str, object] = {}
        self.failures: List[str] = []

    def op(self, ok: bool, what: str = "") -> bool:
        """Count one operation; a failed one is remembered by ``what``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, key: str, value: object) -> None:
        self.details[key] = value

    def result_line(self, declared: Dict[str, str]) -> str:
        """The final JSON line: the declared metrics this run measured.

        ``declared`` maps metric names to units (from ``BENCHMARK.json``).
        Measured names it does not declare are kept in the detail line.
        """
        metrics = {}
        for name, (value, unit) in self.metrics.items():
            if name not in declared:
                continue
            if declared[name] != unit:
                raise ValueError(f"metric {name}: unit {unit!r}, declared {declared[name]!r}")
            metrics[name] = {"value": value, "unit": unit}
        return json.dumps(
            {
                "correct": self.failed == 0,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": metrics,
            }
        )
