"""Metric primitives: counters, gauges, histograms, and their registry.

The paper's evaluation is a *cost model* story — numbers of transaction
intersections, prefix-tree nodes, items eliminated by the
remaining-occurrence bound (Sections 3.3-3.5) — so the registry is
deliberately tiny and exact: plain Python integers/floats, no sampling,
no background threads.  A :class:`MetricsRegistry` is filled by a
:class:`~repro.obs.probe.Probe` during a mining run and exported as

* a JSON snapshot (:meth:`MetricsRegistry.to_json`) for machine
  checking (the benchmark invariant gate consumes this), or
* Prometheus text exposition format (:meth:`MetricsRegistry.to_prom`)
  for the future service scrape path.

Snapshots from worker processes merge associatively
(:meth:`MetricsRegistry.merge_snapshot`): counters add, gauges keep the
maximum, histograms combine bucket-wise — which is what makes the
per-worker aggregation of :func:`repro.parallel.mine_parallel` exact.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "prom_name",
    "escape_help",
    "escape_label_value",
    "estimate_quantile",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "QUANTILES",
]

#: Default histogram buckets: exponential decades with a 1-2-5 ladder,
#: wide enough for both seconds (guard headroom) and bytes (memory).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0,
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
)

#: Fine-grained latency buckets for the hot operational paths (WAL
#: appends, micro-batch folds, kernel primitives, query verbs): the
#: 1-2-5 ladder from a microsecond to ten seconds, so the p99 of a
#: microsecond-scale primitive does not collapse into one bucket.
LATENCY_BUCKETS: Tuple[float, ...] = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
    1.0, 2.0, 5.0, 10.0,
)

#: Size buckets (bytes / record counts): powers of four from 16 to
#: 64 MiB, for WAL record sizes, fold batch sizes and snapshot bytes.
SIZE_BUCKETS: Tuple[float, ...] = (
    16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
    262144.0, 1048576.0, 4194304.0, 16777216.0, 67108864.0,
)

#: The operational quantiles reported by the flight recorder and
#: ``repro-mine top``.
QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)


class Counter:
    """Monotonically increasing count (operations, calls, bytes)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """Point-in-time value; merged across workers by maximum.

    The gauges of this package are all high-water marks (repository
    peak, memory high water), so the maximum is the correct merge.
    """

    __slots__ = ("name", "help", "value", "updated")

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.updated = False

    def set(self, value: float) -> None:
        self.value = value
        self.updated = True

    def set_max(self, value: float) -> None:
        if not self.updated or value > self.value:
            self.value = value
            self.updated = True

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value})"


class Histogram:
    """Cumulative-bucket histogram with count/sum/min/max.

    Buckets are upper bounds (``le`` semantics, as in Prometheus); an
    implicit ``+Inf`` bucket catches the rest.
    """

    __slots__ = ("name", "help", "buckets", "bucket_counts", "count", "total",
                 "min", "max")

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        bounds = tuple(buckets) if buckets is not None else DEFAULT_BUCKETS
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram buckets must be sorted, got {bounds}")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # last = +Inf
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        # First bound >= value (``le`` semantics); past the last: +Inf.
        self.bucket_counts[bisect_left(self.buckets, value)] += 1

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile from the cumulative buckets.

        Linear interpolation inside the winning bucket, clamped to the
        observed ``min``/``max`` so a one-sample histogram answers the
        sample itself rather than a bucket midpoint.  ``None`` when
        nothing was observed.
        """
        return estimate_quantile(
            self.buckets, self.bucket_counts, self.count, q,
            lo=self.min, hi=self.max,
        )

    def quantiles(self, qs: Sequence[float] = QUANTILES) -> Dict[float, Optional[float]]:
        """Estimates for several quantiles at once."""
        return {q: self.quantile(q) for q in qs}

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, sum={self.total})"


def estimate_quantile(
    buckets: Sequence[float],
    bucket_counts: Sequence[int],
    count: int,
    q: float,
    lo: Optional[float] = None,
    hi: Optional[float] = None,
) -> Optional[float]:
    """Quantile estimate from histogram bucket data (Prometheus-style).

    Works on the plain-dict form a snapshot (or a flight-recorder
    record) carries, so readers can compute p50/p95/p99 without
    rebuilding :class:`Histogram` objects.  Interpolates linearly
    within the winning bucket; the first bucket interpolates from
    ``lo`` (the observed minimum) when known, else from 0; the ``+Inf``
    bucket answers ``hi`` (the observed maximum) when known, else the
    last finite bound.  Returns ``None`` for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if count <= 0:
        return None
    rank = q * count
    cumulative = 0
    for index, bound in enumerate(buckets):
        previous = cumulative
        cumulative += bucket_counts[index]
        if cumulative >= rank and bucket_counts[index]:
            lower = buckets[index - 1] if index else (lo if lo is not None else 0.0)
            lower = min(lower, bound)
            fraction = (rank - previous) / bucket_counts[index]
            value = lower + (bound - lower) * fraction
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            return value
    # Landed in the +Inf bucket.
    if hi is not None:
        return hi
    return buckets[-1] if buckets else None


def escape_help(text: str) -> str:
    r"""Escape a HELP docstring per the text exposition format 0.0.4.

    Backslash and line feed are the only characters HELP lines escape
    (``\\`` and ``\n``); everything else passes through verbatim::

        >>> escape_help('multi\nline \\ text')
        'multi\\nline \\\\ text'
    """
    return text.replace("\\", r"\\").replace("\n", r"\n")


def escape_label_value(text: str) -> str:
    r"""Escape a label value per the text exposition format 0.0.4.

    Label values additionally escape the double quote that delimits
    them (``\\``, ``\n`` and ``\"``)::

        >>> escape_label_value('say "hi"\n')
        'say \\"hi\\"\\n'
    """
    return (
        text.replace("\\", r"\\").replace("\n", r"\n").replace('"', r"\"")
    )


def prom_name(name: str, kind: str) -> str:
    """Prometheus-conventional metric name for a registry name.

    Registry names are dotted lower-case paths (``kernel.intersect_many.calls``);
    the exposition name is ``repro_``-prefixed snake case with the
    conventional ``_total`` suffix for counters and ``_bytes`` /
    ``_seconds`` units kept as the caller spelled them::

        >>> prom_name("ops.intersections", "counter")
        'repro_ops_intersections_total'
    """
    base = "".join(ch if ch.isalnum() else "_" for ch in name.lower())
    while "__" in base:
        base = base.replace("__", "_")
    base = f"repro_{base.strip('_')}"
    if kind == "counter" and not base.endswith("_total"):
        base += "_total"
    return base


class MetricsRegistry:
    """Get-or-create home of every metric of one mining run."""

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create ---------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            self._check_free(name, self._counters)
            metric = self._counters[name] = Counter(name, help)
        return metric

    def gauge(self, name: str, help: str = "") -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            self._check_free(name, self._gauges)
            metric = self._gauges[name] = Gauge(name, help)
        return metric

    def histogram(
        self, name: str, help: str = "", buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            self._check_free(name, self._histograms)
            metric = self._histograms[name] = Histogram(name, help, buckets)
        return metric

    def _check_free(self, name: str, own: Dict) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not own and name in family:
                raise ValueError(
                    f"metric {name!r} already registered with a different type"
                )

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> Dict:
        """Plain-dict snapshot: JSON-serialisable and mergeable."""
        return {
            "counters": {
                name: metric.value for name, metric in sorted(self._counters.items())
            },
            "gauges": {
                name: metric.value
                for name, metric in sorted(self._gauges.items())
                if metric.updated
            },
            "histograms": {
                name: {
                    "count": metric.count,
                    "sum": metric.total,
                    "min": metric.min,
                    "max": metric.max,
                    "buckets": list(metric.buckets),
                    "bucket_counts": list(metric.bucket_counts),
                }
                for name, metric in sorted(self._histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Dict, prefix: str = "") -> None:
        """Fold a worker snapshot in: counters add, gauges max, histograms sum.

        ``prefix`` optionally namespaces the merged metrics (unused by
        the parallel merge, which wants the *totals* to line up with a
        serial run's metric names).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(prefix + name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(prefix + name).set_max(value)
        for name, data in snapshot.get("histograms", {}).items():
            metric = self.histogram(prefix + name, buckets=data["buckets"])
            if list(metric.buckets) != list(data["buckets"]):
                raise ValueError(
                    f"histogram {name!r}: cannot merge differing bucket bounds"
                )
            metric.count += data["count"]
            metric.total += data["sum"]
            for index, extra in enumerate(data["bucket_counts"]):
                metric.bucket_counts[index] += extra
            if data["count"]:
                if metric.min is None or data["min"] < metric.min:
                    metric.min = data["min"]
                if metric.max is None or data["max"] > metric.max:
                    metric.max = data["max"]

    # -- export ----------------------------------------------------------

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def to_prom(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Dotted registry names become ``repro_``-prefixed snake case;
        counters gain the conventional ``_total`` suffix.  See
        ``docs/observability.md`` for the naming catalogue.
        """
        lines: List[str] = []
        for name, metric in sorted(self._counters.items()):
            exposed = prom_name(name, "counter")
            if metric.help:
                lines.append(f"# HELP {exposed} {escape_help(metric.help)}")
            lines.append(f"# TYPE {exposed} counter")
            lines.append(f"{exposed} {metric.value}")
        for name, metric in sorted(self._gauges.items()):
            if not metric.updated:
                continue
            exposed = prom_name(name, "gauge")
            if metric.help:
                lines.append(f"# HELP {exposed} {escape_help(metric.help)}")
            lines.append(f"# TYPE {exposed} gauge")
            lines.append(f"{exposed} {_format_value(metric.value)}")
        for name, metric in sorted(self._histograms.items()):
            exposed = prom_name(name, "histogram")
            if metric.help:
                lines.append(f"# HELP {exposed} {escape_help(metric.help)}")
            lines.append(f"# TYPE {exposed} histogram")
            cumulative = 0
            for bound, count in zip(metric.buckets, metric.bucket_counts):
                cumulative += count
                le = escape_label_value(_format_value(bound))
                lines.append(f'{exposed}_bucket{{le="{le}"}} {cumulative}')
            cumulative += metric.bucket_counts[-1]
            lines.append(f'{exposed}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{exposed}_sum {_format_value(metric.total)}")
            lines.append(f"{exposed}_count {metric.count}")
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, histograms={len(self._histograms)})"
        )


def _format_value(value: float) -> str:
    """Prometheus float formatting: integral values without the dot."""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)
