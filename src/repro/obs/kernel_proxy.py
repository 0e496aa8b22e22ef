"""Kernel instrumentation: per-primitive call counts and bytes touched.

An :class:`InstrumentedBackend` wraps any
:class:`~repro.kernels.base.KernelBackend` and forwards every primitive
unchanged while incrementing two counters per primitive in the probe's
registry::

    kernel.<primitive>.calls   # invocations
    kernel.<primitive>.bytes   # estimated bytes of mask data touched

The byte figures are *estimates* (row count x packed row width, before
any early exit), which is the right currency for comparing backends:
they measure the work handed to the kernel, not what a short-circuit
saved.  The proxy is only ever constructed when a probe is active, so
the probe-off hot path runs the raw backend with zero indirection.

The batched primitives (one call touches many rows) additionally record
a per-call latency histogram ``kernel.<primitive>.seconds``
(``LATENCY_BUCKETS``); the cheap ones are not timed, because a
``perf_counter`` pair would cost about as much as the call.  The
``*_bounded`` intersections also feed a registry-wide pair::

    ops.kernel.early_aborts    # entries settled below smin (sentinels)
    ops.kernel.words_skipped   # estimated words the early abort saved

Both are derived from the *returned* sentinel set, which is
data-dependent (see :data:`repro.kernels.base.BELOW_BOUND`), so they
are deterministic and gateable in ``benchmarks/bench_obs_invariants.py``
like the other ``ops.*`` counters.  ``words_skipped`` uses the
half-split estimate: an aborted row skips the second half of its words.

Everything above is generated from :data:`SPEC`, one row per primitive
of the kernel interface.
"""

from __future__ import annotations

import inspect
from time import perf_counter
from typing import Callable, Dict, NamedTuple

from ..kernels.base import BELOW_BOUND, KernelBackend
from .metrics import LATENCY_BUCKETS

__all__ = ["InstrumentedBackend", "PRIMITIVES", "SPEC", "TIMED_PRIMITIVES"]


def _mask_bytes(n_bits: int) -> int:
    """Packed width of an ``n_bits``-wide mask, in bytes (word-rounded)."""
    return ((n_bits + 63) // 64) * 8


def _width(table) -> int:
    # Both table types carry their declared bit width.
    return _mask_bytes(table.n_bits)


class Instrument(NamedTuple):
    """How one primitive is measured.

    ``footprint`` is an expression over the primitive's own parameters
    giving ``rows, row_bytes`` of the mask data handed to the kernel;
    ``timed`` adds the latency histogram; ``aborts`` folds the returned
    ``(joints, supports)`` sentinel set into the early-abort pair.
    """

    footprint: str
    timed: bool = False
    aborts: bool = False


#: The one declarative source: every primitive of the kernel interface,
#: in interface order, with its instrumentation.
SPEC: Dict[str, Instrument] = {
    "pack": Instrument("len(masks), _mask_bytes(n_bits)", timed=True),
    "append_rows": Instrument("len(masks), _width(table)"),
    "table_row": Instrument("1, _width(table)"),
    "select_rows": Instrument("len(indices), _width(table)"),
    "superset_rows": Instrument("len(table), _width(table)"),
    "intersect_rows": Instrument("len(table), _width(table)", timed=True),
    "intersect_count_table_bounded": Instrument(
        "max(0, len(table) - start), _width(table)", timed=True, aborts=True
    ),
    "superset_max_support_bounded": Instrument(
        "len(table), _width(table)", timed=True
    ),
    "popcount_many": Instrument(
        "len(masks), _mask_bytes(max(map(int.bit_length, masks), default=0))"
    ),
    "popcount_rows": Instrument("len(table), _width(table)", timed=True),
    "intersect_many": Instrument("len(masks), _mask_bytes(n_bits)", timed=True),
    "column_counts": Instrument("len(masks), _mask_bytes(n_bits)", timed=True),
}

#: Every instrumented primitive, in interface order.
PRIMITIVES = tuple(SPEC)

#: Primitives whose per-call wall time is worth a histogram sample.
TIMED_PRIMITIVES = tuple(name for name, row in SPEC.items() if row.timed)


def _factory(name: str, row: Instrument) -> Callable:
    """Compile the counting wrapper of one primitive from its SPEC row.

    The wrapper takes the interface method's exact parameters, so a
    proxied call costs what a hand-written forwarder would: no
    ``*args`` packing, counters bound as closure variables.
    """
    signature = inspect.signature(getattr(KernelBackend, name))
    params = [  # the interface method's parameters, without self
        param.replace(annotation=param.empty)
        for param in list(signature.parameters.values())[1:]
    ]
    args = ", ".join(param.name for param in params)
    body = [
        f"rows, width = {row.footprint}",
        "calls.value += 1",
        "touched.value += rows * width",
    ]
    if not row.timed:
        body.append(f"return call({args})")
    else:
        body += [
            "begin = perf_counter()",
            f"result = call({args})",
            "observe(perf_counter() - begin)",
        ]
        if row.aborts:
            body += [
                "aborted = result[1].count(BELOW_BOUND)",
                "if aborted:",
                "    words = width // 8",
                "    early_aborts.value += aborted",
                "    words_skipped.value += aborted * (words - words // 2)",
            ]
        body.append("return result")
    source = "\n".join(
        [
            "def factory(call, calls, touched, observe, early_aborts, words_skipped):",
            f"    def {name}{inspect.Signature(params)}:",
            *(f"        {line}" for line in body),
            f"    return {name}",
        ]
    )
    namespace: Dict[str, Callable] = {}
    exec(source, globals(), namespace)
    return namespace["factory"]


_FACTORIES = {name: _factory(name, row) for name, row in SPEC.items()}


class InstrumentedBackend(KernelBackend):
    """Counting proxy around a concrete kernel backend.

    Each primitive becomes an instance attribute: a wrapper compiled
    from :data:`SPEC`, closed over the wrapped backend's bound method
    and pre-resolved counters, so a call costs one footprint estimate
    and two integer adds, with no registry or attribute lookup.
    """

    def __init__(self, inner: KernelBackend, registry) -> None:
        self.wrapped = inner
        self.name = inner.name
        self.vectorized = inner.vectorized
        early_aborts = registry.counter(
            "ops.kernel.early_aborts",
            "bounded-primitive entries settled below smin (sentinels)",
        )
        words_skipped = registry.counter(
            "ops.kernel.words_skipped",
            "estimated words the bounded primitives' early abort saved",
        )
        for primitive, row in SPEC.items():
            calls = registry.counter(
                f"kernel.{primitive}.calls",
                f"invocations of the {primitive} kernel primitive",
            )
            touched = registry.counter(
                f"kernel.{primitive}.bytes",
                f"estimated mask bytes touched by {primitive}",
            )
            observe = None
            if row.timed:
                observe = registry.histogram(
                    f"kernel.{primitive}.seconds",
                    f"wall seconds per {primitive} kernel call",
                    buckets=LATENCY_BUCKETS,
                ).observe
            wrapper = _FACTORIES[primitive](
                getattr(inner, primitive), calls, touched, observe,
                early_aborts, words_skipped,
            )
            setattr(self, primitive, wrapper)

    def __repr__(self) -> str:
        return f"<InstrumentedBackend around {self.wrapped!r}>"
