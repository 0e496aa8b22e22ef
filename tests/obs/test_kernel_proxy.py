"""InstrumentedBackend: transparent forwarding plus call/byte counters."""

from __future__ import annotations

import pytest

from repro.kernels import BELOW_BOUND, KernelBackend, available_backends, resolve_backend
from repro.obs.kernel_proxy import PRIMITIVES, TIMED_PRIMITIVES, InstrumentedBackend
from repro.obs.metrics import MetricsRegistry

MASKS = [0b1011, 0b0111, 0b1101, 0b0011, 0b1110]
N_BITS = 4


@pytest.fixture(params=sorted(available_backends()))
def proxied(request):
    registry = MetricsRegistry()
    backend = resolve_backend(request.param)
    return InstrumentedBackend(backend, registry), backend, registry


class TestTransparency:
    """Every primitive returns exactly what the raw backend returns."""

    def test_pack_unpack_roundtrip(self, proxied):
        proxy, raw, _ = proxied
        table = proxy.pack(MASKS, N_BITS)
        assert [proxy.table_row(table, i) for i in range(len(table))] == MASKS
        proxy.append_rows(table, [0b0001])
        assert len(table) == len(MASKS) + 1 and table.generation == 1
        selected = proxy.select_rows(table, [4, 0])
        assert [proxy.table_row(selected, i) for i in range(2)] == [0b1110, 0b1011]

    def test_scalar_and_batched_popcounts(self, proxied):
        proxy, raw, _ = proxied
        assert proxy.popcount_many(MASKS) == raw.popcount_many(MASKS)
        table = proxy.pack(MASKS, N_BITS)
        assert proxy.popcount_rows(table) == raw.popcount_rows(
            raw.pack(MASKS, N_BITS)
        )

    def test_intersection_primitives(self, proxied):
        proxy, raw, _ = proxied
        mask = 0b0110
        assert proxy.intersect_many(MASKS, mask, N_BITS) == raw.intersect_many(
            MASKS, mask, N_BITS
        )
        table = proxy.pack(MASKS, N_BITS)
        raw_table = raw.pack(MASKS, N_BITS)
        assert proxy.intersect_rows(table, mask) == raw.intersect_rows(
            raw_table, mask
        )
        assert proxy.superset_rows(table, 0b0011) == raw.superset_rows(
            raw_table, 0b0011
        )
        joint, supports = proxy.intersect_count_table_bounded(table, mask, 2, start=1)
        assert supports == raw.intersect_count_table_bounded(
            raw_table, mask, 2, start=1
        )[1]
        assert len(joint) == len(MASKS) - 1

    def test_column_and_bound_primitives(self, proxied):
        proxy, raw, _ = proxied
        assert proxy.column_counts(MASKS, N_BITS) == raw.column_counts(MASKS, N_BITS)
        table = proxy.pack(MASKS, N_BITS)
        supports = [5, 4, 3, 2, 1]
        assert proxy.superset_max_support_bounded(
            table, supports, 0b0011, 2
        ) == raw.superset_max_support_bounded(
            raw.pack(MASKS, N_BITS), supports, 0b0011, 2
        )

    def test_identity_properties_forward(self, proxied):
        proxy, raw, _ = proxied
        assert proxy.name == raw.name
        assert proxy.vectorized == raw.vectorized
        assert proxy.wrapped is raw


class TestCounting:
    def test_calls_counted_per_primitive(self, proxied):
        proxy, _, registry = proxied
        table = proxy.pack(MASKS, N_BITS)
        proxy.intersect_many(MASKS, 0b0110, N_BITS)
        proxy.intersect_many(MASKS, 0b1001, N_BITS)
        proxy.superset_rows(table, 0b0011)
        proxy.intersect_rows(table, 0b0011)
        assert registry.counter("kernel.pack.calls").value == 1
        assert registry.counter("kernel.intersect_many.calls").value == 2
        assert registry.counter("kernel.superset_rows.calls").value == 1
        assert registry.counter("kernel.column_counts.calls").value == 0
        # intersect_rows is timed: one histogram sample per call.
        assert registry.histogram("kernel.intersect_rows.seconds").count == 1

    def test_bytes_estimate_scales_with_rows(self, proxied):
        proxy, _, registry = proxied
        proxy.intersect_many(MASKS, 0b0110, N_BITS)
        touched = registry.counter("kernel.intersect_many.bytes").value
        assert touched == len(MASKS) * 8  # 4-bit masks round to one word

    def test_every_primitive_has_both_counters(self, proxied):
        _, _, registry = proxied
        snapshot = registry.snapshot()["counters"]
        for primitive in PRIMITIVES:
            assert f"kernel.{primitive}.calls" in snapshot
            assert f"kernel.{primitive}.bytes" in snapshot

    def test_foreign_table_width_probe(self, proxied):
        # A table packed OUTSIDE the proxy still gets a byte estimate
        # (via a one-off row probe) instead of crashing.
        proxy, raw, registry = proxied
        foreign = raw.pack(MASKS, N_BITS)
        proxy.popcount_rows(foreign)
        assert registry.counter("kernel.popcount_rows.calls").value == 1
        assert registry.counter("kernel.popcount_rows.bytes").value > 0


class TestGeneratedFromSpec:
    """The proxy is generated from one table that covers the whole ABI."""

    def test_spec_covers_exactly_the_kernel_interface(self):
        interface = [
            name
            for name, attr in vars(KernelBackend).items()
            if not name.startswith("_") and callable(attr)
        ]
        assert list(PRIMITIVES) == interface
        assert set(TIMED_PRIMITIVES) <= set(PRIMITIVES)
        assert "intersect_rows" in TIMED_PRIMITIVES

    def test_bounded_sentinels_feed_the_abort_pair(self, proxied):
        proxy, _, registry = proxied
        table = proxy.pack(MASKS, N_BITS)
        _, supports = proxy.intersect_count_table_bounded(table, 0b0110, 2)
        _, tail = proxy.intersect_count_table_bounded(table, 0b0110, 2, start=2)
        aborted = supports.count(BELOW_BOUND) + tail.count(BELOW_BOUND)
        assert aborted > 0
        assert registry.counter("ops.kernel.early_aborts").value == aborted
        # One-word rows: the half-split estimate skips 1 - 1 // 2 words.
        assert registry.counter("ops.kernel.words_skipped").value == aborted
