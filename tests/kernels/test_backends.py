"""Kernel backend registry, selection, and primitive parity."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    HAVE_NATIVE,
    available_backends,
    get_backend,
    resolve_backend,
    selectable_backends,
    selection_report,
)
from repro.kernels.base import KernelBackend
from repro.kernels.bitint import BitIntBackend, BitTable
from repro.kernels.numpy_packed import NumpyBackend, PackedTable

BACKENDS = [get_backend(name) for name in available_backends()]


class TestRegistry:
    def test_bitint_always_available(self):
        assert "bitint" in available_backends()

    def test_numpy_registered(self):
        assert "numpy" in available_backends()

    def test_get_backend_returns_kernel(self):
        for name in available_backends():
            kernel = get_backend(name)
            assert isinstance(kernel, KernelBackend)
            assert kernel.name == name

    def test_unknown_backend_suggests(self):
        with pytest.raises(ValueError, match="bitint"):
            get_backend("bitnit")

    def test_unknown_backend_lists_choices(self):
        with pytest.raises(ValueError, match="numpy"):
            get_backend("no-such-backend")


class TestResolve:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert resolve_backend(None).name == DEFAULT_BACKEND

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend(None).name == "numpy"

    def test_argument_overrides_env_var(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        assert resolve_backend("bitint").name == "bitint"

    def test_instance_passes_through(self):
        kernel = get_backend("numpy")
        assert resolve_backend(kernel) is kernel

    def test_bad_env_var_raises(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "fortran")
        with pytest.raises(ValueError):
            resolve_backend(None)


class TestNativeRegistry:
    """The optional native backend: registration, fallback, reporting."""

    def test_selectable_is_superset_of_available(self):
        assert set(available_backends()) <= set(selectable_backends())

    def test_native_always_selectable(self):
        # The flag/env value 'native' must stay valid on every install,
        # built extension or not — that is the graceful-degradation
        # contract of the fallback chain.
        assert "native" in selectable_backends()

    def test_native_registered_iff_extension_built(self):
        assert ("native" in available_backends()) == HAVE_NATIVE

    def test_unbuilt_native_falls_back_to_numpy(self, monkeypatch):
        """Simulate an install without the extension: silent fallback."""
        from repro import kernels

        monkeypatch.delitem(kernels._BACKENDS, "native", raising=False)
        assert kernels.get_backend("native").name == "numpy"
        assert kernels.resolve_backend("native").name == "numpy"
        report = kernels.selection_report("native")
        assert report["resolved"] == "numpy"
        assert "fell back" in report["reason"]

    def test_env_var_native_falls_back_when_unbuilt(self, monkeypatch):
        from repro import kernels

        monkeypatch.delitem(kernels._BACKENDS, "native", raising=False)
        monkeypatch.setenv(BACKEND_ENV_VAR, "native")
        assert kernels.resolve_backend(None).name == "numpy"

    def test_selection_report_default(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        report = selection_report()
        assert report["requested"] == DEFAULT_BACKEND
        assert report["source"] == "default"
        assert report["resolved"] == DEFAULT_BACKEND

    def test_selection_report_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "numpy")
        report = selection_report()
        assert report["source"].startswith("environment")
        assert report["resolved"] == "numpy"

    def test_selection_report_unknown_name_never_raises(self):
        report = selection_report("fortran")
        assert report["resolved"] is None
        assert "fortran" in report["reason"]

    @pytest.mark.skipif(not HAVE_NATIVE, reason="native extension not built")
    def test_native_backend_registered_and_slotted(self):
        kernel = get_backend("native")
        assert kernel.name == "native"
        assert not hasattr(kernel, "__dict__")


masks_strategy = st.lists(st.integers(min_value=0), min_size=0, max_size=12)


def _clip(masks, n_bits):
    limit = (1 << n_bits) - 1
    return [m & limit for m in masks]


def _rows(kernel, table):
    return [kernel.table_row(table, index) for index in range(len(table))]


class TestPrimitiveParity:
    """Every backend must compute exactly what the bitint reference does."""

    @given(
        masks=masks_strategy,
        probe=st.integers(min_value=0),
        n_bits=st.integers(1, 200),
        smin=st.integers(0, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_intersect_family(self, masks, probe, n_bits, smin):
        masks, probe = _clip(masks, n_bits), probe & ((1 << n_bits) - 1)
        ref = get_backend("bitint")
        for kernel in BACKENDS:
            assert kernel.intersect_many(masks, probe, n_bits) == ref.intersect_many(
                masks, probe, n_bits
            )
            joint, supports = kernel.intersect_count_table_bounded(
                kernel.pack(masks, n_bits), probe, smin
            )
            ref_joint, ref_supports = ref.intersect_count_table_bounded(
                ref.pack(masks, n_bits), probe, smin
            )
            assert (_rows(kernel, joint), supports) == (
                _rows(ref, ref_joint),
                ref_supports,
            )
            assert kernel.popcount_many(masks) == ref.popcount_many(masks)

    @given(masks=masks_strategy, n_bits=st.integers(1, 200), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_table_primitives(self, masks, n_bits, data):
        masks = _clip(masks, n_bits)
        ref = get_backend("bitint")
        ref_table = ref.pack(masks, n_bits)
        needle = data.draw(st.integers(0, (1 << n_bits) - 1))
        start = data.draw(st.integers(0, len(masks)))
        smin = data.draw(st.integers(0, n_bits))
        indices = (
            data.draw(st.lists(st.integers(0, len(masks) - 1), max_size=6))
            if masks
            else []
        )
        for kernel in BACKENDS:
            table = kernel.pack(masks, n_bits)
            assert _rows(kernel, table) == masks
            assert len(table) == len(masks)
            assert kernel.popcount_rows(table) == ref.popcount_rows(ref_table)
            assert kernel.intersect_rows(table, needle) == ref.intersect_rows(
                ref_table, needle
            )
            assert kernel.superset_rows(table, needle) == ref.superset_rows(
                ref_table, needle
            )
            selected = kernel.select_rows(table, indices)
            assert _rows(kernel, selected) == [masks[i] for i in indices]
            joint, supports = kernel.intersect_count_table_bounded(
                table, needle, smin, start
            )
            ref_joint, ref_supports = ref.intersect_count_table_bounded(
                ref_table, needle, smin, start
            )
            assert (_rows(kernel, joint), supports) == (
                _rows(ref, ref_joint),
                ref_supports,
            )

    @given(masks=masks_strategy, n_bits=st.integers(1, 200), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_superset_max_support(self, masks, n_bits, data):
        masks = _clip(masks, n_bits)
        supports = data.draw(
            st.lists(
                st.integers(1, 50), min_size=len(masks), max_size=len(masks)
            )
        )
        # Query beyond n_bits too: rows can never contain those bits.
        needle = data.draw(st.integers(0, (1 << (n_bits + 3)) - 1))
        expected = max(
            (s for m, s in zip(masks, supports) if needle & ~m == 0), default=0
        )
        for kernel in BACKENDS:
            table = kernel.pack(masks, n_bits)
            assert (
                kernel.superset_max_support_bounded(table, supports, needle, 1)
                == expected
            )

    @given(masks=masks_strategy, n_bits=st.integers(1, 200))
    @settings(max_examples=60, deadline=None)
    def test_column_primitives(self, masks, n_bits):
        masks = _clip(masks, n_bits)
        counts = get_backend("bitint").column_counts(masks, n_bits)
        assert counts == [
            sum(1 for m in masks if m >> bit & 1) for bit in range(n_bits)
        ]
        for kernel in BACKENDS:
            assert kernel.column_counts(masks, n_bits) == counts

    def test_empty_table(self):
        for kernel in BACKENDS:
            table = kernel.pack([], 65)
            assert len(table) == 0
            assert kernel.popcount_rows(table) == []
            assert kernel.superset_rows(table, 1) == []
            assert kernel.intersect_rows(table, 1) == []
            assert kernel.superset_max_support_bounded(table, [], 1, 1) == 0
            assert kernel.column_counts([], 65) == [0] * 65


class TestSlots:
    """Hot-path classes must stay dict-free (the ``__slots__`` audit)."""

    @pytest.mark.parametrize(
        "instance",
        [
            BitIntBackend(),
            NumpyBackend(),
            BitTable([3, 5], 4),
            PackedTable([3, 5], 4),
        ],
        ids=lambda obj: type(obj).__name__,
    )
    def test_no_instance_dict(self, instance):
        assert not hasattr(instance, "__dict__")
        with pytest.raises(AttributeError):
            instance.no_such_attribute = 1

    def test_prefix_tree_classes_slotted(self):
        from repro.core.prefix_tree import PrefixTree, PrefixTreeNode

        node = PrefixTreeNode(0, 0, 0)
        assert not hasattr(node, "__dict__")
        assert not hasattr(PrefixTree(), "__dict__")

    def test_shard_outcome_slotted(self):
        from repro.parallel import ShardOutcome

        assert not hasattr(ShardOutcome(0, "items", "ok", []), "__dict__")

    def test_node_memory_bound(self):
        """A prefix-tree node must stay a small fixed-size object."""
        import sys

        from repro.core.prefix_tree import PrefixTreeNode

        node = PrefixTreeNode(1, 2, 3)
        # 6 slots + object header: generously under 128 bytes, and far
        # under the ~296 bytes a __dict__-backed instance would cost.
        assert sys.getsizeof(node) < 128

    def test_tracemalloc_tree_growth(self):
        """Building many nodes must cost slot-sized, not dict-sized, memory."""
        import tracemalloc

        from repro.core.prefix_tree import PrefixTreeNode

        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        nodes = [PrefixTreeNode(i & 63, i, 0) for i in range(2000)]
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        per_node = (after - before) / len(nodes)
        # 6 slots (item/supp/step/children/parent/below) plus each
        # node's empty children dict; a __dict__-backed node would sit
        # well past 300 bytes here.
        assert per_node < 240, f"{per_node:.0f} bytes/node — slots audit regressed"
