"""Bounded-primitive contracts and the resident packed table.

The ``*_bounded`` kernels promise an *exact*, data-dependent contract
(see :data:`repro.kernels.base.BELOW_BOUND`): an entry whose true
support clears ``smin`` comes back identical to the unbounded call,
and an entry below the bound settles as the ``(0, BELOW_BOUND)``
sentinel — regardless of backend, early-abort strategy, or word-split
heuristics.  Hypothesis drives both backends through every bounded
form against that contract and against each other.

The second half pins the resident-table behaviour the miners rely on:
append/generation semantics, row selection, and the single-residency
memory invariant of the numpy table (packed rows and the big-int list
are never both held after materialisation — in particular not on the
append path).
"""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import available_backends, get_backend

from ..conftest import backend_kernel_params
from repro.kernels.base import BELOW_BOUND
from repro.kernels.numpy_packed import PackedTable

BACKENDS = [get_backend(name) for name in available_backends()]

N_BITS = st.integers(min_value=1, max_value=200)


@st.composite
def mask_workloads(draw):
    """A mask list, a probe mask, and a bound, over a shared bit width."""
    n_bits = draw(N_BITS)
    mask = st.integers(min_value=0, max_value=(1 << n_bits) - 1)
    masks = draw(st.lists(mask, min_size=0, max_size=24))
    probe = draw(mask)
    smin = draw(st.integers(min_value=0, max_value=n_bits + 2))
    return masks, probe, n_bits, smin


def rows_of(kernel, table):
    """A table's rows as plain ints, read through the public ABI."""
    return [kernel.table_row(table, index) for index in range(len(table))]


def reference_bounded(masks, probe, smin):
    """The contract, computed the obvious way: exact supports, then
    sentinel any entry strictly below a positive ``smin``."""
    joints = [m & probe for m in masks]
    supports = [bin(j).count("1") for j in joints]
    if smin > 0:
        for i, support in enumerate(supports):
            if support < smin:
                joints[i], supports[i] = 0, BELOW_BOUND
    return joints, supports


class TestBoundedContract:
    @pytest.mark.parametrize("kernel", backend_kernel_params())
    @given(workload=mask_workloads(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_many_matches_reference(self, kernel, workload, data):
        # A list of masks packed once, narrowed from any start row.
        masks, probe, n_bits, smin = workload
        start = data.draw(st.integers(min_value=0, max_value=len(masks)))
        table = kernel.pack(masks, n_bits)
        joints, supports = kernel.intersect_count_table_bounded(
            table, probe, smin, start=start
        )
        assert (rows_of(kernel, joints), list(supports)) == reference_bounded(
            masks[start:], probe, smin
        )

    @pytest.mark.parametrize("kernel", backend_kernel_params())
    @given(workload=mask_workloads())
    @settings(max_examples=60, deadline=None)
    def test_untriggered_bound_equals_unbounded(self, kernel, workload):
        masks, probe, n_bits, _ = workload
        joints, supports = reference_bounded(masks, probe, 0)
        # smin=0 disables the bound entirely; smin at the floor of the
        # true supports never fires the sentinel.  The table form must
        # then return the exact, unbounded intersections and supports.
        for smin in (0, min(supports, default=0)):
            table = kernel.pack(masks, n_bits)
            joint, got_supports = kernel.intersect_count_table_bounded(
                table, probe, smin
            )
            assert (rows_of(kernel, joint), list(got_supports)) == (
                joints,
                supports,
            )

    @pytest.mark.parametrize("kernel", backend_kernel_params())
    @given(workload=mask_workloads())
    @settings(max_examples=60, deadline=None)
    def test_table_form_matches_many_form(self, kernel, workload):
        masks, probe, n_bits, smin = workload
        table = kernel.pack(masks, n_bits)
        joints, supports = kernel.intersect_count_table_bounded(table, probe, smin)
        # The table form hands back a packed joint table, not the
        # mask lists ``reference_bounded`` computes.
        assert (rows_of(kernel, joints), list(supports)) == reference_bounded(
            masks, probe, smin
        )

    @pytest.mark.parametrize("kernel", backend_kernel_params())
    @given(workload=mask_workloads(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rows_form_matches_reference_on_subset(self, kernel, workload, data):
        masks, probe, n_bits, smin = workload
        table = kernel.pack(masks, n_bits)
        indices = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=max(0, len(masks) - 1)),
                max_size=len(masks),
            )
            if masks
            else st.just([])
        )
        # The Eclat composition: gather a sibling subset, then narrow it.
        subset = kernel.select_rows(table, indices)
        joints, supports = kernel.intersect_count_table_bounded(
            subset, probe, smin
        )
        expected = reference_bounded([masks[i] for i in indices], probe, smin)
        assert (rows_of(kernel, joints), list(supports)) == expected

    @given(workload=mask_workloads())
    @settings(max_examples=60, deadline=None)
    def test_cross_backend_parity_all_forms(self, workload):
        masks, probe, n_bits, smin = workload
        results = []
        for kernel in BACKENDS:
            table = kernel.pack(masks, n_bits)
            results.append(
                (
                    (
                        lambda pair: (
                            tuple(rows_of(kernel, pair[0])),
                            tuple(pair[1]),
                        )
                    )(kernel.intersect_count_table_bounded(table, probe, smin)),
                    tuple(
                        kernel.intersect_count_table_bounded(
                            table, probe, smin, start=len(masks) // 2
                        )[1]
                    ),
                )
            )
        assert all(r == results[0] for r in results[1:])


@st.composite
def superset_workloads(draw):
    n_bits = draw(st.integers(min_value=1, max_value=120))
    mask = st.integers(min_value=0, max_value=(1 << n_bits) - 1)
    rows = draw(st.lists(mask, min_size=0, max_size=24))
    supports = draw(
        st.lists(
            st.integers(min_value=0, max_value=500),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    # Bias the needle toward having supersets: intersecting two rows
    # (when available) yields a mask many rows contain.
    if rows and draw(st.booleans()):
        needle = rows[draw(st.integers(0, len(rows) - 1))] & rows[
            draw(st.integers(0, len(rows) - 1))
        ]
    else:
        needle = draw(mask)
    smin = draw(st.integers(min_value=0, max_value=500))
    return rows, supports, needle, n_bits, smin


class TestSupersetMaxSupportBounded:
    @pytest.mark.parametrize("kernel", backend_kernel_params())
    @given(workload=superset_workloads())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, kernel, workload):
        rows, supports, needle, n_bits, smin = workload
        expected = max(
            (
                supp
                for row, supp in zip(rows, supports)
                if supp >= smin and needle & ~row == 0
            ),
            default=0,
        )
        table = kernel.pack(rows, n_bits)
        assert (
            kernel.superset_max_support_bounded(table, supports, needle, smin)
            == expected
        )

    @pytest.mark.parametrize("kernel", backend_kernel_params())
    @given(workload=superset_workloads())
    @settings(max_examples=40, deadline=None)
    def test_smin_one_matches_unbounded_on_positive_supports(self, kernel, workload):
        rows, supports, needle, n_bits, _ = workload
        positive = [max(1, s) for s in supports]
        table = kernel.pack(rows, n_bits)
        unbounded = max(
            (s for row, s in zip(rows, positive) if needle & ~row == 0), default=0
        )
        assert (
            kernel.superset_max_support_bounded(table, positive, needle, 1)
            == unbounded
        )


class TestResidentTables:
    @given(workload=mask_workloads())
    @settings(max_examples=40, deadline=None)
    def test_append_and_row_access_parity(self, workload):
        masks, probe, n_bits, _ = workload
        views = []
        for kernel in BACKENDS:
            table = kernel.pack(masks[: len(masks) // 2], n_bits)
            before = table.generation
            kernel.append_rows(table, masks[len(masks) // 2 :])
            if masks[len(masks) // 2 :]:
                assert table.generation > before
            assert len(table) == len(masks)
            views.append(
                (
                    rows_of(kernel, table),
                    kernel.popcount_rows(table),
                    kernel.intersect_rows(table, probe),
                    kernel.superset_rows(table, probe),
                )
            )
        assert all(v == views[0] for v in views[1:])
        if views:
            assert views[0][0] == masks

    @given(workload=mask_workloads())
    @settings(max_examples=40, deadline=None)
    def test_select_rows_parity_across_materialisation(self, workload):
        masks, probe, n_bits, _ = workload
        if not masks:
            return
        indices = list(range(0, len(masks), 2))
        views = []
        for kernel in BACKENDS:
            table = kernel.pack(masks, n_bits)
            # Force the vectorised backend through its rows-resident
            # form before selecting — selection must not depend on
            # which residency the table happens to be in.
            kernel.popcount_rows(table)
            selected = kernel.select_rows(table, indices)
            views.append(rows_of(kernel, selected))
        assert all(v == views[0] for v in views[1:])
        assert views[0] == [masks[i] for i in indices]


class TestSingleResidency:
    """The numpy table's memory invariant (see PackedTable.rows)."""

    def setup_method(self):
        self.kernel = get_backend("numpy")

    def test_materialisation_drops_int_form(self):
        table = self.kernel.pack([3, 5, 7], 8)
        assert table._ints is not None
        self.kernel.popcount_rows(table)  # first vectorised use
        assert table._ints is None

    def test_append_keeps_exactly_one_form(self):
        table = self.kernel.pack([1, 2], 8)
        self.kernel.append_rows(table, [4])
        # Int-backed append stays int-backed: no packed array exists.
        assert table._ints is not None and table._rows is None
        self.kernel.popcount_rows(table)
        self.kernel.append_rows(table, [8, 16])
        # Rows-backed append stays rows-backed: no big-int list returns.
        assert table._ints is None and table._rows is not None
        assert rows_of(self.kernel, table) == [1, 2, 4, 8, 16]

    def test_append_path_peak_memory_is_single_form(self):
        n_bits = 4096
        row_bytes = n_bits // 8
        base = [(1 << n_bits) - 1] * 64
        table = self.kernel.pack(base, n_bits)
        self.kernel.popcount_rows(table)  # rows-resident now
        batch = [(1 << n_bits) - 1] * 512
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            self.kernel.append_rows(table, batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table._ints is None
        # The append may double the backing array (amortised growth),
        # so allow a few array-sized copies — but a path that rebuilt
        # the big-int list alongside the packed rows (double residency)
        # would hold both forms of all 576 rows and blow well past it.
        budget = 4 * (len(base) + len(batch)) * row_bytes
        assert peak - before < budget, (peak - before, budget)


def test_packedtable_from_rows_is_rows_resident():
    kernel = get_backend("numpy")
    table = kernel.pack([9, 12], 8)
    joint, _ = kernel.intersect_count_table_bounded(table, 13, 0)
    assert isinstance(joint, PackedTable)
    assert joint._ints is None
