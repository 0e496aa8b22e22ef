"""Pure Python-int kernel backend.

The seed implementation of the set algebra: arbitrary-precision ints as
bitmasks, one C-level big-int operation per primitive.  Batches are
plain Python loops — this backend exists as the always-available
reference and as the fair baseline the numpy backend is measured
against in ``benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..data.itemset import _popcount
from .base import BELOW_BOUND, KernelBackend

__all__ = ["BitIntBackend", "BitTable"]


class BitTable:
    """Packed-table form of the pure-int backend: just the mask list.

    Resident like the numpy :class:`~repro.kernels.numpy_packed.PackedTable`:
    append-friendly (list append is already amortised-doubling) and
    generation-tagged so caches holding a handle can validate it.
    """

    __slots__ = ("masks", "n_bits", "generation")

    def __init__(self, masks: List[int], n_bits: int) -> None:
        self.masks = masks
        self.n_bits = n_bits
        self.generation = 0

    def __len__(self) -> int:
        return len(self.masks)


class BitIntBackend(KernelBackend):
    """Batched set algebra over plain Python ints (reference backend)."""

    __slots__ = ()

    name = "bitint"
    vectorized = False

    # -- packed tables --------------------------------------------------

    def pack(self, masks: Sequence[int], n_bits: int) -> BitTable:
        return BitTable(list(masks), n_bits)

    # -- resident tables -------------------------------------------------

    def append_rows(self, table: BitTable, masks: Sequence[int]) -> None:
        table.masks.extend(masks)
        table.generation += 1

    def table_row(self, table: BitTable, index: int) -> int:
        return table.masks[index]

    def select_rows(self, table: BitTable, indices: Sequence[int]) -> BitTable:
        masks = table.masks
        return BitTable([masks[index] for index in indices], table.n_bits)

    def superset_rows(self, table: BitTable, mask: int) -> List[int]:
        return [
            index
            for index, row in enumerate(table.masks)
            if mask & ~row == 0
        ]

    def intersect_rows(self, table: BitTable, mask: int) -> List[int]:
        return [row & mask for row in table.masks]

    def intersect_count_table_bounded(
        self, table: BitTable, mask: int, smin: int, start: int = 0
    ) -> Tuple[BitTable, List[int]]:
        # The big-int AND runs at C speed either way; the reference
        # backend realises only the sentinel contract, not the skip.
        joints: List[int] = []
        supports: List[int] = []
        for row in table.masks[start:]:
            joint = row & mask
            support = _popcount(joint)
            if support < smin:
                joints.append(0)
                supports.append(BELOW_BOUND)
            else:
                joints.append(joint)
                supports.append(support)
        return BitTable(joints, table.n_bits), supports

    def superset_max_support_bounded(
        self, table: BitTable, supports: Sequence[int], mask: int, smin: int
    ) -> int:
        best = 0
        for row, supp in zip(table.masks, supports):
            if supp > best and supp >= smin and mask & ~row == 0:
                best = supp
        return best

    # -- batched primitives ---------------------------------------------

    def popcount_many(self, masks: Sequence[int]) -> List[int]:
        return [_popcount(mask) for mask in masks]

    def popcount_rows(self, table: BitTable) -> List[int]:
        return [_popcount(mask) for mask in table.masks]

    def intersect_many(self, masks: Sequence[int], mask: int, n_bits: int) -> List[int]:
        return [m & mask for m in masks]

    def column_counts(self, masks: Sequence[int], n_bits: int) -> List[int]:
        counts = [0] * n_bits
        for mask in masks:
            remaining = mask
            while remaining:
                low = remaining & -remaining
                counts[low.bit_length() - 1] += 1
                remaining ^= low
        return counts
